"""S-integrality scanning and the finiteness experiment.

A nonzero preperiodic point meets the base point beta at a finite prime p
exactly when both reduce to the same point of the projective line mod p:
either both are non-integral at p, or both are integral and some conjugate
is congruent to beta.  The congruence case is decided through valuations of
the conjugate norm Nm(beta - alpha), which the Galois layer delivers without
materializing anything large; whether meets exist outside the scan set S is
decided exactly, by the primitive divisors of A^n' - B^n' (Bang, Zsigmondy)
or else on one integer of the norm: R, what is left of it once the table's
primes are stripped, must be 1.
Every rule reads integer valuations, the table of one (class, beta)
record (galois.ClassNormData.table) built in one pass over S and the
primes of c0 and of beta, factored once per scan (galois.BasePoint).  The
distances read it too, shifting no polynomial at a ramified p where ord_p
W = deg ord_p beta; each place's bound is formed once per degree (and MQ
at degree 1).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import (DistanceBoundCert, class_min_log_distances,
                     distance_bound_constant)
from .errors import (EnumerationCap, FactorBudgetExceeded, InvalidConfig,
                     NotSIntegral, OverflowGuard)
from .exactreal import PosReal
from .galois import (DEGREE_CAP, BasePoint, ClassNormData, class_norm_data,
                     class_of_point, decompose_binomial_roots, norm_order)
from .orbits import is_preperiodic
from .places import INF, Place, height_rational
from .preper import collision_binomial, minimal_polynomial
from .primes import _strip, factorint, is_prime, moebius_divisors
from .radical import RadicalPoint
from .semigroup import Semigroup, Word, format_word

GATE_DEPTH = 8        # orbit depth of beta's non-preperiodicity certificate
ROOT_BUDGET = 2 * 10 ** 7   # roots walked; depth 9 of {2z^2, 3z^3} walks 19.7 M


# ---------------------------------------------------------------------------
# meets / bad primes / S-integrality


def _meets(oc: int, ob: int, ow: int) -> bool:
    """The meet rule on a row (M0 ord_p alpha, M0 ord_p beta, ord_p W)."""
    if oc < 0 or ob < 0:
        return oc < 0 and ob < 0
    if oc > 0 or ob > 0:
        return oc > 0 and ob > 0
    return ow > 0


def meets_at_prime(alpha: RadicalPoint, beta: Fraction, p: int) -> bool:
    """Whether some conjugate of alpha meets beta at p: both are
    non-integral at p, both have positive valuation, or both are units and
    p divides the class norm."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    nd = class_norm_data(class_of_point(alpha), beta)
    return _meets(*nd.table((p,))[p])


def bad_primes(alpha: RadicalPoint, beta: Fraction) -> list[int]:
    """All primes where some conjugate of alpha meets beta.

    Candidates: support primes of alpha and beta plus the primes of the
    conjugate norm Nm(beta - alpha) = minpoly(beta), each confirmed by the
    meet test.  Desk-scale only: the norm gets factored (factorint's
    FactorBudgetExceeded, and at once past 10^120).
    """
    beta = Fraction(beta)
    nd = class_norm_data(class_of_point(alpha), beta)
    value = minimal_polynomial(nd.cls.representative)(beta)
    if max(abs(value.numerator), value.denominator) > 10 ** 120:
        raise FactorBudgetExceeded("a norm value past 10^120")
    norm_primes = factorint(value.numerator).keys() | factorint(
        value.denominator).keys()
    return [p for p, row in nd.table(norm_primes).items() if _meets(*row)]


@dataclass(frozen=True)
class SIntegrality:
    s_integral: bool
    known_bad: tuple[int, ...]     # the meets at the table's primes


def class_s_integrality(nd: ClassNormData, S: list[Place]) -> SIntegrality:
    """Decide bad_primes(alpha, beta) inside S without factoring the norm,
    for alpha in the class nd.cls and beta = nd.beta, in one table pass:
    S-integral iff its meets in the table lie in S and R = 1, R what is
    left of an integer once every table prime of c0, beta or S is stripped
    from it (its other primes all meet).

    A full class, x = beta^M0 / c0 = +-A / B != +-1 in lowest terms, has
    |W(beta)| = c0^phi |Phi_n'(A, B)| / B^phi, phi = phi(n'), n' =
    galois.norm_order(q', x).  If n' > 2, (n', AB) != (6, 2) and no p in S
    is 1 mod n', a primitive prime p of A^n' - B^n' (Bang 1886, Zsigmondy
    1892) divides Phi_n'(A, B), not AB, and is 1 mod n', so not in S; as
    ord_p x = 0, p is a unit of both with ord_p W > 0 or has ord_p c0 =
    M0 ord_p beta != 0: a meet outside S.  Else R is taken on integers,
    from |Phi_n'(A, B)| = prod |A^(n'/d) - B^(n'/d)|^mu(d), whose primes
    off the table are those of W, or from the numerator of a twin's or
    x = +-1's exact nd.value.  OverflowGuard before pieces of n' 2^omega(n')
    times max(A, B)'s bits could pass 10^8, the budget of
    PosReal._power_ints.  S may be the frozenset of its finite primes."""
    s_primes = S if isinstance(S, frozenset) else {v.p for v in S if v.p}
    A, B = abs(nd.x.numerator), nd.x.denominator
    n = norm_order(nd.cls.qprime, nd.x)
    if nd.value is not None:
        rest = abs(nd.value.numerator)
    elif n > 2 and (n, A * B) != (6, 2) and all((p - 1) % n for p in s_primes):
        rest = 0                      # a primitive prime meets outside S
    else:
        pieces, ints = moebius_divisors(n), [1, 1]
        if n * len(pieces) * max(A, B).bit_length() > 10 ** 8:
            raise OverflowGuard("an exact class norm past the 10^8-bit budget")
        for d, mu in pieces:
            ints[mu < 0] *= abs(A ** (n // d) - B ** (n // d))
        rest = ints[0] // ints[1]     # |Phi_n'(A, B)|
    known_bad = []
    for p, (oc, ob, ow) in nd.table(s_primes).items():
        if oc or ob or p in s_primes:
            if _meets(oc, ob, ow):
                known_bad.append(p)
            if rest and rest % p == 0:
                rest = _strip(rest, p)[0]
    s_integral = rest == 1 and all(p in s_primes for p in known_bad)
    return SIntegrality(s_integral, tuple(known_bad))


def is_S_integral(alpha: RadicalPoint, beta: Fraction, S: list[Place]) -> bool:
    return class_s_integrality(
        class_norm_data(class_of_point(alpha), beta), S).s_integral


# ---------------------------------------------------------------------------
# Gamma = averaged sum over places and conjugates of log|sigma(alpha) - beta|


@dataclass(frozen=True)
class GammaReport:
    """The Gamma table of one class: the archimedean row, the mean of
    ClassNormData.arch() over the fibers of the phi(q') residues, one row
    per support prime and an `outside` row for the rest, both from the
    closed-form valuations and log of the class norm.  The residual, the sum
    of the rows, is the check between the archimedean row and the norm."""

    table: tuple[tuple[str, float], ...]
    residual: float


def gamma_sum(alpha: RadicalPoint, beta: Fraction) -> GammaReport:
    return class_gamma(class_norm_data(class_of_point(alpha), beta))


def class_gamma(nd: ClassNormData) -> GammaReport:
    """The Gamma table of the class nd.cls at beta = nd.beta."""
    degree = nd.cls.degree
    rows = [("inf", nd.arch()[0])]
    leftover = nd.log_w()
    for p, (oc, ob, ow) in nd.table().items():
        if oc or ob:                    # the support of alpha and beta
            log_p = math.log(p)
            leftover -= ow * log_p
            rows.append((str(p), -ow / degree * log_p))
    leftover /= degree
    if leftover:
        rows.append(("outside", -leftover))
    residual = sum(v for _, v in rows)
    return GammaReport(tuple(rows), residual)


@dataclass(frozen=True)
class GammaDecomposition:
    s_part: float
    non_s_part: float
    non_s_exact: tuple[tuple[int, Fraction], ...]   # (p, -min(ord a, ord b))
    residual: float
    height_witness: float       # sum over all places of log max(|alpha|, |beta|)


def gamma_decomposition(alpha: RadicalPoint, beta: Fraction,
                        S: list[Place]) -> GammaDecomposition:
    beta = Fraction(beta)
    nd = class_norm_data(class_of_point(alpha), beta)
    if not class_s_integrality(nd, S).s_integral:
        raise NotSIntegral("decomposition requires S-integrality")
    s_primes = {v.p for v in S if not v.is_archimedean}
    non_s_terms = []
    witness = max(alpha.modulus, PosReal.of(beta)).log()
    table = nd.table(s_primes)
    for p, (oc, ob, _) in table.items():
        m = Fraction(min(oc, ob), nd.cls.M0)    # min(ord_p alpha, ord_p beta)
        witness += -float(m) * math.log(p)
        if m and p not in s_primes:
            non_s_terms.append((p, -m))
    non_s = float(sum(float(e) * math.log(p) for p, e in non_s_terms))
    s_part = nd.arch()[0]
    for p in sorted(s_primes):
        s_part += -table[p][2] / nd.cls.degree * math.log(p)
    return GammaDecomposition(s_part, non_s, tuple(non_s_terms),
                              s_part + non_s, witness)


# ---------------------------------------------------------------------------
# scan driver


@dataclass
class ScanConfig:
    semigroup: Semigroup
    S: list[Place]
    beta: Fraction
    max_wordlen: int
    tol: float = 1e-9
    node_cap: int = 10 ** 7     # verdicts, i.e. classes

    def validate(self):
        if INF not in self.S:
            raise InvalidConfig("S must contain the archimedean place")
        if len(set(self.S)) < len(self.S):
            raise InvalidConfig("the places of S must be distinct")
        if self.beta == 0:
            raise InvalidConfig("beta must be nonzero")
        if self.max_wordlen < 1:
            raise InvalidConfig("max_wordlen must be >= 1")
        if self.node_cap < 1:
            raise InvalidConfig("node_cap must be >= 1")
        if not self.tol > 0:
            raise InvalidConfig("tol must be > 0")


@dataclass
class ClassVerdict:
    point: RadicalPoint
    degree: int
    word: Word
    prefix: int
    s_integral: bool
    bad_primes: tuple[int, ...]
    gamma_residual: float
    distance_checks: tuple[tuple[str, bool], ...]
    discrepancy: float
    progressions: int
    certified = True    # every verdict is exact; schema monodyn/1 keeps it

    def to_json(self) -> dict:
        d = self.point.to_json()
        d.update({
            "degree": self.degree,
            "witness": [format_word(self.word), self.prefix],
            "word_length": len(self.word),
            "s_integral": self.s_integral,
            "bad_primes": list(self.bad_primes),
            "certified": self.certified,
            "gamma_residual": self.gamma_residual,
            # always true: the norm is rational, so the product formula is
            # an exponent identity; schema monodyn/1 keeps the key
            "gamma_exact": True,
            "distance_checks": [[v, ok] for v, ok in self.distance_checks],
            "discrepancy": self.discrepancy,
            "progressions": self.progressions,
        })
        return d


@dataclass
class ScanReport:
    config: ScanConfig
    beta_certificate: str
    verdicts: list[ClassVerdict]
    zero_infinity_note: dict
    class_counts: dict[int, int]
    point_counts: dict[int, int]
    s_integral_class_counts: dict[int, int]
    s_integral_point_counts: dict[int, int]
    stabilization: bool
    max_s_integral_degree: int
    truncated: bool
    notes: list[str] = field(default_factory=list)

    @property
    def s_integral_classes(self) -> int:
        return sum(self.s_integral_class_counts.values())

    @property
    def s_integral_points(self) -> int:
        return sum(self.s_integral_point_counts.values())

    def to_json(self) -> dict:
        return {
            "schema": "monodyn/1",
            "disclaimer": ("finiteness is demonstrated by stabilization at "
                           "desk scale; the proved uniform constant is far "
                           "beyond enumeration"),
            "semigroup": self.config.semigroup.to_json(),
            "S": [0 if v.is_archimedean else v.p for v in self.config.S],
            "beta": str(self.config.beta),
            "max_wordlen": self.config.max_wordlen,
            "tol": self.config.tol,
            "quadrature_nodes": 1 << 12,    # no scan reads it; monodyn/1 keeps it
            "node_cap": self.config.node_cap,
            "degree_cap": DEGREE_CAP,       # no scan reads it; monodyn/1 keeps it
            "beta_certificate": self.beta_certificate,
            "zero_infinity": self.zero_infinity_note,
            "verdicts": [v.to_json() for v in self.verdicts],
            **{key: {str(k): v for k, v in sorted(getattr(self, key).items())}
               for key in ("class_counts", "point_counts",
                           "s_integral_class_counts",
                           "s_integral_point_counts")},
            "s_integral_classes": self.s_integral_classes,
            "s_integral_points": self.s_integral_points,
            "stabilization": self.stabilization,
            "max_s_integral_degree": self.max_s_integral_degree,
            "truncated": self.truncated,
            "notes": self.notes,
        }


def _scan_distance_checks(nd: ClassNormData,
                          certs: list[tuple[Place, DistanceBoundCert]],
                          h_beta: float, bounds: dict):
    """(place, ok) rows of the class nd.cls at beta = nd.beta, whose height
    is h_beta: class_min_log_distances against each certificate's bound.
    bounds keeps a scan's (place name, -bound) rows by (degree, MQ), MQ
    put at 2 past degree 1, where no bound reads it."""
    cls = nd.cls
    key = cls.degree, 2 if cls.degree > 1 else max(
        2, cls.M0 * cls.first_angle.denominator)
    rows = bounds.get(key)
    if rows is None:
        rows = bounds[key] = tuple((str(v), -cert.bound(h_beta, *key))
                                   for v, cert in certs)
    observed = class_min_log_distances(nd, [v for v, _ in certs])
    return tuple([(name, obs > low)
                  for (name, low), obs in zip(rows, observed)])


def zero_infinity_verdict(beta: Fraction, S: list[Place]) -> dict:
    """The always-preperiodic fixed points of the chart, reported separately."""
    s_primes = {v.p for v in S if not v.is_archimedean}
    beta = beta if isinstance(beta, BasePoint) else BasePoint(beta)
    out = {}
    for point, sign in (("zero", 1), ("infinity", -1)):
        bad = [p for p, e in beta.exponents.items() if e * sign > 0]
        out[point] = {"bad_primes": bad,
                      "s_integral": all(p in s_primes for p in bad)}
    return out


class _ClassTable:
    """The class stream of one semigroup as read so far.  rows holds what
    stream, the suspended walk, has yielded: (cls, w, m) for each class once
    with its first witness in (|w|, lex, m) order, and None after the last
    pair of each word length; once the walk ends, its EnumerationCap or
    OverflowGuard is the last row.  walked counts the roots walked; orders
    maps k to run_scan's report order of the first k classes.
    The walk holds G: a cycle through G._memo, which the collector frees."""

    def __init__(self, limits: tuple[int, int], G: Semigroup):
        self.limits = limits          # (ROOT_BUDGET, int-to-text digit limit)
        self.rows: list = []
        self.walked = 0
        self.orders: dict[int, list[int]] = {}
        self.stream = self._walk(G)

    def _walk(self, G: Semigroup):
        """The rows; EnumerationCap before walked would pass ROOT_BUDGET."""
        seen = set()
        for length in itertools.count(1):
            for w in itertools.product(range(G.s), repeat=length):
                for m in range(length):
                    cb = collision_binomial(G, w, m)
                    if self.walked + cb.N > ROOT_BUDGET:
                        raise EnumerationCap(f"root budget {ROOT_BUDGET} "
                                             f"reached at |w| = {length}")
                    classes = decompose_binomial_roots(cb.N, cb.a)
                    self.walked += cb.N
                    for cls in classes:
                        if cls.key not in seen:
                            seen.add(cls.key)
                            yield cls, w, m
            yield None


def word_pair_classes(G: Semigroup, n_max: int):
    """Each class of nonzero preperiodic points from word pairs of length
    <= n_max once, as (class, w, m) with its first witness in (|w|, lex, m)
    order.  EnumerationCap once the binomials walked pass ROOT_BUDGET roots
    in all: a bound on the work, which repeated classes also cost; what a
    consumer emits it caps through capped_classes.

    G keeps its stream for as long as the object lives, in G._memo: the
    classes read so far, with any angles they have cached (about 1.2 KB a
    class without them), the suspended walk, the roots walked and, as its
    last row, the exception that ended the stream, if one did.  A later
    call replays the rows and resumes the walk (collision binomial and
    decomposition) only past the last pair an earlier call read, so scans
    of G at many base points walk each pair once.  A reader holds the rows
    and its index, and reads G._memo again only when it runs past the rows
    it holds.  Any other exception from the walk (FactorBudgetExceeded, an
    interrupt) drops the stream, and the next row needed past the end, by
    any reader, grows it again from the first pair.  The stream is rebuilt
    when ROOT_BUDGET or Python's int-to-text digit limit differs from the
    one it was grown under.  Equal semigroups built apart do not share it."""
    if n_max < 1:
        raise InvalidConfig("n_max must be >= 1")
    limits = (ROOT_BUDGET, sys.get_int_max_str_digits())
    rows: list = []
    i = ends = 0
    while True:
        if i == len(rows):
            table = G._memo.get("classes")
            if table is None or table.limits != limits:
                table = G._memo["classes"] = _ClassTable(limits, G)
            rows = table.rows
            while i >= len(rows):
                try:
                    rows.append(next(table.stream))
                except (EnumerationCap, OverflowGuard) as exc:
                    rows.append(exc)
                except BaseException:     # a generator cannot resume
                    G._memo.pop("classes", None)
                    raise
        row = rows[i]
        i += 1
        if type(row) is tuple:
            yield row
        elif row is None:
            ends += 1
            if ends == n_max:
                return
        else:
            raise row.with_traceback(None)


def capped_classes(G: Semigroup, n_max: int, cap: int,
                   weight=lambda cls: cls.degree):
    """word_pair_classes, EnumerationCap before the classes passed on weigh
    more than cap in all (by default their degrees: the points they hold)."""
    total = 0
    for cls, w, m in word_pair_classes(G, n_max):
        total += weight(cls)
        if total > cap:
            raise EnumerationCap(f"node cap {cap} reached at |w| = {len(w)}")
        yield cls, w, m


def run_scan(config: ScanConfig) -> ScanReport:
    """Verdicts for every class of word_pair_classes, of any degree, each
    with its discrepancy and distance checks.  Before a verdict past
    config.node_cap, or once the stream spends its ROOT_BUDGET, it stops
    with the classes done so far, marked truncated."""
    config.validate()
    G = config.semigroup
    beta = Fraction(config.beta)
    status = is_preperiodic(G, RadicalPoint.from_rational(beta), GATE_DEPTH)
    if status.tag != "not_preperiodic":
        raise InvalidConfig(
            f"beta = {beta} lacks a non-preperiodicity certificate "
            f"(status {status.tag}); refusing to scan")
    point, s_primes = BasePoint(beta), frozenset(v.p for v in config.S if v.p)
    certs = [(v, distance_bound_constant(G, v)) for v in config.S]
    h_beta = height_rational(beta)
    bounds: dict = {}
    verdicts: list[ClassVerdict] = []
    truncated = False
    notes: list[str] = []
    try:
        for cls, w, m in capped_classes(G, config.max_wordlen,
                                        config.node_cap, lambda cls: 1):
            nd = class_norm_data(cls, point)
            integ = class_s_integrality(nd, s_primes)
            gamma = class_gamma(nd)
            dist = _scan_distance_checks(nd, certs, h_beta, bounds)
            if abs(gamma.residual) > config.tol:
                truncated = True
                notes.append(f"gamma residual {gamma.residual:.2e} above tol "
                             f"at degree {cls.degree}")
            verdicts.append(ClassVerdict(
                cls.representative, cls.degree, w, m,
                integ.s_integral, integ.known_bad, gamma.residual, dist,
                float(cls.discrepancy), cls.progressions()))
    except EnumerationCap as exc:
        truncated = True
        notes.append(str(exc))
    orders, k = G._memo["classes"].orders, len(verdicts)
    if k not in orders:               # the order of k classes, free of beta
        orders[k] = _verdict_order(verdicts)
    verdicts = [verdicts[i] for i in orders[k]]
    si = [v for v in verdicts if v.s_integral]
    si_classes = _by_length(si)
    last = config.max_wordlen
    stab = not (truncated or si_classes.get(last) or si_classes.get(last - 1))
    return ScanReport(config, status.certificate or "", verdicts,
                      zero_infinity_verdict(point, config.S),
                      _by_length(verdicts), _by_length(verdicts, True),
                      si_classes, _by_length(si, True), stab,
                      max((v.degree for v in si), default=0), truncated, notes)


def _verdict_order(verdicts: list[ClassVerdict]) -> list[int]:
    """The permutation sorting the verdicts by (degree, point.key()) on
    integers: each modulus exponent times the lcm L of the M0 (the exponents'
    denominators) and each angle times the lcm T of the angle denominators,
    a scale by a positive constant that keeps the order."""
    L = math.lcm(*(v.point.modulus.radical_form()[1] for v in verdicts))
    T = math.lcm(*(v.point.angle.denominator for v in verdicts))

    def key(v: ClassVerdict):
        mod, t = v.point.key()
        return (v.degree,
                tuple((p, e.numerator * (L // e.denominator)) for p, e in mod),
                t.numerator * (T // t.denominator))
    return sorted(range(len(verdicts)), key=lambda i: key(verdicts[i]))


def _by_length(verdicts: list[ClassVerdict], points=False) -> dict[int, int]:
    """Classes, or their points, per first word length."""
    out: dict[int, int] = {}
    for v in verdicts:
        L = len(v.word)
        out[L] = out.get(L, 0) + (v.degree if points else 1)
    return out


def report_to_csv(report: ScanReport) -> str:
    lines = ["c,M,t,degree,word,prefix,s_integral,bad_primes,gamma_residual,"
             "discrepancy"]
    for v in report.verdicts:
        d = v.point.to_json()
        lines.append(",".join([
            d["c"], str(d["M"]), d["t"], str(v.degree),
            '"' + format_word(v.word) + '"', str(v.prefix),
            str(v.s_integral).lower(),
            '"' + " ".join(map(str, v.bad_primes)) + '"',
            f"{v.gamma_residual:.3e}",
            f"{v.discrepancy:.6f}",
        ]))
    return "\n".join(lines) + "\n"
