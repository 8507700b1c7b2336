"""Galois orbits of radical points, class polynomials and class norms.

Setting: a point zeta * rho with rho = c0^(1/M0) > 0 in canonical form
(c0 > 0 rational, M0 minimal) and zeta = e^(2 pi i t).  Every conjugate is
another root-of-unity multiple of rho, so orbits are computed inside the
Galois field F = Q(zeta_L, rho): its automorphisms are the pairs
(k in (Z/L)^x, m in Z/M0) acting by zeta_L -> zeta_L^k, rho -> zeta_M0^m rho.

All pairs occur, except that when M0 is even and sqrt(c0) lies in Q(zeta_L)
(its conductor f, from entanglement alone, divides L) the single constraint
(-1)^m = chi(k) applies, with chi the quadratic character of Q(sqrt(c0)).
This is complete: the canonical form forces X^M0 - c0 irreducible, and the
maximal abelian subfield of Q(rho) is Q(sqrt(c0)) for even M0 and Q for odd
M0, so no deeper entanglement with the cyclotomic part is possible.

Classes in closed form: all pairs act transitively on the q'-set of angles
t whose e^(2 pi i M0 t) has order q', t = (r + m q') / (M0 q') with r prime
to q'.  Under the constraint (conductor f) a q'-set is two genuine twins
iff f | 2q' and (q' odd or chi(1 + q') = -1), told apart by the chi-sign of
r mod 2q' that picks their Aurifeuillian factor below; otherwise it is one
class, equal to its own 1/M0-shifted twin.  So a class is the integer key
(c0, M0, q', twin sign): X^N = a lists its classes from the divisors of
N / M0, and the per-class work runs over the phi(q') residues r; the angles
are built only when asked for.

Class polynomials: multiplying out the m-fibers (prod_m (X - zeta_M0^m y)
= X^M0 - y^M0) and collapsing the k-sum to primitive q'-th roots gives
W(X) = c0^phi(q') Phi_{q'}(X^M0 / c0), with Phi_{q'} the integer Moebius
product of the X^(q'/d) - 1 over primes.moebius_divisors(q'), built once
by cyclotomic_radical_polynomial.  W is monic of degree M0 phi(q'), the
minimal polynomial of every class of that full degree: cyclotomic
(M0 = 1), real radical, plain, and entangled classes equal to their own
1/M0-shifted twin.  Only a genuine twin (degree
M0 phi(q')/2) is a proper factor of W: with c0 = d s^2, d squarefree, it is
one of the two Aurifeuillian factors of d^phi(q') Phi_{q'}(y^2 / d) at
y = X^(M0/2) / s, built exactly from Gauss-sum power sums; d is read back
from the conductor the twin holds.

Class norms: one ClassNormData per (class, beta) holds the local terms of
|Nm(beta - alpha)| = |f(beta)|, f the class polynomial, each computed once;
its valuations are integers.  For a full class that is W(beta), whose
valuation at p is closed-form in v = ord_p(x) = M0 ord_p(beta) - ord_p(c0)
(x = beta^M0 / c0, ord_p(c0) = M0 ord_p(alpha)) and, for a p-unit x, in the
order of x mod p: it is read from the numerator and denominator of the
held x, never from a materialized W(beta).  A genuine twin's norm is the value
r^phi B(beta^(M0/2) / r) of its Aurifeuillian factor, r = (twin sign) s,
by integer Horner: no class polynomial is built on the norm path, so it
has no degree cap.  A zero norm (beta in the orbit) is rejected once, when
the norm data is built.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import BetaIsConjugate, DegreeCapExceeded, ZeroInput
from .exactreal import PosReal
from .places import _log_fraction, _log_int
from .polynomials import UniPoly, cyclotomic_poly
from .primes import (divisors, euler_phi, factor_fraction, factorint,
                     kronecker, moebius_divisors, ord_p, power_product,
                     quadratic_conductor)
from .radical import RadicalPoint
from .semigroup import check_printable

DEGREE_CAP = 512

# ---------------------------------------------------------------------------
# unit group generators


@lru_cache(maxsize=None)
def unit_group_generators(n: int) -> tuple[int, ...]:
    """Generators of (Z/n)^x, assembled from prime-power parts by CRT."""
    if n <= 2:
        return ()
    gens = []
    for p, e in factorint(n).items():
        q = p ** e
        rest = n // q
        if p == 2:
            if e == 1:
                locals_ = []
            elif e == 2:
                locals_ = [3]
            else:
                locals_ = [q - 1, 5]
        else:
            locals_ = [_primitive_root_mod_pk(p, e)]
        for g in locals_:
            # lift to x = g mod q, x = 1 mod rest
            inv = pow(rest % q, -1, q)
            gens.append((1 + rest * ((g - 1) * inv % q)) % n)
    return tuple(g for g in gens if g % n != 1)


def _primitive_root_mod_pk(p: int, e: int) -> int:
    g = _primitive_root_mod_p(p)
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _primitive_root_mod_p(p: int) -> int:
    fac = list(factorint(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
        g += 1


# ---------------------------------------------------------------------------
# conjugacy classes of the roots of X^N - a


def _twin_sign(r: int, q: int, f: int) -> int:
    """The chi-sign of residue r = M0 t q' (mod 2q') in a genuine-twin
    q'-set: the class of t is a root set of B(sign * y), y = sqrt(d)
    e^(pi i r / q')."""
    r %= 2 * q
    return kronecker(f, r) if r % 2 else -kronecker(f, r + q)


@lru_cache(maxsize=1024)
def _residues(q: int, f: int, sign: int) -> tuple[int, ...]:
    """The residues r = M0 t q' of a class's angles t over one period: the
    r mod q' prime to q' for a whole q'-set (sign 0), and those of the twin
    sign among the r mod 2q' prime to q' for a genuine twin."""
    if not sign:
        return tuple(r for r in range(q) if math.gcd(r, q) == 1)
    return tuple(r for r in range(2 * q)
                 if math.gcd(r, q) == 1 and _twin_sign(r, q, f) == sign)


@lru_cache(maxsize=1024)
def _squares(rs: tuple[int, ...], P: int, cos: bool) -> tuple[float, ...]:
    """trig(pi r / P)^2 over the residues rs, trig = cos or sin: the fiber
    terms of ClassNormData.arch, one tuple per residue set."""
    trig = math.cos if cos else math.sin
    return tuple(trig(math.pi * (r / P)) ** 2 for r in rs)


@dataclass(frozen=True)
class ConjugacyClass:
    """A Galois orbit of roots of a rational binomial X^N = a, fixed by
    key: its angles are t = (r + m P) / (M0 q'), r over residues() mod the
    period P (q', or 2q' for a genuine twin), m < M0 q' / P, built on first
    use."""

    modulus: PosReal              # shared by every root, c0^(1/M0)
    c0: Fraction                  # canonical radicand of the modulus
    M0: int                       # canonical radical index
    qprime: int                   # order of e^(2 pi i M0 t)
    sign: int                     # twin sign of a genuine twin, else 0
    # entanglement(modulus, M0) when it divides the class's own level
    # M0 lcm(2, q'), that of its minimal rational binomial; else 0
    conductor: int

    @property
    def entangled(self) -> bool:
        return self.conductor > 0

    @cached_property
    def key(self) -> tuple[int, int, int, int, int]:
        """(numerator and denominator of c0, M0, q', sign): the class's
        identity as ints, equal for two classes exactly when their
        (c0, M0, q', sign) are."""
        return (self.c0.numerator, self.c0.denominator, self.M0, self.qprime,
                self.sign)

    @property
    def period(self) -> int:
        return 2 * self.qprime if self.sign else self.qprime

    def residues(self) -> tuple[int, ...]:
        return _residues(self.qprime, self.conductor if self.sign else 0,
                         self.sign)

    @cached_property
    def degree(self) -> int:
        full = self.M0 * euler_phi(self.qprime)
        return full // 2 if self.sign else full

    @cached_property
    def first_angle(self) -> Fraction:
        """The least angle, from the least residue."""
        return Fraction(self.residues()[0], self.M0 * self.qprime)

    @cached_property
    def angles(self) -> tuple[Fraction, ...]:
        """The sorted orbit angles, len = degree."""
        P, den = self.period, self.M0 * self.qprime
        rs = self.residues()
        return tuple(Fraction(r + m * P, den)
                     for m in range(den // P) for r in rs)

    @cached_property
    def representative(self) -> RadicalPoint:
        return RadicalPoint(self.modulus, self.first_angle)

    @cached_property
    def c0_exponents(self) -> dict[int, int]:
        """ord_p(c0) at the primes of c0 = modulus^M0, as ints."""
        return {p: int(e * self.M0) for p, e in self.modulus.exps.items()}

    @cached_property
    def discrepancy(self) -> Fraction:
        """The circle discrepancy of the angles, without them: they are K
        copies t = (r / P + m) / K of the residue set {r / P}, with 1/K of
        its discrepancy."""
        rs = self.residues()
        return _discrepancy(rs, self.period) / (self.degree // len(rs))

    @cached_property
    def log_w_plan(self) -> tuple[float, tuple[tuple[int, int], ...]]:
        """(phi(q') log c0, moebius_divisors(q')): log_w's part free of beta."""
        return (euler_phi(self.qprime) * _log_fraction(self.c0),
                moebius_divisors(self.qprime))

    def arch_plan(self, negative: bool) -> tuple:
        """arch()'s class terms for beta of that sign, once per sign: log rho,
        the fiber terms and trig(pi v / D)^2 at the nearest angle v / D."""
        key = "_arch_neg" if negative else "_arch_pos"
        if key not in self.__dict__:
            rs, P, D = self.residues(), self.period, self.M0 * self.qprime
            v = rs[0]
            if negative:
                base, off = divmod(-(-D // 2), P)
                i = bisect.bisect_left(rs, off)
                v = base * P + rs[i] if i < len(rs) else (base + 1) * P + rs[0]
            self.__dict__[key] = (self.modulus.log(), _squares(
                rs, P, negative and self.degree // len(rs) % 2),
                (math.cos if negative else math.sin)(math.pi * (v / D)) ** 2)
        return self.__dict__[key]

    def progressions(self) -> int:
        """Number of step-1/M0 arithmetic progressions forming the angles:
        the distinct residues M0 t mod 1, which are the phi(q') fractions of
        exact order q'."""
        return euler_phi(self.qprime)


def _discrepancy(ks, L: int) -> Fraction:
    """The discrepancy of the angles k_j / L, ks sorted integers in [0, L):
    1/n + (max - min of j L - n k_j) / (n L), unchanged when ks and L are
    scaled by a common factor."""
    n = len(ks)
    u = [j * L - n * k for j, k in enumerate(ks)]
    return Fraction(L + max(u) - min(u), n * L)


def entanglement(modulus: PosReal, M0: int) -> int:
    """Conductor f of Q(sqrt(c0)), c0 = modulus^M0, when M0 is even and
    sqrt(c0) irrational; 0 otherwise: the one derivation of f and of the
    kernel d of c0, the product of the p with ord_p c0 = M0 e_p odd, an
    integer as the denominator of each exponent e_p of the modulus divides
    M0 (a twin reads d back from f).  sqrt(c0) is entangled with zeta_L
    exactly when f | L."""
    # odd M0 or sqrt(c0) rational: the m-parity is free, no constraint
    d = 1 if M0 % 2 else math.prod(p for p, e in modulus.exps.items()
                                   if e.numerator * (M0 // e.denominator) % 2)
    return 0 if d == 1 else quadratic_conductor(d)


def _qprime_set(modulus: PosReal, c0: Fraction, M0: int, q: int,
                f: int) -> tuple[ConjugacyClass, ...]:
    """The classes of one q'-set, for the radical's conductor f =
    entanglement(modulus, M0): one class, or two genuine twins of signs
    (1, -1) when f | 2q' and (q' odd or chi(1 + q') = -1).  A class keeps f
    only when f divides its own level M0 lcm(2, q') = 2 n0, that of the
    orbit's minimal rational binomial X^n0 = a0, so its record does not
    depend on the binomial that listed it; 2q' divides that level."""
    if f and M0 * math.lcm(2, q) % f:
        f = 0
    twins = f and 2 * q % f == 0 and (q % 2 or kronecker(f, 1 + q) == -1)
    return tuple(ConjugacyClass(modulus, c0, M0, q, sign, f)
                 for sign in ((1, -1) if twins else (0,)))


_decompose_cache: dict[tuple[int, Fraction], list] = {}


def decompose_binomial_roots(N: int, a: Fraction) -> list[ConjugacyClass]:
    """Conjugacy classes of the N roots of X^N = a (N >= 1, a != 0), sorted
    by first angle, on the integers first_angle * 2N = r0 * 2n / q' (r0 the
    least residue): classes of one binomial have disjoint angles, so the
    order is strict.  With e_p the exponents of |a| and n = gcd(N, e_p ...),
    |a|^(1/N) has the radical form c0 = prod p^(e_p / n), M0 = N / n, and
    the conductor f = entanglement(modulus, M0) of Q(sqrt(c0)) (0 for odd
    M0 or rational sqrt(c0)).  M0 t has order q' = 2n / gcd(num, 2n)
    at t = num / 2N (num even for a > 0, odd for a < 0): q' | n for a > 0,
    2n / g for odd g | n for a < 0.  _qprime_set gives each q'-set's
    classes, with f taken at the class's level M0 lcm(2, q').  OverflowGuard
    when c0 cannot be printed, read off its integers."""
    a = Fraction(a)
    if N < 1 or a == 0:
        raise ZeroInput("binomial needs N >= 1 and a != 0")
    cached = _decompose_cache.get((N, a))
    if cached is not None:
        check_printable(cached[0].c0)   # the digit limit may have dropped
        return cached
    exps = factor_fraction(a)
    n = math.gcd(N, *exps.values())
    M0 = N // n
    num, den = power_product((p, e // n) for p, e in exps.items())
    check_printable(max(num, den))      # the longer side decides
    c0 = Fraction(num, den)
    modulus = PosReal.of_radical({p: Fraction(e, N) for p, e in exps.items()},
                                 c0, M0)
    f = entanglement(modulus, M0)
    qs = divisors(n) if a > 0 else \
        [2 * n // g for g in divisors(n // (n & -n))]     # g | n odd
    out = sorted((cls for q in qs
                  for cls in _qprime_set(modulus, c0, M0, q, f)),
                 key=lambda c: c.residues()[0] * (2 * n // c.qprime))
    if len(_decompose_cache) > 4096:
        _decompose_cache.clear()
    _decompose_cache[(N, a)] = out
    return out


def class_of_point(x: RadicalPoint) -> ConjugacyClass:
    """The Galois orbit of a radical point: the class of its q'-set
    (_qprime_set, q' the order of e^(2 pi i M0 t)) that holds its angle,
    picked by its twin sign when the q'-set is two genuine twins."""
    c0, M0 = x.modulus.radical_form()
    r = M0 * x.angle
    q = r.denominator
    classes = _qprime_set(x.modulus, c0, M0, q, entanglement(x.modulus, M0))
    if len(classes) == 1:
        return classes[0]
    return classes[_twin_sign(r.numerator, q, classes[0].conductor) < 0]


def twin_class(cls: ConjugacyClass) -> ConjugacyClass:
    """The 1/M0-angle-shifted partner orbit (entangled case): the shift
    moves each residue r to r + q', which flips the sign of a genuine twin
    and keeps any other class."""
    return replace(cls, sign=-cls.sign)


# ---------------------------------------------------------------------------
# class polynomials


def class_polynomial(cls: ConjugacyClass,
                     degree_cap: int = DEGREE_CAP) -> UniPoly:
    """The monic minimal polynomial shared by the points of the class, exact.

    Both kinds are r^n B(X^k / r) for a monic integer B of degree n, built
    coefficient by coefficient: W = c0^phi(q') Phi_{q'}(X^M0 / c0) for a
    class of full degree M0 phi(q') (cyclotomic_radical_polynomial at
    k = M0), and for a genuine twin one Aurifeuillian factor of W (B and r
    from _twin_factor, k = M0 / 2).
    DegreeCapExceeded past degree_cap, before anything is computed.
    """
    if cls.degree > degree_cap:
        raise DegreeCapExceeded(f"degree {cls.degree} exceeds cap {degree_cap}")
    if cls.sign:
        B, r = _twin_factor(cls)
        return radical_polynomial(B, r, cls.M0 // 2)
    return cyclotomic_radical_polynomial(cls.qprime, cls.c0, cls.M0)


@lru_cache(maxsize=1024)
def cyclotomic_radical_polynomial(q: int, c0: Fraction, k: int) -> UniPoly:
    """c0^phi(q) Phi_q(X^k / c0), kept for the scans at other base points: a
    full class's polynomial at k = M0, that of its (M0/k)-th powers below."""
    return radical_polynomial(cyclotomic_poly(q).coeffs, c0, k)


def radical_polynomial(B, r: Fraction, k: int) -> UniPoly:
    """r^n B(X^k / r) for B = (B_0, ..., B_n), low to high."""
    n = len(B) - 1
    return UniPoly.from_coeffs([c * r ** (n - i) for i, c in enumerate(B)]) \
        .compose_monomial(k)


def _twin_factor(cls: ConjugacyClass) -> tuple[tuple[int, ...], Fraction]:
    """(B, r) of a genuine twin: its class polynomial is r^phi B(X^(M0/2) / r).

    With c0 = d s^2 (d squarefree) and y = X^(M0/2) / s,
    W = s^(2 phi) (-1)^phi B(y) B(-y); the class takes B(sign y), its
    twin sign, so r = sign * s.  d is read back from the twin's conductor
    f, the discriminant of Q(sqrt(d)): d = f for odd f, f / 4 otherwise.
    """
    f = cls.conductor
    s2 = cls.c0 / (f if f % 2 else f // 4)
    s = Fraction(math.isqrt(s2.numerator), math.isqrt(s2.denominator))
    return _aurifeuillian_factor(cls.qprime, f), cls.sign * s


@lru_cache(maxsize=None)
def _aurifeuillian_factor(q: int, f: int) -> tuple[int, ...]:
    """Coefficients, low to high, of the monic integer factor B(y) of
    d^phi(q) Phi_q(y^2 / d) whose roots are sqrt(d) e^(pi i r / q) with
    chi(r) = 1 for odd r and chi(r + q) = -1 for even r, chi = kronecker(f, .)
    for the conductor f of Q(sqrt(d)), d = f for odd f and f / 4 otherwise
    (Brent, Math. Comp. 61 (1993)).

    Its power sums s_j are integers: Ramanujan sums mod m = 2q for even j,
    Gauss sums of chi for odd j, both in closed form from g = gcd(m, j);
    most are 0, as mu vanishes off squarefree values and an odd j needs
    f | m / g.  Newton's identity for a_j, summed over the nonzero s_i with
    i <= j only, gives the coefficients with exact integer division.
    """
    n, m = euler_phi(q), 2 * q
    # d, and sqrt(d f): sqrt(d) times the Gauss sum
    d, root_df = (f, f) if f % 2 else (f // 4, f // 2)
    sums = []                   # the nonzero (i, s_i), i <= j
    a = [1]                     # B = y^n + a_1 y^(n-1) + ... + a_n
    for j in range(1, n + 1):
        g = math.gcd(m, j)
        mj = m // g
        if j % 2 == 0 or mj % f == 0:
            k = mj // f if j % 2 else mj
            rad, mu = moebius_divisors(k)[-1]       # mu(k) = mu if k = rad k
            val = mu * d ** (j // 2) if rad == k else 0
            if j % 2:
                val *= kronecker(f, j // g) * kronecker(f, k) * root_df
            if val:
                sums.append((j, val * n // euler_phi(mj)))
        a.append(-sum(s * a[j - i] for i, s in sums) // j)
    return tuple(reversed(a))


# ---------------------------------------------------------------------------
# class norms |Nm(beta - alpha)| = |f(beta)| for the class polynomial f


def norm_order(q: int, x: Fraction) -> int:
    """The order n' with |Phi_q(x)| = |Phi_n'(|x|)|: q for x > 0, and 2q,
    q/2 or q for x < 0 and q odd, 2 mod 4 or 0 mod 4, as Phi_q(-y) =
    +-Phi_n'(y)."""
    return q if x > 0 else 2 * q if q % 2 else q // 2 if q % 4 else q


class BasePoint(Fraction):
    """A rational base point that takes what each (class, beta) record reads
    of it once: exponents, {p: ord_p beta} (read only), and log|beta|."""

    @cached_property
    def exponents(self) -> dict[int, int]:
        return factor_fraction(self)

    @cached_property
    def log_abs(self) -> float:
        return _log_fraction(self)


@dataclass(frozen=True)
class ClassNormData:
    """The record of one (class, beta) pair, beta outside the orbit: the
    class cls, beta (a BasePoint) and the local terms of |Nm(beta - alpha)|,
    each computed once: table(), the integer rows (ord_p c0, M0 ord_p beta,
    ord_p W), whose first two are M0 times ord_p alpha and ord_p beta;
    log_w(), the log of the norm; arch(), the archimedean row.

    For a class of full degree M0 phi(q') the norm is W(beta) =
    c0^phi(q') Phi_{q'}(x), x = beta^M0 / c0: ord_p W takes the closed form
    of _ord_full_norm from the row and x, and log_w sums the logs of the
    Moebius pieces x^j - 1 in floats.  value holds the norm exactly where
    that is cheap: a genuine twin's from its Aurifeuillian factor, and for
    x = +-1 c0^phi(q') Phi_n'(1), exact up to sign, with n' =
    norm_order(q', x), the one definition of that order (the scan's
    S-integrality reads it too).  No reader takes value's sign: it is read
    through ord_p, log|.| and |numerator|.
    """

    cls: ConjugacyClass
    beta: BasePoint
    x: Fraction                 # beta^M0 / c0
    value: Fraction | None      # the norm, twin or x = +-1 (up to sign)

    def table(self, primes=()) -> dict[int, tuple[int, int, int]]:
        """{p: (ord_p c0, M0 ord_p beta, ord_p W)} in increasing p, over the
        primes of c0 and beta and every prime asked for so far, built in one
        pass (a scan asks for its S first) and again, reusing its rows, only
        for a prime outside it.  The map is the record's own: read it only."""
        old = self.__dict__.get("_rows")
        if old is not None and all(map(old.__contains__, primes)):
            return old
        cls, old = self.cls, old or {}
        c_exps, b_exps = cls.c0_exponents, self.beta.exponents
        rows = {}
        for p in sorted({*old, *primes, *c_exps, *b_exps}):
            oc, ob = c_exps.get(p, 0), cls.M0 * b_exps.get(p, 0)
            rows[p] = old.get(p) or (oc, ob, (
                ord_p(self.value, p) if self.value is not None
                else _ord_full_norm(cls.qprime, self.x, p, ob - oc, oc)))
        self.__dict__["_rows"] = rows
        return rows

    def ord_w(self, p: int) -> int:
        """ord_p of the norm, exact: the last entry of p's table row."""
        return self.table((p,))[p][2]

    def log_w(self) -> float:
        """log of the norm's absolute value."""
        if self.value is not None:
            return _log_fraction(self.value)
        (total, pieces), q = self.cls.log_w_plan, self.cls.qprime
        log_x = _log_fraction(self.x)
        for d, mu in pieces:
            total += mu * _log_abs_power_minus_one(self.x, q // d, log_x)
        return total

    def arch(self) -> tuple[float, float]:
        """(mean, least) of log|sigma(alpha) - beta| over the conjugates;
        computed once.  From the fibers: the K = degree / #residues
        conjugates rho e((r / P + m) / K) of residue r are the roots of
        X^K = rho^K e(r / P), so their distances to beta multiply to
        |beta^K - rho^K e(r / P)|.  The nearest conjugate has the angle
        closest to 0 (beta > 0) or 1/2 (beta < 0), found from one side (the
        orbit is closed under t -> -t) by the class's arch_plan."""
        row = self.__dict__.get("_arch")
        if row is not None:
            return row
        cls = self.cls
        la, squares, nearest = cls.arch_plan(self.beta.numerator < 0)
        K, lb = cls.degree // len(squares), self.beta.log_abs
        fibers = math.fsum(_log_distances(K * la, K * lb, squares))
        nearest, = _log_distances(la, lb, (nearest,))
        row = self.__dict__["_arch"] = fibers / cls.degree, nearest
        return row


def class_norm_data(cls: ConjugacyClass, beta: Fraction) -> ClassNormData:
    """Norm data of the class at beta, any degree; BetaIsConjugate when the
    norm is 0, i.e. beta lies in the orbit (then the orbit has degree 1, x
    is +-1 and Phi_{q'}(x) = 0).  A genuine twin's norm is r^n B(z / r),
    z = beta^(M0/2), n = phi(q') (_twin_factor); with z / r = u / v in
    integers it is H / (den(r) den(z))^n for H = sum B_i u^i v^(n - i),
    by homogeneous Horner."""
    beta = beta if isinstance(beta, BasePoint) else BasePoint(beta)
    if beta == 0:
        raise ZeroInput("beta must be nonzero")
    qprime, M0, c0 = cls.qprime, cls.M0, cls.c0
    x = Fraction(beta.numerator ** M0 * c0.denominator,
                 beta.denominator ** M0 * c0.numerator)
    n = euler_phi(qprime)
    value = None
    if cls.sign:
        B, r = _twin_factor(cls)
        z = beta ** (cls.M0 // 2)
        u, v = z.numerator * r.denominator, z.denominator * r.numerator
        h, vk = 0, 1
        for c in reversed(B):
            h = h * u + c * vk
            vk *= v
        value = Fraction(h, (r.denominator * z.denominator) ** n)
    elif x.denominator == 1 and x.numerator in (1, -1):
        # Phi_m(1) is p for m = p^k, 0 for m = 1 and 1 otherwise
        ps = list(factorint(norm_order(qprime, x)))
        value = c0 ** n * (ps[0] if len(ps) == 1 else 1 if ps else 0)
    if value == 0:
        raise BetaIsConjugate("beta lies in the orbit")
    return ClassNormData(cls, beta, x, value)


# --- valuation and log helpers ---------------------------------------------


def _ord_full_norm(q: int, x: Fraction, p: int, v: int, oc: int) -> int:
    """ord_p of the full-class norm c0^phi(q) Phi_q(x), x = beta^M0 / c0 not
    +-1, in closed form; v = ord_p(x) and oc = ord_p(c0) are given.

    Phi_q(x) has valuation phi(q) min(v, 0) when v != 0.  For a p-unit x
    and q = q0 p^k with p prime to q0, Phi_q(x) is a p-unit unless x has
    order q0 mod p: then it is ord_p(x^q0 - 1) at k = 0 and 1 past it,
    except that Phi_2(x) = x + 1 at p = 2.  Then x mod p^j comes from the
    numerator and denominator of x, both p-units.
    """
    phi, q0, k, ells = _unit_norm_plan(q, p)
    if v:
        return phi * (oc + min(v, 0))
    base = phi * oc
    if ells is None:
        return base
    n, d = x.numerator, x.denominator

    def ord_diff(e, s):
        """ord_p(x^e - s) = ord_p(n^e - s d^e), by adaptive modular
        doubling."""
        j = 8
        while True:
            mod = p ** j
            r = (pow(n, e, mod) - s * pow(d, e, mod)) % mod
            if r:
                return ord_p(r, p)
            j *= 2
    if p == 2 and q == 2:
        return base + ord_diff(1, -1)
    xb = n * pow(d, -1, p) % p
    if pow(xb, q0, p) != 1 or any(pow(xb, q0 // ell, p) == 1
                                  for ell in ells):
        return base
    return base + (ord_diff(q0, 1) if k == 0 else 1)


@lru_cache(maxsize=4096)
def _unit_norm_plan(q: int, p: int):
    """(phi(q), q0, k, q0's primes or None if p != 1 mod q0), q = q0 p^k."""
    q0, k = q, 0
    while q0 % p == 0:
        q0, k = q0 // p, k + 1
    return (euler_phi(q), q0, k,
            None if (p - 1) % q0 else tuple(factorint(q0)))


def _log_abs_power_minus_one(x: Fraction, j: int, log_x: float) -> float:
    """log|x^j - 1| for rational x != +-1, given log_x = log|x| as
    places._log_fraction gives it, in floats however long x is.

    Past |j log|x|| = 40 it is j log|x| (or 0) within e^-40.  Between, z =
    j log|x| comes from the correctly rounded float of |x|, or of |x| - 1
    through log1p from |x| = 1/2 on, which keeps its relative precision;
    the result is log|expm1(z)|, or log1p(e^z) when x^j < 0.  When no float
    holds |x| - 1, x^j - 1 = j (x - 1) to within a factor 1 + 2^-57.
    """
    L = j * log_x
    if L > 40:
        return L
    if L < -40:
        return 0.0
    num, den = abs(x.numerator), x.denominator
    d = num - den
    if x.numerator > 0 or j % 2 == 0:
        if (j * abs(d)) << 57 < den:
            return math.log(j) + _log_int(abs(d)) - _log_int(den)
    r = num / den
    z = j * (math.log1p(d / den) if r >= 0.5 else math.log(r))
    if x.numerator > 0 or j % 2 == 0:
        return math.log(abs(math.expm1(z)))
    return math.log1p(math.exp(z))


def _log_distances(la: float, lb: float, squares) -> list[float]:
    """Each log|e^la e(t) - s e^lb|, s = +-1, from trig(pi t)^2 in squares at
    the scale m = max(e^la, e^lb) so that no float overflows: with a = e^la
    / m, b = e^lb / m, |a e(t) - s b|^2 = (a - b)^2 + 4ab sin^2(pi t) (cos
    for s = -1), free of cancellation near s b.  -inf where that is 0."""
    lm = max(la, lb)
    a, b = math.exp(la - lm), math.exp(lb - lm)
    square, ab4 = (a - b) ** 2, 4 * a * b
    return [lm + 0.5 * math.log(d2) if d2 else -math.inf
            for d2 in [square + ab4 * s for s in squares]]
