"""Structure of nonzero preperiodic points for monomial semigroups.

Every collision f_w(x) = f_{w[:m]}(x) pins its nonzero solutions to a
binomial X^N = prod a_i^{k_i}; the roots decompose as (root of unity) *
(root of a reduced binomial X^M - a_1^{m_1}...a_s^{m_s} b) with b of height
at most the coefficient-height budget.  This module builds those binomials,
the reduced structure, degree bounds, minimal polynomials and the
deduplicated enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .errors import DegenerateCollision, NoRationalBElement, RootOfUnityInput
from .galois import (DEGREE_CAP, BasePoint, ConjugacyClass, class_of_point,
                     class_polynomial)
from .places import Place, height_exact_arg
from .polynomials import UniPoly
from .primes import euler_phi, factor_fraction, factorint, power_product
from .radical import RadicalPoint
from .semigroup import Semigroup, Word, word_coefficient_exponents


# ---------------------------------------------------------------------------
# collision binomials


@dataclass(frozen=True)
class CollisionBinomial:
    """X^N = a with a = prod a_i^{k_i}, normalized to N > 0."""

    N: int
    exponents: tuple[int, ...]
    a: Fraction


def collision_binomial(G: Semigroup, w: Word, m: int) -> CollisionBinomial:
    """The binomial X^N = a of f_w = f_{w[:m]}: a from k, never factored."""
    if not 0 <= m < len(w):
        raise ValueError("need 0 <= m < |w|")
    kw, Dw = word_coefficient_exponents(G, w)
    km, Dm = word_coefficient_exponents(G, w[:m]) if m else ([0] * G.s, 1)
    N = Dw - Dm
    if N == 0:
        # impossible for |d_i| >= 2 (|D| strictly grows); kept as a guard
        raise DegenerateCollision("equal word and prefix degrees")
    k = [a - b for a, b in zip(km, kw)]
    if N < 0:
        N, k = -N, [-e for e in k]
    return CollisionBinomial(N, tuple(k), _coefficient_power(G, k))


def _coefficient_power(G: Semigroup, exps) -> BasePoint:
    """prod a_i^(e_i) over the generators a_i z^(d_i) of G, a BasePoint: its
    sign from the odd e_i of negative a_i, its exponents sum_i e_i ord_p a_i
    from the a_i's factorizations, made once (see Semigroup._memo)."""
    facs = G._memo.get("coefficients") or G._memo.setdefault(
        "coefficients", tuple(factor_fraction(g.a) for g in G.generators))
    total = {p: sum(e * fac.get(p, 0) for e, fac in zip(exps, facs))
             for p in sorted({p for fac in facs for p in fac})}
    odd = sum(e for g, e in zip(G.generators, exps) if g.a < 0) % 2
    return BasePoint.from_exponents(
        -1 if odd else 1, {p: k for p, k in total.items() if k})


# ---------------------------------------------------------------------------
# Capelli's irreducibility criterion for X^M - c


@dataclass(frozen=True)
class CapelliResult:
    kind: str                  # "irreducible" | "split_prime" | "quartic"
    p: int | None = None
    y: Fraction | None = None

    @property
    def reducible(self) -> bool:
        return self.kind != "irreducible"


def capelli_reducible(M: int, c: Fraction) -> CapelliResult:
    """Reducibility of X^M - c over Q.

    Reducible exactly when c is a p-th power for some prime p | M, or when
    4 | M and c = -4 y^4.  Both are read off the exponents of |c|, factored
    once: |c| = y^p when p divides them all (and c < 0 needs p odd), and
    |c| / 4 = y^4 when 4 divides them all after taking 2 from that of 2.
    """
    c = Fraction(c)
    if M < 1:
        raise ValueError("M must be >= 1")
    if c == 0 or c == 1 or c == -1:
        raise RootOfUnityInput("c must not be 0 or a root of unity")
    exps = factor_fraction(c)
    for p in factorint(M):
        if (c > 0 or p > 2) and all(e % p == 0 for e in exps.values()):
            y = Fraction(*power_product((q, e // p) for q, e in exps.items()))
            return CapelliResult("split_prime", p=p, y=y if c > 0 else -y)
    if M % 4 == 0 and c < 0:
        exps[2] = exps.get(2, 0) - 2        # now the map of |c| / 4
        if all(e % 4 == 0 for e in exps.values()):
            return CapelliResult("quartic", y=Fraction(*power_product(
                (q, e // 4) for q, e in exps.items())))
    return CapelliResult("irreducible")


# ---------------------------------------------------------------------------
# reduced structure of the roots (root of unity times gamma)


@dataclass(frozen=True)
class StructuredPreper:
    """One root of a collision binomial in reduced form zeta_Q^e * gamma.

    gamma is the principal root of X^M - radicand with radicand =
    prod a_i^{m_i} * b, and h(b) is certified against the coefficient-height
    budget sum_i h(a_i).
    """

    point: RadicalPoint
    M: int
    m_exponents: tuple[int, ...]
    b: Fraction
    radicand: Fraction
    Q: int
    pure_root_of_unity: bool


def structure_decompose(cb: CollisionBinomial, G: Semigroup) -> list[StructuredPreper]:
    """Reduced presentations of every root of the collision binomial.

    a is factored once, into the modulus |a|^(1/N) = c0^(1/M) (M minimal)
    that every root shares with gamma.  Root j is the first root times
    e(j/N), the order of RadicalPoint.from_binomial_root, and its Q is the
    denominator of its angle less gamma's.  In the split
    a = xi * radicand^u, u = N/M, xi = -1 exactly when a < 0 and
    |a| = modulus^N is a square; otherwise radicand carries a's sign.
    """
    a, N = cb.a, cb.N
    if _coefficient_power(G, cb.exponents) != a:
        raise NoRationalBElement("exponents do not reproduce the constant term")
    first = RadicalPoint.from_binomial_root(a, N, 0)
    roots = [RadicalPoint(first.modulus, first.angle + Fraction(j, N))
             for j in range(N)]
    if a in (1, -1):
        return [StructuredPreper(pt, 1, (0,) * G.s, Fraction(1), Fraction(1),
                                 pt.angle.denominator, True) for pt in roots]
    c0, M = first.modulus.radical_form()
    u = N // M
    xi = -1 if a < 0 and (first.modulus ** Fraction(N, 2)).is_rational() else 1
    radicand = c0 if xi * a > 0 else -c0
    m_exps = []
    ell_exps = []
    for k in cb.exponents:
        li = k - round(Fraction(k, u)) * u if u > 1 else 0
        m_exps.append((k - li) // u)
        ell_exps.append(li)
    b = radicand / _coefficient_power(G, m_exps)
    # b is a rational root of X^u - xi prod a_i^{l_i}; verify both sides
    if b ** u != xi * _coefficient_power(G, ell_exps):
        raise NoRationalBElement(f"inconsistent reduced radicand for {cb}")
    budget = 1
    for g in G.generators:
        budget *= height_exact_arg(g.a)
    if height_exact_arg(b) > budget:
        raise NoRationalBElement("reduced element exceeds the height budget")
    gamma_angle = Fraction(0 if radicand > 0 else 1, 2 * M)
    return [StructuredPreper(pt, M, tuple(m_exps), b, radicand,
                             (pt.angle - gamma_angle).denominator, False)
            for pt in roots]


@dataclass(frozen=True)
class DegreeBound:
    lower: Fraction
    M: int
    Q: int


def degree_lower_bound(sp: StructuredPreper) -> DegreeBound:
    """max(M/2, max(phi(Q), M/2) / min(phi(Q), M)), with 2 roots of unity in Q."""
    phi = euler_phi(sp.Q)
    lower = max(Fraction(sp.M, 2),
                Fraction(max(Fraction(phi), Fraction(sp.M, 2)),
                         min(phi, sp.M)))
    return DegreeBound(lower, sp.M, sp.Q)


# ---------------------------------------------------------------------------
# minimal polynomials of radical points


_minpoly_cache: dict = {}


def minimal_polynomial(x: RadicalPoint, degree_cap: int = DEGREE_CAP) -> UniPoly:
    """The monic minimal polynomial of x over Q, exact: the polynomial of its
    Galois class (galois.class_polynomial), cached per point.
    DegreeCapExceeded when the degree exceeds degree_cap.
    """
    poly = _minpoly_cache.get(x.key())
    if poly is None or poly.degree > degree_cap:
        poly = class_polynomial(class_of_point(x), degree_cap)
        if len(_minpoly_cache) > 8192:
            _minpoly_cache.clear()
        _minpoly_cache[x.key()] = poly
    return poly


def conjugates(x: RadicalPoint, v: Place):
    """Embedding data of the conjugates of x at v.

    Archimedean: the complex values (shared modulus, orbit angles).  Finite:
    the multiset of valuations, all ord_p of the modulus, since every
    conjugate is a root of unity times c0^(1/M0).
    """
    cls = class_of_point(x)
    if v.is_archimedean:
        mod = float(cls.modulus)
        return [mod * complex(math.cos(2 * math.pi * float(t)),
                              math.sin(2 * math.pi * float(t)))
                for t in cls.angles]
    return [cls.modulus.ord_at(v.p)] * cls.degree


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class EnumeratedPoint:
    point: RadicalPoint
    word: Word
    prefix: int
    cls: ConjugacyClass           # the Galois orbit of point


def enumerate_preperiodic(G: Semigroup, n_max: int,
                          node_cap: int = 10 ** 6) -> list[EnumeratedPoint]:
    """All nonzero preperiodic points from word pairs of length <= n_max.

    Each point once, with its first witness in (|w|, lex, m) order.  A
    binomial that one point of a Galois orbit satisfies holds the whole
    orbit, so a point is new exactly when its class is: the points of a
    witness are those of its new classes in scan.word_pair_classes, sorted
    by angle (the root order of X^N = a).  The sort runs on the integers
    t L, L the lcm of the angle denominators M0 q' of those classes; their
    angles are disjoint, so the order is strict.  EnumerationCap (from
    scan.capped_classes) before a witness whose points would take the list
    past node_cap, or once the stream spends its root budget.  Zero and
    infinity, always preperiodic, are not listed.
    """
    from .scan import capped_classes
    out: list[EnumeratedPoint] = []
    for (w, m), batch in groupby(capped_classes(G, n_max, node_cap),
                                 key=lambda item: item[1:]):
        classes = [cls for cls, _, _ in batch]
        L = math.lcm(*(cls.M0 * cls.qprime for cls in classes))
        points = sorted(((t.numerator * (L // t.denominator), t, cls)
                         for cls in classes for t in cls.angles),
                        key=itemgetter(0))
        out.extend(EnumeratedPoint(RadicalPoint(cls.modulus, t), w, m, cls)
                   for _, t, cls in points)
    return out
