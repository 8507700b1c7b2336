"""Explicit lower bounds for linear forms in logarithms and the
verification statistics built on them: distance bounds to preperiodic
points, disc counting, circle discrepancy, truncated-log test functions and
counts of p-adically close roots of unity.

The linear-form quantity 1 - prod alpha_i^(b_i) is always computed as an
exact rational before any logarithm; vanishing is an exact branch.  The
scan and distance_lower_bound observe distances by class_min_log_distances,
which reads the integer valuation table and the archimedean row of one
(class, beta) record, galois.ClassNormData.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadWindow, BetaIsConjugate, DegenerateDegree, LambdaZero,
                     ZeroAlpha, ZeroInput)
from .galois import (ClassNormData, _discrepancy, class_norm_data,
                     class_of_point, cyclotomic_radical_polynomial)
from .places import Place, height_rational, log_abs
from .polynomials import UniPoly
from .preper import minimal_polynomial
from .primes import euler_phi, ord_p
from .radical import RadicalPoint
from .semigroup import Semigroup

EXACT_DEGREE = 64     # largest degree shifted at a ramified p (p | M0 q')


def linform_degree_constant(n: int, d: int) -> float:
    """12 d (16 e d)^(3n+2) max(1, log d)^2."""
    if n < 1 or d < 1:
        raise ZeroInput("need n, d >= 1")
    return 12 * d * (16 * math.e * d) ** (3 * n + 2) * max(1.0, math.log(d)) ** 2


def theta_floor(d: int) -> float:
    """2 / (d (log 3d)^3), the height floor entering the Theta product."""
    return 2 / (d * math.log(3 * d) ** 3)


def theta(alphas, d: int = 1) -> float:
    """prod max(h(alpha_i), floor) over the multiplicative inputs."""
    fl = theta_floor(d)
    out = 1.0
    for a in alphas:
        a = Fraction(a)
        if a == 0:
            raise ZeroAlpha("alphas must be nonzero")
        out *= max(height_rational(a), fl)
    return out


@dataclass(frozen=True)
class LinFormInstance:
    alphas: tuple[Fraction, ...]
    bs: tuple[int, ...]
    v: Place

    def __post_init__(self):
        if len(self.alphas) != len(self.bs):
            raise ZeroInput("length mismatch")
        if any(a == 0 for a in self.alphas):
            raise ZeroAlpha("alphas must be nonzero")
        if all(b == 0 for b in self.bs):
            raise ZeroInput("exponents must not all vanish")

    def lam(self) -> Fraction:
        """prod alpha_i^{b_i} - 1, exact."""
        out = Fraction(1)
        for a, b in zip(self.alphas, self.bs):
            out *= Fraction(a) ** b
        return out - 1

    def B(self) -> int:
        return max(3, max(abs(b) for b in self.bs))


def linform_bound(inst: LinFormInstance) -> float:
    """The proved lower bound for log|Lambda|_v (a negative number)."""
    lam = inst.lam()
    if lam == 0:
        raise LambdaZero("degenerate multiplicative relation")
    n = len(inst.alphas)
    Nv = inst.v.residue_norm()
    return (-linform_degree_constant(n, 1) * (Nv / math.log(Nv))
            * theta(inst.alphas, 1) * math.log(inst.B()))


def verify_linform(inst: LinFormInstance) -> bool:
    """log|Lambda|_v > bound; False would indicate an implementation bug."""
    lam = inst.lam()
    if lam == 0:
        raise LambdaZero("degenerate multiplicative relation")
    return log_abs(lam, inst.v).value > linform_bound(inst)


# ---------------------------------------------------------------------------
# truncated-log test function


def test_function_energy(delta: float, R: float) -> float:
    """Dirichlet energy of z -> log min(R, max(delta, |z|)): log R - log delta."""
    if not 0 < delta < R:
        raise BadWindow("need 0 < delta < R")
    return math.log(R) - math.log(delta)


def test_function_lipschitz(delta: float) -> float:
    if delta <= 0:
        raise BadWindow("delta must be positive")
    return 1 / delta


# ---------------------------------------------------------------------------
# circle discrepancy


def discrepancy_exact(angles) -> Fraction:
    """sup over circular arcs of |empirical mass - arc length|, exact.

    For sorted angles t_j mod 1 the supremum equals 1/n + max_j (j/n - t_j)
    - min_j (j/n - t_j): galois._discrepancy on k_j = L t_j, L the lcm of
    the denominators.  The tests check it against a brute-force scan of all
    endpoint arcs.
    """
    ts = [t if isinstance(t, Fraction) else Fraction(t) for t in angles]
    if not ts:
        raise ZeroInput("need at least one angle")
    L = math.lcm(*(t.denominator for t in ts))
    return _discrepancy(sorted(t.numerator % t.denominator
                               * (L // t.denominator) for t in ts), L)


# ---------------------------------------------------------------------------
# disc counting against the circle equilibrium measure


def circle_disc_measure(center_dist: float, disc_radius: float,
                        circle_radius: float) -> float:
    """Normalized arc-length mass of |z| = r inside D(w, R), by chord geometry."""
    d, R, r = center_dist, disc_radius, circle_radius
    if d + r <= R:
        return 1.0
    if abs(d - r) >= R:
        return 0.0
    cosv = (d * d + r * r - R * R) / (2 * d * r)
    cosv = min(1.0, max(-1.0, cosv))
    return math.acos(cosv) / math.pi


def disc_count_check(points, w: complex, eps: float, radius: float,
                     C: float, kappa: float = 1.0):
    """(lhs, rhs, ok) for the equidistribution disc-count inequality."""
    if not 0 < eps < 1 / math.e:
        raise BadWindow("need 0 < eps < 1/e")
    n = len(points)
    if n < 2:
        raise ZeroInput("need at least two points")
    lhs = sum(1 for z in points if abs(z - w) <= eps)
    mass = circle_disc_measure(abs(w), math.e * eps, radius)
    rhs = mass * n + C * (1 / (eps * n ** (1 / kappa - 1))
                          + math.sqrt(n * math.log(n)))
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# distance lower bound to preperiodic points


@dataclass(frozen=True)
class DistanceBoundCert:
    """Concrete constant for the preperiodic-distance bound, all factors shown.

    C2 = c1(s+2, 1) * (N(v)/log N(v)) * Theta_cap * 11 + 25, where 11 bounds
    log(MQ)/log(deg) through the degree chain (phi(Q) >= sqrt(Q/2),
    deg >= max(M/2, phi(Q)/min(phi(Q), M))) and 25 absorbs the additive
    h(beta) + log(MQ) terms and the root-of-unity branch.
    """

    C2: float
    c1: float
    nv_factor: float
    theta_cap: float
    chain_exponent: int
    additive: int

    def bound(self, h_beta: float, deg: int, MQ: int) -> float:
        """C2 (h(beta)+1) log(deg) for deg >= 2; degree 1 takes the
        pre-absorption chain value with log max(3, MQ)."""
        if deg >= 2:
            return self.C2 * (h_beta + 1) * math.log(deg)
        return (h_beta + math.log(MQ) + self.c1 * self.nv_factor
                * self.theta_cap * (h_beta + 1) * math.log(max(3, MQ)))


def distance_bound_constant(G: Semigroup, v: Place) -> DistanceBoundCert:
    s = G.s
    fl = theta_floor(1)
    theta_cap = max(1.0, fl)
    total = 0.0
    for g in G.generators:
        h = height_rational(g.a)
        theta_cap *= max(h, fl)
        total += h
    theta_cap *= max(total, fl)
    c1 = linform_degree_constant(s + 2, 1)
    Nv = v.residue_norm()
    nv = Nv / math.log(Nv)
    C2 = c1 * nv * theta_cap * 11 + 25
    return DistanceBoundCert(C2, c1, nv, theta_cap, 11, 25)


def class_min_log_distances(nd: ClassNormData,
                            places: list[Place]) -> list[float]:
    """min over conjugates of log|sigma(alpha) - beta|_v at each place v, for
    the class nd.cls and beta = nd.beta outside the orbit.  At the
    archimedean place: the nearest conjugate of nd.arch().  At a finite p,
    p's row (oc, ob, ow) of nd.table() has ord_p alpha = oc / M0 and ord_p
    beta = ob / M0; when they differ: -min of the two times log p (exact).

    With equal valuations o, each ord_p(sigma(alpha) - beta) is >= o and
    they sum to ow = ord_p Nm.  At p prime to M0 q' the ratios sigma(alpha)
    / beta are p-units differing by roots of unity of order dividing M0 q',
    so they are distinct mod p and at most one conjugate is closer to beta
    than o; it carries all of ow beyond deg o, and log|Nm|_p - (deg - 1)
    log|beta|_p is exact at every degree, as at a ramified p | M0 q' when
    ow = deg o.  Past that: _ramified_slope up to EXACT_DEGREE, then that
    norm expression, sound as no term exceeds log|beta|_p.  Each slope is
    an integer over M0, divided once."""
    cls, M0 = nd.cls, nd.cls.M0
    table = nd.table([v.p for v in places if not v.is_archimedean])
    out = []
    for v in places:
        p = v.p
        if not p:                           # the archimedean place
            out.append(nd.arch()[1])
            continue
        oc, ob, ow = table[p]
        if oc != ob:
            slope = -min(oc, ob) / M0
        elif (M0 * cls.qprime % p == 0 and cls.degree <= EXACT_DEGREE
              and ow > cls.degree * (ob // M0)):
            slope = float(_ramified_slope(nd, p, ob // M0))
        else:
            slope = ((cls.degree - 1) * oc - M0 * ow) / M0
        out.append(slope * math.log(p))
    return out


def _ramified_slope(nd: ClassNormData, p: int, o: int) -> Fraction:
    """The first Newton slope at p of the class polynomial shifted by beta =
    nd.beta, for ord_p alpha = ord_p beta = o, on the p-part of M0.  With
    M0 = p^e m, p prime to m, a full class is closed under gamma -> eta
    gamma for the m-th roots of unity eta (W is a polynomial in X^M0), and
    c0^phi(q') Phi_q'(Y^(M0/m) / c0) has the m-th powers of its conjugates
    as roots, each once.  As |1 - eta|_p = 1 for eta != 1, each ord_p(gamma
    - eta beta) is at least o and at most one exceeds it (two would give
    ord_p((eta - eta') beta) > o), so ord_p(gamma^m - beta^m) = (m - 1) o +
    max over eta of ord_p(gamma - eta beta); as eta^-1 gamma runs over the
    class, the first slope of that polynomial shifted by beta^m, plus
    (m - 1) o, is that of the class polynomial shifted by beta.  A genuine
    twin keeps m = 1: a shift by an m-th root of unity can flip its sign.
    Each call shifts its polynomial: the minimal polynomial at m = 1, else
    the cyclotomic radical polynomial at k = M0/m."""
    cls = nd.cls
    m = 1 if cls.sign else cls.M0
    while m % p == 0:
        m //= p
    f = (minimal_polynomial(cls.representative) if m == 1
         else cyclotomic_radical_polynomial(cls.qprime, cls.c0, cls.M0 // m))
    return first_newton_slope(f.shift(nd.beta ** m), p) + (m - 1) * o


def first_newton_slope(f: UniPoly, p: int) -> Fraction:
    """The first slope of f's Newton polygon at p, min over i >= 1 with
    c_i != 0 of (ord_p c_i - ord_p c_0) / i, in one integer pass: minus the
    largest root valuation.  For f the class polynomial moved by beta (roots
    sigma(alpha) - beta), times log p it is the least log|sigma(alpha) -
    beta|_p.  BetaIsConjugate when c_0 = 0."""
    cs = f.coeffs
    if not cs or cs[0] == 0:
        raise BetaIsConjugate("beta lies in the orbit")
    o0 = ord_p(cs[0], p)
    n = len(cs) - 1
    num, den = ord_p(cs[n], p) - o0, n       # the slope so far, num / den
    for i in range(1, n):
        c = cs[i]
        if not c:
            continue
        # c_i lowers the slope only if ord_p c_i < k = ceil(o0 + i num/den);
        # ord_p c_i >= k is one divisibility test
        k = o0 - (-num * i) // den
        if k > 0:
            if c.numerator % p ** k == 0:
                continue
        elif c.denominator % p ** (1 - k):
            continue
        num, den = ord_p(c, p) - o0, i
    return Fraction(num, den)


def distance_lower_bound(G: Semigroup, beta: Fraction, alpha: RadicalPoint,
                         v: Place):
    """(bound, observed_min, ok) for min_sigma log|sigma(alpha) - beta|_v,
    observed by class_min_log_distances at any degree.

    bound = C2 (h(beta)+1) log(deg) for deg >= 2.  Degree-1 points use the
    pre-absorption chain value with log max(3, MQ); with MQ = 1 the bound is
    trivial (DegenerateDegree).
    """
    beta = Fraction(beta)
    # BetaIsConjugate when beta is a conjugate of alpha
    nd = class_norm_data(class_of_point(alpha), beta)
    cls = nd.cls
    observed = class_min_log_distances(nd, [v])[0]
    MQ = cls.M0 * alpha.angle.denominator
    if cls.degree == 1 and MQ == 1:
        raise DegenerateDegree("rational positive point; bound trivial")
    bound = distance_bound_constant(G, v).bound(height_rational(beta),
                                                cls.degree, MQ)
    return bound, observed, observed > -bound


# ---------------------------------------------------------------------------
# p-adically close roots of unity


def unity_neighbor_count(p: int, eps: float) -> int:
    """Number of roots of unity xi in an algebraic closure of Q_p with
    |1 - xi|_p < eps: only p-power orders come closer than 1, with
    |1 - xi|_p = p^(-1/(p^(n-1)(p-1))) at exact order p^n."""
    if not 0 < eps < 1:
        raise BadWindow("need 0 < eps < 1")
    count = 1  # xi = 1
    n = 1
    while True:
        phi = euler_phi(p ** n)
        if p ** (-1.0 / phi) >= eps:
            break
        count += phi
        n += 1
    return count
