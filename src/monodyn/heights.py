"""Canonical heights for map sequences drawn from a monomial semigroup.

The iterative estimator pushes a point through the sequence symbolically
(factored exponents, never materialized integers) and divides the exact
height of the image by the degree product; the error is certified by the
height-drift bound of the semigroup.  Eventually periodic sequences get the
exact closed form as a finite sum over the support places, with every
max(0, .) decided by exact rational-power comparison.  Jensen's check
evaluates the n-node quadrature of the circle average of log|z - beta|
exactly, by the roots-of-unity product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadWindow, EmptyWord, OverflowGuard, ZeroInput
from .exactreal import PosReal
from .places import INF, Place, _log_fraction, height_rational
from .radical import RadicalPoint
from .semigroup import Semigroup, Word, word_coefficient_exponents


@dataclass(frozen=True)
class SequenceSpec:
    """preperiod letters, then the period letters repeated forever."""

    preperiod: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise ZeroInput("period must be nonempty")

    def letter(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]


def height_drift(G: Semigroup) -> float:
    """c(G): certified bound max_i h(a_i)/|d_i| for |h(f_i(x))/|d_i| - h(x)|,
    rounded from the exact quotient, as |d_i| may pass float range."""
    return max(float(Fraction(height_rational(g.a)) / abs(g.d))
               for g in G.generators)


@dataclass(frozen=True)
class HeightEstimate:
    value: float
    error_bound: float
    steps: int


def canonical_height_iterative(G: Semigroup, seq: SequenceSpec,
                               beta: Fraction | RadicalPoint,
                               tol: float = 1e-9,
                               max_steps: int = 400) -> HeightEstimate:
    """h(f_{i_1..i_n}(beta)) / |D_n| with n pushed until 2c(G)/|D_n| < tol.
    |D_n| and h(f(beta)) may pass float range, so the bound is rounded from
    the exact quotient and the value is h(|f(beta)|^(1/|D_n|)): h reads the
    modulus alone."""
    if tol <= 0:
        raise ZeroInput("tol must be positive")
    x = beta if isinstance(beta, RadicalPoint) else RadicalPoint.from_rational(beta)
    c2 = Fraction(2 * height_drift(G))
    D = 1
    steps = 0
    while float(c2 / abs(D)) >= tol and steps <= max_steps:
        g = G.generators[seq.letter(steps)]
        x = x.apply(g)
        D *= g.d
        steps += 1
    value = RadicalPoint(x.modulus ** Fraction(1, abs(D)), 0).height()
    if steps > max_steps:
        raise OverflowGuard(f"no convergence within {max_steps} steps; "
                            f"partial value {value}")
    return HeightEstimate(value, float(c2 / abs(D)), steps)


def _word_abs(G: Semigroup, w: Word) -> tuple[PosReal, int]:
    """(|A_w|, D_w) with f_w = A_w z^D_w (the identity for the empty word),
    from the exponent vector of A_w: A_w itself has about d^|w| digits."""
    k, D = word_coefficient_exponents(G, w)
    A = PosReal.one()
    for g, e in zip(G.generators, k):
        A = A * PosReal.of(g.a, e)
    return A, D


def _period_data(G: Semigroup, g2: Word) -> tuple[PosReal, int]:
    """(|b|, l) of the period composite, squared when its degree is
    negative."""
    if not g2:
        raise EmptyWord("the period word must be nonempty")
    b, ell = _word_abs(G, g2)
    if ell < 0:
        b, ell = b ** (1 + ell), ell * ell
    return b, ell


def canonical_height_closed(G: Semigroup, g1: Word, g2: Word,
                            beta: Fraction | RadicalPoint) -> float:
    """Exact canonical height of beta for the sequence (g1, then g2 forever).

    The height sum over all places of max(0, log|r|_v) of the positive real
    r = |a|^(1/|k|) |b|^(1/(|k|(l-1))) |beta|^sgn(k), with a z^k the
    preperiod composite and b z^l the period composite; each sign is
    decided exactly.
    """
    x = beta if isinstance(beta, RadicalPoint) else RadicalPoint.from_rational(beta)
    a, k = _word_abs(G, g1)
    b, ell = _period_data(G, g2)
    r = (a ** Fraction(1, abs(k)) * b ** Fraction(1, abs(k) * (ell - 1))
         * x.modulus ** (1 if k > 0 else -1))
    return RadicalPoint(r, Fraction(0)).height()


def witness_sequence_height(G: Semigroup, word: Word, prefix: int,
                            x: RadicalPoint) -> float:
    """Canonical height of x for the sequence defined by a collision witness."""
    return canonical_height_closed(G, word[:prefix], word[prefix:], x)


def height_lower_bound_nonpreperiodic(G: Semigroup, beta: Fraction,
                                      depth: int) -> float:
    """max over |w| <= depth of (h(f_w(beta)) - 2c(G)) / |D_w|, floored at 0.

    When positive, a certified lower bound for the canonical height of beta
    under every sequence obtained from G.  h(y) / |D| is the height of
    |y|^(1/|D|), exact before any float, as |D| may pass float range.
    """
    if depth < 1:
        raise ZeroInput("depth must be >= 1")
    c = height_drift(G)
    x0 = RadicalPoint.from_rational(beta)
    best = 0.0
    frontier = [(x0, 1)]
    for _ in range(depth):
        nxt = []
        for pt, D in frontier:
            for g in G.generators:
                y = pt.apply(g)
                Dy = D * g.d
                h = RadicalPoint(y.modulus ** Fraction(1, abs(Dy)), 0).height()
                best = max(best, h - float(Fraction(2 * c) / abs(Dy)))
                nxt.append((y, Dy))
        frontier = nxt
    return best


@dataclass(frozen=True)
class EquilibriumRadius:
    v: Place
    radius: float
    exact: PosReal


def equilibrium_radius(G: Semigroup, g1: Word, g2: Word) -> EquilibriumRadius:
    """|a|^(-1/k) |b|^(-1/(k(l-1))) at the archimedean place."""
    a, k = _word_abs(G, g1)
    b, ell = _period_data(G, g2)
    exact = a ** Fraction(-1, k) * b ** Fraction(-1, k * (ell - 1))
    return EquilibriumRadius(INF, float(exact), exact)


def jensen_check(radius: float, beta: Fraction | float, nodes: int
                 ) -> tuple[float, float, float]:
    """The n-node quadrature of the circle average of log|z - beta|, made
    exact by the roots-of-unity product, against log M (Jensen's formula).

    With M = max(radius, |beta|), rho = min(radius, |beta|) / M and
    s = sign(beta)^n, the nodes z = radius e(k/n) give prod (z - beta) =
    +-(beta^n - radius^n), so the mean log is log M + log|1 - s rho^n| / n.
    When a node sits on beta (rho = 1, s = 1, decided on exact rationals)
    the grid turns half a step, which flips s.  rho^n is taken in log space.

    Returns (quadrature value, log M, difference).
    """
    if nodes < 16:
        raise BadWindow("need at least 16 nodes")
    if radius <= 0:
        raise ZeroInput("radius must be positive")
    b = Fraction(beta)
    lo, hi = sorted((Fraction(radius), abs(b)))
    # rho = 1: s = -1 already, or a node sits on beta and the turn flips s
    s = -1 if lo == hi else ((b > 0) - (b < 0)) ** nodes
    rho = lo / hi
    log_rho_n = nodes * (math.log1p(float(rho - 1)) if 2 * rho > 1 else
                         _log_fraction(rho) if rho else -math.inf)
    tail = (math.log(-math.expm1(log_rho_n)) if s == 1
            else math.log1p(math.exp(log_rho_n)))
    rhs = _log_fraction(hi)
    lhs = rhs + tail / nodes
    return lhs, rhs, lhs - rhs
