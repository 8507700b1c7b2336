"""Places of Q, normalized log absolute values and the rational height.

A place is either the archimedean one or a finite prime p, with
|x|_p = p^(-ord_p(x)) and |x|_inf the usual absolute value.  Equality-style
assertions run on the exact forms (integer exponents, exact rationals);
floats only ever carry inequality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroInput
from .primes import factorint, is_prime, ord_p


@dataclass(frozen=True, order=True)
class Place:
    """The archimedean place (p = 0) or a finite prime p of Q."""

    p: int = 0

    def __post_init__(self):
        if self.p and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_archimedean(self) -> bool:
        return self.p == 0

    def residue_norm(self) -> int:
        """N(v): 2 at the archimedean place, p at a finite one."""
        return 2 if self.p == 0 else self.p

    def __repr__(self):
        return "Place(inf)" if self.p == 0 else f"Place({self.p})"


INF = Place(0)


@dataclass(frozen=True)
class LogAbs:
    """log|x|_v as a float, with its exact form at a finite place.

    Finite v: value = exponent * log(p) with exponent = -ord_p(x).
    Archimedean v: value = log|x|, exponent None.
    """

    place: Place
    value: float
    exponent: int | None = None


def log_abs(x: Fraction | int, v: Place) -> LogAbs:
    """Normalized log|x|_v for nonzero rational x."""
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("log_abs(0) is -infinity")
    if v.is_archimedean:
        return LogAbs(v, _log_fraction(x))
    e = -ord_p(x, v.p)
    return LogAbs(v, e * math.log(v.p), exponent=e)


def _log_fraction(x: Fraction) -> float:
    """log|x| of a nonzero rational, safe for huge numerators/denominators."""
    return _log_int(abs(x.numerator)) - _log_int(x.denominator)


def _log_int(n: int) -> float:
    """log n; math.log reads an int of any size without overflow."""
    if n <= 0:
        raise ZeroInput("log of a nonpositive integer")
    return math.log(n)


@dataclass(frozen=True)
class ProductFormulaWitness:
    """Exact per-prime ledger proving sum_v log|x|_v = 0.

    net[p] collects the coefficient of log(p) from the finite place
    (-ord_p(x)) plus the one contributed through log|x|_inf (+ord_p(x)); the
    identity holds iff every net coefficient is zero.
    """

    net: tuple[tuple[int, int], ...]
    ok: bool


def product_formula_check(x: Fraction | int) -> ProductFormulaWitness:
    """Prove sum over all places of log|x|_v = 0 by exponent bookkeeping."""
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("product formula needs x != 0")
    # Route 1: ord_p by repeated division.  Route 2: log|x|_inf decomposed as
    # sum_p (e_num(p) - e_den(p)) log p via independent factorizations of the
    # numerator and denominator.  The two must cancel prime by prime.
    num = factorint(x.numerator) if abs(x.numerator) != 1 else {}
    den = factorint(x.denominator) if x.denominator != 1 else {}
    net = tuple((p, num.get(p, 0) - den.get(p, 0) - ord_p(x, p))
                for p in sorted(set(num) | set(den)))
    return ProductFormulaWitness(net, all(c == 0 for _, c in net))


def height_rational(x: Fraction | int) -> float:
    """h(x) = log max(|num|, den) for x in lowest terms; h(0) = 0."""
    x = Fraction(x)
    return _log_int(max(abs(x.numerator), x.denominator)) if x else 0.0


def height_exact_arg(x: Fraction | int) -> int:
    """max(|num|, den): the exact integer whose log is the height."""
    x = Fraction(x)
    return max(abs(x.numerator), x.denominator) if x else 1
