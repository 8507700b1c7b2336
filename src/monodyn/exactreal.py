"""Exact positive reals of the form prod p^(e_p) with rational exponents.

These are the moduli that arise from radicals of rationals.  Comparison,
multiplication and rational powers are exact; floats are derived views.
A comparison tries floats, then decimal logs, then exact integers, whose
size is checked from the exponents before any power is built.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

from .errors import OverflowGuard, ZeroInput
from .primes import factor_fraction, power_product

BIT_BUDGET = 10 ** 8    # bits of the exact integers one decision may build


class PosReal:
    """Immutable factored positive real: prod p^{exps[p]}.  _radical keeps
    radical_form() once it is asked for; equality, hashing and pickling
    read exps alone."""

    __slots__ = ("exps", "_key", "_radical")

    def __init__(self, exps: dict[int, Fraction] | None = None):
        cleaned = {}
        for p, e in (exps or {}).items():
            e = Fraction(e)
            if e != 0:
                cleaned[p] = e
        object.__setattr__(self, "exps", cleaned)
        object.__setattr__(self, "_key", tuple(sorted(cleaned.items())))
        object.__setattr__(self, "_radical", None)

    def __setattr__(self, *a):
        raise AttributeError("PosReal is immutable")

    def __reduce__(self):
        return PosReal, (self.exps,)

    @staticmethod
    def one() -> "PosReal":
        return PosReal({})

    @staticmethod
    def of(x: Fraction | int, power: Fraction | int = 1) -> "PosReal":
        """|x|^power for nonzero rational x."""
        x = Fraction(x)
        if x == 0:
            raise ZeroInput("PosReal of zero")
        power = Fraction(power)
        return PosReal({p: e * power for p, e in factor_fraction(x).items()})

    @staticmethod
    def of_radical(exps: dict, c: Fraction, M: int) -> "PosReal":
        """prod p^exps[p] = c^(1/M), its radical form set, with nothing
        cleaned or built: the caller vouches for exps (nonzero Fractions in
        increasing p) and for c and the minimal M."""
        x = object.__new__(PosReal)
        object.__setattr__(x, "exps", exps)
        object.__setattr__(x, "_key", tuple(exps.items()))
        object.__setattr__(x, "_radical", (c, M))
        return x

    # multiplicative structure -------------------------------------------
    def __mul__(self, other: "PosReal") -> "PosReal":
        exps = dict(self.exps)
        for p, e in other.exps.items():
            exps[p] = exps.get(p, 0) + e
        return PosReal(exps)

    def __truediv__(self, other: "PosReal") -> "PosReal":
        exps = dict(self.exps)
        for p, e in other.exps.items():
            exps[p] = exps.get(p, 0) - e
        return PosReal(exps)

    def __pow__(self, power: Fraction | int) -> "PosReal":
        power = Fraction(power)
        return PosReal({p: e * power for p, e in self.exps.items()})

    # exact order ---------------------------------------------------------
    def compare_one(self) -> int:
        """Sign of log(self): -1, 0, +1, certified.

        By unique factorization a nonempty exponent vector never gives 1, so
        the sign of s = sum_p t_p, t_p = e_p log p, is decided by (in order):
        a same-sign fast path; a float sum with a rigorous error bound (a term
        past float range passes the decision on); decimal sums at 40, 156,
        618 and 2468 digits (about 128, 512, 2048 and 8192 bits); and the
        exact comparison of self^M's numerator and denominator, refused with
        OverflowGuard past the size budget of _power_ints.

        The decimal bound: ln, multiply, divide and add are each correctly
        rounded, so each carries a relative error of at most u = 10^(1-d)/2
        at d digits.  A term is three operations and the sum of k terms k - 1
        more, so |acc - s| <= ((1 + u)^(k+2) - 1) sum |t_p|, which is below
        eps = 2 (k + 2) u mag for the rounded mag = sum |t_p| while
        (k + 2) u < 1/4; the factor 2 also covers the rounding of mag and eps.
        So |acc| > eps gives the sign of s.
        """
        if not self.exps:
            return 0
        if all(e > 0 for e in self.exps.values()):
            return 1
        if all(e < 0 for e in self.exps.values()):
            return -1
        try:
            terms = [float(e) * math.log(p) for p, e in self.exps.items()]
        except OverflowError:       # a NaN sum passes the decision on
            terms = [math.nan]
        s = sum(terms)
        if abs(s) > sum(map(abs, terms)) * 1e-12 + 5e-300:
            return 1 if s > 0 else -1
        for digits in (40, 156, 618, 2468):
            with decimal.localcontext(decimal.Context(
                    digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)):
                acc = mag = decimal.Decimal(0)
                for p, e in self.exps.items():
                    t = decimal.Decimal(p).ln() * e.numerator / e.denominator
                    acc += t
                    mag += abs(t)
                if abs(acc) > (mag * (len(self.exps) + 2)).scaleb(1 - digits):
                    return 1 if acc > 0 else -1
        num, den, _ = self._power_ints()
        return (num > den) - (num < den)

    def _power_ints(self) -> tuple[int, int, int]:
        """(num, den, M) with self^M = num / den, M the least positive such
        power and num, den coprime: primes.power_product, no gcd.
        OverflowGuard, read off the exponents before any power is built,
        when num and den would pass BIT_BUDGET bits together."""
        M = math.lcm(*(e.denominator for e in self.exps.values()))
        powers = [(p, e.numerator * (M // e.denominator))
                  for p, e in self.exps.items()]
        if sum(abs(k) * p.bit_length() for p, k in powers) > BIT_BUDGET:
            raise OverflowGuard("an exact power past the 10^8-bit size budget")
        num, den = power_product(powers)
        return num, den, M

    def __eq__(self, other):
        return isinstance(other, PosReal) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        return (self / other).compare_one() < 0

    def __le__(self, other):
        return (self / other).compare_one() <= 0

    def __gt__(self, other):
        return (self / other).compare_one() > 0

    def __ge__(self, other):
        return (self / other).compare_one() >= 0

    # views ----------------------------------------------------------------
    def is_rational(self) -> bool:
        return all(e.denominator == 1 for e in self.exps.values())

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self.radical_form()[0]

    def radical_form(self) -> tuple[Fraction, int]:
        """(c, M) with self = c^(1/M), M minimal positive, c > 0 rational:
        computed on the first call and kept, so the points and classes that
        share this object share one form."""
        if self._radical is None:
            num, den, M = self._power_ints()
            object.__setattr__(self, "_radical", (Fraction(num, den), M))
        return self._radical

    def ord_at(self, p: int) -> Fraction:
        """Exponent of p: self = p^{ord} * (p-unit part)."""
        return self.exps.get(p, Fraction(0))

    def log(self) -> float:
        """sum e_p log p in increasing p, so equal values give equal floats;
        OverflowGuard when an exponent passes float range."""
        try:
            return float(sum(e * math.log(p) for p, e in self._key))
        except OverflowError:
            raise OverflowGuard("a log past float range") from None

    def __float__(self):
        return math.exp(self.log())

    def __repr__(self):
        if not self.exps:
            return "PosReal(1)"
        parts = [f"{p}^({e})" for p, e in sorted(self.exps.items())]
        return "PosReal(" + "*".join(parts) + ")"
