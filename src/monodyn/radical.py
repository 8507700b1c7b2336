"""Exact arithmetic on radical points zeta * c^(1/M).

A RadicalPoint is |c|^(1/M) * e^(2 pi i t) with c rational, M minimal and t a
rational angle in [0,1).  Internally the modulus is a factored positive real
(prime -> rational exponent), which makes equality, absolute values at every
place, heights and monomial dynamics exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroInput
from .exactreal import PosReal
from .places import Place
from .semigroup import MonomialMap, rational_text


def _mod1(t: Fraction) -> Fraction:
    return t - (t.numerator // t.denominator)


@dataclass(frozen=True)
class RadicalPoint:
    modulus: PosReal
    angle: Fraction

    def __post_init__(self):
        """The angle mod 1 as a Fraction; one already in [0, 1) is kept."""
        t = self.angle
        if not (isinstance(t, Fraction) and 0 <= t.numerator < t.denominator):
            object.__setattr__(self, "angle", _mod1(Fraction(t)))

    # constructors ---------------------------------------------------------
    @staticmethod
    def from_rational(x: Fraction | int) -> "RadicalPoint":
        x = Fraction(x)
        if x == 0:
            raise ZeroInput("zero is not a radical point")
        return RadicalPoint(PosReal.of(x), Fraction(0) if x > 0 else Fraction(1, 2))

    @staticmethod
    def from_binomial_root(a: Fraction | int, N: int, j: int) -> "RadicalPoint":
        """The j-th root of X^N = a, ordered by increasing angle."""
        a = Fraction(a)
        if a == 0:
            raise ZeroInput("binomial must have nonzero constant term")
        if N < 1:
            raise ValueError("N must be positive")
        t = Fraction(j, N) if a > 0 else Fraction(2 * j + 1, 2 * N)
        return RadicalPoint(PosReal.of(a, Fraction(1, N)), t)

    # canonical data --------------------------------------------------------
    @property
    def c(self) -> Fraction:
        """Canonical radicand: the point is |c|^(1/M) e^(2 pi i t), c > 0."""
        return self.modulus.radical_form()[0]

    def key(self):
        return (self.modulus._key, self.angle)

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, RadicalPoint) and self.key() == other.key()

    # value views ------------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.modulus.is_rational() and self.angle in (0, Fraction(1, 2))

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational point")
        v = self.modulus.as_fraction()
        return v if self.angle == 0 else -v

    # arithmetic ---------------------------------------------------------------
    def apply(self, f: MonomialMap) -> "RadicalPoint":
        """Image a * x^d under a monomial map, in canonical form."""
        sgn = Fraction(0) if f.a > 0 else Fraction(1, 2)
        return RadicalPoint(PosReal.of(f.a) * self.modulus ** f.d,
                            f.d * self.angle + sgn)

    # places -------------------------------------------------------------------
    def ord_at(self, p: int) -> Fraction:
        """The common p-adic valuation of all conjugates."""
        return self.modulus.ord_at(p)

    def abs_exact(self, v: Place) -> PosReal:
        """|x|_v as an exact positive real."""
        if v.is_archimedean:
            return self.modulus
        return PosReal({v.p: -self.ord_at(v.p)})

    def support_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.modulus.exps))

    # height ----------------------------------------------------------------
    def _height_arg(self) -> PosReal:
        """H(x), the product over the places of max(1, |x|_v): every
        conjugate has the modulus and the valuations of x, so it is
        max(prod_{e>0} p^e, prod_{e<0} p^-e) over the exponents of the
        modulus, the first side exactly when the modulus exceeds 1."""
        side = 1 if self.modulus.compare_one() > 0 else -1
        return PosReal({p: abs(e) for p, e in self.modulus.exps.items()
                        if e * side > 0})

    def height(self) -> float:
        """h(x) = log H(x), summed from the exponents of H in increasing p."""
        return self._height_arg().log()

    def height_le(self, bound_num: PosReal) -> bool:
        """Exact test h(x) <= log(bound_num): H(x) <= bound_num."""
        return self._height_arg() <= bound_num

    # serialization --------------------------------------------------------------
    def to_json(self) -> dict:
        c, M = self.modulus.radical_form()
        return {"c": rational_text(c), "M": M, "t": str(self.angle)}

    def __repr__(self):
        c, M = self.modulus.radical_form()
        if self.is_rational:
            return f"RadicalPoint({self.as_fraction()})"
        root = f"{c}" if M == 1 else f"{c}^(1/{M})"
        return f"RadicalPoint({root} * e(2πi*{self.angle}))"
