"""Monomial maps a*z^d, composition semigroups and words.

Words are tuples of 0-based generator indices; the composite of a word
(i_1, ..., i_n) applies generator i_1 first.  They print 1-based.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptyWord, InvalidConfig, OverflowGuard
from .primes import ord_p

Word = tuple[int, ...]


def parse_rational(value) -> Fraction:
    """Fraction(value) that prints back: ValueError when its decimal
    exponent passes 4300 (checked before Fraction expands it) or its
    numerator or denominator passes Python's int-to-text digit limit."""
    if isinstance(value, str) and \
            abs(int(value.lower().partition("e")[2] or 0)) > 4300:
        raise ValueError(value)
    x = Fraction(value)
    str(x)      # ValueError past the digit limit
    return x


def rational_text(x: Fraction) -> str:
    """str(x); OverflowGuard past Python's int-to-text digit limit."""
    try:
        return str(x)
    except ValueError:
        raise OverflowGuard("a rational in the output is past Python's "
                            "int-to-text digit limit") from None


def check_printable(x: Fraction | int) -> None:
    """OverflowGuard when x surely passes the int-to-text digit limit, by
    the bit lengths alone (one just past it is refused when printed)."""
    limit = sys.get_int_max_str_digits()
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if limit and bits > limit * math.log2(10) + 1:
        raise OverflowGuard(f"a {bits}-bit rational is past Python's "
                            "int-to-text digit limit")


@dataclass(frozen=True)
class MonomialMap:
    """z -> a * z^d with a nonzero rational and |d| >= 2."""

    a: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        if self.a == 0:
            raise InvalidConfig("coefficient must be nonzero")
        if abs(self.d) < 2:
            raise InvalidConfig("|degree| must be at least 2")

    def __call__(self, x: Fraction) -> Fraction:
        return self.a * Fraction(x) ** self.d

    def __repr__(self):
        return f"MonomialMap({self.a}*z^{self.d})"


@dataclass(frozen=True)
class Semigroup:
    """A finitely generated semigroup of monomial maps.  _memo holds what
    is derived from the generators alone and kept while the object lives
    (the scan's class stream, under "classes"; the size-window radius
    r(G, v) of orbits.window_radius_exact, under ("window", v)); it is no
    part of ==, hash, repr, to_json or dataclasses.replace."""

    generators: tuple[MonomialMap, ...]
    _memo: dict = field(init=False, default_factory=dict, compare=False,
                        hash=False, repr=False)

    def __post_init__(self):
        if not self.generators:
            raise InvalidConfig("need at least one generator")

    @property
    def s(self) -> int:
        return len(self.generators)

    @staticmethod
    def from_pairs(pairs) -> "Semigroup":
        """Generators a z^d: a rational (parse_rational), d an int."""
        return Semigroup(tuple(MonomialMap(parse_rational(a),
                                           operator.index(d))
                               for a, d in pairs))

    @staticmethod
    def from_json(doc: str | dict) -> "Semigroup":
        """Parse {"generators": [{"a": "2", "d": 2}, ...]}."""
        try:
            if isinstance(doc, str):
                doc = json.loads(doc)
            gens = doc["generators"]
            return Semigroup.from_pairs((g["a"], g["d"]) for g in gens)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise InvalidConfig(f"bad semigroup config: {exc}") from exc

    def to_json(self) -> dict:
        return {"generators": [{"a": str(g.a), "d": g.d} for g in self.generators]}


def format_word(w: Word) -> str:
    return ",".join(str(i + 1) for i in w)


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) - 1 for t in text.split(","))


def compose_word(G: Semigroup, w: Word) -> tuple[Fraction, int]:
    """(A, D) with the composite of w equal to A * z^D; w must be nonempty."""
    if not w:
        raise EmptyWord("the identity is not a monomial map of |d| >= 2")
    A, D = Fraction(1), 1
    for i in w:
        g = G.generators[i]
        A = g.a * A ** g.d
        D *= g.d
    return A, D


def word_coefficient_exponents(G: Semigroup, w: Word) -> tuple[list[int], int]:
    """Exponent vector k with A_w = prod a_i^{k_i}, plus the degree D_w.

    Exact integer bookkeeping; avoids materializing A for long words.
    """
    k = [0] * G.s
    D = 1
    for i in w:
        d = G.generators[i].d
        k = [e * d for e in k]
        k[i] += 1
        D *= d
    return k, D


def good_reduction(f: MonomialMap, p: int) -> bool:
    """A monomial has good reduction at p exactly when its coefficient is a p-unit."""
    return ord_p(f.a, p) == 0

