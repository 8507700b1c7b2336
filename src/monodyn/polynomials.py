"""Dense univariate polynomials over Q.

Coefficients are stored low-to-high as exact Fractions with the trailing
zeros trimmed, so ``coeffs[-1]`` is the leading coefficient of a nonzero
polynomial and the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ZeroInput
from .primes import euler_phi, moebius_divisors, ord_p
from .semigroup import rational_text


def _trim(cs: list[Fraction]) -> tuple[Fraction, ...]:
    end = len(cs)
    while end > 0 and cs[end - 1] == 0:
        end -= 1
    return tuple(cs[:end])


@dataclass(frozen=True)
class UniPoly:
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(cs) -> "UniPoly":
        return UniPoly(_trim([Fraction(c) for c in cs]))

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((Fraction(1),))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((Fraction(0), Fraction(1)))

    @staticmethod
    def binomial(n: int, a) -> "UniPoly":
        """X^n - a."""
        cs = [Fraction(0)] * (n + 1)
        cs[0] = -Fraction(a)
        cs[n] += 1
        return UniPoly(_trim(cs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, x):
        out = Fraction(0) if isinstance(x, (int, Fraction)) else 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return UniPoly(_trim(cs))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return UniPoly(())
            return UniPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly(())
        cs = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    cs[i + j] += ca * cb
        return UniPoly(_trim(cs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        out = UniPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d, lc = other.degree, other.lead
        if self.degree < d:
            return UniPoly(()), self
        r = list(self.coeffs)
        q = [Fraction(0)] * (self.degree - d + 1)
        for k in range(self.degree - d, -1, -1):
            c = r[k + d] / lc
            if c:
                q[k] = c
                for i, oc in enumerate(other.coeffs):
                    r[k + i] -= c * oc
        return UniPoly(_trim(q)), UniPoly(_trim(r[:d]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly(_trim([i * c for i, c in enumerate(self.coeffs)][1:]))

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lc = self.lead
        return UniPoly(tuple(c / lc for c in self.coeffs))

    def shift(self, a) -> "UniPoly":
        """p(X + a), exact, on integers.

        With a = u/v, D the lcm of the coefficient denominators and n the
        degree, H(Y) = sum h_i Y^i with h_i = D c_i v^(n-i) has integer
        coefficients and H(Y + u) = D v^n p((Y + u)/v).  The Taylor shift by
        u runs on ints: h_i (Y + u)^i adds t_k = h_i C(i, k) u^(i-k) to the
        coefficient of Y^k, t_(k-1) = t_k u k / (i - k + 1) exactly, so each
        term of a nonzero h_i (c0^phi Phi_q'(X^M0 / c0) has few) is two
        products and one division.  The coefficient of X^k is then the k-th
        one over D v^(n-k).
        """
        cs = self.coeffs
        n = len(cs) - 1
        a = a if isinstance(a, Fraction) else Fraction(a)
        u, v = a.numerator, a.denominator
        if n < 1 or u == 0:
            return self
        D = math.lcm(*(c.denominator for c in cs))
        vpow = [1]
        for _ in range(n):
            vpow.append(vpow[-1] * v)
        out = [0] * (n + 1)
        for i, c in enumerate(cs):
            if c:
                t = c.numerator * (D // c.denominator) * vpow[n - i]
                out[i] += t
                for k in range(i, 0, -1):
                    t = t * u * k // (i - k + 1)
                    out[k - 1] += t
        return UniPoly(_trim([Fraction(h, D * vpow[n - k])
                              for k, h in enumerate(out)]))

    def compose_monomial(self, k: int) -> "UniPoly":
        """p(X^k)."""
        if k < 1:
            raise ValueError("k must be positive")
        cs = [Fraction(0)] * (self.degree * k + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            cs[i * k] = c
        return UniPoly(_trim(cs))

    def content_and_primitive(self) -> tuple[Fraction, "UniPoly"]:
        """c, p with self = c * p, p in Z[X] primitive with positive lead."""
        if self.is_zero:
            return Fraction(0), self
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        if self.lead < 0:
            content = -content
        return content, UniPoly(tuple(c / content for c in self.coeffs))

    def int_coeffs(self) -> list[int]:
        """Coefficients as integers; raises if any is not integral."""
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("non-integer coefficient")
        return [c.numerator for c in self.coeffs]

    def to_strings(self) -> list[str]:
        return [rational_text(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "UniPoly('0')"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            if c == 1 and term:
                s = term
            elif c == -1 and term:
                s = f"-{term}"
            else:
                s = f"{c}{'*' + term if term else ''}"
            parts.append(s)
        return "UniPoly('" + " + ".join(parts).replace("+ -", "- ") + "')"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: f = c * prod g_i^i with the g_i squarefree, coprime."""
    if f.degree < 1:
        return []
    out = []
    fp = f.derivative()
    a = poly_gcd(f, fp)
    b = f // a
    c = fp // a
    i = 1
    while b.degree >= 1:
        d = c - b.derivative()
        g = poly_gcd(b, d)
        if g.degree >= 1:
            out.append((g.monic(), i))
        b = b // g
        c = d // g
        i += 1
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> UniPoly:
    """The n-th cyclotomic polynomial, of degree phi(n): the Moebius product
    prod_{d | n} (X^(n/d) - 1)^mu(d) on Python ints, as power series mod
    X^(phi(n) + 1), where the product is exact."""
    if n < 1:
        raise ValueError("n must be >= 1")
    top = euler_phi(n)
    cs = [1] + [0] * top
    for d, mu in moebius_divisors(n):
        # times X^k - 1 (old values, downwards) or over it (new values,
        # upwards): both are c_i <- c_(i-k) - c_i
        k = n // d
        for i in (range(top, -1, -1) if mu == 1 else range(top + 1)):
            cs[i] = (cs[i - k] if i >= k else 0) - cs[i]
    return UniPoly(tuple(Fraction(c) for c in cs))


def newton_polygon_root_valuations(f: UniPoly, p: int) -> list[Fraction]:
    """ord_p of the nonzero roots of f in an algebraic closure of Q_p.

    Lower convex hull of the integer points (i, ord_p(c_i)) over the nonzero
    c_i; each hull segment of slope s and horizontal length L contributes L
    roots of valuation -s.  Zero roots (low zero coefficients) leave no
    point and are not reported.  Its readers: factor_poly, the segments
    for its irreducibility certificate (polyfactor._newton_degrees), and
    bounds.first_newton_slope, the largest valuation for the ramified
    distances of the scan.
    """
    if f.is_zero:
        raise ZeroInput("Newton polygon of the zero polynomial")
    pts = [(i, ord_p(c, p)) for i, c in enumerate(f.coeffs) if c != 0]
    hull: list[tuple[int, int]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the hull lower-convex
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    out: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.extend([Fraction(y1 - y2, x2 - x1)] * (x2 - x1))
    return sorted(out)
