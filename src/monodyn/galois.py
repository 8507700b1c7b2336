"""Galois orbits of radical points, class polynomials and class norms.

Setting: a point zeta * rho with rho = c0^(1/M0) > 0 in canonical form
(c0 > 0 rational, M0 minimal) and zeta = e^(2 pi i t).  Every conjugate is
another root-of-unity multiple of rho, so orbits are computed inside the
Galois field F = Q(zeta_L, rho): its automorphisms are the pairs
(k in (Z/L)^x, m in Z/M0) acting by zeta_L -> zeta_L^k, rho -> zeta_M0^m rho.

All pairs occur, except that when M0 is even and sqrt(c0) lies in Q(zeta_L)
(conductor of Q(sqrt(c0)) divides L) the single constraint
(-1)^m = chi(k) applies, with chi the quadratic character of Q(sqrt(c0)).
This is complete: the canonical form forces X^M0 - c0 irreducible, and the
maximal abelian subfield of Q(rho) is Q(sqrt(c0)) for even M0 and Q for odd
M0, so no deeper entanglement with the cyclotomic part is possible.

Classes in closed form: all pairs act transitively on the q'-set of angles
t whose e^(2 pi i M0 t) has order q'.  Under the constraint (conductor f) a
q'-set is two genuine twins iff f | 2q' and (q' odd or chi(1 + q') = -1),
told apart by the chi-sign that picks their Aurifeuillian factor below;
otherwise it is one class, equal to its own 1/M0-shifted twin.

Class polynomials: for a class inside X^N - a, with q' the order of
e^(2 pi i M0 t), multiplying out the m-fibers (prod_m (X - zeta_M0^m y) =
X^M0 - y^M0) and collapsing the k-sum to primitive q'-th roots gives

    W(X) = c0^phi(q') * Phi_{q'}(X^M0 / c0),

monic of degree M0 phi(q').  W is the minimal polynomial of every class of
that full degree: cyclotomic (M0 = 1), real radical, plain, and entangled
classes equal to their own 1/M0-shifted twin.  Only a genuine twin (degree
M0 phi(q')/2) is a proper factor of W: with c0 = d s^2, d squarefree, it is
one of the two Aurifeuillian factors of d^phi(q') Phi_{q'}(y^2 / d) at
y = X^(M0/2) / s, built exactly from Gauss-sum power sums.

Class norms: |Nm(beta - alpha)| = |f(beta)| for the class polynomial f.
For a full class that is W(beta), whose valuations come from
lifting-the-exponent arithmetic on the Moebius pieces x^j - 1
(x = beta^M0 / c0), never from materializing W(beta).  A genuine twin's
norm is the value r^phi B(beta^(M0/2) / r) of its Aurifeuillian factor,
r = (twin sign) s, by integer Horner: no class polynomial is built on the
norm path, so it has no degree cap.  A zero norm (beta in the orbit) is
rejected once, when the norm data is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import BetaIsConjugate, DegreeCapExceeded, ZeroInput
from .exactreal import PosReal
from .places import _log_fraction
from .polynomials import UniPoly, _moebius_divisors, cyclotomic_poly
from .primes import (euler_phi, factorint, kronecker, ord_p,
                     quadratic_conductor, squarefree_kernel)
from .radical import RadicalPoint, _mod1

DEGREE_CAP = 512

# ---------------------------------------------------------------------------
# unit group generators


@lru_cache(maxsize=None)
def unit_group_generators(n: int) -> tuple[int, ...]:
    """Generators of (Z/n)^x, assembled from prime-power parts by CRT."""
    if n <= 2:
        return ()
    gens = []
    fac = factorint(n)
    for p, e in fac.items():
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


@dataclass(frozen=True)
class ConjugacyClass:
    """A Galois orbit inside the root set of X^N = a."""

    N: int
    a: Fraction
    modulus: PosReal              # shared by every root
    angles: tuple[Fraction, ...]  # sorted orbit angles, len = degree
    c0: Fraction                  # canonical radicand of the modulus
    M0: int                       # canonical radical index
    entangled: bool

    @property
    def degree(self) -> int:
        return len(self.angles)

    @property
    def representative(self) -> RadicalPoint:
        return RadicalPoint(self.modulus, self.angles[0])

    def angle_order(self) -> int:
        """Order q' of e^(2 pi i M0 t); class invariant."""
        t = self.angles[0]
        return (self.M0 * t - int(self.M0 * t)).denominator

    def progressions(self) -> int:
        """Number of step-1/M0 arithmetic progressions forming the angles:
        the distinct residues M0 t mod 1, which are the phi(q') fractions of
        exact order q'."""
        return euler_phi(self.angle_order())


def entanglement(c0: Fraction, M0: int, L: int) -> int:
    """Conductor f of Q(sqrt(c0)) when sqrt(c0) is entangled with zeta_L,
    i.e. M0 even, sqrt(c0) irrational and f | L; 0 otherwise."""
    d = 1 if M0 % 2 else squarefree_kernel(c0)
    if d == 1:
        # odd M0 or sqrt(c0) rational: the m-parity is free, no constraint
        return 0
    f = quadratic_conductor(d)
    return 0 if L % f else f


def _splits(q: int, f: int) -> bool:
    """Whether an entangled q'-set is two genuine twins (conductor f)."""
    return 2 * q % f == 0 and (q % 2 == 1 or kronecker(f, 1 + q) == -1)


def _twin_sign(M0: int, t: Fraction, q: int, f: int) -> int:
    """The chi-sign of angle t in a genuine-twin q'-set: the class of t is
    a root set of B(sign * y), y = sqrt(d) e^(pi i r / q'), r = M0 t q'."""
    r = int(M0 * t * q) % (2 * q)
    return kronecker(f, r) if r % 2 else -kronecker(f, r + q)


_decompose_cache: dict[tuple[int, Fraction], list] = {}


def decompose_binomial_roots(N: int, a: Fraction) -> list[ConjugacyClass]:
    """Conjugacy classes of the N roots of X^N = a (N >= 1, a != 0), sorted
    by first angle.  Root j (angle t = (2j + shift)/(2N), shift 0 for a > 0
    and 1 for a < 0) lies in the q'-set q' = 2N / gcd(M0 (2j + shift), 2N);
    an entangled q'-set with f | 2q' and (q' odd or chi(1 + q') = -1) is
    split by the twin sign into two genuine twins, any other is one class."""
    a = Fraction(a)
    if a == 0:
        raise ZeroInput("binomial needs a != 0")
    cached = _decompose_cache.get((N, a))
    if cached is not None:
        return cached
    modulus = PosReal.of(a, Fraction(1, N))
    c0, M0 = modulus.radical_form()
    L = 2 * N
    f = entanglement(c0, M0, L)
    groups: dict[tuple[int, int], list[Fraction]] = {}
    for num in range(int(a < 0), L, 2):     # t = num / L, num = 2j + shift
        q = L // math.gcd(M0 * num, L)
        t = Fraction(num, L)
        sign = _twin_sign(M0, t, q, f) if f and _splits(q, f) else 0
        groups.setdefault((q, sign), []).append(t)
    out = sorted((ConjugacyClass(N, a, modulus, tuple(angles), c0, M0, f > 0)
                  for angles in groups.values()), key=lambda c: c.angles[0])
    if len(_decompose_cache) > 4096:
        _decompose_cache.clear()
    _decompose_cache[(N, a)] = out
    return out


def class_of_point(x: RadicalPoint) -> ConjugacyClass:
    """The Galois orbit of a radical point, via its minimal rational binomial."""
    n0, a0 = x.rational_binomial()
    for cls in decompose_binomial_roots(n0, a0):
        if x.angle in cls.angles:
            return cls
    raise AssertionError("point missing from its own binomial")


def twin_class(cls: ConjugacyClass) -> ConjugacyClass:
    """The 1/M0-angle-shifted partner orbit (entangled case)."""
    shifted = _mod1(cls.angles[0] + Fraction(1, cls.M0))
    for cand in decompose_binomial_roots(cls.N, cls.a):
        if shifted in cand.angles:
            return cand
    raise AssertionError("twin not found")


# ---------------------------------------------------------------------------
# class polynomials


def class_polynomial(cls: ConjugacyClass,
                     degree_cap: int = DEGREE_CAP) -> UniPoly:
    """The monic minimal polynomial shared by the points of the class, exact.

    W = c0^phi(q') Phi_{q'}(X^M0 / c0) for a class of full degree
    M0 phi(q').  A genuine twin takes one Aurifeuillian factor of W:
    r^phi B(X^(M0/2) / r), with B and r from _twin_factor.
    DegreeCapExceeded past degree_cap, before anything is computed.
    """
    if cls.degree > degree_cap:
        raise DegreeCapExceeded(f"degree {cls.degree} exceeds cap {degree_cap}")
    q = cls.angle_order()
    if cls.degree == cls.M0 * euler_phi(q):
        return cyclotomic_poly(q).scale_arg(1 / cls.c0).monic() \
            .compose_monomial(cls.M0)
    B, r = _twin_factor(cls)
    n = len(B) - 1
    return UniPoly.from_coeffs([c * r ** (n - i) for i, c in enumerate(B)]) \
        .compose_monomial(cls.M0 // 2)


def _twin_factor(cls: ConjugacyClass) -> tuple[tuple[int, ...], Fraction]:
    """(B, r) of a genuine twin: its class polynomial is r^phi B(X^(M0/2) / r).

    With c0 = d s^2 (d squarefree) and y = X^(M0/2) / s,
    W = s^(2 phi) (-1)^phi B(y) B(-y); the class takes B(sign y), the
    chi-sign of its first angle (_twin_sign), so r = sign * s.
    """
    q = cls.angle_order()
    d = squarefree_kernel(cls.c0)
    s2 = cls.c0 / d
    s = Fraction(math.isqrt(s2.numerator), math.isqrt(s2.denominator))
    sign = _twin_sign(cls.M0, cls.angles[0], q, quadratic_conductor(d))
    return _aurifeuillian_factor(q, d), sign * s


@lru_cache(maxsize=None)
def _aurifeuillian_factor(q: int, d: int) -> tuple[int, ...]:
    """Coefficients, low to high, of the monic integer factor B(y) of
    d^phi(q) Phi_q(y^2 / d) whose roots are sqrt(d) e^(pi i r / q) with
    chi(r) = 1 for odd r and chi(r + q) = -1 for even r, chi = kronecker(f, .)
    for the conductor f of Q(sqrt(d)) (Brent, Math. Comp. 61 (1993)).

    Its power sums s_j are integers: Ramanujan sums mod m = 2q for even j,
    Gauss sums of chi for odd j, both in closed form from g = gcd(m, j);
    Newton's identities give the coefficients with exact integer division.
    """
    n, m = euler_phi(q), 2 * q
    f = quadratic_conductor(d)
    root_df = d if d % 4 == 1 else 2 * d    # sqrt(d f): sqrt(d) * Gauss sum

    def mobius(k):
        return dict(_moebius_divisors(k)).get(k, 0)
    sums = [0]
    for j in range(1, n + 1):
        g = math.gcd(m, j)
        mj = m // g
        if j % 2 == 0:
            val = mobius(mj) * d ** (j // 2)
        elif mj % f:
            val = 0
        else:
            val = (kronecker(f, j // g) * mobius(mj // f)
                   * kronecker(f, mj // f) * d ** (j // 2) * root_df)
        sums.append(val * n // euler_phi(mj))
    a = [1]                     # B = y^n + a_1 y^(n-1) + ... + a_n
    for k in range(1, n + 1):
        a.append(-sum(sums[i] * a[k - i] for i in range(1, k + 1)) // k)
    return tuple(reversed(a))


# ---------------------------------------------------------------------------
# class norms |Nm(beta - alpha)| = |f(beta)| for the class polynomial f


def _phi_at_pm1(n: int, sign: int) -> int:
    """Phi_n(sign) in closed form: Phi_m(1) is p for m = p^k, 0 for m = 1
    and 1 otherwise; Phi_1(-1) = -2, and Phi_n(-1) = Phi_{n/2}(1) for even
    n and Phi_{2n}(1) for odd n > 1."""
    if sign == -1:
        if n == 1:
            return -2
        n = n // 2 if n % 2 == 0 else 2 * n
    if n == 1:
        return 0
    fac = factorint(n)
    return next(iter(fac)) if len(fac) == 1 else 1


@dataclass(frozen=True)
class ClassNormData:
    """log and valuations of |Nm(beta - alpha)| != 0 for one conjugacy class.

    For a class of full degree M0 phi(q') the norm is W(beta) =
    c0^phi(q') Phi_{q'}(x) with x = beta^M0 / c0, and ord_w / log_w use
    lifting-the-exponent arithmetic on x.  value holds the norm exactly
    where that is cheap: for a genuine twin, from its Aurifeuillian factor
    (class_norm_data), and for x = +-1, from Phi_{q'}(+-1) in closed form.
    """

    beta: Fraction
    c0: Fraction
    qprime: int
    x: Fraction                 # beta^M0 / c0
    value: Fraction | None      # the exact norm (twin or x = +-1), else None
    # ord_w(p) by prime p and log_w() under the key "log", once computed
    _memo: dict = field(default_factory=dict, compare=False, hash=False,
                        repr=False)

    def ord_w(self, p: int) -> Fraction:
        """ord_p of the norm, exact; computed once per prime."""
        total = self._memo.get(p)
        if total is not None:
            return total
        if self.value is not None:
            total = Fraction(ord_p(self.value, p))
        else:
            total = Fraction(euler_phi(self.qprime) * ord_p(self.c0, p))
            for d, mu in _moebius_divisors(self.qprime):
                j = self.qprime // d
                total += mu * Fraction(_ord_power_minus_one(self.x, j, p))
        self._memo[p] = total
        return total

    def log_w(self) -> float:
        """log of the norm's absolute value; computed once."""
        total = self._memo.get("log")
        if total is not None:
            return total
        if self.value is not None:
            total = _log_fraction(abs(self.value))
        else:
            total = euler_phi(self.qprime) * _log_fraction(self.c0)
            for d, mu in _moebius_divisors(self.qprime):
                j = self.qprime // d
                total += mu * _log_abs_power_minus_one(self.x, j)
        self._memo["log"] = total
        return total


def class_norm_data(cls: ConjugacyClass, beta: Fraction) -> ClassNormData:
    """Norm data of the class at beta, any degree; BetaIsConjugate when the
    norm is 0, i.e. beta lies in the orbit (then the orbit has degree 1, x
    is +-1 and Phi_{q'}(x) = 0).  A genuine twin's norm is r^n B(z / r),
    z = beta^(M0/2), n = phi(q') (_twin_factor); with z / r = u / v in
    integers it is H / (den(r) den(z))^n for H = sum B_i u^i v^(n - i),
    by homogeneous Horner."""
    beta = Fraction(beta)
    if beta == 0:
        raise ZeroInput("beta must be nonzero")
    qprime = cls.angle_order()
    x = beta ** cls.M0 / cls.c0
    n = euler_phi(qprime)
    value = None
    if cls.degree < cls.M0 * n:
        B, r = _twin_factor(cls)
        z = beta ** (cls.M0 // 2)
        u, v = z.numerator * r.denominator, z.denominator * r.numerator
        h, vk = 0, 1
        for c in reversed(B):
            h = h * u + c * vk
            vk *= v
        value = Fraction(h, (r.denominator * z.denominator) ** n)
    elif x in (1, -1):
        value = cls.c0 ** n * _phi_at_pm1(qprime, int(x))
    if value == 0:
        raise BetaIsConjugate("beta lies in the orbit")
    return ClassNormData(beta, cls.c0, qprime, x, value)


# --- valuation and log helpers on x^j - 1 -----------------------------------


def _ord_power_minus_one(x: Fraction, j: int, p: int) -> Fraction:
    """ord_p(x^j - 1) for rational x != +-1."""
    if x in (1, -1):
        raise ZeroInput("x = +-1 takes the closed form")
    v = ord_p(x, p)
    if v > 0:
        return Fraction(0)
    if v < 0:
        return Fraction(j * v)
    num, den = x.numerator, x.denominator
    if p == 2:
        e1 = _int_ord(num - den, 2)
        if j % 2 == 1:
            return Fraction(e1)
        e2 = _int_ord(num + den, 2)
        return Fraction(e1 + e2 + _int_ord(j, 2) - 1)
    r = _mult_order(x, p)
    if j % r:
        return Fraction(0)
    e0 = _ord_xr_minus_one(num, den, r, p)
    return Fraction(e0 + _int_ord(j // r, p))


def _int_ord(n: int, p: int) -> int:
    if n == 0:
        raise ZeroInput("ord of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=None)
def _p_minus_one_factors(p: int) -> tuple[int, ...]:
    return tuple(factorint(p - 1))


def _mult_order(x: Fraction, p: int) -> int:
    xb = x.numerator * pow(x.denominator, -1, p) % p
    r = p - 1
    for q in _p_minus_one_factors(p):
        while r % q == 0 and pow(xb, r // q, p) == 1:
            r //= q
    return r


def _ord_xr_minus_one(num: int, den: int, r: int, p: int) -> int:
    """ord_p(num^r - den^r) for p-units, adaptive modular doubling."""
    k = 8
    while True:
        mod = p ** k
        if (pow(num, r, mod) - pow(den, r, mod)) % mod:
            break
        k *= 2
    diff = pow(num, r, p ** k) - pow(den, r, p ** k)
    v = 0
    while diff % p == 0:
        diff //= p
        v += 1
    return v


def _log_abs_power_minus_one(x: Fraction, j: int) -> float:
    """log|x^j - 1| for rational x != +-1, stable for huge exponent sizes."""
    L = j * _log_fraction(abs(x))
    if L > 40:
        return L          # |x^j - 1| = |x|^j within exp(-40)
    if L < -40:
        return 0.0
    # moderate magnitude: x^j may still have a huge representation, so work
    # with high-precision logs rather than the value itself
    with mp.workprec(120):
        lx = mp.log(abs(x.numerator)) - mp.log(x.denominator)
        if x > 0 or j % 2 == 0:
            val = mp.expm1(j * lx)       # x^j - 1 with x^j = e^(j lx) > 0
            return float(mp.log(abs(val)))
        # x^j < 0: |x^j - 1| = |x|^j + 1
        return float(mp.log(mp.exp(j * lx) + 1))

