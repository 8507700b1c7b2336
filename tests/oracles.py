"""Independent oracles kept for the tests, reached by no monodyn command:
certified complex root isolation and heights of algebraic numbers, circle
discrepancy by brute force over arcs, irreducibility evidence apart from
factor_poly (with the rational root sieve), factor_poly's prime choice and
Hensel lift without their shortcuts, the split a = xi * x^l of a
rational apart from preper.structure_decompose, the classes of X^N = a
through the general PosReal route, and the kernel and conductor of
Q(sqrt(c0)) by the Fraction rule, apart from the integers of
galois.decompose_binomial_roots and galois.entanglement, the argument
scaling that chains the closed-form class polynomial, the class norm's
log with each log taken where it is used, the float balance decision of
S-integrality that the exact one replaced, the Aurifeuillian factor by
Newton's identities over every power sum, zeros included, and the small
radical-point and polynomial helpers only tests call (roots of unity,
complex values, integer powers, the least rational power, the zero
polynomial).

Simultaneous (Durand-Kerner) iteration in mpmath arithmetic.  The a
posteriori certificate is the classical Weierstrass inclusion: for monic f of
degree n with pairwise distinct approximations z_i and corrections
W_i = f(z_i)/prod_{j!=i}(z_i - z_j), every root lies in the union of the
disks D(z_i, n|W_i|), and disjoint disks isolate exactly one root each.
Precision doubles until the disks are disjoint and small enough for the
requested output accuracy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp

from monodyn import galois
from monodyn.errors import MonodynError, RootOfUnityInput, ZeroInput
from monodyn.exactreal import PosReal
from monodyn.places import _log_fraction
from monodyn.polyfactor import (_distinct_degree, _equal_degree_split,
                                _frobenius, _next_prime, _padd, _pdivmod,
                                _pgcdext, _pmul, _psub, _squarefree_mod,
                                _subset_sums, factor_poly)
from monodyn.polynomials import UniPoly
from monodyn.primes import (divisors, euler_phi, factor_fraction, kronecker,
                            moebius_divisors, power_product,
                            quadratic_conductor)
from monodyn.radical import RadicalPoint
from monodyn.scan import _meets
from monodyn.semigroup import Semigroup, Word, check_printable


class ReducibleInput(MonodynError):
    """The minimal polynomial handed to a height oracle is reducible."""


class RootIsolationFailure(MonodynError):
    """No disjoint inclusion disks within the precision budget."""


def isolate_roots(f: UniPoly, tol: float = 1e-15, max_prec: int = 4096
                  ) -> list[tuple[complex, float]]:
    """[(approximation, certified radius)] covering all roots of f.

    f must be squarefree.  Each returned disk contains exactly one root and
    the radii are below tol * max(1, |z|).
    """
    if f.degree < 1:
        raise ZeroInput("need degree >= 1")
    n = f.degree
    monic = [c / f.lead for c in f.coeffs]
    prec = 64
    while prec <= max_prec:
        with mp.workprec(prec):
            cs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in monic]
            zs = _durand_kerner(cs, n, prec)
            if zs is not None:
                ws = [_weierstrass(cs, zs, i) for i in range(n)]
                radii = [n * abs(w) for w in ws]
                if _disks_ok(zs, radii, tol):
                    return [(complex(z), float(r)) for z, r in zip(zs, radii)]
        prec *= 2
    raise RootIsolationFailure(f"no certificate at {max_prec} bits")


def _durand_kerner(cs, n, prec):
    # spread initial points on a circle below the Cauchy root bound
    radius = 1 + max(abs(c) for c in cs[:-1]) if n else mp.mpf(1)
    zs = [radius * mp.expjpi(mp.mpf(2 * i) / n + mp.mpf(1) / (2 * n + 1))
          for i in range(n)]
    target = mp.mpf(2) ** (-(prec * 3) // 4)
    for _ in range(200 + 20 * n):
        maxw = mp.mpf(0)
        for i in range(n):
            w = _weierstrass(cs, zs, i)
            zs[i] = zs[i] - w
            maxw = max(maxw, abs(w))
        if maxw < target * max(mp.mpf(1), radius):
            return zs
    return None


def _weierstrass(cs, zs, i):
    z = zs[i]
    val = mp.mpf(0)
    for c in reversed(cs):
        val = val * z + c
    den = mp.mpf(1)
    for j, zj in enumerate(zs):
        if j != i:
            den *= (z - zj)
    if den == 0:
        return mp.mpf(1)  # forces another round at higher precision
    return val / den


def _disks_ok(zs, radii, tol):
    n = len(zs)
    for i in range(n):
        if radii[i] > tol * max(1, abs(zs[i])):
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if abs(zs[i] - zs[j]) <= radii[i] + radii[j]:
                return False
    return True


def mahler_height(f: UniPoly, tol: float = 1e-13) -> float:
    """(1/deg) log M(f^) for the integer-primitive form f^ of f.

    Equals the height of any root when f is irreducible.  The root moduli are
    certified to a radius small enough that the total error stays below tol.
    """
    if f.degree < 1:
        raise ZeroInput("need degree >= 1")
    _, prim = f.content_and_primitive()
    n = prim.degree
    # per-root certified relative error must sum below tol
    disks = isolate_roots(prim, tol=tol / (4 * n))
    total = math.log(abs(prim.lead))
    for z, r in disks:
        m = abs(z)
        if m + r <= 1:
            continue
        if m - r >= 1:
            total += math.log(m)
        else:
            # root modulus within r of 1: log+ contributes at most ~r
            total += 0.0
    return total / n


def height_from_minpoly(f: UniPoly, tol: float = 1e-13) -> float:
    """Height of the algebraic numbers with minimal polynomial f."""
    if f.degree < 1:
        raise ZeroInput("need degree >= 1")
    factors = factor_poly(f)
    if len(factors) != 1 or factors[0][1] != 1:
        raise ReducibleInput("minimal polynomial must be irreducible")
    return mahler_height(f, tol=tol)


def discrepancy_brute(angles) -> Fraction:
    """The supremum of bounds.discrepancy_exact by direct enumeration of
    closed and open arcs with endpoints at sample points."""
    pts = sorted(Fraction(t) - (Fraction(t).numerator // Fraction(t).denominator)
                 for t in angles)
    n = len(pts)
    if n == 0:
        raise ZeroInput("need at least one angle")
    best = Fraction(1) if n == 1 else Fraction(1, n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            length = pts[j] - pts[i]
            if j < i:
                # the arc wraps past 1; from a repeated angle to itself that
                # is the whole circle, not a point
                length += 1
            count_closed = (j - i) % n + 1
            count_open = count_closed - 2
            best = max(best,
                       abs(Fraction(count_closed, n) - length),
                       abs(Fraction(count_open, n) - length))
    return best


def rational_roots(f: UniPoly) -> list[Fraction]:
    """All rational roots via the numerator/denominator divisor sieve."""
    if f.degree < 1:
        return []
    _, prim = f.content_and_primitive()
    cs = prim.int_coeffs()
    out = []
    if cs[0] == 0:
        out.append(Fraction(0))
        while cs[0] == 0:
            cs.pop(0)
    for num in divisors(abs(cs[0])):
        for den in divisors(abs(cs[-1])):
            for s in (1, -1):
                r = Fraction(s * num, den)
                if r not in out and prim(r) == 0:
                    out.append(r)
    return sorted(out)


def irreducibility_certificate(f: UniPoly, primes_to_try: int = 12) -> str:
    """'irreducible', 'reducible' or 'unknown', independent of factor_poly.

    Degree 1 is irreducible; degrees 2 and 3 are decided by the rational root
    sieve.  Beyond that, an inert prime or a pinched set of attainable factor
    degrees certifies irreducibility, a rational root certifies reducibility,
    and anything else is 'unknown'.
    """
    if f.degree < 1:
        raise ZeroInput("need degree >= 1")
    if f.degree == 1:
        return "irreducible"
    _, prim = f.content_and_primitive()
    if rational_roots(prim):
        return "reducible"
    if f.degree <= 3:
        return "irreducible"
    cs = prim.int_coeffs()
    if cs[0] == 0:
        return "reducible"
    possible = set(range(f.degree + 1))
    p = 101
    tried = 0
    while tried < primes_to_try:
        p = _next_prime(p)
        if cs[-1] % p == 0:
            continue
        fp = _squarefree_mod(cs, p)
        if fp is None:
            continue
        tried += 1
        possible &= _subset_sums(_distinct_degree(fp, p, _frobenius(fp, p)))
        if possible == {0, f.degree}:
            return "irreducible"
    return "unknown"


def good_prime_factorization_oracle(f: list[int], rng, possible: set[int]):
    """polyfactor._good_prime_factorization without its shortcuts: started
    from the degrees `possible`, every one of the six good primes, from 3
    up, gets all its Frobenius rows and its full distinct-degree split, and
    the first prime with the fewest factors is split into irreducibles."""
    n = len(f) - 1
    best = None
    p = 2
    tried = 0
    while tried < 6:
        p = _next_prime(p)
        if f[-1] % p == 0:
            continue
        fp = _squarefree_mod(f, p)
        if fp is None:
            continue
        tried += 1
        rows = _frobenius(fp, p)
        dd = _distinct_degree(fp, p, rows)
        possible = possible & _subset_sums(dd)
        if possible == {0, n}:
            return None
        count = sum((len(g) - 1) // d for g, d in dd)
        if best is None or count < best[0]:
            best = (count, p, dd, rows)
    _, p, dd, rows = best
    return p, [h for g, d in dd
               for h in _equal_degree_split(g, d, p, rng, rows)], possible


def _hensel_step_full(f, g, h, s, t, m):
    """One quadratic lift from f = gh, sg + th = 1 (mod m) to the same mod
    m^2, the Bezout pair s, t included."""
    m2 = m * m
    f = [c % m2 for c in f]
    e = _psub(f, _pmul(g, h, m2), m2)
    q, r = _pdivmod(_pmul(s, e, m2), h, m2)
    g1 = _padd(g, _padd(_pmul(t, e, m2), _pmul(q, g, m2), m2), m2)
    h1 = _padd(h, r, m2)
    b = _psub(_padd(_pmul(s, g1, m2), _pmul(t, h1, m2), m2), [1], m2)
    c, d = _pdivmod(_pmul(s, b, m2), h1, m2)
    s1 = _psub(s, d, m2)
    t1 = _psub(t, _padd(_pmul(t, b, m2), _pmul(c, g1, m2), m2), m2)
    return g1, h1, s1, t1


def hensel_tree_oracle(f: list[int], facs: list[list[int]], p: int,
                       k: int) -> list[list[int]]:
    """polyfactor._hensel_tree with the Bezout pair lifted after every
    quadratic step, the last one too."""
    big = p ** (2 ** k)
    if len(facs) == 1:
        inv = pow(f[-1] % big, -1, big)
        return [[c * inv % big for c in f]]
    mid = (len(facs) + 1) // 2
    g = [f[-1] % p]
    for fac in facs[:mid]:
        g = _pmul(g, fac, p)
    h = [1]
    for fac in facs[mid:]:
        h = _pmul(h, fac, p)
    s, t = _pgcdext(g, h, p)
    m = p
    for _ in range(k):
        g, h, s, t = _hensel_step_full(f, g, h, s, t, m)
        m = m * m
    return (hensel_tree_oracle(g, facs[:mid], p, k)
            + hensel_tree_oracle(h, facs[mid:], p, k))


# ---------------------------------------------------------------------------
# word pairs


def word_pairs(G: Semigroup, n_max: int):
    """(w, m) pairs ordered by (|w|, lex, m), level by level: the order
    scan.word_pair_classes walks them in."""
    level: list[Word] = [()]
    for _ in range(n_max):
        level = [w + (i,) for w in level for i in range(G.s)]
        for w in level:
            for m in range(len(w)):
                yield w, m


# ---------------------------------------------------------------------------
# perfect powers


def max_power_exponent(a: Fraction | int) -> tuple[int, Fraction, int]:
    """Largest l with a = xi * x^l for xi in {1,-1} and rational x.

    Returns (l, x, xi) with the identity exact.  Since the only rational roots
    of unity are +-1, l is the gcd of the prime exponents of |a|, and the sign
    is absorbed by x when l is odd and by xi when l is even.
    """
    a = Fraction(a)
    if a == 0:
        raise ZeroInput("a must be nonzero")
    if a == 1 or a == -1:
        raise RootOfUnityInput("a must not be a root of unity")
    exps = factor_fraction(a)
    ell = math.gcd(*exps.values())
    x = Fraction(*power_product((p, e // ell) for p, e in exps.items()))
    if a > 0:
        return ell, x, 1
    if ell % 2 == 1:
        return ell, -x, 1
    return ell, x, -1


# ---------------------------------------------------------------------------
# conjugacy classes of X^N = a, through the general PosReal route


def decompose_by_radical_form(N: int, a: Fraction
                              ) -> list[galois.ConjugacyClass]:
    """The classes of X^N = a, uncached, in first-angle order: the modulus
    PosReal.of(a, 1/N), its radical_form() (the lcm of the exponent
    denominators and one power product) and entanglement_by_fraction, then
    the q'-sets over the divisors of n = N / M0 (their 2n / g, g | n odd,
    for a < 0).  OverflowGuard when c0 cannot be printed."""
    modulus = PosReal.of(a, Fraction(1, N))
    c0, M0 = modulus.radical_form()
    check_printable(c0)
    f = entanglement_by_fraction(modulus, M0)
    n = N // M0
    odd = n // (n & -n)
    qs = divisors(n) if a > 0 else [2 * n // g for g in divisors(odd)]
    return sorted((cls for q in qs
                   for cls in galois._qprime_set(modulus, c0, M0, q, f)),
                  key=lambda c: c.first_angle)


def quadratic_kernel(modulus: PosReal, M0: int) -> int:
    """The squarefree part d of c0 = modulus^M0: the product of the p whose
    ord_p c0, the Fraction e_p * M0, is odd."""
    return math.prod(p for p, e in modulus.exps.items() if e * M0 % 2)


def entanglement_by_fraction(modulus: PosReal, M0: int) -> int:
    """galois.entanglement by the Fraction rule: the conductor of
    Q(sqrt(d)) for even M0 and d = quadratic_kernel(modulus, M0) != 1,
    else 0."""
    d = 1 if M0 % 2 else quadratic_kernel(modulus, M0)
    return 0 if d == 1 else quadratic_conductor(d)


# ---------------------------------------------------------------------------
# class polynomials and class norms, step by step


def scale_arg(f: UniPoly, r) -> UniPoly:
    """f(r * X)."""
    r = Fraction(r)
    return UniPoly.from_coeffs([c * r ** i for i, c in enumerate(f.coeffs)])


def log_w_by_piece(nd: galois.ClassNormData) -> float:
    """ClassNormData.log_w with log|x| taken again for every Moebius piece
    and log c0 for every record, phi(q') summed from the pieces of
    primes.moebius_divisors: the floats it must equal bit for bit."""
    if nd.value is not None:
        return _log_fraction(abs(nd.value))
    q = nd.cls.qprime
    pieces = [(q // d, mu) for d, mu in moebius_divisors(q)]
    total = sum(j * mu for j, mu in pieces) * _log_fraction(nd.cls.c0)
    for j, mu in pieces:
        total += mu * galois._log_abs_power_minus_one(
            nd.x, j, _log_fraction(abs(nd.x)))
    return total


def s_integrality_by_balance(nd: galois.ClassNormData, S
                             ) -> tuple[bool, tuple[int, ...], bool]:
    """(s_integral, known_bad, certified) by the float balance: the norm's
    part outside the primes of c0, beta and S is a positive integer, so its
    log gap = log_w() - sum ord_p W log p is 0 or at least log 2; the gap is
    read as 0 below 0.2, and certified unless it falls in [0.2, log 2 - 0.2]."""
    s_primes = {v.p for v in S if not v.is_archimedean}
    known_bad = []
    gap = nd.log_w()
    for p, (oc, ob, ow) in nd.table(s_primes).items():
        if oc or ob or p in s_primes:
            if _meets(oc, ob, ow):
                known_bad.append(p)
            gap -= ow * math.log(p)
    clean = gap < 0.2
    return (clean and all(p in s_primes for p in known_bad), tuple(known_bad),
            clean or gap > math.log(2) - 0.2)


def aurifeuillian_factor_dense(q: int, f: int) -> tuple[int, ...]:
    """galois._aurifeuillian_factor with every power sum s_1 .. s_n kept
    and each Newton identity summed over all of them, the zeros too."""
    n, m = euler_phi(q), 2 * q
    d, root_df = (f, f) if f % 2 else (f // 4, f // 2)
    sums = [0]
    for j in range(1, n + 1):
        g = math.gcd(m, j)
        mj = m // g
        if j % 2 and mj % f:
            sums.append(0)
            continue
        k = mj // f if j % 2 else mj
        rad, mu = moebius_divisors(k)[-1]
        val = mu * d ** (j // 2) if rad == k else 0
        if j % 2:
            val *= kronecker(f, j // g) * kronecker(f, k) * root_df
        sums.append(val * n // euler_phi(mj))
    a = [1]
    for k in range(1, n + 1):
        a.append(-sum(sums[i] * a[k - i] for i in range(1, k + 1)) // k)
    return tuple(reversed(a))


def zero_poly() -> UniPoly:
    return UniPoly(())


def root_of_unity(t: Fraction) -> RadicalPoint:
    return RadicalPoint(PosReal.one(), t)


def complex_value(x: RadicalPoint) -> complex:
    return float(x.modulus) * cmath.exp(2j * math.pi * float(x.angle))


def point_pow(x: RadicalPoint, n: int) -> RadicalPoint:
    return RadicalPoint(x.modulus ** n, n * x.angle)


def rational_binomial(x: RadicalPoint) -> tuple[int, Fraction]:
    """Minimal n with x^n rational; returns (n, x^n)."""
    c, M = x.modulus.radical_form()
    # k (M t) lies in Z/2 exactly when the denominator q of M t divides
    # 2k; then x^(M k) = c^k e(M k t)
    q = (x.angle * M).denominator
    k = q // math.gcd(q, 2)
    val = c ** k
    if x.angle * M * k % 1 == Fraction(1, 2):
        val = -val
    return M * k, val
