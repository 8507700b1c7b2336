"""Integer and rational factorization primitives.

Deterministic Miller-Rabin below 3.3 * 10^24, Brent-cycle Pollard rho above
trial division, and exponent-map factorizations of rationals.  Everything here
is exact; floats never enter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import FactorBudgetExceeded, ZeroInput

# Pollard rho word operations per composite over all its seeds: a step mod
# n of w 64-bit words costs w^2, a cycle-search round of length r 2r steps.
# 2^24 is twice what a 77-bit composite took in the tests.
RHO_WORD_BUDGET = 1 << 24


def _sieve_primes(limit: int) -> tuple[int, ...]:
    mark = bytearray([1]) * (limit + 1)
    mark[0:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if mark[i]:
            mark[i * i::i] = b"\0" * len(mark[i * i::i])
    return tuple(i for i in range(limit + 1) if mark[i])


# the primes below 1000: factorint's trial divisors, and the primes at which
# factor_poly reads Newton polygons.  is_prime trial-divides by the first 50
# (up to 229) and takes the first 12 (up to 37) as its Miller-Rabin witness
# set, deterministic for all n < 3,317,044,064,679,887,385,961,981.
TRIAL_PRIMES = _sieve_primes(1000)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in TRIAL_PRIMES[:50]:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in TRIAL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n, Brent's cycle variant, within
    RHO_WORD_BUDGET word operations or FactorBudgetExceeded."""
    if n % 2 == 0:
        return 2
    gcd = math.gcd
    seed = 1
    steps = 0
    cost = (-(-n.bit_length() // 64)) ** 2     # word operations per step
    while True:
        y = (seed * 2 + 1) % n
        c = (seed * 3 + 7) % n or 1
        m = 256
        g = r = q = 1
        x = ys = y
        while g == 1:
            if (steps + 2 * r) * cost > RHO_WORD_BUDGET:
                raise FactorBudgetExceeded(f"no factor of a {n.bit_length()}"
                                           "-bit composite in budget")
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        seed += 1


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ZeroInput("0 has no factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n, out[p] = _strip(n, p)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # perfect-power peel before rho: cheap and helps rho's worst case
        root = _perfect_power(m)
        if root is not None:
            b, k = root
            stack.extend([b] * k)
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(b, k) with n = b^k for a prime k, or None (prime k suffices here)."""
    if n < 4:
        return None
    for k in TRIAL_PRIMES[:18]:             # the primes up to 61
        if k >= n.bit_length():
            break
        b = _iroot(n, k)
        if b ** k == n:
            return b, k
    return None


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative input")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def power_product(pairs) -> tuple[int, int]:
    """Coprime (num, den) with num / den = prod p^k over the (p, k) pairs
    of distinct primes: one product of prime powers per side, no gcd."""
    num = den = 1
    for p, k in pairs:
        if k > 0:
            num *= p ** k
        elif k < 0:
            den *= p ** -k
    return num, den


def factor_fraction(x: Fraction | int) -> dict[int, int]:
    """{p: ord_p x} over the primes of a nonzero rational, in increasing p:
    the exponent map factorint gives an integer, negative below the line.
    The sign of x is not part of it."""
    x = abs(Fraction(x))
    if x == 0:
        raise ZeroInput("0 has no factorization")
    exps = factorint(x.numerator)
    exps.update((p, -e) for p, e in factorint(x.denominator).items())
    return dict(sorted(exps.items()))


def ord_p(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if not x:
        raise ZeroInput("ord_p(0) is +infinity")
    n = x.numerator
    if n % p == 0:
        return _strip(n, p)[1]
    d = x.denominator
    return -_strip(d, p)[1] if d % p == 0 else 0


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) for e = ord_p(n) >= 1, in O(log e) divisions: by p,
    then by p, p^2, p^4, ... while they divide, then by those downwards."""
    n //= p
    pows = [p]
    while n % pows[-1] == 0:
        n //= pows[-1]
        pows.append(pows[-1] ** 2)
    e = 1 << (len(pows) - 1)
    for i in range(len(pows) - 2, -1, -1):
        if n % pows[i] == 0:
            n //= pows[i]
            e += 1 << i
    return n, e


def divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, sorted."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def moebius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) over the squarefree divisors d of n, once per n: the
    Moebius pieces of Phi_n = prod (X^(n/d) - 1)^mu(d) and of phi(n)."""
    out = [(1, 1)]
    for p in factorint(n):
        out += [(d * p, -mu) for d, mu in out]
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), the sum of mu(d) n / d over the squarefree d | n."""
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    return sum(mu * (n // d) for d, mu in moebius_divisors(n))


def quadratic_conductor(d: int) -> int:
    """Conductor of Q(sqrt(d)) for squarefree d != 0, 1 (= |discriminant|)."""
    if d % 4 == 1:
        return abs(d)
    return 4 * abs(d)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    if n < 1:
        raise ValueError("kronecker expects n >= 1")
    result = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol (a/n) for odd n >= 1
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
