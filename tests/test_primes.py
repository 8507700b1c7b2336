import math
import random
import time
from fractions import Fraction as F

import pytest

from monodyn import primes
from monodyn.errors import FactorBudgetExceeded, RootOfUnityInput, ZeroInput
from monodyn.primes import (euler_phi, factor_fraction, factorint, is_prime,
                            kronecker, moebius_divisors, ord_p,
                            quadratic_conductor)
from oracles import max_power_exponent


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 48):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert is_prime(1000000007)
    # strong pseudoprime to several bases
    assert not is_prime(3215031751)


def test_factorint_reconstructs():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.getrandbits(rng.randint(2, 50)) + 2
        fac = factorint(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            assert e >= 1
            prod *= p ** e
        assert prod == n


def test_factorint_edges():
    assert factorint(1) == {}
    assert factorint(-12) == {2: 2, 3: 1}
    assert factorint(997 ** 3) == {997: 3}
    with pytest.raises(ZeroInput):
        factorint(0)


def test_factorint_step_budget(monkeypatch):
    # a semiprime with two 31-bit factors needs tens of thousands of rho
    # steps: it factors under the default budget and raises under a tiny one
    n = 2147483647 * 2147483659
    assert factorint(n) == {2147483647: 1, 2147483659: 1}
    monkeypatch.setattr(primes, "RHO_WORD_BUDGET", 1000)
    with pytest.raises(FactorBudgetExceeded):
        factorint(n)


def test_factor_fraction():
    f = factor_fraction(F(-12, 35))
    assert f == {2: 2, 3: 1, 5: -1, 7: -1} and list(f) == [2, 3, 5, 7]
    assert factor_fraction(1) == {} and factor_fraction(F(-1, 9)) == {3: -2}


def test_factor_fraction_merges_factorint():
    # the exponent map of x is that of its numerator, less that of its
    # denominator, in increasing p
    rng = random.Random(22)
    for _ in range(300):
        num = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(1, 12))
        x = F(num, rng.randint(1, 10 ** rng.randint(1, 12)))
        expect = dict(factorint(x.numerator))
        for p, e in factorint(x.denominator).items():
            expect[p] = expect.get(p, 0) - e
        got = factor_fraction(x)
        assert got == expect and list(got) == sorted(expect), x


def test_ord_p():
    assert ord_p(F(12), 2) == 2
    assert ord_p(F(12), 3) == 1
    assert ord_p(F(5, 8), 2) == -3
    assert ord_p(F(7), 5) == 0


def test_euler_phi_brute():
    import math
    for n in range(1, 200):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == brute
    assert euler_phi(12) == 4


@pytest.mark.parametrize("a,expect", [
    (F(16), (4, F(2), 1)),
    (F(-8), (3, F(-2), 1)),
    (F(12), (1, F(12), 1)),
    (F(-4), (2, F(2), -1)),
    (F(8, 27), (3, F(2, 3), 1)),
    (F(-1, 32), (5, F(-1, 2), 1)),
    (F(4, 9), (2, F(2, 3), 1)),
])
def test_max_power_exponent(a, expect):
    ell, x, xi = max_power_exponent(a)
    assert (ell, x, xi) == expect
    assert xi * x ** ell == a


def test_max_power_exponent_maximal():
    # no larger exponent admits a rational witness with either sign
    for a in (F(16), F(-4), F(36), F(-27, 8)):
        ell, x, xi = max_power_exponent(a)
        for bigger in range(ell + 1, 3 * ell + 1):
            found = False
            for num in range(-40, 41):
                for den in range(1, 12):
                    y = F(num, den)
                    if y != 0 and (y ** bigger == a or -(y ** bigger) == a):
                        found = True
            assert not found, (a, bigger)


def test_max_power_exponent_rejects_units():
    for a in (0, 1, -1):
        with pytest.raises((RootOfUnityInput, ZeroInput)):
            max_power_exponent(F(a))


def test_kronecker_against_legendre():
    # quadratic residues by brute force at odd primes
    for p in (3, 5, 7, 11, 13):
        residues = {pow(a, 2, p) for a in range(1, p)}
        for a in range(1, p):
            expect = 1 if a in residues else -1
            assert kronecker(a, p) == expect
    assert [kronecker(2, k) for k in (1, 3, 5, 7)] == [1, -1, -1, 1]


@pytest.mark.parametrize("n", [0, -1, -8])
def test_kronecker_needs_a_positive_modulus(n):
    # every caller passes n >= 1: a twin's residue, 1 + q', j / gcd(2q', j)
    with pytest.raises(ValueError):
        kronecker(5, n)


def test_factorint_peels_perfect_powers(monkeypatch):
    # q = 2^64 - 59 and r = 2^61 - 1 are prime; their powers are no prime
    # past the trial divisors, and rho alone spends its budget on q^2
    # (FactorBudgetExceeded after seconds), so the peel must take them
    q, r = 2 ** 64 - 59, 2 ** 61 - 1
    peeled = []
    inner = primes._perfect_power

    def spy(n):
        root = inner(n)
        peeled.append(root)
        return root
    monkeypatch.setattr(primes, "_perfect_power", spy)
    for n, expect in ((q ** 2, {q: 2}), (r ** 5, {r: 5}),
                      (3 * r ** 2, {3: 1, r: 2})):
        peeled.clear()
        t0 = time.perf_counter()
        assert factorint(n) == expect
        assert time.perf_counter() - t0 < 1.0
        assert peeled[0] is not None, n


def test_quadratic_kernel_conductor():
    # the conductor of Q(sqrt(c0)), c0 = modulus^M0, from its kernel d, the
    # squarefree part of c0 read off the exponents: the kernels 2, 3, 3, 3
    # and 1 of 8, 12, 1/3, sqrt(12) and 36^(1/4), as even-M0 radicals
    from monodyn.exactreal import PosReal
    from monodyn.galois import entanglement
    assert entanglement(PosReal.of(8, F(1, 2)), 2) == 8          # d = 2
    assert entanglement(PosReal.of(12, F(1, 4)), 4) == 12        # d = 3
    assert entanglement(PosReal.of(F(1, 3), F(1, 2)), 2) == 12   # d = 3
    assert entanglement(PosReal.of(12, F(1, 2)), 2) == 12   # sqrt(12), c0 = 12
    assert entanglement(PosReal.of(36, F(1, 4)), 4) == 0    # 6^(1/2) = 36^(1/4)
    assert entanglement(PosReal.of(5, F(1, 2)), 2) == 5          # d = 1 mod 4
    assert entanglement(PosReal.of(12, F(1, 3)), 3) == 0         # odd M0
    assert quadratic_conductor(2) == 8
    assert quadratic_conductor(3) == 12
    assert quadratic_conductor(5) == 5


def _mobius_brute(n):
    """mu(n) by trial division: 0 past a square factor, else (-1)^k."""
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def test_moebius_table_and_phi_against_brute_force():
    # the table lists the squarefree divisors of n with their mu, in any
    # order; mu(n) and phi(n) read from it match the brute-force values
    mu = [0] + [_mobius_brute(n) for n in range(1, 2001)]
    for n in range(1, 2001):
        table = dict(moebius_divisors(n))
        assert len(table) == len(moebius_divisors(n))
        assert table == {d: mu[d] for d in range(1, n + 1)
                         if n % d == 0 and mu[d]}, n
        assert table.get(n, 0) == mu[n], n
        assert euler_phi(n) == \
            sum(math.gcd(k, n) == 1 for k in range(1, n + 1)), n
