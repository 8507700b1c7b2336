import math
import random
from fractions import Fraction as F

import pytest

from monodyn.errors import ZeroInput
from monodyn.places import (INF, Place, height_exact_arg, height_rational,
                            log_abs, product_formula_check)


def test_place_validation():
    with pytest.raises(ValueError):
        Place(6)
    assert Place(7).residue_norm() == 7
    assert INF.residue_norm() == 2
    assert INF.is_archimedean


def test_log_abs_examples():
    la = log_abs(F(12), Place(2))
    assert la.exponent == -2
    assert abs(la.value - (-2 * math.log(2))) < 1e-15
    assert log_abs(F(1), Place(5)).value == 0.0
    assert log_abs(F(1), INF).value == 0.0
    assert abs(log_abs(F(3, 2), INF).value - math.log(1.5)) < 1e-15
    with pytest.raises(ZeroInput):
        log_abs(F(0), INF)


def test_product_formula_examples():
    for x in (F(10, 21), F(1), F(-7), F(2 ** 40 * 3, 5 ** 10)):
        w = product_formula_check(x)
        assert w.ok
        assert all(c == 0 for _, c in w.net)


def test_product_formula_random_and_multiplicativity():
    rng = random.Random(11)
    for _ in range(100):
        x = F(rng.getrandbits(40) + 1, rng.getrandbits(40) + 1)
        y = F(rng.getrandbits(40) + 1, rng.getrandbits(40) + 1)
        assert product_formula_check(x).ok
        assert product_formula_check(x * y).ok


def test_height_examples():
    assert height_rational(F(3, 2)) == math.log(3)
    assert height_rational(F(1)) == 0.0
    assert height_rational(F(-10, 3)) == math.log(10)
    assert height_rational(F(0)) == 0.0
    assert height_exact_arg(F(-10, 3)) == 10


def test_height_identities_random():
    rng = random.Random(7)
    for _ in range(300):
        x = F(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        y = F(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        n = rng.randint(-6, 6)
        if n != 0:
            # h(x^n) = |n| h(x), exactly at the integer level
            assert height_exact_arg(x ** n) == height_exact_arg(x) ** abs(n)
        assert height_exact_arg(x * y) <= height_exact_arg(x) * height_exact_arg(y)


def test_partial_place_sums_window():
    # -h(x) <= sum over a subset of places of log|x|_v <= h(x)
    rng = random.Random(13)
    for _ in range(200):
        x = F(rng.randint(-9999, 9999) or 3, rng.randint(1, 9999))
        from monodyn.primes import factor_fraction
        places = [INF] + [Place(p) for p in factor_fraction(x)]
        subset = [v for v in places if rng.random() < 0.5]
        total = sum(log_abs(x, v).value for v in subset)
        h = height_rational(x)
        assert -h - 1e-9 <= total <= h + 1e-9
