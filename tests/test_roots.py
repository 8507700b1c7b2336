import math
from fractions import Fraction as F

import pytest

from monodyn.places import height_rational
from monodyn.polynomials import UniPoly
from oracles import (ReducibleInput, height_from_minpoly, isolate_roots,
                     mahler_height)


def P(*cs):
    return UniPoly.from_coeffs(cs)


def test_isolate_roots_quadratic():
    disks = isolate_roots(P(-2, 0, 1))
    roots = sorted(z.real for z, _ in disks)
    assert abs(roots[0] + math.sqrt(2)) < 1e-12
    assert abs(roots[1] - math.sqrt(2)) < 1e-12
    assert all(r < 1e-10 for _, r in disks)


def test_isolate_roots_cluster():
    # nearby but distinct roots still get disjoint certified disks
    f = P(1, 1) * P(F(1001, 1000), 1) * P(-3, 1)
    disks = isolate_roots(f)
    assert len(disks) == 3
    for z1, r1 in disks:
        for z2, r2 in disks:
            if z1 != z2:
                assert abs(z1 - z2) > r1 + r2


def test_heights_match_rational():
    for x in (F(3, 2), F(7), F(-5, 9)):
        f = P(-x, 1)
        assert abs(height_from_minpoly(f) - height_rational(x)) < 1e-12


def test_height_examples():
    assert abs(height_from_minpoly(P(-2, 0, 1)) - math.log(2) / 2) < 1e-12
    assert abs(height_from_minpoly(P(3, 0, 1)) - math.log(3) / 2) < 1e-12
    # root of unity: height zero
    assert abs(height_from_minpoly(P(1, 1, 1))) < 1e-12


def test_height_power_identity():
    # h(2^(1/5)) = log(2)/5 via X^5 - 2
    assert abs(height_from_minpoly(UniPoly.binomial(5, 2)) - math.log(2) / 5) < 1e-12


def test_reducible_rejected():
    with pytest.raises(ReducibleInput):
        height_from_minpoly(P(-1, 0, 1))


def test_mahler_scaling():
    # M(c f) scales by |c|; the normalized height uses the primitive part
    f = P(-2, 0, 1)
    assert abs(mahler_height(f) - mahler_height(f * 7)) < 1e-12
