import cmath
import math
import random
from fractions import Fraction as F

import pytest

from monodyn.errors import BadWindow, OverflowGuard, ZeroInput
from monodyn.exactreal import PosReal
from monodyn.heights import (SequenceSpec, canonical_height_closed,
                             canonical_height_iterative, equilibrium_radius,
                             height_drift, height_lower_bound_nonpreperiodic,
                             jensen_check, witness_sequence_height)
from monodyn.places import height_exact_arg, height_rational
from monodyn.preper import enumerate_preperiodic
from monodyn.radical import RadicalPoint
from monodyn.semigroup import MonomialMap, Semigroup


def G(*pairs):
    return Semigroup.from_pairs(pairs)


GZ = G(("1", 2))
G1 = G(("2", 2))
G2 = G(("2", 2), ("3", 3))
GNEG = G(("2", 2), ("1/3", -2))


def test_point_height_matches_exact_integer_oracle():
    # x = c^(1/N) e(t) with |x| = c0^(1/M0): H(x)^M0 = max(|num c0|, den c0),
    # so height_le(B) is that integer against B^M0 and height its log / M0
    rng = random.Random(22)
    ties = 0
    for _ in range(400):
        num = rng.randint(1, 7) ** rng.randint(1, 4)
        c = F(rng.choice((1, -1)) * num, rng.randint(1, 7) ** rng.randint(0, 4))
        N = rng.randint(1, 8)
        x = RadicalPoint.from_binomial_root(c, N, rng.randrange(N))
        c0, M0 = x.modulus.radical_form()
        h = height_exact_arg(c0)
        root = round(h ** (1 / M0))
        for B in range(max(1, root - 2), root + 3):
            assert x.height_le(PosReal.of(B)) == (h <= B ** M0), (x, B)
            ties += h == B ** M0
        assert math.isclose(x.height(), height_rational(c0) / M0,
                            rel_tol=1e-12, abs_tol=0), x
    assert ties > 50


def test_height_drift():
    assert height_drift(GZ) == 0.0
    assert abs(height_drift(G1) - math.log(2) / 2) < 1e-15
    assert abs(height_drift(G2) - math.log(3) / 3) < 1e-15


def test_iterative_power_map():
    est = canonical_height_iterative(GZ, SequenceSpec((), (0,)), F(3))
    assert est.value == math.log(3) and est.error_bound == 0.0 and est.steps == 0


def test_closed_form_examples():
    assert abs(canonical_height_closed(G1, (), (0,), F(1)) - math.log(2)) < 1e-15
    assert canonical_height_closed(G1, (), (0,), F(1, 2)) == 0.0
    val = canonical_height_closed(G2, (0,), (1,), F(1))
    assert abs(val - (math.log(2) / 2 + math.log(3) / 4)) < 1e-14


def test_closed_vs_iterative():
    rng = random.Random(6)
    for g in (G1, G2, GNEG):
        for _ in range(8):
            m = rng.randint(0, 2)
            g1 = tuple(rng.randrange(g.s) for _ in range(m))
            g2 = tuple(rng.randrange(g.s) for _ in range(rng.randint(1, 2)))
            beta = F(rng.randint(1, 9), rng.randint(1, 9))
            seq = SequenceSpec(g1, g2)
            est = canonical_height_iterative(g, seq, beta, tol=1e-10)
            closed = canonical_height_closed(g, g1, g2, beta)
            assert abs(est.value - closed) <= est.error_bound + 1e-9


def test_functional_equation():
    for g in (G1, G2, GNEG):
        for g1 in [(), (0,)]:
            for g2 in [(0,), (g.s - 1,)]:
                for beta in (F(3), F(5, 7)):
                    first = (g1 + g2)[0]
                    d1 = g.generators[first].d
                    target = canonical_height_closed(g, g1, g2, beta)
                    fb = RadicalPoint.from_rational(beta).apply(g.generators[first])
                    if g1:
                        shifted = canonical_height_closed(g, g1[1:], g2, fb)
                    else:
                        shifted = canonical_height_closed(g, (), g2[1:] + g2[:1], fb)
                    assert abs(shifted - abs(d1) * target) \
                        <= 1e-12 * max(1.0, abs(target))


def test_vanishes_on_enumerated_points():
    for g in (GZ, G1, G2):
        for ep in enumerate_preperiodic(g, 3):
            assert witness_sequence_height(g, ep.word, ep.prefix, ep.point) == 0.0


def test_nonnegative_and_power_map_equality():
    rng = random.Random(12)
    for _ in range(30):
        beta = F(rng.randint(1, 50), rng.randint(1, 50))
        v = canonical_height_closed(GZ, (), (0,), beta)
        from monodyn.places import height_rational
        assert abs(v - height_rational(beta)) < 1e-12
        assert canonical_height_closed(G2, (), (0, 1), beta) >= -1e-15


def test_lower_bound():
    assert height_lower_bound_nonpreperiodic(GZ, F(2), 3) >= math.log(2) - 1e-12
    assert height_lower_bound_nonpreperiodic(G1, F(1, 2), 4) == 0.0
    assert height_lower_bound_nonpreperiodic(G2, F(2), 3) > 0.0


def test_past_float_range_exponents_give_a_cap_or_the_value():
    # 3 * 3^(2^1100) has a log past float range: its height is a cap, while
    # the lower bound divides the exponents by |D| before any float and
    # returns log 3 (from 3^(1 + 2^-1100), and from 18^(1/2) less h(2) / 2)
    y = RadicalPoint.from_rational(3).apply(MonomialMap(3, 2 ** 1100))
    with pytest.raises(OverflowGuard):
        y.height()
    bound = height_lower_bound_nonpreperiodic(G(("2", 2), ("3", 2 ** 1100)),
                                              F(3), 1)
    assert bound == pytest.approx(math.log(3), rel=1e-12)


def test_equilibrium_radius():
    er = equilibrium_radius(G1, (), (0,))
    assert abs(er.radius - 0.5) < 1e-15
    assert er.v.is_archimedean
    # radius equals the modulus of the collision root
    from monodyn.preper import collision_binomial
    cb = collision_binomial(G2, (0, 1), 0)
    er = equilibrium_radius(G2, (), (0, 1))
    assert abs(er.radius - float(cb.a) ** (1 / cb.N)) < 1e-12


def test_jensen():
    lhs, rhs, diff = jensen_check(1.0, F(2), 1 << 14)
    assert rhs == math.log(2) and abs(diff) < 1e-9
    lhs, rhs, diff = jensen_check(1.0, F(1, 2), 1 << 14)
    assert rhs == 0.0 and abs(diff) < 1e-9
    lhs, rhs, diff = jensen_check(0.5, F(3), 1 << 16)
    assert abs(rhs - math.log(3)) < 1e-15 and abs(diff) < 1e-6
    with pytest.raises(BadWindow):
        jensen_check(1.0, F(2), 8)
    with pytest.raises(ZeroInput):
        jensen_check(0.0, F(2), 64)


def test_jensen_diff_halves():
    for beta in (F(3, 2), F(2, 3)):
        prev = None
        for k in (8, 9, 10, 11):
            _, _, diff = jensen_check(1.0, beta, 1 << k)
            if prev is not None and abs(prev) > 1e-13:
                assert abs(diff) <= abs(prev) / 2 + 1e-13
            prev = diff


def test_jensen_singular_rotation():
    # beta exactly on the circle at a node: the node set rotates by half-step
    lhs, rhs, diff = jensen_check(1.0, F(1), 1 << 10)
    assert math.isfinite(lhs)
    # the node at angle 1/2 sits on beta = -1: the grid turns as for beta = 1
    assert jensen_check(1.0, F(-1), 4096) == jensen_check(1.0, F(1), 4096) \
        == (math.log(2) / 4096, 0.0, math.log(2) / 4096)


def _jensen_oracle(r: float, beta: F, n: int) -> float:
    """Mean of log|r e(k/n) - beta| over the nodes, by fsum, on the grid
    turned half a step when a node is beta (beta = r, or -r with n even)."""
    b = float(beta)
    turn = 0.5 if b == r or (b == -r and n % 2 == 0) else 0.0
    return math.fsum(math.log(abs(r * cmath.exp(2j * math.pi * (k + turn) / n) - b))
                     for k in range(n)) / n


def test_jensen_matches_node_sum():
    for r in (0.25, 1.0, 2.0):
        R = F(r)
        for beta in (F(0), R, -R, R / 3, -R / 3, 3 * R, -3 * R):
            for n in (16, 17, 1024, 1025):
                lhs, rhs, diff = jensen_check(r, beta, n)
                assert abs(lhs - _jensen_oracle(r, beta, n)) < 1e-12, (r, beta, n)
                assert abs(rhs - math.log(max(r, abs(beta)))) < 1e-15
                assert diff == lhs - rhs


def test_jensen_extremes():
    # beta = 0, |beta| past the float range either way and 2^20 nodes
    assert jensen_check(1.0, F(0), 1 << 20) == (0.0, 0.0, 0.0)
    for e in (300, 400, 4000):
        lhs, rhs, diff = jensen_check(1.0, F(10) ** e, 1 << 20)
        assert abs(rhs - e * math.log(10)) < 1e-9 * e and diff == 0.0
        assert jensen_check(1.0, -F(1, 10 ** e), 1 << 20) == (0.0, 0.0, 0.0)
