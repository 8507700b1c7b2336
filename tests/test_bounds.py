import math
import random
from fractions import Fraction as F

import pytest

from monodyn.bounds import (LinFormInstance, circle_disc_measure,
                            disc_count_check, discrepancy_exact,
                            distance_bound_constant, distance_lower_bound,
                            first_newton_slope, linform_bound,
                            linform_degree_constant, theta, theta_floor,
                            unity_neighbor_count, verify_linform)
from monodyn.bounds import test_function_energy as window_energy
from monodyn.bounds import test_function_lipschitz as window_lipschitz
from monodyn.errors import BadWindow, DegenerateDegree, LambdaZero
from monodyn.galois import decompose_binomial_roots
from monodyn.places import INF, Place
from monodyn.polynomials import UniPoly, newton_polygon_root_valuations
from monodyn.radical import RadicalPoint
from monodyn.semigroup import Semigroup
from oracles import discrepancy_brute, first_slope_by_definition


def test_degree_constant():
    assert abs(linform_degree_constant(1, 1) - 12 * (16 * math.e) ** 5) < 1
    assert abs(linform_degree_constant(2, 1) - 12 * (16 * math.e) ** 8) < 1e3
    # the max(1, log d)^2 factor is 1 at d = 1
    assert linform_degree_constant(1, 1) == 12 * (16 * math.e) ** 5


def test_theta():
    fl = theta_floor(1)
    assert abs(fl - 2 / math.log(3) ** 3) < 1e-15
    assert theta([F(2)]) == fl             # log 2 sits below the floor
    assert theta([F(1)]) == fl
    v = theta([F(2), F(3)])
    assert abs(v - fl * max(math.log(3), fl)) < 1e-12


def test_linform_examples():
    inst = LinFormInstance((F(2),), (1,), INF)
    assert inst.lam() == 1 and verify_linform(inst)
    inst = LinFormInstance((F(3, 2),), (7,), INF)
    assert inst.lam() == F(2059, 128) and verify_linform(inst)
    inst = LinFormInstance((F(2),), (-1,), Place(3))
    assert inst.lam() == F(-1, 2) and verify_linform(inst)
    with pytest.raises(LambdaZero):
        verify_linform(LinFormInstance((F(2), F(4)), (2, -1), INF))


def test_linform_harness_random():
    pool = [F(x) for x in ("2", "3", "5", "1/2", "3/2", "-2", "5/3", "-7/4")]
    rng = random.Random(31)
    places = [INF, Place(2), Place(3), Place(5)]
    done = 0
    while done < 300:
        n = rng.randint(1, 3)
        alphas = tuple(rng.choice(pool) for _ in range(n))
        bs = tuple(rng.randint(-50, 50) for _ in range(n))
        if all(b == 0 for b in bs):
            continue
        inst = LinFormInstance(alphas, bs, rng.choice(places))
        if inst.lam() == 0:
            continue
        assert verify_linform(inst)
        done += 1


def test_truncated_log_window():
    assert abs(window_energy(1 / math.e, math.e) - 2.0) < 1e-14
    assert abs(window_energy(0.25, 0.5) - math.log(2)) < 1e-15
    assert window_lipschitz(0.1) == 10.0
    with pytest.raises(BadWindow):
        window_energy(2.0, 1.0)
    # log additivity
    a = window_energy(0.1, 0.7)
    b = window_energy(0.7, 2.9)
    c = window_energy(0.1, 2.9)
    assert abs(a + b - c) < 1e-12


def test_discrepancy_examples():
    assert discrepancy_exact([F(j, 8) for j in range(8)]) == F(1, 8)
    assert discrepancy_exact([F(0)]) == 1
    assert discrepancy_exact([F(j, 5) for j in range(5)]) == F(1, 5)


def test_discrepancy_fast_equals_brute():
    rng = random.Random(55)
    for _ in range(150):
        n = rng.randint(1, 9)
        pts = sorted(set(F(rng.randrange(0, 240), 240) for _ in range(n)))
        if not pts:
            continue
        assert discrepancy_exact(pts) == discrepancy_brute(pts)


def test_discrepancy_exact_equals_brute_on_raw_angles():
    # angles as they may come from callers: negative, >= 1, repeated, with
    # mixed denominators; both routes reduce them mod 1 first
    rng = random.Random(56)
    dens = (1, 2, 3, 5, 7, 8, 12, 30, 49)
    for _ in range(300):
        n = rng.randint(1, 10)
        pts = [F(rng.randint(-3 * d, 3 * d), d)
               for d in (rng.choice(dens) for _ in range(n))]
        if rng.random() < 0.4:
            pts.append(pts[0] + rng.randint(-2, 2))
        assert discrepancy_exact(pts) == discrepancy_brute(pts), pts
    assert discrepancy_exact([F(-1, 4), F(3, 4), F(7, 4)]) == 1
    assert discrepancy_exact([F(5, 2), F(-1, 3), 0]) == \
        discrepancy_brute([F(1, 2), F(2, 3), 0])


def test_observed_distance_first_slope_on_random_polynomials():
    # oracles: the full Newton polygon and the slope's definition, which
    # reads no polygon; coefficients with prime-power numerators and
    # denominators put valuations on both sides of zero
    rng = random.Random(58)
    sizes = (1, 2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 125, 243, 1024)
    for _ in range(400):
        cs = [F(rng.choice((-1, 1)) * rng.choice(sizes) * rng.randint(1, 4),
                rng.choice(sizes)) if rng.random() > 0.2 else F(0)
              for _ in range(rng.randint(2, 14))]
        for end in (0, -1):
            if cs[end] == 0:
                cs[end] = F(1)
        f = UniPoly.from_coeffs(cs)
        for p in (2, 3, 5, 7):
            vals = newton_polygon_root_valuations(f, p)
            assert first_newton_slope(f, p) == -max(vals) \
                == first_slope_by_definition(f, p), (cs, p)


def test_disc_measure_and_count():
    assert circle_disc_measure(5.0, 0.3, 1.0) == 0.0
    assert circle_disc_measure(0.0, 1.5, 1.0) == 1.0
    assert abs(circle_disc_measure(1.0, 1.0, 1.0) - 1 / 3) < 1e-12
    roots = [complex(math.cos(2 * math.pi * j / 12), math.sin(2 * math.pi * j / 12))
             for j in range(12)]
    lhs, rhs, ok = disc_count_check(roots, 1 + 0j, 0.1, 1.0, C=2.0)
    assert lhs == 1 and ok
    lhs, rhs, ok = disc_count_check(roots, 0j, 0.2, 1.0, C=2.0)
    assert lhs == 0 and ok
    lhs, rhs, ok = disc_count_check(roots, 3 + 0j, 0.05, 1.0, C=2.0)
    assert lhs == 0 and ok


def test_distance_bound_assembly():
    G1 = Semigroup.from_pairs([("2", 2)])
    cert = distance_bound_constant(G1, INF)
    expect = (cert.c1 * cert.nv_factor * cert.theta_cap * cert.chain_exponent
              + cert.additive)
    assert abs(cert.C2 - expect) < 1e-6
    assert cert.chain_exponent == 11 and cert.additive == 25


def test_distance_examples():
    G1 = Semigroup.from_pairs([("2", 2)])
    b, obs, ok = distance_lower_bound(G1, F(3), RadicalPoint.from_rational(F(-1, 2)), INF)
    assert ok and abs(obs - math.log(F(7, 2))) < 1e-12
    with pytest.raises(DegenerateDegree):
        distance_lower_bound(G1, F(3), RadicalPoint.from_rational(F(1, 2)), INF)
    G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
    alpha = RadicalPoint.from_binomial_root(F(1, 24), 5, 1)
    for v in (INF, Place(2), Place(3), Place(5)):
        _, _, ok = distance_lower_bound(G2, F(2), alpha, v)
        assert ok


def test_distance_bound_past_the_degree_cap():
    # the two genuine twins of X^8748 = 3^4374 have degree 1458, past the
    # class polynomial's cap: at 2 and 3 the valuations differ
    # (ultrametric), at 5 the sound branch reads the class norm, at
    # infinity the nearest conjugate comes from the fibers
    twins = [c for c in decompose_binomial_roots(8748, F(3) ** 4374)
             if c.degree == 1458]
    assert len(twins) == 2
    G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
    for cls in twins:
        for v in (INF, Place(2), Place(3), Place(5)):
            bound, observed, ok = distance_lower_bound(
                G2, F(2), cls.representative, v)
            assert ok and math.isfinite(observed), (cls, v)
            if v in (Place(2), Place(3)):
                # |sigma(alpha) - 2|_v = max(|alpha|_v, |2|_v) = 1
                assert observed == 0.0, (cls, v)


def test_degree_chain_inequality():
    # log(MQ) <= 11 log(deg) on enumerated structures with deg >= 2
    from monodyn.preper import enumerate_preperiodic
    from monodyn.galois import class_of_point
    from test_preper import with_structure
    G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
    for ep, sp in with_structure(G2, enumerate_preperiodic(G2, 3)):
        deg = class_of_point(ep.point).degree
        if deg < 2:
            continue
        MQ = sp.M * sp.Q
        assert math.log(MQ) <= 11 * math.log(deg) + 1e-12


def test_unity_neighbor_count():
    assert unity_neighbor_count(2, 0.8) == 4
    assert unity_neighbor_count(2, 0.6) == 2
    assert unity_neighbor_count(3, 0.6) == 3      # orders 1 and 3
    assert unity_neighbor_count(3, 0.9) == 9      # order 9 joins at 3^(-1/6)
    # brute force over p-power orders
    for p in (2, 3, 5):
        for eps in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
            brute = 1
            for n in range(1, 40):
                size = p ** (-1.0 / (p ** (n - 1) * (p - 1)))
                if size < eps:
                    brute += p ** n - p ** (n - 1)
            assert unity_neighbor_count(p, eps) == brute
    last = 0
    for eps in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999):
        c = unity_neighbor_count(7, eps)
        assert c >= last
        last = c


# the classes up to depth 6 of the test semigroups of tests/test_galois.py,
# plus its binomials with genuine twins of q' = 10, 12 and 20
DEPTH6_SEMIGROUPS = ([(2, 2), (3, 3)], [(F(-5, 2), 3), (4, -2)],
                     [(4, 2), (9, 3)])
TWIN_EXTRAS = ((10, F(3125)), (12, F(-46656)), (20, F(-10 ** 10)))


def _classes(depth):
    from monodyn.scan import word_pair_classes
    for pairs in DEPTH6_SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        yield from (cls for cls, _, _ in word_pair_classes(G, depth))
    for N, a in TWIN_EXTRAS:
        yield from decompose_binomial_roots(N, a)


def test_class_discrepancy_matches_angles():
    # oracles: discrepancy_exact on the full angle tuple, and
    # discrepancy_brute on every distinct angle set of degree <= 64
    brute_sets = set()
    twins = checked = 0
    for cls in _classes(6):
        got = cls.discrepancy
        assert got == discrepancy_exact(cls.angles), cls
        if cls.degree <= 64 and cls.angles not in brute_sets:
            brute_sets.add(cls.angles)
            assert got == discrepancy_brute(cls.angles), cls
        twins += cls.sign != 0
        checked += 1
    assert checked > 2500 and twins > 100 and len(brute_sets) > 100


def _arch_by_conjugate(cls, beta):
    """The former per-conjugate archimedean row, the oracle: log|sigma -
    beta| for each angle at the scale max(|alpha|, |beta|), then their
    math.fsum mean and their least value."""
    from monodyn.places import _log_fraction
    la, lb = cls.modulus.log(), _log_fraction(abs(beta))
    lm = max(la, lb)
    a, b = math.exp(la - lm), math.exp(lb - lm)
    trig = math.sin if beta > 0 else math.cos
    logs = [lm + 0.5 * math.log((a - b) ** 2 + 4 * a * b
                                * trig(math.pi * float(t)) ** 2)
            for t in cls.angles]
    return math.fsum(logs) / len(logs), min(logs)


def test_arch_row_matches_conjugate_sum():
    from monodyn.errors import BetaIsConjugate
    from monodyn.galois import class_norm_data
    checked = 0
    for beta in (F(2), F(-3, 7), F("1e309"), F("-3e-400")):
        for cls in _classes(5):
            try:
                nd = class_norm_data(cls, beta)
            except BetaIsConjugate:
                continue
            got = nd.arch()
            want = _arch_by_conjugate(cls, beta)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (cls, beta)
            checked += 1
    assert checked > 3000
