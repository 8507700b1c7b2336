"""Cross-module property checks that do not belong to a single unit file."""

import concurrent.futures
import math
import random
from fractions import Fraction as F

from monodyn.bounds import disc_count_check
from monodyn.galois import class_of_point
from monodyn.heights import equilibrium_radius
from monodyn.places import INF, Place, height_rational
from monodyn.polyfactor import factor_poly
from monodyn.polynomials import UniPoly, cyclotomic_poly
from monodyn.preper import (CollisionBinomial, capelli_reducible,
                            collision_binomial, enumerate_preperiodic,
                            structure_decompose)
from monodyn.radical import RadicalPoint
from monodyn.scan import ScanConfig, run_scan
from monodyn.semigroup import MonomialMap, Semigroup
from oracles import irreducibility_certificate

G1 = Semigroup.from_pairs([("2", 2)])
G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
GZ = Semigroup.from_pairs([("1", 2)])


def test_apply_height_window():
    # |d| h(x) - h(a) <= h(a x^d) <= h(a) + |d| h(x)
    rng = random.Random(77)
    maps = [MonomialMap(F(2), 2), MonomialMap(F(-3, 5), 3),
            MonomialMap(F(1, 3), -2), MonomialMap(F(7, 2), -3)]
    for _ in range(80):
        x = RadicalPoint.from_binomial_root(
            F(rng.randint(1, 50), rng.randint(1, 50)) * rng.choice([1, -1]),
            rng.randint(1, 4), rng.randrange(1, 5) % 4)
        for f in maps:
            ha = height_rational(f.a)
            hx = x.height()
            hy = x.apply(f).height()
            assert hy <= ha + abs(f.d) * hx + 1e-9
            assert hy >= abs(f.d) * hx - ha - 1e-9


def test_quartic_split_factors_irreducible():
    # when the quartic criterion fires, exactly two degree-M/2 factors appear
    for M, c in ((4, F(-4)), (8, F(-4)), (4, F(-64)), (12, F(-2916))):
        r = capelli_reducible(M, c)
        if r.kind != "quartic":
            continue
        fac = factor_poly(UniPoly.binomial(M, c))
        degs = sorted(g.degree for g, _ in fac)
        if len(fac) == 2:
            assert degs == [M // 2, M // 2]
            for g, _ in fac:
                assert irreducibility_certificate(g) != "reducible"


def test_structure_pure_root_of_unity_case():
    cb = CollisionBinomial(2, (0,), F(1))
    sps = structure_decompose(cb, GZ)
    assert [sp.point.as_fraction() for sp in sps] == [F(1), F(-1)]
    assert all(sp.pure_root_of_unity and sp.M == 1 for sp in sps)
    cb2 = collision_binomial(GZ, (0, 0), 1)   # X^2 = 1
    assert all(sp.pure_root_of_unity for sp in structure_decompose(cb2, GZ))


def test_equilibrium_radius_equals_collision_root_modulus():
    for g, g1, g2 in ((G1, (), (0,)), (G2, (0,), (1,)), (G2, (), (0, 1))):
        er = equilibrium_radius(g, g1, g2)
        # the equilibrium circle passes through the fixed-equation roots
        cb = collision_binomial(g, g1 + g2, len(g1))
        root = RadicalPoint.from_binomial_root(cb.a, cb.N, 0)
        assert er.exact == root.modulus


def test_disc_count_calibrated_over_enumeration():
    # kappa = 1 for circle measures; C calibrated over the run and printed,
    # then the inequality is asserted with that single constant
    rng = random.Random(101)
    samples = []
    for g in (GZ, G1, G2):
        seen = set()
        for ep in enumerate_preperiodic(g, 3):
            cls = class_of_point(ep.point)
            if cls.representative.key() in seen or cls.degree < 2:
                continue
            seen.add(cls.representative.key())
            mod = float(cls.modulus)
            pts = [complex(mod * math.cos(2 * math.pi * float(t)),
                           mod * math.sin(2 * math.pi * float(t)))
                   for t in cls.angles]
            for _ in range(3):
                w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                eps = rng.uniform(0.01, 0.3)
                samples.append((pts, w, eps, mod))
    needed = 0.0
    for pts, w, eps, mod in samples:
        n = len(pts)
        lhs = sum(1 for z in pts if abs(z - w) <= eps)
        from monodyn.bounds import circle_disc_measure
        mass = circle_disc_measure(abs(w), math.e * eps, mod)
        rest = 1 / eps + math.sqrt(n * math.log(n))
        needed = max(needed, (lhs - mass * n) / rest)
    C = max(1.0, math.ceil(needed * 10) / 10)
    print(f"disc-count calibration: C = {C} over {len(samples)} samples")
    for pts, w, eps, mod in samples:
        lhs, rhs, ok = disc_count_check(pts, w, eps, mod, C=C)
        assert ok


def test_cyclotomic_memo_thread_safety():
    from monodyn import polynomials
    polynomials.cyclotomic_poly.cache_clear()
    ns = [12, 30, 36, 60, 72, 90, 105]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(cyclotomic_poly, ns * 8))
    for n, poly in zip(ns * 8, results):
        assert poly == cyclotomic_poly(n)


def test_scan_power_map_with_minimal_S():
    # roots of unity against beta = 2 with only the archimedean place allowed
    rep = run_scan(ScanConfig(GZ, [INF], F(2), 4))
    si = {v.point for v in rep.verdicts if v.s_integral}
    assert RadicalPoint.from_rational(F(1)) in si   # 2 - 1 = 1, no bad primes
    zeta2 = RadicalPoint.from_rational(F(-1))
    assert zeta2 not in si                          # meets at 3
    assert all(v.certified for v in rep.verdicts)


def test_scan_doubling_map_example():
    S = [INF, Place(2), Place(3), Place(5)]
    rep = run_scan(ScanConfig(G1, S, F(3), 4))
    si = {v.point for v in rep.verdicts if v.s_integral}
    assert RadicalPoint.from_rational(F(1, 2)) in si    # bad primes {5}
    rep6 = run_scan(ScanConfig(G1, S, F(3), 6))
    assert rep6.stabilization
    repz6 = run_scan(ScanConfig(GZ, [INF], F(2), 6))
    assert repz6.stabilization
