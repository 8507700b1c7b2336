"""Acceptance suite: one test and one printed pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction as F

import pytest

from monodyn.bounds import (LinFormInstance, discrepancy_exact,
                            distance_lower_bound, verify_linform)
from monodyn.errors import DegenerateDegree, InvalidConfig
from monodyn.galois import class_norm_data, class_of_point
from monodyn.heights import (SequenceSpec, canonical_height_closed,
                             canonical_height_iterative, jensen_check,
                             witness_sequence_height)
from monodyn.orbits import in_size_window
from monodyn.places import (INF, Place, height_exact_arg, height_rational,
                            log_abs, product_formula_check)
from monodyn.polyfactor import factor_poly
from monodyn.polynomials import UniPoly
from monodyn.preper import (capelli_reducible, degree_lower_bound,
                            enumerate_preperiodic)
from monodyn.primes import factor_fraction
from monodyn.radical import RadicalPoint
from monodyn.scan import ScanConfig, run_scan
from monodyn.semigroup import Semigroup
from oracles import discrepancy_brute
from test_preper import with_structure

GZ = Semigroup.from_pairs([("1", 2)])
G1 = Semigroup.from_pairs([("2", 2)])
G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
S4 = [INF, Place(2), Place(3), Place(5)]

_start = {}


def _begin():
    return time.time()


def _finish(n, label, t0, budget):
    dt = time.time() - t0
    print(f"PASS criterion {n}: {label} [{dt:.2f}s < {budget}s]")
    assert dt < budget, f"criterion {n} exceeded its {budget}s budget ({dt:.2f}s)"


def test_c01_product_formula():
    t0 = _begin()
    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        n = rng.getrandbits(rng.randint(1, 64)) + 1
        d = rng.getrandbits(rng.randint(1, 64)) + 1
        if rng.random() < 0.5:
            n = -n
        w = product_formula_check(F(n, d))
        assert w.ok and all(c == 0 for _, c in w.net)
        checked += 1
    _finish(1, "product formula on 1000 rationals up to 2^64, exact", t0, 1.0)


def test_c02_height_identities():
    t0 = _begin()
    rng = random.Random(2)
    for _ in range(1000):
        x = F(rng.randint(-10 ** 6, 10 ** 6) or 7, rng.randint(1, 10 ** 6))
        y = F(rng.randint(-10 ** 6, 10 ** 6) or 3, rng.randint(1, 10 ** 6))
        n = rng.randint(-8, 8) or 2
        # h(x^n) = |n| h(x), exact integer form
        assert height_exact_arg(x ** n) == height_exact_arg(x) ** abs(n)
        # h(xy) <= h(x) + h(y)
        assert height_exact_arg(x * y) <= height_exact_arg(x) * height_exact_arg(y)
        # place-subset window
        places = [INF] + [Place(p) for p in factor_fraction(x)]
        subset = [v for v in places if rng.random() < 0.5]
        total = sum(log_abs(x, v).value for v in subset)
        h = height_rational(x)
        assert -h - 1e-9 <= total <= h + 1e-9
    _finish(2, "height identities and place-subset window, 1000 instances", t0, 1.0)


def test_c03_worked_sextic():
    t0 = _begin()
    fac = factor_poly(UniPoly.from_coeffs([27, 0, 0, 0, 0, 0, 1]))
    assert [g.int_coeffs() for g, _ in fac] == [[3, -3, 1], [3, 0, 1], [3, 3, 1]]
    assert all(m == 1 for _, m in fac)
    _finish(3, "X^6 + 27 = (X^2+3)(X^2-3X+3)(X^2+3X+3)", t0, 1.0)


_CAPELLI_POOL = [F(x) for x in (
    "2", "3", "5", "-2", "-3", "4", "-4", "8", "-8", "9", "16", "-16", "27",
    "-27", "32", "64", "-64", "1/2", "-1/2", "1/4", "-1/4", "4/9", "-4/9",
    "8/27", "-8/27", "9/4", "27/8", "-27/8", "6", "-6", "12", "-12", "36",
    "-36", "100", "125", "-125", "216", "1/3", "-1/3", "2/3", "-2/3", "49",
    "-49", "81", "256", "-256", "625", "7", "-7")]


def test_c04_capelli_oracle_equivalence():
    t0 = _begin()
    assert len(_CAPELLI_POOL) == 50
    cases = 0
    for M in range(1, 25):
        for c in _CAPELLI_POOL:
            pred = capelli_reducible(M, c).reducible
            fac = factor_poly(UniPoly.binomial(M, c))
            actual = len(fac) > 1 or fac[0][1] > 1
            assert pred == actual, (M, c)
            cases += 1
    assert cases == 1200
    _finish(4, "Capelli agrees with factorization on 1200 binomials", t0, 30.0)


def test_c05_canonical_height_consistency():
    t0 = _begin()
    rng = random.Random(5)
    groups = [G1, G2, Semigroup.from_pairs([("2", 2), ("1/3", -2)]),
              Semigroup.from_pairs([("-5/2", 3), ("4", -2)])]
    done = 0
    while done < 50:
        g = rng.choice(groups)
        g1 = tuple(rng.randrange(g.s) for _ in range(rng.randint(0, 2)))
        g2 = tuple(rng.randrange(g.s) for _ in range(rng.randint(1, 2)))
        beta = F(rng.randint(1, 12), rng.randint(1, 12))
        est = canonical_height_iterative(g, SequenceSpec(g1, g2), beta, tol=1e-10)
        closed = canonical_height_closed(g, g1, g2, beta)
        assert abs(closed - est.value) <= est.error_bound + 1e-9
        done += 1
    _finish(5, "closed form vs iterative estimate on 50 triples", t0, 10.0)


def test_c06_canonical_height_vanishes():
    t0 = _begin()
    count = 0
    for g in (GZ, G1, G2):
        for ep in enumerate_preperiodic(g, 4):
            h = witness_sequence_height(g, ep.word, ep.prefix, ep.point)
            assert h < 1e-9, (ep.point, h)
            count += 1
    _finish(6, f"witness-sequence canonical height vanishes on {count} points",
            t0, 30.0)


def test_c07_degree_bounds():
    t0 = _begin()
    checked = 0
    for g in (GZ, G1, G2):
        for ep, sp in with_structure(g, enumerate_preperiodic(g, 4)):
            deg = class_of_point(ep.point).degree
            bound = degree_lower_bound(sp).lower
            assert deg >= bound, (ep.point, deg, bound)
            checked += 1
    _finish(7, f"minimal-polynomial degree meets the lower bound on {checked} "
            "points", t0, 60.0)


def test_c08_size_window():
    t0 = _begin()
    checked = 0
    for g in (GZ, G1, G2):
        support = {p for gen in g.generators for p in factor_fraction(gen.a)}
        for ep in enumerate_preperiodic(g, 3):
            places = [INF] + [Place(p) for p in
                              sorted(support | set(ep.point.support_primes()))]
            for v in places:
                assert in_size_window(g, ep.point, v), (ep.point, v)
            checked += 1
    _finish(8, f"size window holds exactly at all support places, {checked} "
            "points", t0, 10.0)


def test_c09_jensen():
    t0 = _begin()
    rng = random.Random(9)
    pairs = []
    while len(pairs) < 20:
        r = rng.choice([0.5, 1.0, 2.0, 1.5, 0.25])
        b = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        if abs(abs(float(b)) - r) > 0.05:
            pairs.append((r, b))
    for r, b in pairs:
        lhs, rhs, diff = jensen_check(r, b, 1 << 16)
        assert abs(diff) < 1e-6, (r, b, diff)
    _finish(9, "Jensen quadrature within 1e-6 at 2^16 nodes on 20 pairs", t0, 10.0)


def test_c10_discrepancy():
    t0 = _begin()
    checked = 0
    for g in (GZ, G1, G2):
        seen = set()
        for ep in enumerate_preperiodic(g, 3):
            cls = class_of_point(ep.point)
            if cls.representative.key() in seen:
                continue
            seen.add(cls.representative.key())
            disc = discrepancy_exact(cls.angles)
            assert disc == discrepancy_brute(cls.angles)
            assert disc <= F(cls.progressions(), cls.degree)
            checked += 1
    for M in (1, 2, 3, 5, 8, 12):
        for c in (F(2), F(-3), F(5, 7)):
            angles = [RadicalPoint.from_binomial_root(c, M, j).angle
                      for j in range(M)]
            assert discrepancy_exact(angles) == F(1, M)
    _finish(10, f"discrepancy brute-verified on {checked} orbit classes and "
            "exact 1/M on full root sets", t0, 10.0)


def test_c11_linform_harness():
    t0 = _begin()
    pool = [F(x) for x in ("2", "3", "5", "1/2", "3/2", "-2", "5/3", "-7/4",
                           "9/10", "6")]
    rng = random.Random(11)
    places = [INF, Place(2), Place(3), Place(5)]
    done = 0
    while done < 1000:
        n = rng.randint(1, 3)
        alphas = tuple(rng.choice(pool) for _ in range(n))
        bs = tuple(rng.randint(-50, 50) for _ in range(n))
        if all(b == 0 for b in bs):
            continue
        inst = LinFormInstance(alphas, bs, rng.choice(places))
        if inst.lam() == 0:
            continue
        assert verify_linform(inst), inst
        done += 1
    _finish(11, "linear-forms bound verified on 1000 nonzero instances", t0, 10.0)


def test_c12_distance_bound():
    t0 = _begin()
    checked = 0
    for g, depth in ((GZ, 4), (G1, 4), (G2, 4)):
        seen = set()
        for ep in enumerate_preperiodic(g, depth):
            cls = class_of_point(ep.point)
            if cls.representative.key() in seen:
                continue
            seen.add(cls.representative.key())
            for beta in (F(3), F(5, 2)):
                for v in S4:
                    try:
                        _, _, ok = distance_lower_bound(
                            g, beta, cls.representative, v)
                    except DegenerateDegree:
                        ok = True
                    assert ok, (ep.point, beta, v)
                    checked += 1
    _finish(12, f"distance bound holds at every place, {checked} checks", t0, 60.0)


def test_c13_gamma_identity():
    t0 = _begin()
    rep = run_scan(ScanConfig(G2, S4, F(2), 4))
    assert rep.verdicts
    for v in rep.verdicts:
        assert abs(v.gamma_residual) < 1e-9, (v.point, v.gamma_residual)
    _finish(13, f"exact Gamma certificate and numeric residual < 1e-9 on "
            f"{len(rep.verdicts)} scanned classes", t0, 60.0)


def test_c14_finiteness_stabilization():
    t0 = _begin()
    rep5 = run_scan(ScanConfig(G2, S4, F(2), 5))
    rep6 = run_scan(ScanConfig(G2, S4, F(2), 6))
    rep7 = run_scan(ScanConfig(G2, S4, F(2), 7))
    rep9 = run_scan(ScanConfig(G2, S4, F(2), 9))
    assert not rep6.truncated and rep6.stabilization
    assert all(v.certified for v in rep6.verdicts)
    assert rep5.s_integral_points == rep6.s_integral_points
    assert rep6.s_integral_points == rep7.s_integral_points
    assert rep6.s_integral_classes == rep7.s_integral_classes
    assert not rep7.truncated
    # the default node cap counts classes: depth 9 has 13,578 of them
    assert not rep9.truncated and rep9.stabilization
    assert rep9.s_integral_points == rep7.s_integral_points
    _finish(14, f"S-integral set stabilizes: {rep6.s_integral_points} points "
            f"at depths 5, 6, 7 and 9", t0, 300.0)


def test_c15_uniformity_in_beta():
    # every beta = a/b with 0 < |a| <= 6 and 1 <= b <= 6: the gate refuses
    # the preperiodic +-1/2, and every other scan stabilizes.  By the
    # primitive divisors of A^n' - B^n', an S-integral full class (x =
    # beta^M0 / c0 != +-1) has n' in {1, 2, 6} or n' | p - 1 for a p in S
    t0 = _begin()
    betas = sorted({F(a, b) for a in range(-6, 7) if a for b in range(1, 7)})
    refused, most_classes, most_points, orders = [], 0, 0, set()
    for beta in betas:
        try:
            rep = run_scan(ScanConfig(G2, S4, beta, 6))
        except InvalidConfig:
            refused.append(beta)
            continue
        assert rep.stabilization and not rep.truncated, beta
        most_classes = max(most_classes, rep.s_integral_classes)
        most_points = max(most_points, rep.s_integral_points)
        for v in rep.verdicts:
            nd = class_norm_data(class_of_point(v.point), beta)
            if v.s_integral and nd.value is None:
                q = nd.cls.qprime
                orders.add(q if nd.x > 0 else 2 * q if q % 2
                           else q // 2 if q % 4 else q)
    assert len(betas) == 46 and refused == [F(-1, 2), F(1, 2)]
    assert (most_classes, most_points) == (10, 24)
    assert orders == {1, 2, 4, 6}
    _finish(15, f"{len(betas) - 2} base points stabilize at depth 6, at most "
            f"{most_classes} S-integral classes ({most_points} points)", t0,
            60.0)
