import dataclasses
import json
import math
import sys
import time
from fractions import Fraction as F

import pytest

from monodyn import bounds
from monodyn.bounds import class_min_log_distances, first_newton_slope
from monodyn.errors import (BetaIsConjugate, EnumerationCap,
                            FactorBudgetExceeded, InvalidConfig, NotSIntegral,
                            OverflowGuard)
from monodyn.galois import (class_norm_data, class_of_point, class_polynomial,
                            decompose_binomial_roots)
from monodyn.places import INF, Place
from monodyn.polynomials import newton_polygon_root_valuations
from monodyn.preper import enumerate_preperiodic, minimal_polynomial
from monodyn.primes import factorint, ord_p
from monodyn.radical import RadicalPoint
from monodyn.scan import (ScanConfig, _meets, bad_primes, class_gamma,
                          class_s_integrality, gamma_decomposition, gamma_sum,
                          is_S_integral, meets_at_prime, report_to_csv,
                          run_scan, word_pair_classes, zero_infinity_verdict)
from monodyn.semigroup import Semigroup
from oracles import root_of_unity, s_integrality_by_balance, word_pairs
from test_cross_validation import PINNED_REPORTS, raw_report_digest
from test_galois import TEST_SEMIGROUPS

G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
S_DEFAULT = [INF, Place(2), Place(3), Place(5)]


def test_meets_examples():
    half = RadicalPoint.from_rational(F(1, 2))
    assert meets_at_prime(half, F(3), 5)
    assert not meets_at_prime(half, F(3), 2)
    i_pt = RadicalPoint.from_binomial_root(F(-1), 2, 0)
    assert meets_at_prime(i_pt, F(3), 5)
    assert meets_at_prime(i_pt, F(3), 2)
    assert not meets_at_prime(i_pt, F(3), 7)
    # both non-integral
    assert meets_at_prime(half, F(7, 2), 2)


def test_bad_primes_examples():
    assert bad_primes(RadicalPoint.from_rational(F(1, 2)), F(3)) == [5]
    assert bad_primes(RadicalPoint.from_binomial_root(F(-1), 2, 0), F(3)) == [2, 5]
    assert bad_primes(root_of_unity(F(1, 3)), F(2)) == [7]


def test_beta_conjugate_guard():
    with pytest.raises(BetaIsConjugate):
        bad_primes(RadicalPoint.from_rational(F(3)), F(3))
    with pytest.raises(BetaIsConjugate):
        gamma_sum(RadicalPoint.from_rational(F(3)), F(3))


def test_s_integrality_examples():
    half = RadicalPoint.from_rational(F(1, 2))
    assert is_S_integral(half, F(3), [INF, Place(5)])
    assert not is_S_integral(half, F(3), [INF])
    zeta3 = root_of_unity(F(1, 3))
    assert is_S_integral(zeta3, F(2), [INF, Place(7)])
    assert not is_S_integral(zeta3, F(2), [INF, Place(5)])


def test_s_integrality_monotone_in_S():
    pts = [RadicalPoint.from_rational(F(1, 2)),
           RadicalPoint.from_binomial_root(F(-1), 2, 0),
           RadicalPoint.from_binomial_root(F(1, 24), 5, 1)]
    chains = [[INF], [INF, Place(2)], [INF, Place(2), Place(3)],
              [INF, Place(2), Place(3), Place(5)],
              [INF, Place(2), Place(3), Place(5), Place(7),
               Place(11), Place(13)]]
    for pt in pts:
        prev = False
        for S in chains:
            cur = is_S_integral(pt, F(3), S)
            assert cur or not prev   # once integral, enlarging S keeps it
            prev = cur


@pytest.mark.parametrize("point, beta, prime", [
    # the (6, 2, 1) exception: Phi_6(2) = 3 and Phi_6(1/2) = 3/4
    (root_of_unity(F(1, 6)), F(2), 3), (root_of_unity(F(1, 6)), F(1, 2), 3),
    # x < 0 with q' odd: n' = 2q', Phi_3(-2) = Phi_6(2) = 3 and
    # Phi_5(-2) = Phi_10(2) = 11
    (root_of_unity(F(1, 3)), F(-2), 3), (root_of_unity(F(1, 5)), F(-2), 11),
    # x < 0 with q' = 2 mod 4: n' = q'/2, Phi_6(-2) = Phi_3(2) = 7
    (root_of_unity(F(1, 6)), F(-2), 7),
    # x < 0 with 4 | q': n' = q', Phi_4(-2) = Phi_4(2) = 5
    (root_of_unity(F(1, 4)), F(-2), 5),
    # n' = 2 with A + B a power of 2: Phi_2(3) = 4
    (RadicalPoint.from_rational(F(-1)), F(3), 2)])
def test_s_integrality_hand_cases(point, beta, prime):
    # each class meets beta at one prime only, so it is S-integral exactly
    # when that prime is in S
    assert bad_primes(point, beta) == [prime]
    other = 3 if prime == 2 else 2
    for extra in ((), (prime,), (other,), (other, prime)):
        S = [INF] + [Place(p) for p in extra]
        assert is_S_integral(point, beta, S) == (prime in extra), (point, S)


S_GRID = [[INF], [INF, Place(2)], [INF, Place(3), Place(7)], S_DEFAULT,
          [INF, Place(5), Place(13)],
          [INF] + [Place(p) for p in (2, 3, 5, 7, 11, 13)]]


def _against_balance(pairs, sets):
    """(verdicts, S-integral ones) over the (class, beta) pairs and sets,
    each equal to the float balance decision, which certifies all of them."""
    checked = integral = 0
    for cls, beta in pairs:
        try:
            nd = class_norm_data(cls, beta)
        except BetaIsConjugate:
            continue
        for S in sets:
            got = class_s_integrality(nd, S)
            assert s_integrality_by_balance(nd, S) \
                == (got.s_integral, got.known_bad, True), (cls, beta, S)
            checked += 1
            integral += got.s_integral
    return checked, integral


def test_s_integrality_matches_the_float_balance():
    # oracle: the float balance gap the exact decision replaced
    betas = (F(2), F(1, 2), F(-3, 7), F(5), F(7, 4), F(-27, 5), F(11, 9))
    assert _against_balance(
        ((cls, beta) for cls in _classes_to_depth_4() for beta in betas),
        S_GRID) == (15828, 305)
    betas = (F(2), F(-3, 7), F(5), F(1, 2), F(7, 4), F(-1), F(3))
    semigroups = [G2] + [Semigroup.from_pairs(pairs) for pairs in (
        [("1", 2), ("3", -3)], [("1", 2)], [("1/2", 2), ("5", 3)])]
    grid = [(cls, beta) for G in semigroups
            for cls, _, _ in word_pair_classes(G, 5) for beta in betas]
    assert _against_balance(grid, S_GRID) == (41388, 1090)
    deep = [(cls, beta) for cls, _, _ in word_pair_classes(G2, 7)
            for beta in (F(2), F(-3, 7))]
    assert _against_balance(deep, [S_DEFAULT]) == (4542, 3)


def test_exact_norm_past_the_size_budget_fails_fast():
    # a primitive 65536-th root of unity at 2^4000: 65537 = 1 mod 65536
    # sends it to the exact route, whose norm would pass 1.3 10^8 bits
    nd = class_norm_data(class_of_point(root_of_unity(F(1, 65536))),
                         F(2 ** 4000))
    t0 = time.perf_counter()
    with pytest.raises(OverflowGuard, match="10\\^8-bit"):
        class_s_integrality(nd, [INF, Place(65537)])
    assert time.perf_counter() - t0 < 1.0


def test_gamma_exact_and_numeric():
    # the norm read off the table: Nm(3 - i) = 10 over degree 2, all of it
    # outside the support; Nm(3 - 1/2) = 5/2, with 2 in the support
    i_pt = RadicalPoint.from_binomial_root(F(-1), 2, 0)
    rep = gamma_sum(i_pt, F(3))
    table = dict(rep.table)
    assert abs(table["outside"] + math.log(10) / 2) < 1e-12
    assert abs(rep.residual) < 1e-12
    rep = gamma_sum(RadicalPoint.from_rational(F(1, 2)), F(3))
    table = dict(rep.table)
    assert abs(table["2"] - math.log(2)) < 1e-12 and table["3"] == 0
    assert abs(table["outside"] + math.log(5)) < 1e-12
    alpha = RadicalPoint.from_binomial_root(F(1, 24), 5, 1)
    rep = gamma_sum(alpha, F(2))
    assert abs(rep.residual) < 1e-10


def test_gamma_decomposition():
    half = RadicalPoint.from_rational(F(1, 2))
    gd = gamma_decomposition(half, F(3), [INF, Place(5)])
    assert abs(gd.non_s_part - math.log(2)) < 1e-12
    assert gd.non_s_exact == ((2, F(1)),)
    assert abs(gd.residual) < 1e-9
    zeta3 = root_of_unity(F(1, 3))
    gd = gamma_decomposition(zeta3, F(2), [INF, Place(7)])
    assert gd.non_s_part == 0.0
    assert abs(gd.height_witness - math.log(2)) < 1e-12
    with pytest.raises(NotSIntegral):
        gamma_decomposition(half, F(3), [INF])


def test_gamma_decomposition_entangled_class():
    # 1 + i generates an entangled twin pair; bad primes against 3 are {5}
    one_plus_i = RadicalPoint.from_binomial_root(F(-4), 4, 0)
    assert bad_primes(one_plus_i, F(3)) == [5]
    gd = gamma_decomposition(one_plus_i, F(3), [INF, Place(5)])
    assert abs(gd.residual) < 1e-9
    assert gd.non_s_part == 0.0


def _classes_to_depth_4():
    for G in (G2, Semigroup.from_pairs([("-5/2", 3), ("4", -2)]),
              Semigroup.from_pairs([("4", 2), ("9", 3)])):
        seen = set()
        for ep in enumerate_preperiodic(G, 4):
            cls = class_of_point(ep.point)
            if cls.representative.key() not in seen:
                seen.add(cls.representative.key())
                yield cls


def test_class_norms_are_per_class(monkeypatch):
    # oracle: the exact minimal polynomial.  Its value at beta is the class
    # norm, and the Newton polygon of its beta-shift gives the true minimum
    # of log|sigma(alpha) - beta|_p, which the sound branch of the distance
    # routine (every degree, with EXACT_DEGREE at 0) must not exceed
    monkeypatch.setattr(bounds, "EXACT_DEGREE", 0)
    checked = 0
    for cls in _classes_to_depth_4():
        poly = minimal_polynomial(cls.representative)
        for beta in (F(2), F(1, 2), F(-3, 7), F(5)):
            value = poly(beta)
            if value == 0:
                continue
            nd = class_norm_data(cls, beta)
            shifted = poly.shift(beta)
            for p in (2, 3, 5, 7):
                assert nd.ord_w(p) == ord_p(value, p), (cls, beta, p)
                vals = newton_polygon_root_valuations(shifted, p)
                true_min = -float(max(vals)) * math.log(p)
                lower = class_min_log_distances(nd, [Place(p)])[0]
                assert lower <= true_min + 1e-9, (cls, beta, p)
                checked += 1
    assert checked > 5000


def test_observed_distance_is_the_top_newton_slope():
    # oracle: the full Newton polygon of the beta-shifted minimal polynomial;
    # the first-slope kernel at every degree, the distance routine wherever
    # it is exact (unequal valuations, p prime to M0 q', or degree <=
    # EXACT_DEGREE)
    checked = routine = 0
    for cls in _classes_to_depth_4():
        poly = minimal_polynomial(cls.representative)
        for beta in (F(2), F(1, 2), F(-3, 7), F(5)):
            if poly(beta) == 0:
                continue
            shifted = poly.shift(beta)
            nd = class_norm_data(cls, beta)
            for p in (2, 3, 5, 7):
                vals = newton_polygon_root_valuations(shifted, p)
                assert first_newton_slope(shifted, p) == -max(vals), \
                    (cls, beta, p)
                checked += 1
                if (cls.degree <= bounds.EXACT_DEGREE
                        or cls.M0 * cls.qprime % p
                        or cls.modulus.ord_at(p) != ord_p(beta, p)):
                    got = class_min_log_distances(nd, [Place(p)])[0]
                    assert got == -float(max(vals)) * math.log(p), \
                        (cls, beta, p)
                    routine += 1
    assert checked > 5000 and routine > 5000


def test_unramified_distance_is_the_norm_branch():
    # oracle: the first Newton slope of the beta-shifted class polynomial,
    # for every class to depth 5 of the test semigroups up to degree 256;
    # at p prime to M0 q' with equal valuations the norm branch is exact
    checked = past_exact = 0
    for pairs in TEST_SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for cls, _, _ in word_pair_classes(G, 5):
            if cls.degree > 256:
                continue
            poly = class_polynomial(cls)
            for beta in (F(2), F(1, 2), F(-3, 7), F(5), F(7, 4)):
                primes = [p for p in (2, 3, 5, 7) if cls.M0 * cls.qprime % p
                          and cls.modulus.ord_at(p) == ord_p(beta, p)]
                if not primes or poly(beta) == 0:
                    continue
                shifted = poly.shift(beta)
                nd = class_norm_data(cls, beta)
                for p in primes:
                    o = cls.modulus.ord_at(p)
                    assert (cls.degree - 1) * o - nd.ord_w(p) \
                        == first_newton_slope(shifted, p), (cls, beta, p)
                    checked += 1
                    past_exact += cls.degree > bounds.EXACT_DEGREE
    assert (checked, past_exact) == (5799, 1071)


G_SWEEP = Semigroup.from_pairs([("-5/2", 3), ("4", -2)])


def test_ramified_slope_on_the_p_part_matches_the_full_shift():
    # oracle: the first Newton slope of the minimal polynomial shifted by
    # beta, as a Fraction, at every ramified p with equal valuations up to
    # EXACT_DEGREE; the route shifts the polynomial of the m-th powers,
    # m = M0 without its p-part, and a genuine twin keeps m = 1.  No class
    # of the two semigroups has ord_p alpha = ord_p beta != 0 with m > 1,
    # so four binomials add classes such as 2 * 3^(1/6) (c0 = 2^6 3)
    built = [cls for N, a in ((6, F(192)), (12, F(192) ** 2), (6, F(-1458)),
                              (10, F(3072)), (6, F(64, 3)))
             for cls in decompose_binomial_roots(N, a)]
    classes = [cls for G, depth in ((G2, 5), (G_SWEEP, 4))
               for cls, _, _ in word_pair_classes(G, depth)] + built
    checked = {"m = 1": 0, "twin": 0, "p-free M0": 0, "1 < m < M0": 0,
               "(m - 1) o != 0": 0}
    for cls in classes:
        if cls.degree > bounds.EXACT_DEGREE:
            continue
        poly = minimal_polynomial(cls.representative)
        for beta in (F(2), F(5), F(-3, 7), F(7, 4), F(13, 37), F(-7, 5),
                     F(6), F(-2, 5), F(3, 2)):
            if poly(beta) == 0:
                continue
            nd = class_norm_data(cls, beta)
            for p in (2, 3, 5, 7):
                o = ord_p(beta, p)
                if cls.M0 * cls.qprime % p or cls.modulus.ord_at(p) != o:
                    continue
                got = bounds._ramified_slope(nd, p, o)
                assert got == first_newton_slope(poly.shift(beta), p), \
                    (cls, beta, p)
                m = cls.M0
                while m % p == 0:
                    m //= p
                kind = ("twin" if cls.sign else "m = 1" if m == 1 else
                        "(m - 1) o != 0" if o else
                        "p-free M0" if m == cls.M0 else "1 < m < M0")
                checked[kind] += 1
    assert checked == {"m = 1": 415, "twin": 56, "p-free M0": 258,
                       "1 < m < M0": 432, "(m - 1) o != 0": 18}


def test_zero_excess_ramified_distance_is_the_first_slope():
    # oracle: the first Newton slope of the beta-shifted class polynomial,
    # for every class to depth 5 of the test semigroups up to degree 256,
    # at each ramified p (p | M0 q') with equal valuations o where ord_p W
    # = deg o: every conjugate sits at exactly o, so the routine takes the
    # norm expression, -o log p, with no shift, at every degree
    checked = {"full": 0, "twin": 0, "past EXACT_DEGREE": 0}
    for pairs in TEST_SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for cls, _, _ in word_pair_classes(G, 5):
            if cls.degree > 256:
                continue
            poly = class_polynomial(cls)
            for beta in (F(2), F(1, 2), F(-3, 7), F(5), F(7, 4), F(6)):
                if poly(beta) == 0:
                    continue
                nd = class_norm_data(cls, beta)
                for p in (2, 3, 5, 7):
                    o = ord_p(beta, p)
                    if (cls.M0 * cls.qprime % p or cls.modulus.ord_at(p) != o
                            or nd.ord_w(p) != cls.degree * o):
                        continue
                    slope = first_newton_slope(poly.shift(beta), p)
                    assert class_min_log_distances(nd, [Place(p)])[0] \
                        == float(slope) * math.log(p), (cls, beta, p)
                    checked["twin" if cls.sign else "full"] += 1
                    checked["past EXACT_DEGREE"] += \
                        cls.degree > bounds.EXACT_DEGREE
    assert checked == {"full": 1760, "twin": 62, "past EXACT_DEGREE": 367}


def test_ramified_shift_only_past_zero_excess(monkeypatch):
    # _ramified_slope runs only where ord_p W exceeds deg o: at depth 5 of
    # {2z^2, 3z^3} at beta = 2 on 10 of the 74 ramified rows with equal
    # valuations up to EXACT_DEGREE, which all took it before
    calls = []
    ramified = bounds._ramified_slope

    def counted(nd, p, o):
        calls.append((nd, p, o))
        return ramified(nd, p, o)
    monkeypatch.setattr(bounds, "_ramified_slope", counted)
    rep = run_scan(ScanConfig(_g2(), S_DEFAULT, F(2), 5))
    assert len(rep.verdicts) == 333
    assert all(nd.ord_w(p) > nd.cls.degree * o for nd, p, o in calls)
    assert len(calls) == 10


def test_scan_distance_rows_match_the_direct_bound():
    # oracle: class_min_log_distances of a fresh record against the
    # certificate's bound at h(beta), the degree and MQ, for every verdict
    # of depth-4 scans, degree 1 included
    from monodyn.bounds import distance_bound_constant
    from monodyn.places import height_rational
    checked = degree_one = 0
    for G in (G2, G_SWEEP):
        certs = [(v, distance_bound_constant(G, v)) for v in S_DEFAULT]
        for beta in (F(2), F(-3, 7)):
            rep = run_scan(ScanConfig(G, S_DEFAULT, beta, 4))
            for v in rep.verdicts:
                cls = class_of_point(v.point)
                observed = class_min_log_distances(class_norm_data(cls, beta),
                                                   S_DEFAULT)
                MQ = max(2, cls.M0 * v.point.angle.denominator)
                assert v.distance_checks == tuple(
                    (str(place), obs > -cert.bound(height_rational(beta),
                                                   cls.degree, MQ))
                    for (place, cert), obs in zip(certs, observed)), v
                checked += 1
                degree_one += cls.degree == 1
    assert (checked, degree_one) == (452, 4)


def test_progressions_match_fraction_residues():
    # oracle: the distinct fractional parts of M0 t, as Fractions
    checked = 0
    for cls in _classes_to_depth_4():
        residues = {t * cls.M0 - int(t * cls.M0) for t in cls.angles}
        assert cls.progressions() == len(residues), cls
        checked += 1
    assert checked > 300


def test_gamma_rows_match_materialized_norm():
    # oracle: the materialized norm f(beta) of the exact minimal polynomial
    # f, a route independent of the class norm data the table reads
    checked = 0
    for cls in _classes_to_depth_4():
        f = minimal_polynomial(cls.representative)
        for beta in (F(2), F(1, 2), F(-3, 7), F(5)):
            value = f(beta)
            if value == 0:
                continue
            rep = class_gamma(class_norm_data(cls, beta))
            table = dict(rep.table)
            log_value = (math.log(abs(value.numerator))
                         - math.log(value.denominator))
            expect = table["inf"] - log_value / cls.degree
            assert abs(rep.residual - expect) < 1e-9, (cls, beta)
            for key, row in rep.table:
                if key in ("inf", "outside"):
                    continue
                p = int(key)
                expect = -ord_p(value, p) / cls.degree * math.log(p)
                assert abs(row - expect) < 1e-9, (cls, beta, p)
            checked += 1
    assert checked > 1000


def test_valuation_table_matches_fraction_definitions():
    # oracle: the Fraction definitions, from cls.modulus.ord_at(p),
    # ord_p(beta, p) and ord_p of the materialized norm f(beta) of the exact
    # minimal polynomial f; 7 and 11 in beta lie outside S
    def meets(o_a, o_b, o_w):
        if o_a < 0 or o_b < 0:
            return o_a < 0 and o_b < 0
        if o_a > 0 or o_b > 0:
            return o_a > 0 and o_b > 0
        return o_w > 0
    primes = (2, 3, 5, 7, 11)
    checked = unequal = 0
    for cls in _classes_to_depth_4():
        f = minimal_polynomial(cls.representative)
        for beta in (F(2), F(1, 2), F(-3, 7), F(5), F(7, 4), F(-27, 5),
                     F(11, 9)):
            value = f(beta)
            if value == 0:
                continue
            nd = class_norm_data(cls, beta)
            support = (set(cls.modulus.exps) | set(factorint(beta.numerator))
                       | set(factorint(beta.denominator)))
            rows = {p: (cls.modulus.ord_at(p), ord_p(beta, p),
                        ord_p(value, p)) for p in support.union(primes)}
            bad = sorted(p for p in support.union({2, 3, 5})
                         if meets(*rows[p]))
            assert class_s_integrality(nd, S_DEFAULT).known_bad \
                == tuple(bad), (cls, beta)
            for p in primes:
                o_a, o_b, o_w = rows[p]
                assert nd.table((p,))[p] == (cls.M0 * o_a, cls.M0 * o_b, o_w)
                assert _meets(*nd.table((p,))[p]) == meets(o_a, o_b, o_w)
                if o_a != o_b:
                    got = class_min_log_distances(nd, [Place(p)])[0]
                    assert got == -float(min(o_a, o_b)) * math.log(p), \
                        (cls, beta, p)
                    unequal += 1
                checked += 1
    assert (checked, unequal) == (13190, 6939)


def test_gate_refuses_preperiodic_and_unknown():
    cfg = ScanConfig(G2, S_DEFAULT, F(1, 2), 2)
    with pytest.raises(InvalidConfig):
        run_scan(cfg)
    with pytest.raises(InvalidConfig):
        ScanConfig(G2, [Place(2)], F(2), 2).validate()
    with pytest.raises(InvalidConfig):
        ScanConfig(G2, S_DEFAULT, F(0), 2).validate()
    # a repeated place gave a second, identical distance row per verdict
    for S in ([INF, INF, Place(2)], [INF, Place(2), Place(3), Place(2)]):
        with pytest.raises(InvalidConfig, match="distinct"):
            run_scan(ScanConfig(G2, S, F(2), 2))


@pytest.mark.parametrize("field, value", [
    ("node_cap", 0), ("node_cap", -5), ("tol", 0.0), ("tol", -1e-9),
    ("tol", float("nan"))])
def test_config_refuses_bad_caps(field, value):
    # a library caller gets the error the CLI gives at parse time, not an
    # empty or all-truncated report
    with pytest.raises(InvalidConfig, match=field):
        run_scan(ScanConfig(G2, S_DEFAULT, F(2), 2, **{field: value}))


def test_zero_infinity():
    note = zero_infinity_verdict(F(2), S_DEFAULT)
    assert note["zero"]["s_integral"] and note["zero"]["bad_primes"] == [2]
    assert note["infinity"]["s_integral"] and note["infinity"]["bad_primes"] == []
    note = zero_infinity_verdict(F(7, 11), [INF, Place(7)])
    assert note["zero"]["s_integral"] and not note["infinity"]["s_integral"]


def test_scan_small_depth():
    cfg = ScanConfig(G2, S_DEFAULT, F(2), 3)
    rep = run_scan(cfg)
    si = {str(v.point.as_fraction()) for v in rep.verdicts if v.s_integral}
    assert si == {"1/2", "-1/2"}
    assert all(v.certified for v in rep.verdicts)
    assert all(abs(v.gamma_residual) < 1e-9 for v in rep.verdicts)
    assert all(ok for v in rep.verdicts for _, ok in v.distance_checks)
    assert not rep.truncated
    # counts match verdicts
    total = sum(rep.class_counts.values())
    assert total == len(rep.verdicts)
    doc = rep.to_json()
    assert doc["schema"] == "monodyn/1"
    csv = report_to_csv(rep)
    assert csv.splitlines()[0].startswith("c,M,t,degree")


def test_scan_generator_reordering_invariance():
    cfg = ScanConfig(G2, S_DEFAULT, F(2), 3)
    rep = run_scan(cfg)
    G2r = Semigroup.from_pairs([("3", 3), ("2", 2)])
    repr_ = run_scan(ScanConfig(G2r, S_DEFAULT, F(2), 3))
    keys = sorted(str(v.point.to_json()) for v in rep.verdicts)
    keys_r = sorted(str(v.point.to_json()) for v in repr_.verdicts)
    assert keys == keys_r
    assert rep.s_integral_points == repr_.s_integral_points


def test_scan_truncation_marker():
    # the node cap counts verdicts: 38 classes up to |w| = 3, the 50th and
    # the first one left out both of length 4
    cfg = ScanConfig(G2, S_DEFAULT, F(2), 5, node_cap=50)
    rep = run_scan(cfg)
    assert rep.truncated and len(rep.verdicts) == 50
    assert rep.notes == ["node cap 50 reached at |w| = 4"]
    assert not rep.stabilization


def test_scan_truncates_past_the_gamma_tolerance():
    # a tolerance below every nonzero float residual: each of the 17
    # nonzero residuals among the 38 classes to |w| = 3 leaves a note, the
    # scan is marked truncated, and every verdict is kept as at the default
    rep = run_scan(ScanConfig(G2, S_DEFAULT, F(2), 3, tol=1e-300))
    default = run_scan(ScanConfig(G2, S_DEFAULT, F(2), 3))
    assert rep.truncated and not default.truncated and not default.notes
    residuals = [v.gamma_residual for v in rep.verdicts]
    assert residuals == [v.gamma_residual for v in default.verdicts]
    assert len(residuals) == 38 and sum(map(bool, residuals)) == 17
    assert len(rep.notes) == 17
    assert all(n.startswith("gamma residual ") and " above tol at degree " in n
               for n in rep.notes)


def test_scan_report_stops_at_the_root_budget(monkeypatch):
    # the binomials up to |w| = 4 hold 2430 roots; with that budget the
    # stream stops at the first pair of length 5 and the scan keeps the
    # 119 classes before it
    import monodyn.scan as scan
    monkeypatch.setattr(scan, "ROOT_BUDGET", 2430)
    rep = run_scan(ScanConfig(G2, S_DEFAULT, F(2), 5))
    assert rep.truncated and len(rep.verdicts) == 119
    assert rep.notes == ["root budget 2430 reached at |w| = 5"]
    assert max(rep.class_counts) == 4


def test_scan_builds_norm_data_once_per_class(monkeypatch):
    import monodyn.scan as scan
    calls = {"norm": 0, "cert": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scan, "class_norm_data",
                        counted("norm", scan.class_norm_data))
    monkeypatch.setattr(scan, "distance_bound_constant",
                        counted("cert", scan.distance_bound_constant))
    rep = run_scan(ScanConfig(G2, S_DEFAULT, F(2), 3))
    assert calls["norm"] == len(rep.verdicts) > 0
    assert calls["cert"] == len(S_DEFAULT)


def test_scan_factors_beta_once_and_takes_no_beta_valuation(monkeypatch):
    # ord_p(beta) is a lookup in beta's exponent map, factored once per
    # scan into its galois.BasePoint, which no cache keeps past the scan:
    # the verdict path calls ord_p only on twin norm values, on the
    # coefficients first_newton_slope reads and on ord_diff's residues
    import sys

    import monodyn.galois as galois
    import monodyn.scan as scan
    calls = []
    factored = []

    def counted(x, p):
        calls.append((sys._getframe(1).f_code.co_name, x, p))
        return ord_p(x, p)
    for mod in (galois, scan, bounds):
        if hasattr(mod, "ord_p"):
            monkeypatch.setattr(mod, "ord_p", counted)
    factor = galois.factor_fraction

    def counted_factor(x):
        factored.append(x)
        return factor(x)
    monkeypatch.setattr(galois, "factor_fraction", counted_factor)
    beta = F(2)
    rep = run_scan(ScanConfig(G2, S_DEFAULT, beta, 4))
    assert len(rep.verdicts) > 100 and factored == [beta]
    run_scan(ScanConfig(G2, S_DEFAULT, beta, 3))
    assert factored == [beta, beta]
    assert not any(caller == "_ord_full_norm" for caller, _, _ in calls)
    assert {caller for caller, _, _ in calls} <= {
        "table", "first_newton_slope", "ord_diff"}
    assert not any(x == beta and caller == "table" for caller, x, _ in calls)


# ---------------------------------------------------------------------------
# the class stream a semigroup keeps


def _g2():
    return Semigroup.from_pairs([("2", 2), ("3", 3)])


def _report_text(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _count_walks(monkeypatch):
    """The word lengths of the pairs scan's collision_binomial binding is
    called on, and the N of each call through its decompose_binomial_roots
    binding."""
    import monodyn.scan as scan
    lengths: list[int] = []
    degrees: list[int] = []
    binomial, decompose = scan.collision_binomial, scan.decompose_binomial_roots

    def counted_binomial(G, w, m):
        lengths.append(len(w))
        return binomial(G, w, m)

    def counted_decompose(N, a):
        degrees.append(N)
        return decompose(N, a)
    monkeypatch.setattr(scan, "collision_binomial", counted_binomial)
    monkeypatch.setattr(scan, "decompose_binomial_roots", counted_decompose)
    return lengths, degrees


def test_second_beta_replays_the_class_stream(monkeypatch):
    G = _g2()
    run_scan(ScanConfig(G, S_DEFAULT, F(2), 4))
    lengths, degrees = _count_walks(monkeypatch)
    rep = run_scan(ScanConfig(G, S_DEFAULT, F(-3, 7), 4))
    assert lengths == [] and degrees == []
    fresh = run_scan(ScanConfig(_g2(), S_DEFAULT, F(-3, 7), 4))
    assert lengths and _report_text(rep) == _report_text(fresh)


def test_second_beta_reuses_each_class_discrepancy(monkeypatch):
    # ConjugacyClass.discrepancy is free of beta: two scans of one G at two
    # base points evaluate the kernel once per class
    import monodyn.galois as galois
    calls = []
    kernel = galois._discrepancy

    def counted(ks, L):
        calls.append(L)
        return kernel(ks, L)
    monkeypatch.setattr(galois, "_discrepancy", counted)
    monkeypatch.setattr(galois, "_decompose_cache", {})    # fresh classes
    G = _g2()
    rep = run_scan(ScanConfig(G, S_DEFAULT, F(2), 4))
    assert len(calls) == len(rep.verdicts) > 0
    run_scan(ScanConfig(G, S_DEFAULT, F(-3, 7), 4))
    assert len(calls) == len(rep.verdicts)


@pytest.mark.parametrize("betas", [(F(2), F(-3, 7)), (F(-3, 7), F(2))],
                         ids=["2 first", "-3/7 first"])
def test_pinned_reports_hold_on_a_shared_semigroup(betas):
    pins = {(beta, depth): digest for beta, depth, digest in PINNED_REPORTS}
    G = _g2()
    for depth in (5, 6):
        for beta in betas:
            assert raw_report_digest(G, beta, depth) == pins[beta, depth]


def test_deeper_scan_walks_only_the_new_lengths(monkeypatch):
    G = _g2()
    run_scan(ScanConfig(G, S_DEFAULT, F(2), 4))
    lengths, _ = _count_walks(monkeypatch)
    assert raw_report_digest(G, F(2), 6) == "b3fb311c8262"
    # each pair of lengths 5 and 6 once: 2^L words of L prefixes each
    assert sorted(lengths) == [5] * 5 * 2 ** 5 + [6] * 6 * 2 ** 6


def test_capped_consumer_grows_the_stream_no_further(monkeypatch):
    # preper stops at the class that takes its points past node_cap; the
    # stream walks the pairs up to that class's witness and no more
    cap = 200
    total, stop = 0, None
    for cls, w, m in word_pair_classes(_g2(), 5):
        total += cls.degree
        if total > cap:
            stop = (w, m)
            break
    G = _g2()
    lengths, _ = _count_walks(monkeypatch)
    with pytest.raises(EnumerationCap, match=f"node cap {cap}"):
        enumerate_preperiodic(G, 5, node_cap=cap)
    assert len(lengths) == list(word_pairs(G, 5)).index(stop) + 1
    # a later consumer reads on from there, as on a fresh semigroup
    assert ([ep.point.key() for ep in enumerate_preperiodic(G, 4)]
            == [ep.point.key() for ep in enumerate_preperiodic(_g2(), 4)])


def test_root_budget_replays_on_a_reused_semigroup(monkeypatch):
    import monodyn.scan as scan
    G = _g2()
    full = _report_text(run_scan(ScanConfig(G, S_DEFAULT, F(2), 5)))
    monkeypatch.setattr(scan, "ROOT_BUDGET", 2430)
    fresh = _report_text(run_scan(ScanConfig(_g2(), S_DEFAULT, F(2), 5)))
    for _ in range(2):
        # rebuilt under the new budget, then replayed up to its stop
        rep = run_scan(ScanConfig(G, S_DEFAULT, F(2), 5))
        assert rep.notes == ["root budget 2430 reached at |w| = 5"]
        assert len(rep.verdicts) == 119 and _report_text(rep) == fresh
    monkeypatch.undo()
    assert _report_text(run_scan(ScanConfig(G, S_DEFAULT, F(2), 5))) == full


def test_overflow_guard_replays_and_follows_the_digit_limit():
    # the radicands of length-2 pairs pass the digit limit; length 1 prints
    G = Semigroup.from_pairs([("1e4000", 2), ("3", 3)])
    errors = []
    for H in (G, G, Semigroup.from_pairs([("1e4000", 2), ("3", 3)])):
        with pytest.raises(OverflowGuard) as exc:
            run_scan(ScanConfig(H, S_DEFAULT, F(2), 2))
        errors.append(str(exc.value))
    assert len(set(errors)) == 1 and "39865-bit" in errors[0]
    assert len(run_scan(ScanConfig(G, S_DEFAULT, F(2), 1)).verdicts) == 2
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert len(list(word_pair_classes(G, 2))) == 11
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(OverflowGuard, match="39865-bit"):
        list(word_pair_classes(G, 2))


@pytest.mark.parametrize("error", [FactorBudgetExceeded, KeyboardInterrupt])
def test_walk_failure_drops_the_stream(monkeypatch, error):
    # the walk, a generator, cannot resume past an exception: it reaches
    # the consumer, the stream leaves G._memo, and the next consumer grows
    # it again from the first pair
    import monodyn.scan as scan
    decompose = scan.decompose_binomial_roots
    calls = []

    def failing_once(N, a):
        calls.append(N)
        if len(calls) == 20:        # a pair of length 3, of 34 to depth 3
            raise error("injected")
        return decompose(N, a)
    monkeypatch.setattr(scan, "decompose_binomial_roots", failing_once)
    G = _g2()
    read = []
    with pytest.raises(error, match="injected"):
        read.extend(word_pair_classes(G, 3))
    assert "classes" not in G._memo and 11 <= len(read) < 38
    rows = [(cls.key, w, m) for cls, w, m in word_pair_classes(G, 3)]
    fresh = [(cls.key, w, m) for cls, w, m in word_pair_classes(_g2(), 3)]
    assert len(rows) == 38 and rows == fresh


def test_open_reader_outlives_a_dropped_stream(monkeypatch):
    # a walk failure drops the stream under a second reader still open on
    # the same G: that reader grows a new stream past its index and reads
    # on, as on a fresh semigroup
    import monodyn.scan as scan
    decompose = scan.decompose_binomial_roots
    calls = []

    def failing_once(N, a):
        calls.append(N)
        if len(calls) == 5:         # a pair of length 2
            raise FactorBudgetExceeded("injected")
        return decompose(N, a)
    monkeypatch.setattr(scan, "decompose_binomial_roots", failing_once)
    G = _g2()
    first, second = word_pair_classes(G, 3), word_pair_classes(G, 3)
    rows = [next(second)]
    with pytest.raises(FactorBudgetExceeded, match="injected"):
        list(first)
    assert "classes" not in G._memo
    rows.extend(second)
    fresh = [(cls.key, w, m) for cls, w, m in word_pair_classes(_g2(), 3)]
    assert len(rows) == 38
    assert [(cls.key, w, m) for cls, w, m in rows] == fresh


def test_root_budget_replays_as_a_row_for_an_interleaved_reader(monkeypatch):
    # the EnumerationCap that ends the walk is the stream's last row: a
    # reader opened before the walk reached it raises it at the same row,
    # and no pair is walked twice
    import monodyn.scan as scan
    monkeypatch.setattr(scan, "ROOT_BUDGET", 2430)
    lengths, _ = _count_walks(monkeypatch)
    G = _g2()
    first, second = word_pair_classes(G, 5), word_pair_classes(G, 5)
    read = [], [next(second)]
    errors = []
    for reader, rows in zip((first, second), read):
        with pytest.raises(EnumerationCap) as exc:
            rows.extend(reader)
        errors.append(str(exc.value))
    assert errors == ["root budget 2430 reached at |w| = 5"] * 2
    assert len(read[0]) == len(read[1]) == 119 and read[0] == read[1]
    # every pair up to |w| = 4, then the first of length 5 hits the budget
    assert len(lengths) == 2 + 2 * 4 + 3 * 8 + 4 * 16 + 1


def test_equal_semigroups_keep_their_own_streams():
    G, H = _g2(), _g2()
    assert len(list(word_pair_classes(G, 3))) == 38
    assert "classes" in G._memo and H._memo == {}
    assert G == H and hash(G) == hash(H) and repr(G) == repr(H)
    assert G.to_json() == H.to_json() and "_memo" not in repr(G)
    copy = dataclasses.replace(G)
    assert copy == G and copy._memo == {}


@pytest.mark.parametrize("beta", [F(2), F(-3, 7)])
def test_verdict_order_is_the_fraction_key_order(beta):
    # oracle: the sort on (degree, point.key()), Fractions and all, that the
    # integer order of the report replaces.  One G scanned at depth 4, 6
    # and 4 again, at beta and at a second base point, reuses the order of
    # the stream's first k classes kept on its table
    G = _g2()
    for depth in (4, 6, 4):
        for b in (beta, F(5, 3)):
            verdicts = run_scan(ScanConfig(G, S_DEFAULT, b, depth)).verdicts
            by_fractions = sorted(verdicts,
                                  key=lambda v: (v.degree, v.point.key()))
            assert [id(v) for v in verdicts] \
                == [id(v) for v in by_fractions], (depth, b)
    assert sorted(G._memo["classes"].orders) == [119, 890]
