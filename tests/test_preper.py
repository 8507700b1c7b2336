import math
from fractions import Fraction as F

import pytest

from monodyn import galois
from monodyn.errors import DegreeCapExceeded, EnumerationCap, RootOfUnityInput
from monodyn.galois import class_of_point, decompose_binomial_roots
from monodyn.places import INF, Place
from monodyn.polyfactor import factor_poly
from monodyn.polynomials import UniPoly, newton_polygon_root_valuations
from monodyn.preper import (CollisionBinomial, capelli_reducible,
                            collision_binomial, conjugates,
                            degree_lower_bound, enumerate_preperiodic,
                            minimal_polynomial, structure_decompose)
from monodyn.primes import factor_fraction
from monodyn.radical import RadicalPoint
from monodyn.semigroup import Semigroup
from oracles import (coefficient_power, max_power_exponent, rational_binomial,
                     root_of_unity, word_pairs)


def G(*pairs):
    return Semigroup.from_pairs(pairs)


G1 = G(("2", 2))
G2 = G(("2", 2), ("3", 3))
GZ = G(("1", 2))
GMIX = G(("-2", 2), ("3/5", 3))


def test_collision_examples():
    cb = collision_binomial(G1, (0,), 0)
    assert (cb.N, cb.a) == (1, F(1, 2))
    cb = collision_binomial(GZ, (0, 0), 1)
    assert (cb.N, cb.a) == (2, F(1))
    cb = collision_binomial(G2, (0, 1), 0)
    assert (cb.N, cb.a) == (5, F(1, 24))
    # negative degrees normalize to N > 0
    gneg = G(("2", 2), ("1/3", -2))
    cb = collision_binomial(gneg, (0, 1), 0)
    assert cb.N > 0
    prod = F(1)
    for gen, e in zip(gneg.generators, cb.exponents):
        prod *= gen.a ** e
    assert prod == cb.a


@pytest.mark.parametrize("pairs", [
    (("2", 2), ("3", 3)), (("-5/2", 3), ("4", -2)), (("4", 2), ("9", 3)),
    (("1/2", 2), ("5", 3)), (("1", 2), ("3", -3))])
def test_radicands_from_generator_exponents(pairs, monkeypatch):
    # a is built from the generators' exponent maps, never factored: it
    # must equal the Fraction product, carry a's own factorization, and
    # decompose as the plain rational does when that is factored afresh
    monkeypatch.setattr(galois, "_decompose_cache", {})
    g = G(*pairs)
    for w, m in word_pairs(g, 6):
        cb = collision_binomial(g, w, m)
        assert cb.a == coefficient_power(g, cb.exponents), (w, m)
        # in increasing p, as PosReal.of_radical takes them
        assert list(cb.a.exponents.items()) == \
            list(factor_fraction(cb.a).items()), (w, m)
        rows = []
        for a in (cb.a, F(cb.a)):
            galois._decompose_cache.clear()
            rows.append([(cls.key, cls.c0_exponents)
                         for cls in decompose_binomial_roots(cb.N, a)])
        assert rows[0] == rows[1], (w, m)


def test_collision_roots_satisfy_witness():
    for g, w, m in ((G1, (0,), 0), (G2, (0, 1), 0), (G2, (1, 0, 1), 1)):
        cb = collision_binomial(g, w, m)
        for j in range(cb.N):
            pt = RadicalPoint.from_binomial_root(cb.a, cb.N, j)
            left = pt
            for i in w:
                left = left.apply(g.generators[i])
            right = pt
            for i in w[:m]:
                right = right.apply(g.generators[i])
            assert left == right


def test_collision_exponent_bound():
    # |k_i| <= |N| for positive degrees
    import itertools
    for g in (G2, G(("2", 2), ("3", 3), ("5", 4))):
        for n in range(1, 6):
            for w in itertools.product(range(g.s), repeat=n):
                for m in range(n):
                    cb = collision_binomial(g, w, m)
                    assert all(abs(k) <= cb.N for k in cb.exponents)


def test_capelli_examples():
    r = capelli_reducible(6, F(-27))
    assert r.kind == "split_prime" and r.p == 3 and r.y == -3
    assert capelli_reducible(5, F(3)).kind == "irreducible"
    r = capelli_reducible(4, F(-4))
    assert r.kind == "quartic" and r.y == 1
    with pytest.raises(RootOfUnityInput):
        capelli_reducible(3, F(1))


def test_capelli_witness_consistency():
    for M, c in ((6, F(64)), (9, F(-8, 27)), (8, F(16)), (12, F(4096))):
        r = capelli_reducible(M, c)
        if r.kind == "split_prime":
            assert r.y ** r.p == c
        elif r.kind == "quartic":
            assert -4 * r.y ** 4 == c


def test_capelli_factors_c_once(monkeypatch):
    # both tests read the exponents of one factorization of c
    from monodyn import primes
    factored = []
    factorint = primes.factorint

    def counted(n):
        factored.append(n)
        return factorint(n)
    monkeypatch.setattr(primes, "factorint", counted)
    for c in (F(5), F(-5), F(7, 4), F(12)):
        factored.clear()
        capelli_reducible(24, c)
        assert factored.count(abs(c.numerator)) == 1, c


def test_structure_decompose_factors_a_once(monkeypatch):
    # every root and gamma share the modulus of one factorization of a
    from monodyn import primes
    factored = []
    factorint = primes.factorint

    def counted(n):
        factored.append(n)
        return factorint(n)
    monkeypatch.setattr(primes, "factorint", counted)
    for g, w, m in ((G2, (0, 1), 0), (G2, (1, 1, 0), 1), (G2, (1, 0, 1), 0),
                    (G1, (0, 0, 0), 1), (GMIX, (0, 1, 1), 0)):
        cb = collision_binomial(g, w, m)
        factored.clear()
        assert len(structure_decompose(cb, g)) == cb.N > 4
        assert factored.count(abs(cb.a.numerator)) == 1, (w, m)
        assert factored.count(cb.a.denominator) == 1, (w, m)


def test_structure_decompose_split_matches_max_power_exponent():
    # radicand^u = xi * a with radicand = x^(l/u), u = gcd(N, l), for
    # (l, x, xi) = max_power_exponent(a), which factors a on its own
    cases = [(cb, g) for g in (G1, G2, GMIX, G(("-4", 3)), G(("-8", 2)))
             for w, m in word_pairs(g, 3)
             for cb in [collision_binomial(g, w, m)]]
    cases += [(CollisionBinomial(N, (k,), F(a) ** k), G((str(a), 2)))
              for a in (-4, -8, -27, -64, 36, -36) for N in range(1, 13)
              for k in (1, 2, 3)]
    for cb, g in cases:
        if cb.a in (1, -1):
            continue
        ell, x, xi = max_power_exponent(cb.a)
        u = math.gcd(cb.N, ell)
        sps = structure_decompose(cb, g)
        assert {(sp.M, sp.radicand) for sp in sps} \
            == {(cb.N // u, x ** (ell // u))}, cb
        assert [sp.point for sp in sps] == \
            [RadicalPoint.from_binomial_root(cb.a, cb.N, j)
             for j in range(cb.N)]


def test_structure_decompose():
    cb = collision_binomial(G2, (0, 1), 0)
    sps = structure_decompose(cb, G2)
    assert len(sps) == 5
    sp = sps[0]
    assert sp.M == 5 and sp.b == 1
    # radicand consistency
    prod = F(1)
    for gen, mi in zip(G2.generators, sp.m_exponents):
        prod *= gen.a ** mi
    assert prod * sp.b == sp.radicand
    # spec worked case N=2, a=16: gamma is rational
    sp16 = structure_decompose(CollisionBinomial(2, (1,), F(16)),
                               G(("16", 2)))[0]
    assert sp16.M == 1 and sp16.radicand == 4


def test_structure_height_budget():
    # h(b) <= sum h(a_i), exactly at the integer level
    from monodyn.places import height_exact_arg
    import itertools
    for g in (G2, G(("2", 2), ("1/3", -2))):
        budget = 1
        for gen in g.generators:
            budget *= height_exact_arg(gen.a)
        for n in range(1, 5):
            for w in itertools.product(range(g.s), repeat=n):
                for m in range(n):
                    cb = collision_binomial(g, w, m)
                    if cb.a in (1, -1):
                        continue
                    sp = structure_decompose(cb, g)[0]
                    assert height_exact_arg(sp.b) <= budget


def test_degree_bound_examples():
    cb = collision_binomial(G2, (0, 1), 0)
    sp = structure_decompose(cb, G2)[0]
    db = degree_lower_bound(sp)
    assert db.lower == F(5, 2) and db.M == 5
    # pure root of unity of order 7 forces degree >= 6
    from monodyn.preper import StructuredPreper
    sp7 = StructuredPreper(root_of_unity(F(1, 7)), 1, (0,),
                           F(1), F(1), 7, True)
    assert degree_lower_bound(sp7).lower == 6
    sp1 = StructuredPreper(RadicalPoint.from_rational(F(2)), 1, (0,),
                           F(1), F(1), 1, True)
    assert degree_lower_bound(sp1).lower == 1


def test_minimal_polynomials():
    assert minimal_polynomial(RadicalPoint.from_rational(F(1, 2))) \
        == UniPoly.from_coeffs([F(-1, 2), 1])
    assert minimal_polynomial(root_of_unity(F(1, 3))) \
        == UniPoly.from_coeffs([1, 1, 1])
    sqrt_m3 = RadicalPoint.from_binomial_root(F(-3), 2, 0)
    assert minimal_polynomial(sqrt_m3) == UniPoly.from_coeffs([3, 0, 1])
    alpha = RadicalPoint.from_binomial_root(F(1, 24), 5, 2)
    assert minimal_polynomial(alpha) == UniPoly.binomial(5, F(1, 24))
    one_plus_i = RadicalPoint.from_binomial_root(F(-4), 4, 0)
    assert minimal_polynomial(one_plus_i) == UniPoly.from_coeffs([2, -2, 1])


def test_minimal_polynomial_divides_binomial():
    pts = [RadicalPoint.from_binomial_root(F(1, 81), 8, j) for j in range(8)]
    pts += [RadicalPoint.from_binomial_root(F(-64), 12, j) for j in range(12)]
    for pt in pts:
        poly = minimal_polynomial(pt)
        n0, a0 = rational_binomial(pt)
        assert (UniPoly.binomial(n0, a0) % poly).is_zero
        assert poly.degree == class_of_point(pt).degree
        # cross-check against the factorization route
        fac = factor_poly(UniPoly.binomial(n0, a0))
        assert any(g.monic() == poly for g, _ in fac)


def test_minimal_polynomial_degree_cap():
    pt = root_of_unity(F(1, 2048))
    with pytest.raises(DegreeCapExceeded):
        minimal_polynomial(pt, degree_cap=512)


def test_conjugates():
    i_pt = root_of_unity(F(1, 4))
    conj = conjugates(i_pt, INF)
    assert sorted(round(z.imag, 9) for z in conj) == [-1.0, 1.0]
    sqrt_m3 = RadicalPoint.from_binomial_root(F(-3), 2, 0)
    conj = conjugates(sqrt_m3, INF)
    assert all(abs(abs(z) - math.sqrt(3)) < 1e-12 for z in conj)
    alpha = RadicalPoint.from_binomial_root(F(1, 24), 5, 0)
    assert conjugates(alpha, Place(2)) == [F(-3, 5)] * 5
    # oracle: the Newton polygon of the minimal polynomial, on every class to
    # depth 4 and on one class past the degree cap (X^1024 = 2)
    checked = 0
    for g in (G2, G(("-5/2", 3), ("4", -2)), G(("4", 2), ("9", 3))):
        seen = set()
        for ep in enumerate_preperiodic(g, 4):
            if ep.cls.key in seen:
                continue
            seen.add(ep.cls.key)
            poly = minimal_polynomial(ep.point)
            for p in (2, 3, 5, 7):
                assert conjugates(ep.point, Place(p)) == \
                    newton_polygon_root_valuations(poly, p), (ep.point, p)
                checked += 1
    assert checked > 1000
    big = RadicalPoint.from_binomial_root(F(2), 1024, 1)
    poly = minimal_polynomial(big, degree_cap=1024)
    for p in (2, 3):
        assert conjugates(big, Place(p)) == \
            newton_polygon_root_valuations(poly, p) == [F(p == 2, 1024)] * 1024


def test_enumeration_examples():
    pts = enumerate_preperiodic(GZ, 3)
    orders = sorted({p.point.angle.denominator for p in pts})
    assert orders == [1, 2, 3, 4, 6, 7]
    pts = enumerate_preperiodic(G1, 2)
    keys = {p.point.key() for p in pts}
    assert RadicalPoint.from_rational(F(1, 2)).key() in keys
    assert RadicalPoint.from_rational(F(-1, 2)).key() in keys
    assert RadicalPoint(RadicalPoint.from_rational(F(1, 2)).modulus, F(1, 3)).key() in keys
    pts = enumerate_preperiodic(G2, 1)
    vals = sorted(str(p.point) for p in pts)
    assert len(pts) == 3  # 1/2 and the two square roots of 1/3


def test_enumeration_caps_listed_points():
    # the node cap counts listed points: 13,005 to depth 5, although the
    # binomial degrees N of the word pairs sum to 15,993
    pts = enumerate_preperiodic(G2, 5, node_cap=13005)
    assert len(pts) == 13005
    assert len({ep.point.key() for ep in pts}) == 13005
    with pytest.raises(EnumerationCap, match="node cap 13004 reached at"):
        enumerate_preperiodic(G2, 5, node_cap=13004)


def test_enumeration_dedup_first_witness():
    pts = enumerate_preperiodic(G1, 3)
    seen = {}
    for ep in pts:
        key = ep.point.key()
        assert key not in seen
        seen[key] = ep
    half = next(ep for ep in pts if ep.point == RadicalPoint.from_rational(F(1, 2)))
    assert half.word == (0,) and half.prefix == 0


def test_enumerated_points_replay_witness():
    for g in (GZ, G1, G2):
        for ep in enumerate_preperiodic(g, 3):
            left = ep.point
            for i in ep.word:
                left = left.apply(g.generators[i])
            right = ep.point
            for i in ep.word[:ep.prefix]:
                right = right.apply(g.generators[i])
            assert left == right


def with_structure(g, eps):
    """(ep, sp) for each enumerated point, sp its reduced form among the
    roots of the witness binomial."""
    structures = {}
    for ep in eps:
        wm = (ep.word, ep.prefix)
        if wm not in structures:
            cb = collision_binomial(g, ep.word, ep.prefix)
            structures = {wm: {sp.point: sp
                               for sp in structure_decompose(cb, g)}}
        yield ep, structures[wm][ep.point]


def test_degree_bounds_hold_on_enumeration():
    for g in (GZ, G1, G2):
        for ep, sp in with_structure(g, enumerate_preperiodic(g, 3)):
            deg = class_of_point(ep.point).degree
            assert deg >= degree_lower_bound(sp).lower


def per_root_enumeration(g, n_max):
    """The oracle: every root of every collision binomial in (|w|, lex, m)
    order, each point kept once with its first witness."""
    seen = set()
    out = []
    for w, m in word_pairs(g, n_max):
        cb = collision_binomial(g, w, m)
        for j in range(cb.N):
            key = RadicalPoint.from_binomial_root(cb.a, cb.N, j).key()
            if key not in seen:
                seen.add(key)
                out.append((key, w, m))
    return out


@pytest.mark.parametrize("g", [GZ, G1, G2, G(("-5/2", 3), ("4", -2)),
                               G(("4", 2), ("9", 3)), G(("1", 2), ("3", -3))])
def test_enumeration_matches_per_root_oracle(g):
    for n in range(1, 5):
        eps = enumerate_preperiodic(g, n)
        assert [(ep.point.key(), ep.word, ep.prefix) for ep in eps] \
            == per_root_enumeration(g, n)
        for ep in eps:
            assert ep.point.modulus == ep.cls.modulus
            assert ep.point.angle in ep.cls.angles
