import random
from fractions import Fraction as F

import pytest

from monodyn.errors import DepthNonPositive, EmptyWord, InvalidConfig, TreeSizeCap
from monodyn.exactreal import PosReal
from monodyn.orbits import (in_size_window, is_preperiodic, orbit_tree,
                            window_radius_exact)
from monodyn.places import INF, Place
from monodyn.radical import RadicalPoint
from monodyn.semigroup import (MonomialMap, Semigroup, compose_word,
                               format_word, good_reduction, parse_word,
                               word_coefficient_exponents)
from oracles import root_of_unity


def G(*pairs):
    return Semigroup.from_pairs(pairs)


def test_monomial_validation():
    with pytest.raises(InvalidConfig):
        MonomialMap(F(0), 2)
    with pytest.raises(InvalidConfig):
        MonomialMap(F(2), 1)


def test_json_roundtrip():
    g = Semigroup.from_json('{"generators":[{"a":"2","d":2},{"a":"1/3","d":-2}]}')
    assert g.generators[0].a == 2 and g.generators[1].d == -2
    assert Semigroup.from_json(g.to_json()) == g


def test_word_format():
    assert format_word((0, 1, 0)) == "1,2,1"
    assert parse_word("1,2,1") == (0, 1, 0)
    assert parse_word("") == ()


def test_compose_examples():
    g = G(("2", 2), ("3", 3))
    assert compose_word(g, (0, 1)) == (F(24), 6)
    assert compose_word(g, (0,)) == (F(2), 2)
    gneg = G(("2", 2), ("1/3", -2))
    assert compose_word(gneg, (0, 1)) == (F(1, 12), -4)
    with pytest.raises(EmptyWord):
        compose_word(g, ())


def test_compose_concatenation():
    rng = random.Random(3)
    g = G(("2", 2), ("-3/5", 3))
    for _ in range(60):
        w1 = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
        a1, d1 = compose_word(g, w1)
        a2, d2 = compose_word(g, w2)
        a, d = compose_word(g, w1 + w2)
        assert d == d1 * d2
        assert a == a2 * a1 ** d2


def test_word_exponents_match_compose():
    g = G(("2", 2), ("3", 3), ("1/5", -3))
    rng = random.Random(8)
    for _ in range(50):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        k, D = word_coefficient_exponents(g, w)
        A, D2 = compose_word(g, w)
        assert D == D2
        prod = F(1)
        for gen, e in zip(g.generators, k):
            prod *= gen.a ** e
        assert prod == A


def test_apply_matches_compose():
    g = G(("2", 2), ("-1/3", -2))
    rng = random.Random(4)
    for _ in range(40):
        w = tuple(rng.randrange(2) for _ in range(rng.randint(1, 5)))
        x = RadicalPoint.from_binomial_root(F(rng.randint(1, 9)), rng.randint(1, 4), 0)
        y = x
        for i in w:
            y = y.apply(g.generators[i])
        A, D = compose_word(g, w)
        direct = RadicalPoint(x.modulus ** D * PosReal.of(A),
                              x.angle * D + (0 if A > 0 else F(1, 2)))
        assert y == direct


def test_good_reduction():
    f = MonomialMap(F(2), 2)
    assert good_reduction(f, 3)
    assert not good_reduction(f, 2)
    assert good_reduction(MonomialMap(F(1), 5), 7)
    assert not good_reduction(MonomialMap(F(1, 3), 2), 3)


def test_window_radius_examples():
    g1 = G(("2", 2))
    r = window_radius_exact(g1, INF)
    assert r == PosReal.of(F(1, 2))
    gz = G(("1", 3))
    assert window_radius_exact(gz, Place(7)) == PosReal.one()
    g2 = G(("2", 2), ("3", 3))
    r3 = window_radius_exact(g2, Place(3))
    assert r3 == PosReal({3: F(-1, 2)})


def test_window_radius_is_kept_on_the_semigroup(monkeypatch):
    # the gate asks for r(G, v) at every node it visits; a second gate on
    # the same G factors no coefficient for a radius
    import monodyn.exactreal as exactreal
    import monodyn.orbits as orbits
    radius, factor = orbits.window_radius_exact, exactreal.factor_fraction
    depth, factored = [], []

    def traced_radius(G, v):
        depth.append(v)
        try:
            return radius(G, v)
        finally:
            depth.pop()

    def traced_factor(x):
        if depth:
            factored.append(x)
        return factor(x)
    monkeypatch.setattr(orbits, "window_radius_exact", traced_radius)
    monkeypatch.setattr(exactreal, "factor_fraction", traced_factor)
    g = G(("2", 2), ("3", 3))
    x = RadicalPoint.from_rational(F(2))
    first = is_preperiodic(g, x, 8)
    assert factored and first.tag == "not_preperiodic"
    factored.clear()
    assert is_preperiodic(g, x, 8) == first and factored == []
    assert g._memo[("window", INF)] is radius(g, INF) == PosReal.of(F(1, 2))


def test_posreal_float_views_ignore_insertion_order():
    # summed in insertion order, these two orders differ in the last bit
    items = [(3, F(-3, 2)), (11, F(5, 4)), (2, F(3, 2)), (13, F(-3, 2))]
    x, y = PosReal(dict(items)), PosReal(dict(reversed(items)))
    assert x == y
    assert x.log() == y.log() and float(x) == float(y)


def test_preperiodic_examples():
    g1 = G(("2", 2))
    st = is_preperiodic(g1, RadicalPoint.from_rational(F(1, 2)), 5)
    assert st.is_preperiodic and st.witness_word == (0,) and st.witness_prefix == 0
    st = is_preperiodic(g1, RadicalPoint.from_rational(F(2)), 5)
    assert st.tag == "not_preperiodic"
    gz = G(("1", 2))
    st = is_preperiodic(gz, root_of_unity(F(1, 3)), 5)
    assert st.is_preperiodic and st.witness_word == (0, 0) and st.witness_prefix == 0


def test_preperiodic_is_not_forward_invariant():
    # 1/2 collides for <z^2, 16 z^3> though its image 2 escapes
    g = G(("1", 2), ("16", 3))
    st = is_preperiodic(g, RadicalPoint.from_rational(F(1, 2)), 4)
    assert st.is_preperiodic and st.witness_word == (0, 1) and st.witness_prefix == 1
    st2 = is_preperiodic(g, RadicalPoint.from_rational(F(2)), 6)
    assert st2.tag == "not_preperiodic"


def test_preperiodic_witness_replays():
    g = G(("2", 2), ("3", 3))
    for x in (RadicalPoint.from_rational(F(1, 2)),
              RadicalPoint.from_binomial_root(F(1, 3), 2, 0)):
        st = is_preperiodic(g, x, 4)
        assert st.is_preperiodic
        y = x
        path = [x]
        for i in st.witness_word:
            y = y.apply(g.generators[i])
            path.append(y)
        assert path[-1] == path[st.witness_prefix]


def test_preperiodic_gate_cases():
    g2 = G(("2", 2), ("3", 3))
    st = is_preperiodic(g2, RadicalPoint.from_rational(F(2)), 6)
    assert st.tag == "not_preperiodic"
    with pytest.raises(DepthNonPositive):
        is_preperiodic(g2, RadicalPoint.from_rational(F(2)), 0)


def test_window_membership_for_enumerated():
    from monodyn.preper import enumerate_preperiodic
    g = G(("2", 2), ("3", 3))
    for ep in enumerate_preperiodic(g, 3):
        assert in_size_window(g, ep.point, INF)
        for p in set(ep.point.support_primes()) | {2, 3}:
            assert in_size_window(g, ep.point, Place(p))


def test_orbit_tree():
    g1 = G(("1", 2))
    x = RadicalPoint.from_rational(F(2))
    nodes = orbit_tree(g1, x, 3)
    vals = [n.point.as_fraction() for n in nodes]
    assert vals == [F(2), F(4), F(16), F(256)]
    assert orbit_tree(g1, x, 0)[0].point == x
    g2 = G(("2", 2), ("3", 3))
    nodes = orbit_tree(g2, RadicalPoint.from_rational(F(1)), 1)
    assert sorted(n.point.as_fraction() for n in nodes) == [F(1), F(2), F(3)]
    with pytest.raises(TreeSizeCap):
        orbit_tree(g2, RadicalPoint.from_rational(F(5)), 12, node_cap=100)


def test_orbit_tree_cycle_marked():
    g1 = G(("2", 2))
    nodes = orbit_tree(g1, RadicalPoint.from_rational(F(1, 2)), 3)
    # fixed point repeats its root ancestor and is not expanded further
    assert len(nodes) == 2
    assert nodes[1].repeats_prefix == 0
