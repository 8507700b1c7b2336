"""Randomized cross-checks of the exact layers against independent routes."""

import cmath
import math
import random
from fractions import Fraction as F

from monodyn.galois import class_of_point, decompose_binomial_roots
from monodyn.orbits import is_preperiodic
from monodyn.polyfactor import factor_poly
from monodyn.polynomials import UniPoly
from monodyn.preper import minimal_polynomial
from monodyn.radical import RadicalPoint
from monodyn.semigroup import MonomialMap, Semigroup
from oracles import complex_value, point_pow, rational_binomial


def _brute_preperiodic(G, x, depth):
    """Unpruned breadth-first collision search (exact equality only)."""
    frontier = [(x, (x,))]
    for _ in range(depth):
        nxt = []
        for point, path in frontier:
            for g in G.generators:
                y = point.apply(g)
                if any(y == anc for anc in path):
                    return True
                nxt.append((y, path + (y,)))
        frontier = nxt
    return False


def test_pruned_search_agrees_with_brute_force():
    rng = random.Random(424242)
    coeffs = [F(1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(1, 4), F(16),
              F(-4), F(9, 4)]
    degrees = [2, 3, -2]
    for trial in range(60):
        s = rng.randint(1, 2)
        gens = []
        for _ in range(s):
            gens.append((rng.choice(coeffs), rng.choice(degrees)))
        G = Semigroup.from_pairs(gens)
        if rng.random() < 0.5:
            x = RadicalPoint.from_rational(
                F(rng.randint(1, 8), rng.randint(1, 8)) * rng.choice([1, -1]))
        else:
            x = RadicalPoint.from_binomial_root(
                F(rng.randint(1, 8), rng.randint(1, 8)) * rng.choice([1, -1]),
                rng.randint(1, 3), rng.randrange(3))
        depth = 4
        st = is_preperiodic(G, x, depth)
        brute = _brute_preperiodic(G, x, depth)
        if st.is_preperiodic:
            assert brute
        elif st.tag == "not_preperiodic":
            # soundness: no collision may exist at any depth; spot-check deeper
            assert not _brute_preperiodic(G, x, depth + 2)
        else:
            assert not brute   # unknown only when nothing was found


def test_radical_arithmetic_matches_complex():
    rng = random.Random(7)
    maps = [MonomialMap(F(2), 2), MonomialMap(F(-3, 5), 3),
            MonomialMap(F(1, 3), -2)]
    for _ in range(200):
        a = F(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice([1, -1])
        N = rng.randint(1, 6)
        j = rng.randrange(N)
        x = RadicalPoint.from_binomial_root(a, N, j)
        zx = complex_value(x)
        assert abs(zx ** N - complex(a)) < 1e-9 * max(1.0, abs(zx) ** N)
        f = rng.choice(maps)
        y = x.apply(f)
        zy = float(f.a) * zx ** f.d
        assert abs(complex_value(y) - zy) < 1e-9 * max(1.0, abs(zy))
        k = rng.randint(-3, 4) or 2
        assert abs(complex_value(point_pow(x, k)) - zx ** k) \
            < 1e-9 * max(1.0, abs(zx) ** k)


def test_rational_binomial_is_minimal():
    rng = random.Random(15)
    for _ in range(100):
        a = F(rng.randint(1, 20), rng.randint(1, 20)) * rng.choice([1, -1])
        N = rng.randint(1, 8)
        x = RadicalPoint.from_binomial_root(a, N, rng.randrange(N))
        n0, a0 = rational_binomial(x)
        y = point_pow(x, n0)
        assert y.is_rational and y.as_fraction() == a0
        for n in range(1, n0):
            assert not point_pow(x, n).is_rational


def test_minimal_polynomial_random_vs_factorization():
    rng = random.Random(99)
    for _ in range(40):
        a = F(rng.randint(1, 12), rng.randint(1, 12)) * rng.choice([1, -1])
        N = rng.randint(1, 9)
        j = rng.randrange(N)
        x = RadicalPoint.from_binomial_root(a, N, j)
        poly = minimal_polynomial(x)
        n0, a0 = rational_binomial(x)
        fac = factor_poly(UniPoly.binomial(n0, a0))
        assert any(g.monic() == poly for g, _ in fac)
        # numeric vanishing
        z = complex_value(x)
        val = complex(poly(z))
        assert abs(val) < 1e-7 * max(1.0, abs(z)) ** poly.degree


def test_class_partition_is_galois_stable():
    rng = random.Random(3)
    for _ in range(25):
        a = F(rng.randint(1, 15), rng.randint(1, 15)) * rng.choice([1, -1])
        N = rng.randint(2, 14)
        classes = decompose_binomial_roots(N, a)
        all_angles = sorted(t for cls in classes for t in cls.angles)
        expect = sorted(RadicalPoint.from_binomial_root(a, N, j).angle
                        for j in range(N))
        assert all_angles == expect
        for cls in classes:
            # the class of any member reproduces the same angle set
            member = RadicalPoint(cls.modulus, cls.angles[-1])
            assert class_of_point(member).angles == cls.angles
