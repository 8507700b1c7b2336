import random
from collections import Counter
from fractions import Fraction as F
from math import comb

import pytest

from monodyn import polyfactor
from monodyn.errors import DegreeCapExceeded
from monodyn.polyfactor import (factor_poly, factorization_content,
                                irreducibility_certificate, rational_roots)
from monodyn.polynomials import UniPoly


def P(*cs):
    return UniPoly.from_coeffs(cs)


def swinnerton_dyer(primes):
    """prod (X +- sqrt(p_1) +- ... +- sqrt(p_k)) over Z: irreducible of
    degree 2^k, yet a product of linear and quadratic factors modulo every
    prime."""
    f = [0, 1]
    for p in primes:
        # f(X + sqrt p) = even(X) + sqrt(p) odd(X); times its conjugate
        even, odd = [0] * len(f), [0] * len(f)
        for i, c in enumerate(f):
            for j in range(i + 1):
                part = odd if j % 2 else even
                part[i - j] += c * comb(i, j) * p ** (j // 2)
        even, odd = P(*even), P(*odd)
        f = (even * even - odd * odd * p).int_coeffs()
    return P(*f)


def reassemble(f):
    prod = UniPoly.one()
    for g, m in factor_poly(f):
        prod = prod * g ** m
    return factorization_content(f) * prod if False else prod


def test_worked_sextic():
    f = P(27, 0, 0, 0, 0, 0, 1)
    fac = factor_poly(f)
    assert [g.int_coeffs() for g, _ in fac] == [[3, -3, 1], [3, 0, 1], [3, 3, 1]]
    assert all(m == 1 for _, m in fac)


def test_examples():
    fac = factor_poly(P(-16, 0, 0, 0, 1))
    assert [g.int_coeffs() for g, _ in fac] == [[-2, 1], [2, 1], [4, 0, 1]]
    fac = factor_poly(UniPoly.binomial(5, 3))
    assert len(fac) == 1 and fac[0][0].degree == 5
    # quartic special case
    fac = factor_poly(P(4, 0, 0, 0, 1))
    assert [g.int_coeffs() for g, _ in fac] == [[2, -2, 1], [2, 2, 1]]


def test_multiplicities_and_content():
    f = P(1, 1) ** 3 * P(-2, 0, 1) * 6
    fac = factor_poly(f)
    assert ([(g.int_coeffs(), m) for g, m in fac]
            == [([1, 1], 3), ([-2, 0, 1], 1)])
    prod = UniPoly.one()
    for g, m in fac:
        prod = prod * g ** m
    c, _ = f.content_and_primitive()
    assert prod * c == f


def test_zero_roots_split():
    f = P(0, 0, -1, 0, 1)    # X^2 (X-1)(X+1)
    fac = dict((tuple(g.int_coeffs()), m) for g, m in factor_poly(f))
    assert fac[(0, 1)] == 2
    assert fac[(-1, 1)] == 1 and fac[(1, 1)] == 1


def test_random_products_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        parts = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 4)
            cs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 4)]
            parts.append(P(*cs))
        f = UniPoly.one()
        for part in parts:
            if part.degree >= 1:
                f = f * part
        if f.degree < 1:
            continue
        fac = factor_poly(f)
        prod = UniPoly.one()
        for g, m in fac:
            prod = prod * g ** m
        assert prod.monic() == f.monic()
        # every reported factor is irreducible per the independent evidence
        for g, _ in fac:
            assert irreducibility_certificate(g) != "reducible"


def test_cyclotomic_factorizations():
    from monodyn.polynomials import cyclotomic_poly
    for n in (4, 6, 8, 12, 20):
        fac = factor_poly(UniPoly.binomial(n, 1))
        got = sorted(g.degree for g, _ in fac)
        expect = sorted(cyclotomic_poly(d).degree
                        for d in range(1, n + 1) if n % d == 0)
        assert got == expect


def test_rational_roots():
    f = P(-6, 11, -6, 1)   # (X-1)(X-2)(X-3)
    assert rational_roots(f) == [F(1), F(2), F(3)]
    assert rational_roots(P(1, 0, 1)) == []
    assert rational_roots(P(0, -1, 2)) == [F(0), F(1, 2)]


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        factor_poly(UniPoly.binomial(600, 2))


def test_irreducible_without_splitting(monkeypatch):
    # distinct-degree counts alone prove these irreducible, so no prime is
    # split into irreducibles.  X^24 - 2 is inert modulo 13; the minimal
    # polynomial of 2^(1/3) + sqrt(-3) has Galois group S_3 acting
    # regularly, so it is inert modulo no prime, but its factor degrees are
    # {3, 3} modulo 7 and {2, 2, 2} modulo 11
    calls = []
    split = polyfactor._equal_degree_split
    monkeypatch.setattr(polyfactor, "_equal_degree_split",
                        lambda *args: calls.append(args) or split(*args))
    for f in (UniPoly.binomial(24, 2), P(31, 36, 27, -4, 9, 0, 1)):
        assert factor_poly(f) == [(f, 1)]
    assert calls == []


def test_swinnerton_dyer():
    # every even degree stays attainable (quadratics modulo every prime),
    # so only recombination proves these irreducible
    cubic = P(-2, 0, 0, 1)
    for k in (2, 3, 4, 5):
        sd = swinnerton_dyer((2, 3, 5, 7, 11)[:k])
        assert sd.degree == 2 ** k
        assert factor_poly(sd) == [(sd, 1)]
        assert factor_poly(sd * cubic) == [(cubic, 1), (sd, 1)]


def test_factor_poly_is_seed_independent():
    rng = random.Random(11)
    for _ in range(12):
        parts = []
        for _ in range(rng.choice((2, 3))):
            p = rng.choice((2, 3, 5, 7))
            unit = rng.choice([r for r in range(-3, 4) if r % p])
            deg = rng.randint(2, 8)
            parts.append(P(p * unit, *[p * rng.randint(-2, 2)
                                       for _ in range(deg - 1)], 1))
        f = UniPoly.one()
        for part in parts:
            f = f * part
        expected = sorted(Counter(parts).items(),
                          key=lambda t: (t[0].degree, t[0].coeffs))
        for seed in (0, 1, 5):
            assert factor_poly(f, seed=seed) == expected
