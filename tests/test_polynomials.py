import math
import random
from fractions import Fraction as F

from monodyn.polynomials import (UniPoly, cyclotomic_poly,
                                 newton_polygon_root_valuations, poly_gcd,
                                 squarefree_decomposition)
from monodyn.primes import euler_phi
from oracles import scale_arg, zero_poly


def P(*cs):
    return UniPoly.from_coeffs(cs)


def test_basic_arithmetic():
    f = P(1, 2, 1)          # (X+1)^2
    g = P(1, 1)
    assert g * g == f
    q, r = divmod(f, g)
    assert q == g and r.is_zero
    assert f(F(3)) == 16
    assert f.derivative() == P(2, 2)
    assert (f - f).is_zero
    assert P(0, 0, 0).is_zero
    assert f.shift(F(1)) == P(4, 4, 1)      # (X+2)^2
    assert P(0, 1).compose_monomial(3) == P(0, 0, 0, 1)
    assert scale_arg(P(1, 1), F(2)) == P(1, 2)


def _shift_by_fraction_horner(f: UniPoly, a) -> UniPoly:
    """f(X + a) by the textbook Fraction loop: the oracle for shift."""
    a = F(a)
    cs = list(f.coeffs)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return UniPoly.from_coeffs(cs)


def test_shift_matches_fraction_horner():
    rng = random.Random(17)
    dens = (1, 1, 2, 3, 4, 6, 9, 25, 49, 1024)
    shifts = (F(0), F(-1), F(12), F(1, 2), F(-3, 7), F(-22, 9))
    for deg in range(65):
        for _ in range(2):
            cs = [F(rng.randint(-10 ** 6, 10 ** 6), rng.choice(dens))
                  for _ in range(deg)]
            cs.append(F(rng.choice((1, -1)) * rng.randint(1, 30),
                        rng.choice(dens)))
            if deg and rng.random() < 0.3:
                cs[rng.randrange(deg)] = F(0)
            f = P(*cs)
            for a in shifts:
                assert f.shift(a) == _shift_by_fraction_horner(f, a), (f, a)
    # sparse degree 64, as c0^phi Phi_q'(X^k / c0) is, shifted by long u / v
    for terms in ((0, 64), (0, 32, 64), (0, 16, 48, 64), (5, 17, 63, 64)):
        cs = [F(0)] * 65
        for i in terms:
            cs[i] = F(rng.randint(-10 ** 30, 10 ** 30) or 1,
                      rng.choice((1, 3 ** 40, 2 ** 61 - 1)))
        f = P(*cs)
        for a in (F(3 ** 50, 2 ** 70), F(-(10 ** 25 + 7), 13 ** 9),
                  F(2 ** 100 + 1)):
            assert f.shift(a) == _shift_by_fraction_horner(f, a), (terms, a)
    assert zero_poly().shift(F(3, 5)).is_zero


def test_division_random():
    rng = random.Random(5)
    for _ in range(60):
        f = P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
        g = P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree or r.is_zero


def test_content_primitive():
    f = P(F(2, 3), F(4, 3), F(2, 3))
    c, prim = f.content_and_primitive()
    assert c == F(2, 3)
    assert prim.int_coeffs() == [1, 2, 1]
    assert c * prim == f


def test_gcd_and_squarefree():
    f = P(-1, 0, 1)  # (X-1)(X+1)
    g = P(-1, 1)
    assert poly_gcd(f, g) == P(-1, 1)
    h = g * g * P(1, 1) ** 3
    parts = squarefree_decomposition(h)
    total = UniPoly.one()
    for fac, mult in parts:
        total = total * fac ** mult
    assert total.monic() == h.monic()
    assert sorted(m for _, m in parts) == [2, 3]


def test_cyclotomic():
    assert cyclotomic_poly(1) == P(-1, 1)
    assert cyclotomic_poly(6) == P(1, -1, 1)
    assert cyclotomic_poly(12).degree == euler_phi(12) == 4
    # division oracle: X^n - 1 = prod over divisors
    for n in (1, 2, 6, 12, 30):
        prod = UniPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == UniPoly.binomial(n, 1)


def _cyclotomic_by_division(n, cache={}):
    """The former construction, the oracle: X^n - 1 long-divided by the
    cyclotomic polynomials of the proper divisors of n (coefficients low to
    high; every divisor is monic, so the division stays on integers)."""
    if n not in cache:
        out = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                g = _cyclotomic_by_division(d)
                m = len(g) - 1
                quo = [0] * (len(out) - m)
                for i in reversed(range(len(quo))):
                    c = quo[i] = out[i + m]
                    for k, gk in enumerate(g):
                        if gk:
                            out[i + k] -= c * gk
                assert not any(out), (n, d)
                out = quo
        cache[n] = out
    return cache[n]


def test_cyclotomic_moebius_product_matches_division():
    for n in range(1, 401):
        assert list(cyclotomic_poly(n).coeffs) == _cyclotomic_by_division(n), n


def test_cyclotomic_degree_is_euler_phi():
    # the degree of the Moebius product against phi(n) counted by gcds
    for n in range(1, 301):
        f = cyclotomic_poly(n)
        assert f.degree == euler_phi(n) == \
            sum(math.gcd(k, n) == 1 for k in range(1, n + 1)), n
        assert f.lead == 1


def test_newton_polygon_examples():
    assert newton_polygon_root_valuations(UniPoly.binomial(2, 2), 2) == [F(1, 2)] * 2
    assert newton_polygon_root_valuations(P(-1, 0, 1), 3) == [F(0), F(0)]
    assert newton_polygon_root_valuations(P(2, 1, 1), 2) == [F(0), F(1)]
    assert newton_polygon_root_valuations(
        UniPoly.binomial(5, F(1, 24)), 2) == [F(-3, 5)] * 5


def test_newton_polygon_sum_rule():
    # valuations sum to ord_p(f(0)/lead) when f(0) != 0
    from monodyn.primes import ord_p
    rng = random.Random(9)
    for _ in range(80):
        cs = [rng.randint(-40, 40) for _ in range(rng.randint(2, 7))]
        if cs[0] == 0 or cs[-1] == 0:
            continue
        f = P(*cs)
        for p in (2, 3, 5):
            vals = newton_polygon_root_valuations(f, p)
            assert sum(vals) == ord_p(F(cs[0], cs[-1]), p)
