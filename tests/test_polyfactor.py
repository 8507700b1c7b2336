import functools
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import comb

import pytest

from monodyn import polyfactor
from monodyn.errors import DegreeCapExceeded
from monodyn.polyfactor import factor_poly
from monodyn.polynomials import UniPoly
from monodyn.preper import capelli_reducible
from oracles import (good_prime_factorization_oracle, hensel_tree_oracle,
                     irreducibility_certificate, rational_roots)
from test_bench_gate import perfbench_workloads


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


def musser_prime_choice(f: UniPoly):
    """Musser's prime choice on f, walking the primes from 3 up and started
    from every degree.  X^24 - 2 and X^23 - 3 are Eisenstein, so
    factor_poly returns them from their Newton polygons without reaching
    the prime choice."""
    cs = f.int_coeffs()
    return polyfactor._good_prime_factorization(
        cs, random.Random(0), polyfactor._primes_mod(cs), set(range(len(cs))))


def certified_squarefree(f: list[int]) -> bool:
    """Whether f is squarefree modulo one of the first six primes of its
    walk, factor_poly's squarefree certificate."""
    return any(fp is not None
               for _, fp in itertools.islice(polyfactor._primes_mod(f), 6))


def polygon_certified(f: list[int]) -> bool:
    """Whether the Newton polygons of f prove it irreducible."""
    return polyfactor._polygon_degrees(f) == {0, len(f) - 1}


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
        assert musser_prime_choice(f) is None
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


# ---------------------------------------------------------------------------
# GF(p)[X] kernels against binary-powering oracles


def distinct_degree_oracle(f, p):
    """Distinct-degree split with X^(p^d) mod v by binary powering."""
    out = []
    v = f[:]
    h = [0, 1]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = polyfactor._ppowmod(h, p, v, p)
        g = polyfactor._pgcd(polyfactor._psub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v, _ = polyfactor._pdivmod(v, g, p)
            h = polyfactor._pmod(h, v, p)
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def equal_degree_split_oracle(g, d, p, rng):
    """Cantor-Zassenhaus with u^((p^d - 1)/2) by binary powering."""
    out = []
    work = [g]
    while work:
        cur = work.pop()
        if len(cur) - 1 == d:
            out.append(cur)
            continue
        while True:
            u = polyfactor._ptrim([rng.randrange(p)
                                   for _ in range(len(cur) - 1)])
            if not u:
                continue
            t = polyfactor._ppowmod(u, (p ** d - 1) // 2, cur, p)
            w = polyfactor._pgcd(polyfactor._psub(t, [1], p), cur, p)
            if 1 < len(w) < len(cur):
                work.append(w)
                work.append(polyfactor._pdivmod(cur, w, p)[0])
                break
    return out


def monic_squarefree_mod_p():
    """Seeded (f, p): random monic squarefree f mod p of degree 1-40, and
    reductions of X^M - c."""
    rng = random.Random(2718)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    out = []
    while len(out) < 60:
        p, n = rng.choice(primes), rng.randint(1, 40)
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if polyfactor._squarefree_mod(f, p) is not None:
            out.append((f, p))
    for M in (2, 6, 12, 24, 30, 37):
        for p in primes:
            c = rng.randrange(1, p)
            f = polyfactor._squarefree_mod([-c] + [0] * (M - 1) + [1], p)
            if f is not None:
                out.append((f, p))
    return out


def test_frobenius_rows_are_powers_of_x():
    for f, p in monic_squarefree_mod_p():
        rows = polyfactor._frobenius(f, p)
        assert rows == [polyfactor._ppowmod([0, 1], i * p, f, p)
                        for i in range(len(f) - 1)]
        # rows built on demand: the first two, then the rest onto them
        first = polyfactor._frobenius(f, p, count=min(2, len(f) - 1))
        assert first == rows[:2]
        assert polyfactor._frobenius(f, p, first) is first
        assert first == rows


def test_distinct_degree_matches_oracle():
    for f, p in monic_squarefree_mod_p():
        rows = polyfactor._frobenius(f, p)
        assert (polyfactor._distinct_degree(f, p, rows)
                == distinct_degree_oracle(f, p))


def test_equal_degree_split_matches_oracle():
    splits = 0
    for seed, (f, p) in enumerate(monic_squarefree_mod_p()):
        rows = polyfactor._frobenius(f, p)
        for g, d in distinct_degree_oracle(f, p):
            got = polyfactor._equal_degree_split(g, d, p, random.Random(seed),
                                                 rows)
            assert got == equal_degree_split_oracle(g, d, p,
                                                    random.Random(seed))
            splits += len(g) - 1 > d
    assert splits > 20


# ---------------------------------------------------------------------------
# the modular squarefree certificate in front of Yun's algorithm


@pytest.fixture
def yun_calls(monkeypatch):
    calls = []
    yun = polyfactor.squarefree_decomposition
    monkeypatch.setattr(polyfactor, "squarefree_decomposition",
                        lambda f: calls.append(f) or yun(f))
    return calls


def test_squarefree_input_skips_yun(yun_calls):
    f = UniPoly.binomial(12, 5)
    assert factor_poly(f) == [(f, 1)]
    assert len(factor_poly(P(-6, 11, -6, 1))) == 3
    assert yun_calls == []


def test_non_squarefree_inputs_keep_multiplicities(yun_calls):
    x2m2, x3m3 = P(-2, 0, 1), P(-3, 0, 0, 1)
    assert factor_poly(x2m2 ** 2 * x3m3) == [(x2m2, 2), (x3m3, 1)]
    assert factor_poly(P(1, 1) ** 3 * x2m2 * 6) == [(P(1, 1), 3), (x2m2, 1)]
    assert len(yun_calls) == 2


def test_squarefree_past_every_tried_prime(yun_calls):
    # the roots 1, 1 + m, 1 + 2m meet modulo 2 and every prime dividing m,
    # so no tried prime certifies the input and Yun's algorithm runs
    m = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    roots = (1, 1 + m, 1 + 2 * m)
    f = UniPoly.one()
    for r in roots:
        f = f * P(-r, 1)
    assert factor_poly(f) == [(P(-r, 1), 1) for r in reversed(roots)]
    assert len(yun_calls) == 1


# ---------------------------------------------------------------------------
# Musser's prime choice and the Hensel lift against their full-work oracles


@functools.cache
def pool_prime_choices():
    """(f, start, _good_prime_factorization(f)) on each seed-0 factor-pool
    input of degree >= 2 that a prime certifies squarefree (all but 3
    Eisenstein products with a repeated factor).  The start set is the
    polygon degrees, as factor_poly starts it, or every degree where the
    polygons alone prove f irreducible, so that the prime choice still runs
    on those."""
    out = []
    for op in perfbench_workloads().factor_pool(0).ops:
        # each op is lambda f=f: factor_poly(f)
        f = op.fn.__defaults__[0].content_and_primitive()[1].int_coeffs()
        if certified_squarefree(f) and len(f) > 2:
            start = polyfactor._polygon_degrees(f)
            if start == {0, len(f) - 1}:
                start = set(range(len(f)))
            out.append((f, start, polyfactor._good_prime_factorization(
                f, random.Random(len(out)), polyfactor._primes_mod(f),
                start)))
    return out


def test_prime_choice_matches_full_split_oracle():
    # the same prime, modular factors and attainable degrees as when every
    # prime is split in full: a dropped prime could neither prune nor win
    choices = pool_prime_choices()
    for i, (f, start, chosen) in enumerate(choices):
        assert chosen == good_prime_factorization_oracle(
            f, random.Random(i), start)
    assert sum(chosen is None for _, _, chosen in choices) > 100
    # seeded products over Z, searched for good primes from 3 up
    rng = random.Random(31)
    others = []
    while len(others) < 150:
        f = UniPoly.one()
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 6)
            f = f * P(*[rng.randint(-9, 9) for _ in range(deg)],
                      rng.randint(1, 5))
        cs = f.content_and_primitive()[1].int_coeffs()
        if cs[0] and len(cs) > 2 and certified_squarefree(cs):
            others.append(cs)
    others += [swinnerton_dyer((2, 3, 5)).int_coeffs(),
               swinnerton_dyer((2, 3, 5, 7)).int_coeffs()]
    for i, f in enumerate(others):
        every = set(range(len(f)))
        assert (polyfactor._good_prime_factorization(
                    f, random.Random(i), polyfactor._primes_mod(f), every)
                == good_prime_factorization_oracle(f, random.Random(i), every))


def test_prime_choice_drops_primes_that_cannot_matter(monkeypatch):
    # X^23 - 3 splits as 1 + 22 modulo every prime tried, so after the first
    # prime none prunes the attainable degrees {0, 1, 22, 23} or has fewer
    # factors: each stops after its linear factor.  23 gcds: 2 to certify
    # at 5, 11 for 5's full split, 2 at each of 7, 11, 13, 17, 19; 75 when
    # every prime is split in full and 5's squarefree test runs twice
    calls = []
    gcd = polyfactor._pgcd
    monkeypatch.setattr(polyfactor, "_pgcd",
                        lambda *args: calls.append(args) or gcd(*args))
    p, modular, possible = musser_prime_choice(UniPoly.binomial(23, 3))
    assert p == 5 and sorted(len(g) - 1 for g in modular) == [1, 22]
    assert possible == {0, 1, 22, 23}
    assert len(calls) <= 25


def test_hensel_tree_matches_full_update_lift():
    # the last quadratic step skips the Bezout update it has no use for
    lifts = 0
    for f, _, chosen in pool_prime_choices():
        if chosen is None:
            continue
        p, modular, _ = chosen
        mignotte = polyfactor._mignotte_bound(f)
        k = 0
        while p ** (2 ** k) <= 2 * mignotte:
            k += 1
        big = p ** (2 ** k)
        fm = [c % big for c in f]
        lifted = polyfactor._hensel_tree(fm, modular, p, k)
        assert lifted == hensel_tree_oracle(fm, modular, p, k)
        prod = [f[-1]]
        for g in lifted:
            prod = polyfactor._pmul(prod, g, big)
        assert prod == fm
        lifts += len(modular) > 1
    assert lifts > 100


# ---------------------------------------------------------------------------
# the Newton-polygon (Dumas) certificate in front of Musser's prime choice


def test_newton_certificate_on_binomials_agrees_with_capelli():
    # X^M - c for the c04 radicands: a certified binomial is irreducible by
    # Capelli's criterion, an oracle apart from the polygon
    radicands = perfbench_workloads().CAPELLI_POOL
    certified = 0
    for M in range(1, 49):
        for c in radicands:
            f = UniPoly.binomial(M, c).content_and_primitive()[1].int_coeffs()
            if polygon_certified(f):
                assert not capelli_reducible(M, c).reducible, (M, c)
                certified += 1
    assert certified == 1695


def test_newton_certificate_never_certifies_eisenstein_products():
    wl = perfbench_workloads()
    for seed in range(4):
        for parts in wl.eisenstein_products(seed, 100):
            f = UniPoly.one()
            for cs in parts:
                f = f * UniPoly.from_coeffs(cs)
            assert not polygon_certified(f.int_coeffs()), parts


def random_products():
    """1200 seeded primitive integer products of 1 to 3 factors, some
    squared, with p-power coefficients so that the polygons have slopes."""
    rng = random.Random(53)
    out = []
    while len(out) < 1200:
        f = UniPoly.one()
        for _ in range(rng.choice((1, 1, 2, 3))):
            p = rng.choice((2, 3, 5, 7))
            g = P(*[rng.choice((1, p, p * p)) * rng.randint(-4, 4)
                    for _ in range(rng.randint(1, 7))],
                  rng.choice((1, 1, 2, 3, p)))
            if g.degree >= 1:
                f = f * (g ** 2 if rng.random() < 0.1 else g)
        cs = f.content_and_primitive()[1].int_coeffs() if f.degree >= 1 else []
        if len(cs) > 2 and cs[0]:
            out.append(cs)
    return out


def test_newton_certificate_agrees_with_factor_poly(monkeypatch):
    certified = [f for f in random_products() if polygon_certified(f)]
    assert len(certified) > 100
    monkeypatch.setattr(polyfactor, "_polygon_degrees",
                        lambda f: set(range(len(f))))
    for f in certified:
        assert factor_poly(P(*f)) == [(P(*f), 1)], f


def test_newton_certificate_hand_cases():
    # X^4 + 4 = (X^2 - 2X + 2)(X^2 + 2X + 2): one segment of slope -1/2 and
    # length 4 at 2, so two pieces of degree 2
    assert polyfactor._newton_degrees(P(4, 0, 0, 0, 1), 2) == {0, 2, 4}
    assert polyfactor._polygon_degrees([4, 0, 0, 0, 1]) == {0, 2, 4}
    # one segment of slope -2/21 at 2
    assert polygon_certified([-4] + [0] * 20 + [9])
    # irreducible, but no polygon shows it: it still reaches recombination
    # (test_factor_past_recombination_budget_is_a_cap)
    sd = swinnerton_dyer((2, 3, 5, 7, 11, 13)).int_coeffs()
    assert not polygon_certified(sd)


def test_factor_pool_work_counts(monkeypatch):
    # seed-0 factor-pool ops that reach Musser's prime choice and the Hensel
    # lift: 1250 and 766 without the polygon certificate, 452 and 419 with
    # Musser started from every degree
    reached = set()
    for name in ("_good_prime_factorization", "_hensel_tree"):
        def counted(*args, name=name, fn=getattr(polyfactor, name)):
            reached.add(name)
            return fn(*args)
        monkeypatch.setattr(polyfactor, name, counted)
    musser = hensel = 0
    for op in perfbench_workloads().factor_pool(0).ops:
        reached.clear()
        op.fn()
        musser += "_good_prime_factorization" in reached
        hensel += "_hensel_tree" in reached
    assert musser <= 452 and hensel <= 406


def in_x_power(cs, e):
    """The coefficients of h(X^e) for h given by its coefficients cs."""
    out = [0] * ((len(cs) - 1) * e + 1)
    out[::e] = cs
    return out


def test_deflation_matches_the_general_pipeline(monkeypatch):
    # factor_poly with _deflated_split switched off, which splits each input
    # modularly at its full degree, is the oracle
    radicands = perfbench_workloads().CAPELLI_POOL
    binomials = [(M, c) for M in range(1, 49) for c in radicands]
    inputs = [UniPoly.binomial(M, c) for M, c in binomials]
    # X^(4j) + 4y^4 splits at Y^4 + 4y^4 (Capelli's quartic case)
    inputs += [P(*in_x_power([4 * y ** 4, 1], 4 * j))
               for j in range(1, 7) for y in range(1, 4)]
    inputs.append(P(*in_x_power([9, 6, 4], 8)))
    rng = random.Random(7)
    for _ in range(40):
        e = rng.choice((2, 3, 4, 6))
        f = UniPoly.one()
        for _ in range(2):
            h = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
            f = f * P(*in_x_power(h + [rng.randint(1, 3)], e))
        inputs.append(f)
    split = []

    def deflated_split(f, rng, irreducible,
                       deflate=polyfactor._deflated_split):
        pieces = deflate(f, rng, irreducible)
        split.append(pieces is not None)
        return pieces
    monkeypatch.setattr(polyfactor, "_deflated_split", deflated_split)
    got = [factor_poly(f) for f in inputs]
    assert sum(split) > 300
    for (M, c), factors in zip(binomials, got):
        assert (len(factors) > 1) == capelli_reducible(M, c).reducible, (M, c)
    monkeypatch.setattr(polyfactor, "_deflated_split",
                        lambda f, rng, irreducible: None)
    for f, factors in zip(inputs, got):
        assert factor_poly(f) == factors, f


def test_deflation_hand_case(monkeypatch):
    # X^22 - 81 splits at Y^2 - 81, Y = X^11, so Musser's prime choice only
    # sees degree 2; the polygons at 3 prove X^11 -+ 9 irreducible
    degrees = []
    choose = polyfactor._good_prime_factorization
    monkeypatch.setattr(
        polyfactor, "_good_prime_factorization",
        lambda f, *args: degrees.append(len(f) - 1) or choose(f, *args))
    assert factor_poly(UniPoly.binomial(22, 81)) == [
        (P(-9, *[0] * 10, 1), 1), (P(9, *[0] * 10, 1), 1)]
    assert degrees == [2]


def test_deflation_factors_each_h_once(monkeypatch):
    # X^24 + 4: H = Y^2 + 4 (l = 2) and Y^3 + 4 (l = 3) are irreducible,
    # Y^4 + 4 (l = 4) splits, and its own l = 2 is Y^2 + 4 again; X^24 - 16
    # splits at Y^2 - 16, and its piece X^12 + 4 meets Y^2 + 4 the same way.
    # Each _factor_whole call is counted with its input: 6 and 12 calls
    # when Y^2 + 4 was factored twice
    calls = []
    whole = polyfactor._factor_whole

    def counted(f, *args):
        calls.append(tuple(f))
        return whole(f, *args)
    monkeypatch.setattr(polyfactor, "_factor_whole", counted)
    for c, count, factors in ((-4, 5, 2), (16, 11, 4)):
        calls.clear()
        assert len(factor_poly(UniPoly.binomial(24, c))) == factors
        assert len(calls) == len(set(calls)) == count, (c, calls)


def test_deflation_work_count(monkeypatch):
    # sum of deg^2 over the _distinct_degree inputs of the 1200 seed-0
    # binomials: 422,276 with each reducible one split at full degree,
    # 127,496 with the split found at degree n/e
    total = 0
    split = polyfactor._distinct_degree

    def counted(f, *args):
        nonlocal total
        total += (len(f) - 1) ** 2
        return split(f, *args)
    monkeypatch.setattr(polyfactor, "_distinct_degree", counted)
    for op in perfbench_workloads().factor_pool(0).ops:
        if op.label.startswith("X^"):
            op.fn()
    assert total <= 130_000


def test_polygon_certified_ops_skip_the_squarefree_certificate(monkeypatch):
    # an input the polygons prove irreducible is squarefree, so no prime is
    # tried: the 798 such ops of degree >= 2 made 1291 _squarefree_mod calls
    # when the modular certificate ran first; the other 50 are linear
    certified = []

    def polygon_degrees(f, polygons=polyfactor._polygon_degrees):
        possible = polygons(f)
        certified.append(possible == {0, len(f) - 1})
        return possible
    monkeypatch.setattr(polyfactor, "_polygon_degrees", polygon_degrees)
    calls = []
    sqf = polyfactor._squarefree_mod
    monkeypatch.setattr(polyfactor, "_squarefree_mod",
                        lambda *args: calls.append(args) or sqf(*args))
    ops = 0
    for op in perfbench_workloads().factor_pool(0).ops:
        certified.clear()
        calls.clear()
        op.fn()
        if certified[0]:
            ops += 1
            assert calls == [], op.label
    assert ops == 848
