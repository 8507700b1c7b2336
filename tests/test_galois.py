import cmath
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from monodyn import galois
from monodyn.errors import (BetaIsConjugate, DegreeCapExceeded, OverflowGuard,
                           ZeroInput)
from monodyn.exactreal import PosReal
from monodyn.galois import (BasePoint, ClassNormData, class_norm_data,
                            class_of_point, class_polynomial,
                            decompose_binomial_roots, unit_group_generators)
from monodyn.places import _log_fraction
from monodyn.polyfactor import factor_poly
from monodyn.polynomials import UniPoly, cyclotomic_poly
from monodyn.preper import collision_binomial, minimal_polynomial
from monodyn.primes import (euler_phi, factor_fraction, kronecker, ord_p,
                            quadratic_conductor)
from monodyn.radical import RadicalPoint
from monodyn.scan import word_pair_classes
from monodyn.semigroup import Semigroup
from oracles import (aurifeuillian_factor_dense, decompose_by_radical_form,
                     entanglement_by_fraction, log_w_by_piece,
                     quadratic_kernel, rational_binomial, root_of_unity,
                     scale_arg, word_pairs)

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


def _union_find_classes(N, a):
    """Oracle: the orbits of the roots j of X^N = a, angle (2j + s)/(2N),
    joined by union-find under the generators k of (Z/2N)^x and the shift
    t -> t + 1/M0.  Under entanglement (M0 even, d = squarefree part of c0
    not 1, its discriminant dividing 2N) k moves with the shift when
    chi(k) = -1, and the free shift is t -> t + 2/M0.  Each class is
    (its sorted angles, its own entanglement flag: M0 even, d != 1 and the
    discriminant dividing M0 lcm(2, q'), q' the order of e^(2 pi i M0 t)),
    in order of first angle."""
    modulus = PosReal.of(a, F(1, N))
    c0, M0 = modulus.radical_form()
    d = math.prod(p for p, e in factor_fraction(c0).items() if e % 2)
    disc = d if d % 4 == 1 else 4 * d
    ent = M0 % 2 == 0 and d != 1 and 2 * N % disc == 0
    s = 0 if a > 0 else 1
    step = N // M0
    parent = list(range(N))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in range(N):
        targets = [(j + (2 if ent else 1) * step) % N]
        for k in unit_group_generators(2 * N):
            shift = step if ent and kronecker(disc, k) != 1 else 0
            targets.append(((k * (2 * j + s) - s) // 2 + shift) % N)
        for y in targets:
            parent[find(j)] = find(y)
    groups = {}
    for j in range(N):
        groups.setdefault(find(j), []).append(F(2 * j + s, 2 * N))

    def own_flag(t):
        level = M0 * math.lcm(2, (M0 * t).denominator)
        return M0 % 2 == 0 and d != 1 and level % disc == 0
    return sorted(((tuple(angles), own_flag(angles[0]))
                   for angles in groups.values()), key=lambda c: c[0][0])


# genuine twins with q' = 10, 12 and 20
TWIN_EXTRAS = [(10, F(3125)), (12, F(-46656)), (20, F(-10 ** 10))]
# squarefree parts 5, 13, 21, 10 and 15, absent from POOL
ODD_CONDUCTORS = [F(x) for x in ("5", "-5", "13", "-13", "21", "-21", "10",
                                 "-10", "15/4", "-15/4")]
SEMIGROUPS = ([(2, 2), (3, 3)], [(F(-5, 2), 3), (4, -2)], [(4, 2), (9, 3)])
# entangled classes over the union-find cases, each at its own level
ENTANGLED_FLOOR = 1554


def test_classes_match_union_find():
    # the closed form lists the same classes, in the same order, with the
    # same angles and entanglement flag as the union-find
    cases = {(N, a) for N in range(1, 61) for a in POOL + ODD_CONDUCTORS}
    cases.update(TWIN_EXTRAS)
    for pairs in SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for w, m in word_pairs(G, 6):
            cb = collision_binomial(G, w, m)
            cases.add((cb.N, cb.a))
    entangled = 0
    for N, a in sorted(cases):
        classes = decompose_binomial_roots(N, a)
        assert [(c.angles, c.entangled) for c in classes] == \
            _union_find_classes(N, a), (N, a)
        assert all(c.degree == len(c.angles) for c in classes), (N, a)
        # one record per orbit, however the orbit was reached
        assert all(c == class_of_point(c.representative)
                   for c in classes), (N, a)
        entangled += sum(c.entangled for c in classes)
    assert len(cases) >= 3994 and entangled >= ENTANGLED_FLOOR


def test_stream_classes_are_the_classes_of_their_points():
    # the conductor 12 of Q(sqrt 3) divides the level 2N of X^6 = 27 and of
    # X^12 = 27, but not the own levels 4 and 8 of +-sqrt(3) and 3^(1/4)
    # times i^k: those classes are not entangled, as from X^2 = 3, X^4 = 3
    for N, a in ((6, F(27)), (12, F(27)), (2, F(3)), (4, F(3))):
        for cls in decompose_binomial_roots(N, a):
            assert cls == class_of_point(cls.representative), (N, a, cls)
    for pairs in SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for cls, w, m in word_pair_classes(G, 6):
            assert cls == class_of_point(cls.representative), (pairs, w, m)


def _match_factor(cls, fac):
    mod = float(cls.modulus)
    pts = [mod * cmath.exp(2j * math.pi * float(t)) for t in cls.angles]
    for g, _ in fac:
        vals = [abs(complex(g(complex(z)))) for z in pts]
        scale = max(1.0, mod) ** g.degree * (1 + abs(float(g.coeffs[0])))
        if max(vals) < 1e-6 * scale:
            return g
    return None


def _is_genuine_twin(cls):
    return cls.degree < cls.M0 * euler_phi(cls.qprime)


def test_classes_match_factorization():
    # degree multisets, root assignments and class polynomials agree with
    # the Zassenhaus route
    cases = [(N, a) for N in range(1, 13) for a in POOL] + TWIN_EXTRAS
    for N, a in cases:
        classes = decompose_binomial_roots(N, a)
        assert sum(c.degree for c in classes) == N
        fac = factor_poly(UniPoly.binomial(N, a))
        assert sorted(c.degree for c in classes) == \
            sorted(g.degree for g, m in fac for _ in range(m))
        for cls in classes:
            g = _match_factor(cls, fac)
            assert g is not None
            assert minimal_polynomial(cls.representative) == g.monic()
        if (N, a) in TWIN_EXTRAS:
            assert any(_is_genuine_twin(c) for c in classes), (N, a)


# (q', d) of every genuine twin in word_pair_classes up to word length 7 of
# {2z^2, 3z^3}, {(-5/2)z^3, 4z^-2} and {4z^2, 9z^3}, plus small extra pairs
TWIN_PAIRS = ((6, 3), (18, 3), (20, 10), (30, 3), (42, 3), (54, 3), (60, 10),
              (66, 3), (78, 3), (90, 3), (162, 3), (180, 10), (234, 3),
              (270, 3), (486, 3), (540, 10), (546, 3), (702, 3), (726, 3))
EXTRA_PAIRS = ((4, 2), (5, 5), (12, 6), (13, 13), (15, 5), (21, 21))


def test_aurifeuillian_factors():
    # oracle: B(y) B(-y) multiplies back to d^phi Phi_q'(y^2 / d), and
    # Zassenhaus finds B irreducible, the four depth-7 pairs of degree 144
    # to 220 included (0.2 to 1.3 s each on a 2-core Xeon, Python 3.11)
    for q, d in TWIN_PAIRS + EXTRA_PAIRS:
        n = euler_phi(q)
        B = UniPoly.from_coeffs(
            galois._aurifeuillian_factor(q, quadratic_conductor(d)))
        assert B.degree == n and B.lead == 1
        B_neg = UniPoly.from_coeffs([c * (-1) ** (n - i)
                                     for i, c in enumerate(B.coeffs)])
        full = UniPoly.from_coeffs(
            [c * d ** n for c in scale_arg(cyclotomic_poly(q), F(1, d)).coeffs])
        assert B * B_neg == full.compose_monomial(2), (q, d)
        assert factor_poly(B) == [(B, 1)], (q, d)


def test_sparse_newton_identities_match_the_dense_sums():
    # oracle: Newton's identities over every power sum; on each genuine-twin
    # (q', f) of {2z^2, 3z^3} to depth 9 and of the other two to depth 7
    pairs = set()
    for semigroup, depth in zip(TEST_SEMIGROUPS, (9, 7, 7)):
        G = Semigroup.from_pairs(semigroup)
        pairs |= {(cls.qprime, cls.conductor)
                  for cls, _, _ in word_pair_classes(G, depth)
                  if _is_genuine_twin(cls)}
    assert len(pairs) >= 25
    for q, f in sorted(pairs):
        assert galois._aurifeuillian_factor(q, f) \
            == aurifeuillian_factor_dense(q, f), (q, f)


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
             (7, F(3, 5)), (6, F(1, 64)), (11, F(36)), (6, F(64))]
    zeros = 0
    for N, a in cases:
        fac = factor_poly(UniPoly.binomial(N, a))
        for cls in decompose_binomial_roots(N, a):
            g = _match_factor(cls, fac).monic()
            nm = g(F(2))
            if nm == 0:
                # beta in the orbit is rejected when the norm data is built
                with pytest.raises(BetaIsConjugate):
                    class_norm_data(cls, F(2))
                zeros += 1
                continue
            nd = class_norm_data(cls, F(2))
            # per class: the norm is this class's factor at beta, twin or not
            assert abs(nd.log_w() - math.log(abs(nm))) \
                < 1e-8 * max(1, abs(math.log(abs(nm))))
            for p in (2, 3, 5, 7, 13):
                assert nd.ord_w(p) == ord_p(nm, p)
    assert zeros == 1


def test_class_norm_data_memoizes_ord_and_log(monkeypatch):
    cls = next(c for c in decompose_binomial_roots(8, F(1, 81))
               if c.qprime == 4)
    nd = class_norm_data(cls, F(5, 3))
    assert nd.value is None
    calls = []
    inner = galois._ord_full_norm

    def counted(q, x, p, v, oc):
        calls.append((q, p))
        return inner(q, x, p, v, oc)
    monkeypatch.setattr(galois, "_ord_full_norm", counted)
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


def test_full_norm_valuations_closed_form():
    # oracle: ord_p of Phi_q(x) evaluated as a Fraction; x = +-n/d on a
    # thinned grid and every 2-adic and p-adic neighbour +-1 +- p^k of +-1,
    # once with c0 = 1 and once as x = beta^3 / c0 with p in beta and c0,
    # whose p-parts cancel
    primes = (2, 3, 5, 7, 11)
    xs = {F(s * n, d) for n in range(1, 41, 4) for d in (1, 2, 3, 4, 9, 25, 27)
          for s in (1, -1)}
    xs |= {F(s + t * p ** k) for p in primes for k in range(1, 6)
           for s in (1, -1) for t in (1, -1)}
    xs -= {F(1), F(-1)}
    checked = 0
    for q in range(1, 61):
        phi, Phi = euler_phi(q), cyclotomic_poly(q)
        for x in xs:
            val = Phi(x)
            for p in primes:
                o = ord_p(val, p)
                v = ord_p(x, p)
                assert galois._ord_full_norm(q, x, p, v, 0) == o, (q, x, p)
                beta = F(p if x > 0 else -p)
                c0 = beta ** 3 / x
                oc = ord_p(c0, p)
                assert galois._ord_full_norm(q, beta ** 3 / c0, p, 3 - oc,
                                             oc) == o + phi * oc, (q, x, p)
                checked += 1
    assert checked == 61800


def test_phi_at_pm1_closed_form():
    # |Phi_n(+-1)| = Phi_n'(1) for n' = norm_order(n, +-1), the value of
    # the class of order n at beta = +-1 up to sign, or BetaIsConjugate
    for n in range(1, 80):
        cls = class_of_point(root_of_unity(F(1, n) % 1))
        for sign in (1, -1):
            value = cyclotomic_poly(n)(sign)
            m = galois.norm_order(n, F(sign))
            assert abs(value) == cyclotomic_poly(m)(1), (n, sign)
            if value == 0:
                with pytest.raises(BetaIsConjugate):
                    class_norm_data(cls, F(sign))
            else:
                assert abs(class_norm_data(cls, F(sign)).value) == abs(value)


def test_log_power_minus_one_next_to_one():
    # |x| - 1 below 2^-57 (no float holds it for the 10^400 one): then
    # log|x^j - 1| = log(j |x - 1|); oracle: the exact x^j - 1
    checked = 0
    for den in (2 ** 80, 10 ** 400):
        for x in (F(den + 1, den), F(den - 1, den)):
            for y, j in [(x, 2), (x, 3), (x, 5), (-x, 2), (-x, 4)]:
                got = galois._log_abs_power_minus_one(y, j, _log_fraction(y))
                want = _log_fraction(y ** j - 1)
                assert abs(got - want) <= 1e-15 * abs(want), (y, j)
                checked += 1
    assert checked == 20


TEST_SEMIGROUPS = ([("2", 2), ("3", 3)], [("-5/2", 3), ("4", -2)],
                   [("4", 2), ("9", 3)])


def test_twin_norms_match_class_polynomial_values():
    # oracle: the materialized class polynomial at beta, for every genuine
    # twin up to depth 6 of the three test semigroups
    checked = 0
    for pairs in TEST_SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for cls, _, _ in word_pair_classes(G, 6):
            if not _is_genuine_twin(cls):
                continue
            f = class_polynomial(cls)
            for beta in (F(2), F(-3, 7), F(5), F(1, 2), F(7, 4)):
                assert class_norm_data(cls, beta).value == f(beta), (cls, beta)
                checked += 1
    assert checked == 910


def test_twin_norms_past_the_degree_cap():
    # X^8748 = 3^4374 has two genuine twins of degree 1458 (M0 = 2,
    # q' = 4374), past the polynomial's degree cap; their norm data needs no
    # polynomial, and the two norms multiply to the full-degree norm W(beta)
    # whose valuations come in closed form
    twins = [c for c in decompose_binomial_roots(8748, F(3) ** 4374)
             if c.degree == 1458]
    assert len(twins) == 2
    assert all(_is_genuine_twin(c) and (c.M0, c.qprime) == (2, 4374)
               for c in twins)
    with pytest.raises(DegreeCapExceeded):
        class_polynomial(twins[0])
    for beta in (F(2), F(5, 3), F(-7, 2), F(6, 35)):
        nds = [class_norm_data(c, beta) for c in twins]
        full = ClassNormData(replace(twins[0], sign=0), BasePoint(beta),
                             beta ** 2 / 3, None)
        for p in (2, 3, 5, 7):
            assert sum(nd.ord_w(p) for nd in nds) == full.ord_w(p), (beta, p)
        assert abs(sum(nd.log_w() for nd in nds) - full.log_w()) < 1e-9


def test_progressions_cover_angles():
    # oracle: the distinct residues M0 t mod 1; each progression of a full
    # class has M0 angles, each of a genuine twin M0 / 2
    twins = 0
    for N, a in ((12, F(-64)), (8, F(1, 81)), (6, F(-27)), (4, F(-4)),
                 (12, F(-46656)), (20, F(-10 ** 10))):
        for cls in decompose_binomial_roots(N, a):
            A = cls.progressions()
            residues = {(t * cls.M0) - int(t * cls.M0) for t in cls.angles}
            assert len(residues) == A
            if _is_genuine_twin(cls):
                twins += 1
                assert 2 * cls.degree == A * cls.M0
            else:
                assert cls.degree == A * cls.M0
    assert twins


def test_class_of_point_matches_listing():
    # oracle: a linear search of the classes of the point's minimal
    # rational binomial for the one holding its angle, on every point up to
    # depth 5 of the three test semigroups
    checked = 0
    for pairs in SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for cls, _, _ in word_pair_classes(G, 5):
            for t in cls.angles:
                x = RadicalPoint(cls.modulus, t)
                n0, a0 = rational_binomial(x)
                found = [c for c in decompose_binomial_roots(n0, a0)
                         if t in c.angles]
                assert found == [class_of_point(x)], x
                checked += 1
    assert checked > 20000


def test_first_angle_is_the_least_angle():
    # oracle: the least of the built angles, for every class of every
    # collision binomial up to depth 6 of the three test semigroups, which
    # hold genuine twins and binomials with a < 0; the classes come in
    # strictly increasing first angle, and two have equal integer keys
    # exactly when their (c0, M0, q', sign) are equal
    cases = set()
    for pairs in TEST_SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for w, m in word_pairs(G, 6):
            cb = collision_binomial(G, w, m)
            cases.add((cb.N, cb.a))
    checked = twins = negative = 0
    identity = {}
    for N, a in sorted(cases):
        classes = decompose_binomial_roots(N, a)
        assert all(c.first_angle < d.first_angle
                   for c, d in zip(classes, classes[1:])), (N, a)
        for cls in classes:
            assert cls.first_angle == min(cls.angles), (N, a, cls.key)
            assert all(type(k) is int for k in cls.key)
            fields = (cls.c0, cls.M0, cls.qprime, cls.sign)
            assert identity.setdefault(cls.key, fields) == fields
            checked += 1
            twins += _is_genuine_twin(cls)
            negative += a < 0
    assert (checked, twins, negative) == (5347, 328, 449)
    assert len(set(identity.values())) == len(identity)


def test_decompose_order_is_the_first_angle_order():
    # oracle: sorted(key=first_angle) on seeded binomials X^N = a, N <= 60,
    # with a < 0 and genuine twins among them
    rng = random.Random(6060)
    twins = negative = 0
    for _ in range(600):
        N = rng.randint(1, 60)
        a = rng.choice(POOL) * rng.choice((1, -1))
        classes = decompose_binomial_roots(N, a)
        by_angle = sorted(classes, key=lambda c: c.first_angle)
        assert [c.key for c in classes] == [c.key for c in by_angle], (N, a)
        twins += sum(map(_is_genuine_twin, classes))
        negative += a < 0
    assert twins > 30 and negative > 250


# a = +-1, a < 0 with N even, fractional a, and perfect powers
DECOMPOSE_EDGES = ((1, F(1)), (12, F(1)), (1, F(-1)), (12, F(-1)),
                   (4, F(-4)), (6, F(-27)), (12, F(-64)), (8, F(1, 81)),
                   (6, F(-4, 9)), (10, F(27, 8)), (12, F(2 ** 12 * 3 ** 6)),
                   (18, F(2 ** 12 * 3 ** 6)), (24, F(-2 ** 12 * 3 ** 6)),
                   (20, F(5 ** 10, 2 ** 30)))


def _decomposition(classes) -> list:
    """Each class's key, conductor and modulus (its value, hash and radical
    form), in order."""
    return [(c.key, c.conductor, c.modulus, hash(c.modulus),
             c.modulus.radical_form()) for c in classes]


def test_decompose_matches_the_radical_form_route(monkeypatch):
    # oracle: the general PosReal route (PosReal.of, radical_form,
    # entanglement) in first-angle order, on every collision binomial to
    # depth 6 of the three test semigroups and on the edge cases
    cases = set(DECOMPOSE_EDGES)
    for pairs in TEST_SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for w, m in word_pairs(G, 6):
            cb = collision_binomial(G, w, m)
            cases.add((cb.N, cb.a))
    monkeypatch.setattr(galois, "_decompose_cache", {})
    for N, a in sorted(cases):
        assert _decomposition(decompose_binomial_roots(N, a)) == \
            _decomposition(decompose_by_radical_form(N, a)), (N, a)
    assert len(cases) > 1000


def test_decompose_refuses_unprintable_radicands_as_the_route_does(
        monkeypatch):
    # at the least digit limit, 640, a radicand of 2128 bits or more is
    # refused; c0 = 3 2^k or 1 / (5 2^k) around that edge, as a = +-c0^2
    # with N = 6 (M0 = 3) and as a = c0 with N = 1, cold and then cached
    cases = [case for k in range(2122, 2130)
             for c in (F(3 * 2 ** k), F(1, 5 * 2 ** k))
             for case in ((6, c ** 2), (6, -c ** 2), (1, c))]

    def outcome(decompose, N, a):
        try:
            return _decomposition(decompose(N, a))
        except OverflowGuard:
            return "refused"
    limit = sys.get_int_max_str_digits()
    refused = set()
    for cold in (True, False):
        monkeypatch.setattr(galois, "_decompose_cache", {})
        if not cold:
            for N, a in cases:
                decompose_binomial_roots(N, a)
        sys.set_int_max_str_digits(640)
        try:
            for N, a in cases:
                got = outcome(decompose_binomial_roots, N, a)
                assert got == outcome(decompose_by_radical_form, N, a), (N, a)
                refused.add(got == "refused")
        finally:
            sys.set_int_max_str_digits(limit)
    assert refused == {True, False}


@pytest.mark.parametrize("a", [F(2), F(-2)])
@pytest.mark.parametrize("N", [0, -2, -3])
def test_decompose_refuses_nonpositive_degree(N, a):
    with pytest.raises(ZeroInput):
        decompose_binomial_roots(N, a)


def test_class_polynomial_matches_the_scaled_cyclotomic_chain():
    # oracle: Phi_q'(X / c0) made monic, at X^M0, for every class of full
    # degree up to depth 5 of the three test semigroups
    checked = 0
    for pairs in TEST_SEMIGROUPS:
        G = Semigroup.from_pairs(pairs)
        for cls, _, _ in word_pair_classes(G, 5):
            if cls.sign:
                continue
            chain = scale_arg(cyclotomic_poly(cls.qprime), 1 / cls.c0) \
                .monic().compose_monomial(cls.M0)
            assert class_polynomial(cls, cls.degree) == chain, cls.key
            checked += 1
    assert checked > 500


SWEEP_BETAS = [F(x) for x in ("2", "-3/2", "5/3", "7/4", "-27/5", "35/11")]


def test_log_w_equals_the_per_piece_logs():
    # bit-identical floats: log|x| once per record and log c0 once per
    # class give the same sums as the logs taken per Moebius piece, on the
    # depth-4 stream of {-5/2 z^3, 4 z^-2} at six base points
    G = Semigroup.from_pairs([("-5/2", 3), ("4", -2)])
    checked = 0
    for beta in SWEEP_BETAS:
        for cls, _, _ in word_pair_classes(G, 4):
            nd = class_norm_data(cls, beta)
            assert nd.log_w() == log_w_by_piece(nd), (beta, cls.key)
            checked += nd.value is None
    assert checked > 500


def _stream(pairs, depth: int):
    """The classes of the semigroup's word pairs up to depth."""
    G = Semigroup.from_pairs(pairs)
    return (cls for cls, _, _ in word_pair_classes(G, depth))


def _binomial_classes():
    """The classes of X^N = a for N <= 12 and a in POOL or ODD_CONDUCTORS,
    and of TWIN_EXTRAS: conductors (8, 5, 13, ...) no test semigroup
    reaches."""
    for N, a in [(N, a) for N in range(1, 13)
                 for a in POOL + ODD_CONDUCTORS] + TWIN_EXTRAS:
        yield from decompose_binomial_roots(N, a)


def test_integer_entanglement_matches_the_fraction_rule():
    # the kernel read off numerator * (M0 // denominator) of each exponent
    # against the Fraction products e_p M0, on every class of {2z^2, 3z^3}
    # to depth 6 and of {-5/2 z^3, 4z^-2} to depth 5 (conductors 0, 12 and
    # 40), then on _binomial_classes; a class keeps the conductor exactly
    # when it divides its level M0 lcm(2, q')
    seen = []
    for classes in (_stream([("2", 2), ("3", 3)], 6),
                    _stream([("-5/2", 3), ("4", -2)], 5), _binomial_classes()):
        seen.append(set())
        for cls in classes:
            f = galois.entanglement(cls.modulus, cls.M0)
            assert f == entanglement_by_fraction(cls.modulus, cls.M0), cls.key
            level = cls.M0 * math.lcm(2, cls.qprime)
            assert cls.conductor == (f if f and level % f == 0 else 0)
            seen[-1].add(f)
    assert seen[:2] == [{0, 12}, {0, 40}]
    assert {0, 5, 8, 12, 13, 21, 24, 40, 60}.issubset(seen[2]), seen[2]


def test_twin_factor_reads_the_kernel_of_its_conductor():
    # d = f or f / 4 from the twin's conductor: c0 = d r^2 for the
    # reference kernel d, whose conductor the twin holds, on every genuine
    # twin of the three test semigroups to depth 6 and of _binomial_classes
    counts = {True: 0, False: 0}        # by odd conductor
    for classes in [*(_stream(pairs, 6) for pairs in TEST_SEMIGROUPS),
                    _binomial_classes()]:
        for cls in classes:
            if not cls.sign:
                continue
            d = quadratic_kernel(cls.modulus, cls.M0)
            _, r = galois._twin_factor(cls)
            assert cls.c0 == d * r ** 2, cls.key
            assert cls.conductor == quadratic_conductor(d), cls.key
            counts[cls.conductor % 2 == 1] += 1
    assert counts[True] >= 2 and counts[False] > 200, counts
