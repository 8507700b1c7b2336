"""Factorization of univariate polynomials over Q.

Pipeline: integer content; the degrees a factor can have by the Newton
polygons of f at the primes below 1000 that divide f(0) * lc(f) (Dumas'
criterion, which proves Eisenstein and most Capelli binomials irreducible,
so squarefree, with no modular work); else a modular squarefree certificate
(f squarefree modulo one of the first six primes not dividing lc(f)), with
Yun's algorithm over Q only when none gives one; for f = H(X^e), e > 1,
a split of H (degree n/e), each piece h(X^e) then factored in full;
distinct-degree counts modulo six good small primes, the first of them the
certifying prime, that narrow the polygon degrees (Musser's prime choice;
they also prove irreducibility); equal-degree splitting at the prime with
the fewest factors; quadratic Hensel lifting past the Mignotte bound; and
recombination of at most RECOMBINATION_BUDGET subsets per polynomial
factored, past which FactorBudgetExceeded is raised.  The certificate and
the prime choice read one walk over the primes (_primes_mod).  Both
modular splits run on one Frobenius matrix (the rows X^(i*p) mod f) per
prime, so each Frobenius power costs one matrix-vector product instead of
a binary powering.

Only the work the answer needs is done: a prime's distinct-degree split
stops once the prime can neither prune the attainable degrees nor have
fewer factors than the best prime so far (_good_prime_factorization), its
Frobenius rows past X^p mod f are built only when its split reaches degree
2, and the last Hensel step does not lift the Bezout pair it has no use
for.  The result is the same as with every prime split in full.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import DegreeCapExceeded, FactorBudgetExceeded, ZeroInput
from .galois import DEGREE_CAP
from .polynomials import (UniPoly, newton_polygon_root_valuations,
                          squarefree_decomposition)
from .primes import TRIAL_PRIMES, is_prime

RECOMBINATION_BUDGET = 1 << 16   # subsets per polynomial factored

# ---------------------------------------------------------------------------
# (Z/m)[X] arithmetic on dense low-to-high int lists: m is a prime p, except
# in Hensel lifting, where every divisor is monic


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b, p):
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
           for i in range(max(len(a), len(b)))]
    return _ptrim(out)


def _psub(a, b, p):
    return _padd(a, [-c for c in b], p)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _ptrim([c % p for c in out])


def _pdivmod(a, b, p):
    """Quotient and remainder; only the divisor's nonzero terms below its
    lead are walked, and the remainder is reduced mod p once."""
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    terms = [(i, cb) for i, cb in enumerate(b[:-1]) if cb]
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % p
        if c:
            q[k] = c
            for i, cb in terms:
                a[k + i] -= c * cb
    del a[db:]
    return _ptrim(q), _ptrim([c % p for c in a])


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    a, b = _ptrim(a[:]), _ptrim(b[:])
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pgcdext(a, b, p):
    """s, t with s*a + t*b = 1 mod p for coprime a, b."""
    r0, r1 = _ptrim(a[:]), _ptrim(b[:])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _ppowmod(a, e, m, p):
    out = [1]
    a = _pmod(a, m, p)
    while e:
        if e & 1:
            out = _pmod(_pmul(out, a, p), m, p)
        a = _pmod(_pmul(a, a, p), m, p)
        e >>= 1
    return out


def _pderiv(a, p):
    return _ptrim([i * c % p for i, c in enumerate(a)][1:])


def _squarefree_mod(f: list[int], p: int) -> list[int] | None:
    """f mod p made monic, p not dividing lc(f), or None when f mod p has a
    repeated factor.  A p that gives a polynomial proves f squarefree over
    Q: a square factor of f over Z keeps its degree mod p."""
    fp = [c % p for c in f]
    if _pgcd(fp, _pderiv(fp, p), p) != [1]:
        return None
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in fp]


def _primes_mod(f: list[int]):
    """(p, _squarefree_mod(f, p)) at each prime p from 3 up that does not
    divide lc(f): the one walk over the primes that both the squarefree
    certificate and Musser's prime choice read."""
    p = 2
    while True:
        p = _next_prime(p)
        if f[-1] % p:
            yield p, _squarefree_mod(f, p)


def _frobenius(f: list[int], p: int, rows: list[list[int]] | None = None,
               count: int | None = None) -> list[list[int]]:
    """Rows X^(i*p) mod f for i < count, deg f by default (f monic): the
    matrix of u -> u^p on GF(p)[X]/(f).  Each row is the last one shifted p
    places and reduced, about p * nnz(f) operations (von zur Gathen and
    Shoup 1992).  Given rows, the first ones already built, it appends the
    rest to that list and returns it: the rows are built on demand, since
    X^p mod f takes row 1 only."""
    rows = [[1]] if rows is None else rows
    for _ in range(len(rows), count or len(f) - 1):
        rows.append(_pmod([0] * p + rows[-1], f, p))
    return rows


def _frob_apply(u: list[int], rows: list[list[int]], p: int) -> list[int]:
    """u^p mod f for u reduced mod f: sum u_i X^(i*p), as u_i^p = u_i."""
    out = [0] * len(rows)
    for c, row in zip(u, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return _ptrim([c % p for c in out])


def _distinct_degree(f: list[int], p: int, rows: list[list[int]], stop=None
                     ) -> list[tuple[list[int], int]] | None:
    """[(product of irreducible factors of degree d, d)] for monic squarefree
    f with the Frobenius rows built so far, `rows`, which _frobenius extends
    in place on demand: d = 1 takes row 1 (X^p mod f) only, d = 2 every row.
    h = X^(p^d) stays reduced mod f: v | f, so gcd(h - X, v) is the same as
    with h mod v.

    stop(known, m), when given, runs after each factor found while a part v
    of degree m > 0 is left unsplit; known is the split so far.  When it
    returns True the split is dropped and None returned."""
    out = []
    v = f[:]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        if d == 1:      # h = X^p mod f is row 1
            h = _frobenius(f, p, rows, 2)[1]
        else:
            h = _frob_apply(h, _frobenius(f, p, rows), p)
        g = _pgcd(_psub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v, _ = _pdivmod(v, g, p)
            if stop is not None and len(v) > 1 and stop(out, len(v) - 1):
                return None
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def _equal_degree_split(g: list[int], d: int, p: int, rng: random.Random,
                        rows: list[list[int]]) -> list[list[int]]:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles (p odd)
    dividing the f of the Frobenius rows `rows`."""
    out = []
    work = [g]
    while work:
        cur = work.pop()
        if len(cur) - 1 == d:
            out.append(cur)
            continue
        while True:
            u = _ptrim([rng.randrange(p) for _ in range(len(cur) - 1)])
            if not u:
                continue
            # u^((p^d - 1)/2) = (u * u^p * ... * u^(p^(d-1)))^((p - 1)/2)
            a = norm = u
            for _ in range(d - 1):
                a = _pmod(_frob_apply(a, rows, p), cur, p)
                norm = _pmod(_pmul(norm, a, p), cur, p)
            t = _ppowmod(norm, (p - 1) // 2, cur, p)
            w = _pgcd(_psub(t, [1], p), cur, p)
            if 1 < len(w) < len(cur):
                work.append(w)
                work.append(_pdivmod(cur, w, p)[0])
                break
    return out


# ---------------------------------------------------------------------------
# Hensel lifting (von zur Gathen-Gerhard style quadratic step on a tree)


def _hensel_lift_pair(f, g, h, p, k):
    """Lift f = g*h from mod p to mod p^(2^k); h monic mod p.

    Each quadratic step (von zur Gathen and Gerhard) takes f = gh and
    sg + th = 1 mod m to the same mod m^2; deg s < deg h, deg t < deg g.  It
    lifts g and h with s and t, then lifts s and t for the next step.  The
    last step has no next one, so it returns after g and h: 4 of the 8
    products and 1 of the 2 divisions are skipped, and g, h are the same.
    """
    s, t = _pgcdext(g, h, p)
    m = p
    for step in range(k):
        m = m * m
        e = _psub([c % m for c in f], _pmul(g, h, m), m)
        q, r = _pdivmod(_pmul(s, e, m), h, m)
        g = _padd(g, _padd(_pmul(t, e, m), _pmul(q, g, m), m), m)
        h = _padd(h, r, m)
        if step == k - 1:
            break
        b = _psub(_padd(_pmul(s, g, m), _pmul(t, h, m), m), [1], m)
        c, d = _pdivmod(_pmul(s, b, m), h, m)
        s = _psub(s, d, m)
        t = _psub(t, _padd(_pmul(t, b, m), _pmul(c, g, m), m), m)
    return g, h


def _hensel_tree(f: list[int], facs: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Lift f = lc(f) * prod(facs) (mod p, facs monic) to mod p^(2^k)."""
    big = p ** (2 ** k)
    if len(facs) == 1:
        inv = pow(f[-1] % big, -1, big)
        return [[c * inv % big for c in f]]
    mid = (len(facs) + 1) // 2
    g = [f[-1] % p]
    for fac in facs[:mid]:
        g = _pmul(g, fac, p)
    h = [1]
    for fac in facs[mid:]:
        h = _pmul(h, fac, p)
    gl, hl = _hensel_lift_pair([c % big for c in f], g, h, p, k)
    return _hensel_tree(gl, facs[:mid], p, k) + _hensel_tree(hl, facs[mid:], p, k)


# ---------------------------------------------------------------------------
# Zassenhaus over Z


def _mignotte_bound(f: list[int]) -> int:
    norm2 = math.isqrt(sum(c * c for c in f)) + 1
    return (1 << (len(f) - 1)) * norm2 * abs(f[-1])


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


def _int_primitive(f: list[int]) -> list[int]:
    g = 0
    for c in f:
        g = math.gcd(g, c)
    if g == 0:
        return f
    f = [c // g for c in f]
    if f[-1] < 0:
        f = [-c for c in f]
    return f


def _int_exact_div(f: list[int], g: list[int]) -> list[int] | None:
    """f / g over Z when the division is exact, else None."""
    if not g or len(g) > len(f):
        return None
    r = f[:]
    q = [0] * (len(f) - len(g) + 1)
    lg = g[-1]
    for k in range(len(f) - len(g), -1, -1):
        c = r[k + len(g) - 1]
        if c % lg:
            return None
        c //= lg
        q[k] = c
        if c:
            for i, cg in enumerate(g):
                r[k + i] -= c * cg
    return q if not any(r[: len(g) - 1]) else None


def _next_prime(p: int) -> int:
    p += 2 if p % 2 else 1
    while not is_prime(p):
        p += 2
    return p


def _count(dd) -> int:
    """Number of irreducible factors in a _distinct_degree split."""
    return sum((len(g) - 1) // d for g, d in dd)


def _piece_sums(pieces) -> set[int]:
    """Sums of the sub-multisets of pieces given as (degree, copies)."""
    sums = {0}
    for d, copies in pieces:
        for _ in range(copies):
            sums |= {s + d for s in sums}
    return sums


def _subset_sums(dd) -> set[int]:
    """Degrees of the products of factors in a _distinct_degree split."""
    return _piece_sums((d, (len(g) - 1) // d) for g, d in dd)


def _newton_degrees(f: UniPoly, p: int) -> set[int]:
    """The degrees a factor of f over Q_p can have, read off the Newton
    polygon of f at p (Dumas 1906), f(0) != 0.

    The polygon of a product is the Minkowski sum of its factors'
    polygons.  A segment of f with root valuation h/e in lowest terms and
    length L meets a lattice point every e steps, so each factor's segment
    of that slope has a length that is a multiple of e: a factor's degree
    is a subset sum of the pieces, L/e of degree e per segment."""
    vals = newton_polygon_root_valuations(f, p)   # sorted: a run per segment
    return _piece_sums((v.denominator, len(list(run)) // v.denominator)
                       for v, run in itertools.groupby(vals))


def _polygon_degrees(f: list[int]) -> set[int]:
    """The degrees a factor of f over Q can have by the Newton polygons of
    f, f(0) != 0, at the primes below 1000 that divide f(0) * lc(f): a
    factor's degree lies in _newton_degrees at each of them.  At any other
    prime the polygon is one flat segment, which admits every degree.  It
    stops once only 0 and deg f are left, which proves f irreducible, so
    also squarefree.  The primes are found by trial division, so no integer
    is factored."""
    n = len(f) - 1
    possible = set(range(n + 1))
    bound = max(abs(f[0]), abs(f[-1]))
    poly = None
    for p in TRIAL_PRIMES:
        if p > bound or possible == {0, n}:
            break
        if f[0] % p and f[-1] % p:
            continue
        poly = poly or UniPoly.from_coeffs(f)
        possible &= _newton_degrees(poly, p)
    return possible


def _good_prime_factorization(f: list[int], rng: random.Random, primes,
                              possible: set[int]):
    """Musser's prime choice: None if f is proven irreducible, else (p, monic
    factors of f mod p, the attainable degrees of factors over Z).

    The first six good primes of the walk `primes` (the pairs of
    _primes_mod(f) with f squarefree mod p) get a distinct-degree split
    only.  The degree of a factor over Z is a subset sum of the modular
    degrees at each of them, so `possible`, the degrees attainable before
    (_polygon_degrees), is narrowed by each, and f is irreducible once only
    0 and deg f are left.  Otherwise the first prime with the fewest
    modular factors is split into irreducibles.

    A prime's split stops early once it can neither prune nor win.  With
    `known` split off and a part of degree m > 0 left, the full split's
    subset sums contain S | (S + m), S those of known, and it has at least
    count(known) + 1 factors.  When possible lies in S | (S + m) and
    count(known) + 1 is at least the best count so far, the full split
    leaves possible as it is and cannot be strictly fewer, so the prime
    changes nothing and its split is dropped.  Each prime's Frobenius rows
    are built as its split reaches them, and completed only for the prime
    chosen.
    """
    n = len(f) - 1
    best = None

    def cannot_prune_or_win(known, m):
        if best is None or _count(known) + 1 < best[0]:
            return False
        sums = _subset_sums(known)
        return possible <= sums | {s + m for s in sums}

    good = ((p, fp) for p, fp in primes if fp is not None)
    for p, fp in itertools.islice(good, 6):
        rows = [[1]]
        dd = _distinct_degree(fp, p, rows, cannot_prune_or_win)
        if dd is None:
            continue
        possible = possible & _subset_sums(dd)
        if possible == {0, n}:
            return None
        count = _count(dd)
        if best is None or count < best[0]:
            best = (count, p, fp, dd, rows)
    _, p, fp, dd, rows = best
    _frobenius(fp, p, rows)
    return p, [h for g, d in dd
               for h in _equal_degree_split(g, d, p, rng, rows)], possible


def _factor_whole(f: list[int], rng: random.Random,
                  irreducible: set) -> list[list[int]]:
    """_factor_squarefree_z with f's own polygon degrees and prime walk."""
    return _factor_squarefree_z(f, rng, _primes_mod(f), _polygon_degrees(f),
                                irreducible)


def _deflated_split(f: list[int], rng: random.Random, irreducible: set
                    ) -> list[list[int]] | None:
    """The pieces h(X^e) of f = H(X^e), h over the irreducible factors of H,
    at the first e that splits H, or None.  With k the gcd of f's exponents,
    e = k/l for each l | k that is prime or 4, e > 1: by Capelli a reducible
    X^k - c has some Y^l - c reducible, and H has degree n/e.  An H in
    irreducible is not factored again: l = 4's H2(Y^2) deflates to H2."""
    k = math.gcd(*(i for i, c in enumerate(f) if c))
    for ell in range(2, k):
        if k % ell == 0 and (is_prime(ell) or ell == 4):
            e = k // ell
            if (H := tuple(f[::e])) in irreducible:
                continue
            factors = _factor_whole(list(H), rng, irreducible)
            if len(factors) > 1:
                return [[0 if i % e else h[i // e]
                         for i in range((len(h) - 1) * e + 1)]
                        for h in factors]
            irreducible.add(H)
    return None


def _factor_squarefree_z(f: list[int], rng: random.Random, primes,
                         possible: set[int], irreducible: set
                         ) -> list[list[int]]:
    """Irreducible factors over Z of a squarefree primitive f, deg >= 1, with
    the polygon degrees `possible` and the prime walk `primes`, as
    _good_prime_factorization takes them.  Past the polygon certificate, a
    split of f in X^e at degree n/e (_deflated_split) comes first."""
    if possible == {0, len(f) - 1}:
        return [f]
    pieces = _deflated_split(f, rng, irreducible)
    if pieces is not None:
        return [g for h in pieces for g in _factor_whole(h, rng, irreducible)]
    chosen = _good_prime_factorization(f, rng, primes, possible)
    if chosen is None:
        return [f]
    p, modular, possible = chosen
    mignotte = _mignotte_bound(f)
    k = 0
    while p ** (2 ** k) <= 2 * mignotte:
        k += 1
    big = p ** (2 ** k)
    lifted = _hensel_tree([c % big for c in f], modular, p, k)
    out = []
    remaining = f[:]
    idx = list(range(len(lifted)))
    tries = 0
    r = 1
    # after a factor is found, the subsets of the same size are tried again
    # on the factors left; otherwise the size grows
    while 2 * r <= len(idx):
        for subset in itertools.combinations(idx, r):
            tries += 1
            if tries > RECOMBINATION_BUDGET:
                raise FactorBudgetExceeded(
                    f"over {RECOMBINATION_BUDGET} recombination subsets")
            if sum(len(lifted[i]) - 1 for i in subset) not in possible:
                continue
            cand = [remaining[-1] % big]
            for i in subset:
                cand = _pmul(cand, lifted[i], big)
            cand = [_symmetric(c, big) for c in cand]
            # no lc-adjusted true factor exceeds the Mignotte bound
            if any(abs(c) > mignotte for c in cand):
                continue
            g = _int_primitive(cand)
            q = _int_exact_div(remaining, g)
            if q is not None:
                out.append(g)
                remaining = _int_primitive(q)
                idx = [i for i in idx if i not in subset]
                break
        else:
            r += 1
    if len(remaining) > 1:
        out.append(_int_primitive(remaining))
    return out


def factor_poly(f: UniPoly, degree_cap: int = DEGREE_CAP,
                seed: int = 0) -> list[tuple[UniPoly, int]]:
    """Complete factorization over Q into primitive irreducibles.

    Returns [(g_i, m_i)] with f = content * prod g_i^m_i; the g_i are
    integer-primitive with positive leading coefficients, sorted by degree
    then coefficients.
    """
    if f.degree < 1:
        raise ZeroInput("factor_poly expects degree >= 1")
    if f.degree > degree_cap:
        raise DegreeCapExceeded(f"degree {f.degree} exceeds cap {degree_cap}")
    rng, irreducible = random.Random(seed or 0xC0FFEE), set()
    out: list[tuple[UniPoly, int]] = []
    k = 0
    cs = list(f.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        k += 1
    if k:
        out.append((UniPoly.x(), k))
    g = UniPoly(tuple(cs))
    if g.degree >= 1:
        prim = g.content_and_primitive()[1].int_coeffs()
        possible, primes = _polygon_degrees(prim), _primes_mod(prim)
        parts = [(prim, 1, primes, possible)]
        if possible != {0, len(prim) - 1}:
            # squarefree if so mod one of the first six primes of the walk,
            # which Musser's prime choice then resumes from that prime
            first = next((pair for pair in itertools.islice(primes, 6)
                          if pair[1] is not None), None)
            if first is not None:
                parts = [(prim, 1, itertools.chain([first], primes), possible)]
            else:
                parts = []
                for sqf, mult in squarefree_decomposition(g):
                    h = sqf.content_and_primitive()[1].int_coeffs()
                    parts.append((h, mult, _primes_mod(h), _polygon_degrees(h)))
        for sqf, mult, primes, possible in parts:
            for piece in _factor_squarefree_z(sqf, rng, primes, possible,
                                              irreducible):
                out.append((UniPoly.from_coeffs(piece), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out
