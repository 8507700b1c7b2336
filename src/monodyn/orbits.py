"""Orbit trees and the preperiodicity semi-decision.

A point is preperiodic when some word composite agrees with one of its own
prefixes at the point.  The search explores the orbit tree breadth-first with
exact equality along root paths.  Two pruning rules are sound and permanent
(once triggered on a path, no collision can occur at or beyond the trigger):

* size window: once |y|_v leaves [r(G,v), 1/r(G,v)] at any place,
  min(|y|_v, 1/|y|_v) decreases strictly forever, and a collision pair
  (n, m) needs its whole cycle segment inside the window;
* height: cycle members are preperiodic, hence of height at most the
  coefficient-height budget, and h(f(y)) >= |d| h(y) - h(a) keeps an
  over-budget height over budget forever.

When every path is pruned before the depth limit the point is certified
not preperiodic; surviving paths at the limit yield Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthNonPositive, TreeSizeCap
from .exactreal import PosReal
from .places import INF, Place, height_exact_arg
from .primes import ord_p
from .radical import RadicalPoint
from .semigroup import Semigroup, Word, check_printable

NODE_CAP = 10 ** 6


def window_radius_exact(G: Semigroup, v: Place) -> PosReal:
    """r(G, v) <= 1 as an exact positive real, kept in G._memo."""
    best = G._memo.get(("window", v))
    if best is not None:
        return best
    for g in G.generators:
        e = Fraction(1, abs(g.d) - 1)
        if v.is_archimedean:
            r = PosReal.of(g.a, e)
        else:
            r = PosReal({v.p: -e * ord_p(g.a, v.p)})
        if r.compare_one() > 0:
            r = r ** -1
        if best is None or r < best:
            best = r
    G._memo[("window", v)] = best
    return best


def in_size_window(G: Semigroup, x: RadicalPoint, v: Place) -> bool:
    """Exact check of r(G,v) <= |x|_v <= 1/r(G,v)."""
    r = window_radius_exact(G, v)
    m = x.abs_exact(v)
    return r <= m and m <= r ** -1


def window_violation_place(G: Semigroup, x: RadicalPoint) -> Place | None:
    """A place where x leaves the window, if any (support places suffice)."""
    if not in_size_window(G, x, INF):
        return INF
    for p in x.support_primes():
        v = Place(p)
        if not in_size_window(G, x, v):
            return v
    return None


def _height_budget(G: Semigroup) -> PosReal:
    """exp of the largest height a preperiodic point can have.

    For all-positive degrees the collision exponents satisfy |k_i| <= |N| and
    the budget is sum h(a_i); mixed-sign degrees only guarantee
    |k_i| <= (3/2)|N|, so the budget gets the 3/2 exponent.
    """
    acc = PosReal.one()
    for g in G.generators:
        acc = acc * PosReal.of(height_exact_arg(g.a))
    if any(g.d < 0 for g in G.generators):
        acc = acc ** Fraction(3, 2)
    return acc


@dataclass(frozen=True)
class PreperStatus:
    tag: str                      # "preperiodic" | "not_preperiodic" | "unknown"
    witness_word: Word | None = None
    witness_prefix: int | None = None
    certificate: str | None = None
    place: Place | None = None
    depth: int = 0

    @property
    def is_preperiodic(self) -> bool:
        return self.tag == "preperiodic"


def is_preperiodic(G: Semigroup, x: RadicalPoint, depth: int) -> PreperStatus:
    """Semi-decide preperiodicity by pruned breadth-first orbit search."""
    if depth < 1:
        raise DepthNonPositive("depth must be >= 1")
    v_bad = window_violation_place(G, x)
    if v_bad is not None:
        return PreperStatus("not_preperiodic", certificate="SizeOutOfRange",
                            place=v_bad, depth=0)
    budget = _height_budget(G)
    if not x.height_le(budget):
        return PreperStatus("not_preperiodic", certificate="HeightTooLarge", depth=0)
    # queue rows: (point, path of points from the root, word)
    frontier: list[tuple[RadicalPoint, tuple[RadicalPoint, ...], Word]] = [
        (x, (x,), ())]
    for level in range(1, depth + 1):
        nxt = []
        for point, path, word in frontier:
            for i, g in enumerate(G.generators):
                y = point.apply(g)
                w = word + (i,)
                for m, anc in enumerate(path):
                    if y == anc:
                        return PreperStatus("preperiodic", witness_word=w,
                                            witness_prefix=m, depth=level)
                if window_violation_place(G, y) is not None:
                    continue
                if not y.height_le(budget):
                    continue
                nxt.append((y, path + (y,), w))
        frontier = nxt
        if not frontier:
            return PreperStatus("not_preperiodic", certificate="OrbitEscapes",
                                depth=level)
    return PreperStatus("unknown", depth=depth)


@dataclass(frozen=True)
class OrbitNode:
    word: Word
    point: RadicalPoint
    repeats_prefix: int | None    # index of the equal ancestor, if any


def orbit_tree(G: Semigroup, x: RadicalPoint, depth: int,
               node_cap: int = NODE_CAP) -> list[OrbitNode]:
    """All f_w(x) for |w| <= depth, deduplicated per root path.

    A node equal to one of its path ancestors is reported with
    ``repeats_prefix`` set and its subtree is not expanded.  OverflowGuard
    at the first node whose radicand could not be printed, so the tree never
    grows past what its output can hold.
    """
    if depth < 0:
        raise DepthNonPositive("depth must be >= 0")
    out = [OrbitNode((), x, None)]
    frontier = [(x, (x,), ())]
    count = 1
    for _ in range(depth):
        nxt = []
        for point, path, word in frontier:
            for i, g in enumerate(G.generators):
                y = point.apply(g)
                w = word + (i,)
                count += 1
                if count > node_cap:
                    raise TreeSizeCap(f"orbit tree exceeds {node_cap} nodes")
                check_printable(y.c)
                rep = next((m for m, anc in enumerate(path) if y == anc), None)
                out.append(OrbitNode(w, y, rep))
                if rep is None:
                    nxt.append((y, path + (y,), w))
        frontier = nxt
    return out
