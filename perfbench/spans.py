"""Spans around the calls into monodyn's layers, installed from outside.

A Tracer replaces each traced function at every module binding that holds it
(``monodyn.scan.minimal_polynomial`` and ``monodyn.cli.minimal_polynomial``
are both wrapped), and each traced method on its class.  Every call records a
span (name, start, end, parent, op id) in memory; self time is the span's
duration minus the time its child spans cover.  ``uninstall`` puts every
original object back.

Fraction, PosReal and ord_p are deliberately not traced: calls at that grain
would measure the wrapper rather than the layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (span name, module, attribute, class or None).  A class entry wraps a
# method; a plain entry wraps a module-level function at every binding.
TARGETS = (
    ("scan.run_scan", "monodyn.scan", "run_scan", None),
    ("scan.class_s_integrality", "monodyn.scan", "class_s_integrality", None),
    ("scan.class_gamma", "monodyn.scan", "class_gamma", None),
    ("scan.distance_checks", "monodyn.scan", "_scan_distance_checks", None),
    ("galois.class_norm_data", "monodyn.galois", "class_norm_data", None),
    ("galois.ord_w", "monodyn.galois", "ord_w", "ClassNormData"),
    ("galois.log_w", "monodyn.galois", "log_w", "ClassNormData"),
    ("galois.progressions", "monodyn.galois", "progressions", "ConjugacyClass"),
    ("galois.decompose_binomial_roots", "monodyn.galois",
     "decompose_binomial_roots", None),
    ("galois.class_of_point", "monodyn.galois", "class_of_point", None),
    ("preper.minimal_polynomial", "monodyn.preper", "minimal_polynomial", None),
    ("preper.collision_binomial", "monodyn.preper", "collision_binomial", None),
    ("preper.enumerate_preperiodic", "monodyn.preper",
     "enumerate_preperiodic", None),
    ("preper.structure_decompose", "monodyn.preper", "structure_decompose",
     None),
    ("polynomials.shift", "monodyn.polynomials", "shift", "UniPoly"),
    ("polynomials.eval", "monodyn.polynomials", "__call__", "UniPoly"),
    ("polynomials.newton_polygon_root_valuations", "monodyn.polynomials",
     "newton_polygon_root_valuations", None),
    ("polynomials.squarefree_decomposition", "monodyn.polynomials",
     "squarefree_decomposition", None),
    ("bounds.discrepancy_exact", "monodyn.bounds", "discrepancy_exact", None),
    ("bounds.distance_bound_constant", "monodyn.bounds",
     "distance_bound_constant", None),
    ("primes.factorint", "monodyn.primes", "factorint", None),
    ("primes.factor_fraction", "monodyn.primes", "factor_fraction", None),
    ("polyfactor.factor_poly", "monodyn.polyfactor", "factor_poly", None),
    ("orbits.is_preperiodic", "monodyn.orbits", "is_preperiodic", None),
    ("places.product_formula_check", "monodyn.places",
     "product_formula_check", None),
    ("heights.jensen_check", "monodyn.heights", "jensen_check", None),
    ("cli.preper", "monodyn.cli", "_cmd_preper", None),
    ("cli.equid", "monodyn.cli", "_cmd_equid", None),
)

MINPOLY_KINDS = ("cyclotomic", "real_radical", "plain", "self_twin", "twin")

# work counts the hooks below keep, beside calls and times
COUNTS = ("scan.classes", "scan.points", "scan.candidates",
          "galois.decompose_binomial_roots.hits", "polynomials.shift.deg_sum",
          "bounds.discrepancy_exact.angles", "polyfactor.factor_poly.factors",
          "primes.factorint.max_bits") + tuple(
    f"preper.minimal_polynomial.{kind}.{count}"
    for kind in MINPOLY_KINDS for count in ("hits", "deg2_sum"))


def is_time(name: str) -> bool:
    """Whether a per-layer metric is a time (the rest are counts)."""
    return name.endswith("_s") or name.endswith(".s")


class Tracer:
    """In-memory spans plus per-name call counts, times and work counts."""

    def __init__(self):
        self.op = 0
        self.paused = False
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, op]
        self._stack: list[list] = []    # [span index, child_ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.factored: set[int] = set()
        self._minpoly_kind: dict = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> tuple[list, int]:
        parent = self._stack[-1][0] if self._stack else -1
        span = [None, 0, 0, parent, self.op]
        idx = len(self.spans)
        self.spans.append(span)
        frame = [idx, 0]
        self._stack.append(frame)
        span[1] = time.perf_counter_ns()
        return frame, span[1]

    def _exit(self, frame: list, start: int, name: str,
              end: int | None = None) -> None:
        if end is None:
            end = time.perf_counter_ns()
        self._stack.pop()
        span = self.spans[frame[0]]
        span[0] = name
        span[2] = end
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, name)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- per-layer hooks -----------------------------------------------------

    def _after_factorint(self, args, result):
        n = abs(args[0])
        self.factored.add(n)
        key = "primes.factorint.max_bits"
        self.counts[key] = max(self.counts[key], n.bit_length())

    def _after_shift(self, args, result):
        self.counts["polynomials.shift.deg_sum"] += max(args[0].degree, 0)

    def _after_discrepancy(self, args, result):
        self.counts["bounds.discrepancy_exact.angles"] += len(args[0])

    def _after_factor_poly(self, args, result):
        self.counts["polyfactor.factor_poly.factors"] += len(result)

    def _after_run_scan(self, args, result):
        self.counts["scan.classes"] += len(result.verdicts)
        self.counts["scan.points"] += sum(v.degree for v in result.verdicts)

    def _wrap_decompose(self, fn):
        """decompose_binomial_roots with a hit count on its cache."""
        import monodyn.galois as galois
        inner = self._wrap("galois.decompose_binomial_roots", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(N, a):
            cached = (N, Fraction(a)) in galois._decompose_cache
            if cached and not tracer.paused:
                tracer.counts["galois.decompose_binomial_roots.hits"] += 1
            return inner(N, a)
        return wrapper

    def _minpoly_kind_of(self, x) -> str:
        """The class kind of x; traced calls made to find it are not
        recorded, and they only read caches the call itself filled."""
        kind = self._minpoly_kind.get(x.key())
        if kind is None:
            self.paused = True
            try:
                kind = self._classify(x)
            finally:
                self.paused = False
            self._minpoly_kind[x.key()] = kind
        return kind

    def _classify(self, x) -> str:
        cls = self._orig_class_of_point(x)
        if cls.M0 == 1:
            return "cyclotomic"
        if x.angle in (0, Fraction(1, 2)):
            return "real_radical"
        if not cls.entangled:
            return "plain"
        return "self_twin" if self._orig_twin_class(cls) == cls else "twin"

    def _wrap_minpoly(self, fn):
        """minimal_polynomial, split by class kind, with cache hits and the
        sum of deg^2 over misses (the orbit expansion's cost grows with it)."""
        import monodyn.preper as preper
        tracer = self

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            hit = x.key() in preper._minpoly_cache
            frame, start = tracer._enter()
            try:
                result = fn(x, *args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                kind = tracer._minpoly_kind_of(x)
                tracer._exit(frame, start, f"preper.minimal_polynomial.{kind}",
                             end)
            base = f"preper.minimal_polynomial.{kind}"
            if hit:
                tracer.counts[base + ".hits"] += 1
            else:
                tracer.counts[base + ".deg2_sum"] += result.degree ** 2
            return result
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        import importlib
        import monodyn.galois as galois
        self._orig_class_of_point = galois.class_of_point
        self._orig_twin_class = galois.twin_class
        hooks = {
            "primes.factorint": self._after_factorint,
            "polynomials.shift": self._after_shift,
            "bounds.discrepancy_exact": self._after_discrepancy,
            "polyfactor.factor_poly": self._after_factor_poly,
            "scan.run_scan": self._after_run_scan,
        }
        for name, modname, attr, clsname in TARGETS:
            mod = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(mod, clsname)
                orig = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(mod, attr)
            if name == "preper.minimal_polynomial":
                wrapped = self._wrap_minpoly(orig)
            elif name == "galois.decompose_binomial_roots":
                wrapped = self._wrap_decompose(orig)
            else:
                wrapped = self._wrap(name, orig, hooks.get(name))
            for owner in _bindings(orig):
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._set(owner, key, wrapped)
        # run_scan's own word-pair loop: count the classes it is handed, so
        # that scan.dedup_ratio = unique classes / classes examined
        import monodyn.scan as scan
        traced = scan.decompose_binomial_roots
        tracer = self

        @functools.wraps(traced)
        def scan_decompose(N, a):
            out = traced(N, a)
            tracer.counts["scan.candidates"] += len(out)
            return out
        self._set(scan, "decompose_binomial_roots", scan_decompose)

    def _set(self, owner, key, value) -> None:
        self._saved.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure this tracer measured, by metric name."""
        out: dict[str, float] = {}
        names = {n for n, *_ in TARGETS if n != "preper.minimal_polynomial"}
        names.update(f"preper.minimal_polynomial.{k}" for k in MINPOLY_KINDS)
        for name in names:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_ns.get(name, 0) / 1e9
            out[name + ".s"] = self.total_ns.get(name, 0) / 1e9
        out.update(self.counts)
        for kind in MINPOLY_KINDS:
            base = f"preper.minimal_polynomial.{kind}"
            out[base + ".hit_ratio"] = _ratio(out[base + ".hits"],
                                              out[base + ".calls"])
        base = "galois.decompose_binomial_roots"
        out[base + ".hit_ratio"] = _ratio(out[base + ".hits"],
                                          out[base + ".calls"])
        calls = out["primes.factorint.calls"]
        out["primes.factorint.distinct"] = len(self.factored)
        out["primes.factorint.repeat_ratio"] = _ratio(
            calls - len(self.factored), calls)
        out["scan.dedup_ratio"] = _ratio(out["scan.classes"],
                                         out["scan.candidates"])
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: [name, start_ns, end_ns, parent, op]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _bindings(obj):
    """Every loaded monodyn module that holds obj under some name."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "monodyn"
                               or modname.startswith("monodyn.")):
            continue
        if any(value is obj for value in vars(mod).values()):
            yield mod


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
