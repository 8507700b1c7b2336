"""One benchmark process: set up a workload, run a slice of its ops, check.

    python3 perfbench/worker.py --workload NAME --seed N [--slice K]
                                [--setup-only] [--trace SPANS_PATH]

Prints ``READY <json>`` once monodyn is imported and the inputs exist (the
parent times interpreter start to this line as set-up), then, unless
--setup-only, ``RESULT <json>`` with the latency of every operation, the
timed part's wall time (their sum), failures, peak RSS and, under --trace,
the per-layer figures.  Every time is at the reference speed of speed.py;
the raw latencies go along.  run.py starts each of these in a fresh
interpreter.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Sampler  # noqa: E402
from spans import is_time  # noqa: E402


def run_ops(ops: list, tracer=None) -> tuple[list, list]:
    """Run every op in order: (outputs, (start, end) of each)."""
    outputs, spans = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        spans.append((t0, time.perf_counter()))
        outputs.append(out)
    return outputs, spans


def check_ops(ops: list, outputs: list) -> list[str]:
    """One failure reason per failed op."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            reason = f"{type(out).__name__}: {out}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:  # an unreadable output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return failures


def output_sizes(outputs: list) -> dict:
    reports = [o for o in outputs if hasattr(o, "verdicts")]
    if not reports:
        return {}
    return {"classes": sum(len(r.verdicts) for r in reports),
            "points": sum(v.degree for r in reports for v in r.verdicts)}


def main(argv=None) -> int:
    begun = time.perf_counter()
    sampler = Sampler()
    sampler.start()
    # imported once the sampler runs, so that set-up is sampled too
    import mpmath
    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--slice", type=int, default=0,
                    help="which slice of the ops to run; -1 runs them all")
    ap.add_argument("--small", action="store_true",
                    help="the self-test's reduced sizes")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_PATH",
                    help="trace the calls into each layer; write spans here")
    args = ap.parse_args(argv)
    params = workloads.SMALL if args.small else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, params)
    ops = workload.slice(args.slice)
    now = time.perf_counter()
    ready = {"ops": len(ops), "slices": workload.slices,
             "sizes": workload.sizes,
             "mpmath_backend": mpmath.libmp.BACKEND,
             "python": sys.version.split()[0],
             # what run.py needs to put its set-up time at reference speed
             "setup_ticks_s": sampler.tick_time(begun, now),
             "setup_slowdown": sampler.slowdown(begun, now)}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        sampler.stop()
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        outputs, spans = run_ops(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # memory and cache sizes as the ops left them, before any check runs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampler.stop()
    latencies = [sampler.reference_time(t0, t1) for t0, t1 in spans]
    result = {"wall_s": sum(latencies), "latencies_s": latencies,
              "raw_latencies_s": [t1 - t0 for t0, t1 in spans],
              "slowdown": sampler.slowdown(spans[0][0], spans[-1][1]),
              "attempted": len(outputs), "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        import monodyn.galois as galois
        import monodyn.preper as preper
        layers = {k: v / result["slowdown"] if is_time(k) else v
                  for k, v in tracer.metrics().items()}
        layers["cache.minpoly.size"] = len(preper._minpoly_cache)
        layers["cache.decompose.size"] = len(galois._decompose_cache)
        layers["cache.unit_group.size"] = (
            galois.unit_group_generators.cache_info().currsize)
        result["layers"] = layers
        tracer.write_spans(args.trace)
    result["failures"] = check_ops(ops, outputs)
    result["output_sizes"] = output_sizes(outputs)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
