"""The monodyn benchmark: one workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Every process this starts is a fresh,
single-threaded interpreter running perfbench/worker.py against src/, one
at a time, so no run sees another's warm caches.

--trace 0 runs the workload in rounds of fresh processes, one process per
part of its ops, until another round would not fit in --seconds, and prints
every end-to-end metric of BENCHMARK.json.  Set-up is measured in the timed
processes and in set-up-only starts before each of them and after the last,
after one discarded warm-up start.  --trace 1 runs all of the workload's ops
in one process, once untraced and twice traced (spans around the calls into
each layer), checks that every count repeats exactly between the two traced
runs, and prints every per-layer metric, including the tracing overhead
(traced minus untraced wall time).

Every time is reported at the reference speed of speed.py, which divides
out the machine's drifting speed; the raw latencies are kept in the saved
record.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the environment stamp, each
metric with its unit and the error rate; the full record, with every
latency, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import is_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scan-twin", "sweep-beta", "cli-enum", "factor-pool")
RUN_LIMIT_S = 170.0   # every process of a run ends within this


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Start worker.py in a fresh interpreter and wait for it to end.

    Returns the set-up time (process start to its READY line), the READY and
    RESULT payloads (None when missing), the process's wall time and its
    stderr.  A worker still running at the deadline is killed.
    """
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    # unbuffered, so that reading the READY line takes nothing after it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    ready = result = setup_s = None
    out = err = b""
    try:
        wait = max(0.0, deadline - time.perf_counter())
        if select.select([proc.stdout], [], [], wait)[0]:
            first_output = time.perf_counter()
            line = proc.stdout.readline().decode()
            if line.startswith("READY "):
                setup_s = first_output - start
                ready = json.loads(line[6:])
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        err = b"killed: run time limit reached"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    for line in out.decode().splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[7:])
    return {"setup_s": setup_s, "ready": ready, "result": result,
            "proc_s": time.perf_counter() - start,
            "stderr": err.decode(errors="replace")}


def run_unit(base: list[str], part: int, deadline: float,
             spans: Path | None = None) -> dict:
    """One fresh process running one slice of the workload's ops once."""
    extra = ["--slice", str(part)] + (["--trace", str(spans)] if spans else [])
    unit = spawn(base + extra, deadline)
    if unit["ready"] is None:
        raise Fatal("worker did not start:\n" + unit["stderr"][-2000:])
    if unit["result"] is None:
        # the process died or was killed: every op of it counts as failed
        n = unit["ready"]["ops"]
        reason = f"worker failed: {unit['stderr'][-500:]}"
        unit["result"] = {"wall_s": None, "latencies_s": [],
                          "attempted": n, "failures": [reason] * n,
                          "peak_rss_mb": None, "output_sizes": {}}
    return unit


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(ready: dict, seed: int) -> dict:
    # the ceiling keeps git from reporting an enclosing repository
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             env=git_env, capture_output=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monodyn").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_revision": rev or None, "src_sha256": src.hexdigest(),
            "python": ready["python"], "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "mpmath_backend": ready["mpmath_backend"],
            "seed": seed}


def reference_setup(unit: dict) -> float:
    """A process's set-up time at the reference speed (see speed.py)."""
    ready = unit["ready"]
    return (unit["setup_s"] - ready["setup_ticks_s"]) / ready["setup_slowdown"]


def measure(base: list[str], seconds: float, deadline: float) -> dict:
    """Untraced run: rounds of processes (one per part of the ops) until
    another round would not fit in --seconds, with set-up probes between."""
    warmup = spawn(base + ["--setup-only"], deadline)
    if warmup["ready"] is None:
        raise Fatal("worker did not start:\n" + warmup["stderr"][-2000:])
    parts = warmup["ready"]["slices"]
    probes, units = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for part in range(parts):
            probes.append(spawn(base + ["--setup-only"], deadline))
            units.append(run_unit(base, part, deadline))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    probes.append(spawn(base + ["--setup-only"], deadline))
    if any(p["ready"] is None for p in probes):
        raise Fatal("a set-up-only start failed")
    setups = [reference_setup(u) for u in probes + units]
    results = [u["result"] for u in units if u["result"]["wall_s"] is not None]
    lat = [x for r in results for x in r["latencies_s"]]
    metrics = {}
    if results:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p99_ms": 1e3 * statistics.median(
                percentile(r["latencies_s"], 0.99) for r in results),
            "first_op_ms": 1e3 * statistics.median(
                r["latencies_s"][0] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in results),
        }
    return {"ready": warmup["ready"], "units": units, "metrics": metrics,
            "setup_samples_s": setups}


def measure_traced(base: list[str], tag: str, deadline: float) -> dict:
    """Untraced once, traced twice; counts must repeat exactly."""
    OUT.mkdir(exist_ok=True)
    plain = run_unit(base, -1, deadline)
    traced = [run_unit(base, -1, deadline, OUT / f"spans-{tag}-{ab}.jsonl.gz")
              for ab in "ab"]
    units = [plain] + traced
    layers = [u["result"].get("layers") for u in traced]
    if not all(layers) or plain["result"]["wall_s"] is None:
        return {"ready": plain["ready"], "units": units, "metrics": {},
                "count_mismatches": ["a traced or untraced unit failed"]}
    a, b = layers
    mismatches = sorted(k for k in set(a) | set(b)
                        if not is_time(k) and a.get(k) != b.get(k))
    metrics = {k: (a[k] + b[k]) / 2 if is_time(k) else a[k] for k in a}
    untraced = plain["result"]["wall_s"]
    traced_wall = statistics.mean(u["result"]["wall_s"] for u in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced
    metrics["trace.untraced_wall_s"] = untraced
    return {"ready": plain["ready"], "units": units, "metrics": metrics,
            "count_mismatches": mismatches}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for perfbench/selftest.py")
    args = ap.parse_args(argv)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--small"] if args.small else []
    tag = f"{args.workload}-seed{args.seed}" + ("-small" if args.small else "")
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "monodyn" / "__init__.py").is_file():
            raise Fatal(f"no monodyn sources under {ROOT / 'src'}")
        if args.trace:
            run = measure_traced(base, tag, deadline)
        else:
            run = measure(base, args.seconds, deadline)
    except (Fatal, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = run["units"]
    attempted = sum(u["result"]["attempted"] for u in units)
    failures = [f for u in units for f in u["result"]["failures"]]
    problems = list(failures)
    problems += [f"count differs between traced runs: {k}"
                 for k in run.get("count_mismatches", [])]
    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
    problems += [f"metric not measured: {name}" for name in missing]

    env = environment(run["ready"], args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "inputs": run["ready"]["sizes"],
              "outputs": [u["result"]["output_sizes"] for u in units],
              "units": [{k: u["result"].get(k) for k in
                         ("wall_s", "latencies_s", "raw_latencies_s",
                          "slowdown", "peak_rss_mb", "failures")}
                        | {"setup_s": u["setup_s"], "proc_s": u["proc_s"]}
                        for u in units],
              "setup_samples_s": run.get("setup_samples_s"),
              "metrics": run["metrics"], "problems": problems}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    print("inputs " + json.dumps(record["inputs"]))
    print(f"{args.workload}: {len(units)} process(es), {attempted} ops, "
          f"{time.perf_counter() - began:.1f} s")
    for m in wanted:
        value = run["metrics"].get(m["name"])
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<58} {shown:>12} {m['unit']}")
    print(f"  error_rate {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} failed of {attempted})")
    for problem in problems[:20]:
        print("  problem: " + problem)
    metrics = {m["name"]: {"value": run["metrics"].get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
