"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Runs every workload at reduced sizes (depth-3 scans, a dozen polynomials)
against the golden outputs, shows that each check rejects a corrupted
output, installs and removes the span wrappers, samples the machine's speed, runs
the orchestrator once untraced and once traced, and validates
BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Sampler, tick_work  # noqa: E402
from worker import check_ops, run_ops  # noqa: E402
from workloads import SMALL  # noqa: E402


def check_workloads_pass_and_checks_bite():
    for name, build in workloads.WORKLOADS.items():
        ops = build(0, SMALL).ops
        outputs, spans = run_ops(ops)
        assert len(spans) == len(ops) >= 1
        assert check_ops(ops, outputs) == [], (name, check_ops(ops, outputs))
        bad = [_corrupt(name, outputs[0])] + outputs[1:]
        assert len(check_ops(ops, bad)) == 1, name
        assert len(check_ops(ops, [ValueError("boom")] + outputs[1:])) == 1


def _corrupt(name: str, out):
    """The same output with one verdict, stdout line or factor changed."""
    if name in ("scan-twin", "sweep-beta"):
        v = out.verdicts[-1]
        out.verdicts[-1] = replace(v, s_integral=not v.s_integral)
        return out
    if name == "cli-enum":
        (code, text), rest = out[0], out[1:]
        return [(code, text + "{}\n")] + rest
    (g, m), rest = out[0], out[1:]
    return [(g, m + 1)] + rest


def check_seeded_inputs():
    from monodyn.semigroup import Semigroup
    G = Semigroup.from_json(workloads.G_SWEEP)
    betas = workloads.sweep_betas(3, 6, 2, G)
    assert betas == workloads.sweep_betas(3, 6, 2, G)
    assert betas != workloads.sweep_betas(4, 6, 2, G)
    assert betas[:2] == list(workloads.SWEEP_HEADS[:2])
    assert (workloads.eisenstein_products(5, 4)
            == workloads.eisenstein_products(5, 4))


def check_wrappers_install_and_restore():
    import monodyn.cli as cli
    import monodyn.preper as preper
    import monodyn.scan as scan
    from monodyn.polynomials import UniPoly
    before = (scan.minimal_polynomial, cli.minimal_polynomial,
              preper.minimal_polynomial, UniPoly.__dict__["shift"])
    tracer = Tracer()
    tracer.install()
    try:
        assert scan.minimal_polynomial is not before[0]
        assert cli.minimal_polynomial is scan.minimal_polynomial
        run_ops(workloads.scan_twin(0, SMALL).ops, tracer)
    finally:
        tracer.uninstall()
    after = (scan.minimal_polynomial, cli.minimal_polynomial,
             preper.minimal_polynomial, UniPoly.__dict__["shift"])
    assert all(a is b for a, b in zip(before, after))
    m = tracer.metrics()
    assert m["scan.run_scan.calls"] == 1
    assert m["scan.classes"] == 38 and m["scan.candidates"] >= 38
    assert m["polynomials.shift.calls"] > 0
    assert sum(m[f"preper.minimal_polynomial.{k}.calls"]
               for k in ("cyclotomic", "real_radical", "plain", "self_twin",
                         "twin")) > 0
    assert all(span[0] is not None and span[2] >= span[1]
               for span in tracer.spans)
    # every per-layer metric comes from the tracer, but for the ones the
    # worker (cache sizes) and run.py (overhead) add
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = {m["name"] for m in bench["per_layer"]} - set(m)
    assert {n.split(".")[0] for n in missing} <= {"cache", "trace"}, missing


def check_speed_sampler():
    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.6:
        tick_work()
    t1 = time.perf_counter()
    sampler.stop()
    assert len(sampler.durations) >= 3
    assert 0 < sampler.tick_time(t0, t1) < 0.1 * (t1 - t0)
    assert 0 < sampler.reference_time(t0, t1) < 10 * (t1 - t0)
    # an interval with no tick inside takes the speed of its neighbours
    mid = sampler.starts[1] + 1e-4
    assert sampler.slowdown(mid, mid + 1e-5) > 0


def check_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


def check_orchestrator():
    """run.py end to end at reduced sizes; its last line is the result."""
    for trace in ("0", "1"):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "scan-twin",
             "--seconds", "1", "--trace", trace, "--small"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, out.stdout


def main() -> int:
    checks = [check_seeded_inputs, check_workloads_pass_and_checks_bite,
              check_wrappers_install_and_restore, check_speed_sampler,
              check_benchmark_json, check_orchestrator]
    for check in checks:
        check()
        print(f"ok  {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
