"""The benchmarks' output gates, run in the test suite.

perfbench/workloads.py holds the scan-twin, sweep-beta and factor-pool
operations, their checks, and the canonical form the scan reports' golden
copies and digests are stored in; it and perfbench/golden/ are loaded
read-only, so a report drift or a wrong factorization fails here before it
fails the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("depth", (3, 5))
def test_scan_twin_report_matches_golden(depth):
    from fractions import Fraction

    from monodyn.scan import ScanConfig, run_scan
    from monodyn.semigroup import Semigroup
    wl = perfbench_workloads()
    cfg = ScanConfig(Semigroup.from_json(wl.G_TWIN), wl.S4, Fraction(2), depth)
    golden = json.loads((PERFBENCH / "golden" / f"scan-twin-d{depth}.json")
                        .read_text())
    assert wl.canonical(run_scan(cfg).to_json()) == golden


def test_sweep_beta_reports_match_golden_digests():
    # the full seed-0 sweep: 24 base points at depth 4 on one semigroup,
    # which keeps its class stream from the first scan to the last
    wl = perfbench_workloads()
    golden = json.loads((PERFBENCH / "golden" / "digests.json").read_text())
    expected = golden["sweep-beta"]["full"]["0"]
    ops = wl.sweep_beta(0, wl.FULL).ops
    assert len(ops) == len(expected) == 24
    reports = [op.fn() for op in ops]
    assert [wl.digest(r.to_json()) for r in reports] == expected
    assert [op.check(r) for op, r in zip(ops, reports)] == [None] * 24


def test_factor_pool_passes_its_checks():
    # all 1300 seed-0 ops: 1200 binomials X^M - c against capelli_reducible
    # and 100 Eisenstein products against their construction
    ops = perfbench_workloads().factor_pool(0).ops
    assert len(ops) == 1300
    assert [op.check(op.fn()) for op in ops] == [None] * 1300
