"""The scan benchmarks' report gates, run in the test suite.

perfbench/workloads.py holds the scan-twin and sweep-beta configurations
and the canonical form their golden reports and digests are stored in; it
and perfbench/golden/ are loaded read-only, so a report drift fails here
before it fails the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
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
    wl = _workloads()
    cfg = ScanConfig(Semigroup.from_json(wl.G_TWIN), wl.S4, Fraction(2), depth)
    golden = json.loads((PERFBENCH / "golden" / f"scan-twin-d{depth}.json")
                        .read_text())
    assert wl.canonical(run_scan(cfg).to_json()) == golden


def test_sweep_beta_reports_match_golden_digests():
    # the full seed-0 sweep: 24 base points at depth 4 on one semigroup,
    # which keeps its class stream from the first scan to the last
    wl = _workloads()
    golden = json.loads((PERFBENCH / "golden" / "digests.json").read_text())
    expected = golden["sweep-beta"]["full"]["0"]
    ops = wl.sweep_beta(0, wl.FULL).ops
    assert len(ops) == len(expected) == 24
    reports = [op.fn() for op in ops]
    assert [wl.digest(r.to_json()) for r in reports] == expected
    assert [op.check(r) for op, r in zip(ops, reports)] == [None] * 24
