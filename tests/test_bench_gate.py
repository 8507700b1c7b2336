"""The scan-twin benchmark's report gate, run in the test suite.

perfbench/workloads.py holds the scan-twin configuration and the canonical
form its golden reports are stored in; it is loaded read-only, so a report
drift fails here before it fails the benchmark.
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
