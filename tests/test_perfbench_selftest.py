"""perfbench/selftest.py runs in the test suite.

The self-test drives every benchmark workload at reduced size, with and
without the span tracer, so a change to a traced function's signature or to
a name the tracer reads fails here.  It writes only under perfbench/out/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
