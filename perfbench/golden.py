"""Write the golden outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/golden.py

Run it only on a commit whose outputs are trusted (the golden files were
written at the commit that added the benchmark); a later change that alters
a report on purpose rewrites them and says so.  Writes perfbench/golden/:
the canonical scan-twin reports (floats rounded to 1e-9) and digests.json
with the cli-enum stdout digests and the sweep-beta report digests for
seed 0, each at full and self-test sizes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import FULL, GOLDEN, SMALL  # noqa: E402
from workloads import canonical, cli_digests, digest  # noqa: E402


def dump_report(doc: dict) -> str:
    """JSON with one line per verdict, so that a changed verdict shows as
    one changed line."""
    head = json.dumps({k: v for k, v in doc.items() if k != "verdicts"},
                      sort_keys=True)
    rows = ",\n".join(json.dumps(v, sort_keys=True) for v in doc["verdicts"])
    return head[:-1] + ', "verdicts": [\n' + rows + "\n]}\n"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    digests = {"cli-enum": {}, "sweep-beta": {}}
    for key, params in (("small", SMALL), ("full", FULL)):
        twin = workloads.scan_twin(0, params).ops[0]
        doc = canonical(twin.fn().to_json())
        (GOLDEN / f"scan-twin-d{params.twin_depth}.json").write_text(
            dump_report(doc))
        session = workloads.cli_enum(0, params).ops[0]
        digests["cli-enum"][key] = cli_digests(session.fn())
        sweep = workloads.sweep_beta(0, params)
        digests["sweep-beta"][key] = {
            "0": [digest(op.fn().to_json()) for op in sweep.ops]}
        print(f"{key}: done", flush=True)
    (GOLDEN / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
