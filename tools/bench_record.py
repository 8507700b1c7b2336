"""Record the untraced scan times of one revision in BENCH_<short rev>.json.

    python3 tools/bench_record.py [REV]

REV (a git revision, HEAD by default) is exported with git archive into a
temporary directory, so no bytecode or other file of the working tree is
read.  From there fresh interpreters, with PYTHONDONTWRITEBYTECODE=1 and
PYTHONPATH=src, run run_scan of G = {2z^2, 3z^3}, S = {inf, 2, 3, 5},
beta = 2 untraced at word lengths 4 to 9, three rounds over the depths, one
process per scan.  Each process times run_scan alone and reports its class
count, its raw digest (the sha256 prefix of the sorted report JSON, the
formula of tests/test_cross_validation.raw_report_digest) and its own peak
RSS, which includes building that JSON.

Per depth the record holds the median wall time with the three times, the
class count, the digest and the peak RSS (median, with the three values);
a digest or class count that differs between the rounds stops the script.

It also records the c15 base-point sweep (tests/test_acceptance.py
test_c15_uniformity_in_beta): one process per round scans the same
{2z^2, 3z^3}, S = {inf, 2, 3, 5} at depth 6 at every beta = a/b with
0 < |a| <= 6 and 1 <= b <= 6, in increasing order, timing each run_scan
untraced; the gate refuses +-1/2.  Per round it takes the median time of a
scanned base point and the total time of the sweep (the cold first scan
included); the record holds the median of each over the rounds, with the
round values, the counts of scanned and refused base points, and the
sha256 prefix of the per-beta counts (classes, S-integral classes and
points, stabilization), which must agree between the rounds.

The record also holds REV, the commit it names, the Python version, the CPU model
and the sha256 of `cat src/monodyn/*.py` at REV.  The file is written to
the root of the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPTHS = range(4, 10)
ROUNDS = 3

CHILD = """
import hashlib, json, resource, sys, time
from fractions import Fraction
from monodyn.places import INF, Place
from monodyn.scan import ScanConfig, run_scan
from monodyn.semigroup import Semigroup
G = Semigroup.from_pairs([("2", 2), ("3", 3)])
cfg = ScanConfig(G, [INF, Place(2), Place(3), Place(5)], Fraction(2),
                 int(sys.argv[1]))
t0 = time.perf_counter()
report = run_scan(cfg)
wall = time.perf_counter() - t0
raw = json.dumps(report.to_json(), sort_keys=True)
print(json.dumps({
    "wall_s": wall, "classes": len(report.verdicts),
    "digest": hashlib.sha256(raw.encode()).hexdigest()[:12],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

SWEEP_CHILD = """
import hashlib, json, statistics, time
from fractions import Fraction
from monodyn.errors import InvalidConfig
from monodyn.places import INF, Place
from monodyn.scan import ScanConfig, run_scan
from monodyn.semigroup import Semigroup
G = Semigroup.from_pairs([("2", 2), ("3", 3)])
S = [INF, Place(2), Place(3), Place(5)]
betas = sorted({Fraction(a, b)
                for a in range(-6, 7) if a for b in range(1, 7)})
times, counts, refused = [], [], 0
t_all = time.perf_counter()
for beta in betas:
    t0 = time.perf_counter()
    try:
        rep = run_scan(ScanConfig(G, S, beta, 6))
    except InvalidConfig:
        refused += 1
        continue
    times.append(time.perf_counter() - t0)
    counts.append([str(beta), len(rep.verdicts), rep.s_integral_classes,
                   rep.s_integral_points, rep.stabilization])
total = time.perf_counter() - t_all
print(json.dumps({
    "per_beta_s": statistics.median(times), "total_s": total,
    "scanned": len(times), "refused": refused,
    "counts_digest": hashlib.sha256(
        json.dumps(counts).encode()).hexdigest()[:12]}))
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child(tree: Path, code: str, *args: str) -> dict:
    """Run code in a fresh interpreter on tree's src; its last line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=tree,
                         env=env, check=True, capture_output=True, text=True,
                         timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(rev: str) -> dict:
    commit = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    runs: dict[int, list[dict]] = {d: [] for d in DEPTHS}
    sweeps: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        tree = Path(tmp)
        subprocess.run(["tar", "-x", "-C", tmp], check=True,
                       input=git("archive", "--format=tar", commit))
        src = b"".join(p.read_bytes()
                       for p in sorted((tree / "src" / "monodyn").glob("*.py")))
        for _ in range(ROUNDS):
            for depth in DEPTHS:
                runs[depth].append(child(tree, CHILD, str(depth)))
                print(f"depth {depth}: {runs[depth][-1]}", file=sys.stderr)
            sweeps.append(child(tree, SWEEP_CHILD))
            print(f"sweep: {sweeps[-1]}", file=sys.stderr)
    rows = []
    for depth, rs in runs.items():
        if len({(r["classes"], r["digest"]) for r in rs}) != 1:
            raise SystemExit(f"depth {depth}: the rounds disagree: {rs}")
        walls = [r["wall_s"] for r in rs]
        rss = [r["peak_rss_mb"] for r in rs]
        rows.append({"depth": depth, "wall_s": statistics.median(walls),
                     "wall_s_runs": walls, "classes": rs[0]["classes"],
                     "digest": rs[0]["digest"],
                     "peak_rss_mb": statistics.median(rss),
                     "peak_rss_mb_runs": rss})
    keys = ("scanned", "refused", "counts_digest")
    if len({tuple(r[k] for k in keys) for r in sweeps}) != 1:
        raise SystemExit(f"sweep: the rounds disagree: {sweeps}")
    sweep = {"depth": 6, "height": 6, **{k: sweeps[0][k] for k in keys}}
    for k in ("per_beta_s", "total_s"):
        sweep[k] = statistics.median(r[k] for r in sweeps)
        sweep[k + "_runs"] = [r[k] for r in sweeps]
    return {
        "rev": rev, "commit": commit,
        "python": sys.version.split()[0], "cpu": cpu_model(),
        "src_sha256": hashlib.sha256(src).hexdigest(),
        "scan": {"semigroup": [["2", 2], ["3", 3]], "S": [0, 2, 3, 5],
                 "beta": "2", "rounds": ROUNDS, "untraced": True},
        "depths": rows,
        "sweep": sweep,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", default="HEAD")
    rev = ap.parse_args().rev
    doc = record(rev)
    short = git("rev-parse", "--short", doc["commit"]).decode().strip()
    path = ROOT / f"BENCH_{short}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
