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

In each round one more fresh process per depth times the first stage
alone: it drains scan.word_pair_classes(G, depth) on a new G, the class
stream (word pairs to collision binomials to classes), and reports
stream_s and the classes it read.

Per depth the record holds the median wall time with the three times, the
median stream_s with its three values, the class count, the digest and the
peak RSS (median, with the three values); a digest or class count that
differs between the rounds, or a stream whose class count is not the
scan's, stops the script.

It also records two c15 base-point sweeps (tests/test_acceptance.py
test_c15_uniformity_in_beta): in each round one process per sweep scans the
same {2z^2, 3z^3}, S = {inf, 2, 3, 5} at every beta = a/b with 0 < |a| <= H
and 1 <= b <= H, in increasing order, timing each run_scan untraced; the
gate refuses the preperiodic +-1/2.  "sweep" is H = 6 at depth 6 (44 of 46
base points scanned), "sweep_height" H = 12 at depth 7 (180 of 182).  Per
round a sweep takes the median time of a scanned base point and its total
time (the cold first scan included); the record holds the median of each
over the rounds, with the round values, the counts of scanned and refused
base points, and the sha256 prefix of the per-beta counts (classes,
S-integral classes and points, stabilization), which must agree between
the rounds.

Once, after the rounds, the Tier-1 suite runs on the same copy
(`python -m pytest -q --continue-on-collection-errors`, PYTHONPATH=src);
the record holds its wall time, its passed, failed and error counts and
its summary line.

The record also holds REV, the commit it names, the Python version, the CPU model
and the sha256 of `cat src/monodyn/*.py` at REV.  The file is written to
the root of the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPTHS = range(4, 10)
ROUNDS = 3
SWEEPS = (("sweep", 6, 6), ("sweep_height", 12, 7))   # (key, H, depth)

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

STREAM_CHILD = """
import json, sys, time
from monodyn.scan import word_pair_classes
from monodyn.semigroup import Semigroup
G = Semigroup.from_pairs([("2", 2), ("3", 3)])
t0 = time.perf_counter()
classes = sum(1 for _ in word_pair_classes(G, int(sys.argv[1])))
print(json.dumps({"stream_s": time.perf_counter() - t0, "classes": classes}))
"""

SWEEP_CHILD = """
import hashlib, json, statistics, sys, time
from fractions import Fraction
from monodyn.errors import InvalidConfig
from monodyn.places import INF, Place
from monodyn.scan import ScanConfig, run_scan
from monodyn.semigroup import Semigroup
G = Semigroup.from_pairs([("2", 2), ("3", 3)])
S = [INF, Place(2), Place(3), Place(5)]
H, depth = int(sys.argv[1]), int(sys.argv[2])
betas = sorted({Fraction(a, b)
                for a in range(-H, H + 1) if a for b in range(1, H + 1)})
times, counts, refused = [], [], 0
t_all = time.perf_counter()
for beta in betas:
    t0 = time.perf_counter()
    try:
        rep = run_scan(ScanConfig(G, S, beta, depth))
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


def child_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")


def child(tree: Path, code: str, *args: str) -> dict:
    """Run code in a fresh interpreter on tree's src; its last line."""
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=tree,
                         env=child_env(tree), check=True, capture_output=True,
                         text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def tier1(tree: Path) -> dict:
    """Wall time and outcome counts of the Tier-1 suite run on tree."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q",
                          "--continue-on-collection-errors"], cwd=tree,
                         env=child_env(tree), capture_output=True, text=True,
                         timeout=3600)
    wall = time.perf_counter() - t0
    summary = out.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?)\b", summary)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "returncode": out.returncode, "summary": summary}


def record(rev: str) -> dict:
    commit = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    runs: dict[int, list[dict]] = {d: [] for d in DEPTHS}
    streams: dict[int, list[dict]] = {d: [] for d in DEPTHS}
    sweeps: dict[str, list[dict]] = {key: [] for key, _, _ in SWEEPS}
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        tree = Path(tmp)
        subprocess.run(["tar", "-x", "-C", tmp], check=True,
                       input=git("archive", "--format=tar", commit))
        src = b"".join(p.read_bytes()
                       for p in sorted((tree / "src" / "monodyn").glob("*.py")))
        for _ in range(ROUNDS):
            for depth in DEPTHS:
                runs[depth].append(child(tree, CHILD, str(depth)))
                streams[depth].append(child(tree, STREAM_CHILD, str(depth)))
                print(f"depth {depth}: {runs[depth][-1]} "
                      f"{streams[depth][-1]}", file=sys.stderr)
            for key, height, depth in SWEEPS:
                sweeps[key].append(child(tree, SWEEP_CHILD, str(height),
                                         str(depth)))
                print(f"{key}: {sweeps[key][-1]}", file=sys.stderr)
        suite = tier1(tree)
        print(f"tier1: {suite}", file=sys.stderr)
    rows = []
    for depth, rs in runs.items():
        ss = streams[depth]
        if len({(r["classes"], r["digest"]) for r in rs}) != 1 or \
                {r["classes"] for r in ss} != {rs[0]["classes"]}:
            raise SystemExit(f"depth {depth}: the rounds disagree: {rs} {ss}")
        walls = [r["wall_s"] for r in rs]
        stream_s = [r["stream_s"] for r in ss]
        rss = [r["peak_rss_mb"] for r in rs]
        rows.append({"depth": depth, "wall_s": statistics.median(walls),
                     "wall_s_runs": walls,
                     "stream_s": statistics.median(stream_s),
                     "stream_s_runs": stream_s, "classes": rs[0]["classes"],
                     "digest": rs[0]["digest"],
                     "peak_rss_mb": statistics.median(rss),
                     "peak_rss_mb_runs": rss})
    keys = ("scanned", "refused", "counts_digest")
    summaries = {}
    for key, height, depth in SWEEPS:
        rs = sweeps[key]
        if len({tuple(r[k] for k in keys) for r in rs}) != 1:
            raise SystemExit(f"{key}: the rounds disagree: {rs}")
        sweep = {"depth": depth, "height": height,
                 **{k: rs[0][k] for k in keys}}
        for k in ("per_beta_s", "total_s"):
            sweep[k] = statistics.median(r[k] for r in rs)
            sweep[k + "_runs"] = [r[k] for r in rs]
        summaries[key] = sweep
    return {
        "rev": rev, "commit": commit,
        "python": sys.version.split()[0], "cpu": cpu_model(),
        "src_sha256": hashlib.sha256(src).hexdigest(),
        "scan": {"semigroup": [["2", 2], ["3", 3]], "S": [0, 2, 3, 5],
                 "beta": "2", "rounds": ROUNDS, "untraced": True},
        "depths": rows,
        **summaries,
        "tier1": suite,
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
