"""Paired before/after runs of the benchmark, written to a BENCH_<n>.json.

    python3 tools/bench_pairs.py --base HEAD --workload returns --seed 11 \\
        --pairs 10 --seconds 25 --out BENCH_6.json [--workload lift ...]

The base revision is exported with ``git archive`` into a temporary
directory; the change is the working tree this script sits in.  For each
workload, pair i runs the unchanged ``bench/run.py`` once on each side, the
base first in even pairs and the change first in odd ones, so drift in
machine speed falls on both sides alike.  The file records, per workload and
side, every run's six end-to-end metrics with their median and quartiles,
the pair count and the pairs the change won per metric (the direction comes
from BENCHMARK.json), the machine, and the line counts of src/frobdml/*.py
on both trees.  Each side also gets ``rss_fit``, the least-squares line of
its runs' peak_rss_mb against their attempted ops: the slope in bytes per op
(the benchmark keeps a record of every attempted op, so a faster program
takes more memory in a fixed run), the intercept in MB (the program's own
memory) and the correlation r.  It is null when the side's runs have fewer
than two distinct op counts, and r is null when every run had the same
peak.  The change runs from a copy of the working tree's files
that git does not ignore, so bytecode caches left in the working tree cannot
make it start faster than the freshly exported base.  With --kernels, each
workload also gets one ``bench/run.py --trace 1`` run per side after the
pairs, and the file records its per-layer rows (the kernel rows such as
series.mul_us.prec256, dynamics.apply_map_us.prec40 and
lifting.lift_ms.prec40, and the trace counters) beside the end-to-end
medians.  Runs go one at a time.  The script exits 1, after writing the
file, when any run reports ``correct: false``.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
MB = 1 << 20


def export(rev: str, dest: Path) -> str:
    """Extract the committed files of rev into dest; return the full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def snapshot(dest: Path) -> None:
    """Copy the working tree's tracked and unignored untracked files to dest."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                           check=True, capture_output=True).stdout.split(b"\0")
    for name in filter(None, map(os.fsdecode, names)):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def src_lines(tree: Path) -> dict:
    files = sorted((tree / "src" / "frobdml").glob("*.py"))
    per = {f.name: len(f.read_bytes().splitlines()) for f in files}
    return {"files": per, "total": sum(per.values())}


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": ""})
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list) -> dict:
    if len(values) < 2:    # one pair: quantiles needs two points
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def rss_fit(runs: list) -> Optional[dict]:
    """peak_rss_mb = intercept_mb + bytes_per_op * attempted / MB, fitted by
    least squares; MB is 2^20 bytes, as bench/run.py reads ru_maxrss in KiB."""
    ops = [r["attempted"] for r in runs]
    rss = [r["peak_rss_mb"] for r in runs]
    if len(set(ops)) < 2:
        return None
    slope, intercept = statistics.linear_regression(ops, rss)
    r = statistics.correlation(ops, rss) if len(set(rss)) > 1 else None
    return {"bytes_per_op": slope * MB, "intercept_mb": intercept, "r": r}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.platform(), "python": platform.python_version()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="revision to compare against")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_6.json")
    ap.add_argument("--kernels", action="store_true",
                    help="add one traced run per side and workload for the per-layer rows")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as tmp_change:
        base, change = Path(tmp), Path(tmp_change)
        sha = export(args.base, base)
        snapshot(change)
        trees = {"base": base, "change": change}
        doc = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
               "machine": machine(),
               "base": {"rev": args.base, "commit": sha, "src_lines": src_lines(base)},
               "change": {"tree": "working tree", "src_lines": src_lines(ROOT)},
               "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
               "workloads": {}}
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_bench(trees[side], workload, args.seed,
                                                args.seconds))
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{s} {runs[s][-1]['throughput_ops_per_s']:.1f} ops/s"
                    for s in ("base", "change")), file=sys.stderr)
            entry = {side: {"runs": rs, **{m: summary([r[m] for r in rs]) for m in better},
                            "rss_fit": rss_fit(rs)}
                     for side, rs in runs.items()}
            entry["wins"] = {
                m: sum((c[m] > b[m]) if better[m] == "higher" else (c[m] < b[m])
                       for b, c in zip(runs["base"], runs["change"]))
                for m in better}
            if args.kernels:
                for side in ("base", "change"):
                    entry[side]["traced"] = run_bench(trees[side], workload, args.seed,
                                                      args.seconds, trace=1)
            doc["workloads"][workload] = entry
    out = ROOT / args.out
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    wrong = [f"{w} {side}" for w, entry in doc["workloads"].items()
             for side in ("base", "change")
             for r in entry[side]["runs"] + [entry[side].get("traced", {"correct": True})]
             if not r["correct"]]
    if wrong:
        raise SystemExit(f"runs not correct: {', '.join(wrong)}")


if __name__ == "__main__":
    main()
