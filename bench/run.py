"""The frobdml benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload {lift,returns,symbolic,cli} --seed N \\
                         --seconds S --trace {0,1}

The checkout root is the parent of this directory; the program is imported
from its ``src/`` (nothing is installed or built).  Inputs are generated
from the seed into ``.bench_work/`` under the root and removed at exit.

--trace 0  measures the end-to-end metrics with no wrapper installed, over
           whole rounds of ops until S seconds have passed.  Times are
           scaled to a nominal machine speed (see SpeedProbe).
--trace 1  runs half the time untraced and half with the tracer, reports the
           per-layer metrics and the tracing overhead, then the kernel rows.

Every line of stdout but the last is a human-readable report and one
``report: {...}`` JSON line (run metadata, sample counts, failures by type
and by layer, the p = 257 defect probes).  The last line is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Metric names, units and bounds are in BENCHMARK.json; their definitions,
and which layer metric should move which end-to-end metric, in README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "frobdml"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Times are reported at a nominal machine speed, measured by re-timing a
# fixed reference between ops (see SpeedProbe): in-process work against a
# CPU kernel that takes CPU_NOMINAL_S on the nominal machine, and work done
# in fresh interpreters against spawning a bare one (SPAWN_NOMINAL_S).
CPU_NOMINAL_S, CPU_EVERY_S = 0.0025, 0.1
SPAWN_NOMINAL_S, SPAWN_EVERY_S = 0.050, 0.4
HARD_STOP = 3

E2E_UNITS = {"setup_s": "s", "throughput_ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "peak_rss_mb": "MB", "verified_frac": "frac"}
KERNEL_UNITS = {
    "field.mul_us": "us", "field.add_us": "us", "field.build_ms": "ms",
    "series.mul_us.prec65": "us", "series.mul_us.prec256": "us",
    "series.add_us.prec65": "us", "series.inverse_us.prec65": "us",
    "dynamics.apply_map_us.prec40": "us", "lifting.lift_ms.prec40": "ms",
    "returns.return_set_ms.H200": "ms", "twist.solve_ms.twist_swap": "ms",
    "dynamics.compose_ms.f3x4": "ms",
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[rank(len(xs), pct) - 1]


def rank(n: int, pct: float) -> int:
    """1-based nearest rank, computed exactly (99.9% of 10000 is 9990)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def beyond(n: int, pct: float) -> int:
    """Samples strictly beyond the nearest-rank pct percentile of n samples."""
    return n - rank(n, pct)


def highest_supported_percentile(n: int, need: int = 10):
    """Highest percentile on the ladder with at least ``need`` samples beyond
    it, or None when not even the median has."""
    ok = [p for p in TAIL_LADDER if beyond(n, p) >= need]
    return ok[-1] if ok else None


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def reference_kernel() -> None:
    """Fixed work that uses nothing from the program: small-int tuple
    arithmetic with allocation, and bignum multiplication with byte
    marshalling, the two kinds of work the program's ops are made of."""
    x = tuple(range(1, 9))
    keep = []
    for _ in range(600):
        x = tuple((a * 3 + b) % 7 for a, b in zip(x, x[1:] + x[:1]))
        keep.append(x)
    big = int.from_bytes(bytes(range(256)) * 8, "little")
    for _ in range(8):
        (big * big).to_bytes(4200, "little")


def spawn_reference(env: dict):
    """Start and stop a bare interpreter: the part of a cli op or a set-up
    probe that is not the program."""
    def run() -> None:
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return run


class SpeedProbe:
    """Machine speed over the run, from timings of a fixed reference.

    On a shared virtual machine the speed one process gets can drift by
    20-30% over tens of seconds, which swamps differences between runs.
    Every op's time is therefore scaled by nominal / (reference time
    measured around the op), which takes out the drift and keeps what the
    program itself costs.  In-process ops are scaled by the CPU kernel;
    ops that spawn interpreters by spawning one, because process start-up
    drifts differently from in-process work.  Raw times are in the report
    line."""

    def __init__(self, reference=reference_kernel, nominal: float = CPU_NOMINAL_S,
                 every: float = CPU_EVERY_S):
        self.reference, self.nominal, self.every = reference, nominal, every
        self.times: list = []     # end of each sample
        self.values: list = []    # seconds the reference took

    def sample(self) -> None:
        t0 = perf_counter()
        self.reference()
        t1 = perf_counter()
        self.times.append(t1)
        self.values.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= self.every:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over measured speed for an interval: the nominal time over
        the median of the two samples before t0 and the two after t1."""
        i, j = bisect_right(self.times, t0), bisect_left(self.times, t1)
        near = self.values[max(0, i - 2):i] + self.values[j:j + 2]
        return self.nominal / statistics.median(near)

    def summary(self) -> dict:
        return {"median_ms": statistics.median(self.values) * 1e3,
                "min_ms": min(self.values) * 1e3, "max_ms": max(self.values) * 1e3,
                "samples": len(self.values)}


def spawn_probe(env: dict) -> SpeedProbe:
    return SpeedProbe(spawn_reference(env), SPAWN_NOMINAL_S, SPAWN_EVERY_S)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def die(msg: str) -> None:
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def import_program():
    if not (PKG / "__init__.py").is_file():
        die(f"no program to measure: {PKG}/__init__.py is missing")
    sys.path.insert(0, str(SRC))
    import frobdml
    if Path(frobdml.__file__).resolve().parent != PKG.resolve():
        die(f"imported frobdml from {frobdml.__file__}, not from {PKG}")
    return frobdml


def metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(PKG.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "src_py_lines": lines}


def setup_seconds(workload, env: dict, speed: SpeedProbe) -> tuple:
    """Spawn-to-ready times of fresh interpreters doing the workload's set-up,
    raw and scaled to nominal speed."""
    probe = [sys.executable, str(BENCH_DIR / "probe.py")]
    probe += ["cli"] if workload.name == "cli" else ["files", str(workload.workdir)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        proc = subprocess.Popen(probe, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-500:]}")
        speed.sample()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.scale(t0, t1))
    return raw, scaled


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

def failure_layer(ex: BaseException) -> str:
    """Module of the innermost program frame the exception passed through."""
    layer = "bench"
    tb = ex.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == PKG:
            layer = path.stem
        tb = tb.tb_next
    return layer


class Outcome:
    def __init__(self):
        self.attempted = self.verified = 0
        self.timed = []           # (start, seconds, completed) per attempted op
        self.rounds = 0
        self.by_type = Counter()
        self.by_layer = Counter()
        self.first_error = {}
        self.field_ops = 0

    def fail(self, ex: BaseException, kind: str, layer: str) -> None:
        name = type(ex).__name__
        self.by_type[name] += 1
        self.by_layer[layer] += 1
        self.first_error.setdefault(name, f"{kind}: {ex}"[:300])

    @property
    def failed(self) -> int:
        return self.attempted - self.verified

    def durations(self, speed=None, completed_only=False) -> list:
        """Op times, scaled to nominal speed when ``speed`` is given."""
        return [d * (speed.scale(t, t + d) if speed else 1.0)
                for t, d, ok in self.timed if ok or not completed_only]

    def throughput(self, speed=None) -> float:
        """Verified ops per second of time spent on all attempted ops."""
        total = sum(self.durations(speed))
        return self.verified / total if total > 0 else 0.0


def measure(rounds, seconds: float, tracer=None, speed=None) -> Outcome:
    """Closed loop, one client: run whole rounds of ops (``rounds(r)`` is
    round r) back to back until ``seconds`` have passed.  A round is cut
    short only past HARD_STOP * seconds.  Only ``op.run`` is timed; its
    answer is then checked untimed, and the machine speed is sampled
    between ops."""
    out = Outcome()
    speed = speed or SpeedProbe()
    speed.sample()
    start = perf_counter()
    for r in itertools.count():
        for op in rounds(r):
            if perf_counter() - start >= HARD_STOP * seconds > 0:
                break
            speed.maybe_sample()
            out.attempted += 1
            if tracer is not None:
                tracer.op = out.attempted
                before = tracer.count("field.ops")
            t0 = perf_counter()
            try:
                res = op.run()
            except Exception as ex:  # a failed op is recorded and the loop goes on
                out.timed.append((t0, perf_counter() - t0, False))
                out.fail(ex, op.kind, failure_layer(ex))
                continue
            out.timed.append((t0, perf_counter() - t0, True))
            if tracer is not None:
                out.field_ops += tracer.count("field.ops") - before
                tracer.op = tracer.IDLE
            try:
                op.check(res)
            except Exception as ex:  # a wrong answer, or a check that could not run
                out.fail(ex, op.kind, "check")
                continue
            out.verified += 1
        out.rounds = r + 1
        if perf_counter() - start >= seconds:
            break
    speed.sample()
    return out


def run_probes(workload) -> dict:
    """The p = 257 lifts, attempted outside the timed loop: a known defect
    (ROADMAP item 5) kept visible without failing measured ops."""
    if not hasattr(workload, "probe_ops"):
        return {}
    res = measure(lambda r: workload.probe_ops(), 0.0)
    return {"attempted": res.attempted, "failed": res.failed,
            "by_type": dict(res.by_type), "by_layer": dict(res.by_layer),
            "first_error": res.first_error}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload, seconds: float, env: dict):
    cli = workload.name == "cli"
    speed = spawn_probe(env) if cli else SpeedProbe()
    res = measure(workload.round, seconds, speed=speed)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup_speed = spawn_probe(env)
    setups_raw, setups = setup_seconds(workload, env, setup_speed)
    lat = res.durations(speed, completed_only=True)
    raw_lat = res.durations(completed_only=True)
    n = len(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_per_s": res.throughput(speed),
        "latency_p50_ms": percentile(lat, 50) * 1e3 if lat else 0.0,
        "latency_p90_ms": percentile(lat, 90) * 1e3 if lat else 0.0,
        "peak_rss_mb": rss_mb,
        "verified_frac": res.verified / res.attempted if res.attempted else 0.0,
    }
    samples = {"setup_s": len(setups), "throughput_ops_per_s": res.attempted,
               "latency_p50_ms": n, "latency_p90_ms": n, "peak_rss_mb": 1,
               "verified_frac": res.attempted}
    extra = {"rounds": res.rounds, "error_rate": res.failed / res.attempted if res.attempted else 0.0,
             "p90_samples_beyond": beyond(n, 90) if n else 0,
             "highest_supported_percentile": highest_supported_percentile(n),
             "raw": {"setup_s": statistics.median(setups_raw),
                     "throughput_ops_per_s": res.throughput(),
                     "latency_p50_ms": percentile(raw_lat, 50) * 1e3 if raw_lat else 0.0,
                     "latency_p90_ms": percentile(raw_lat, 90) * 1e3 if raw_lat else 0.0},
             "reference": {"ops": speed.summary(), "setup": setup_speed.summary()}}
    return res, metrics, samples, extra


def traced(workload, seconds: float, env: dict):
    import kernels
    import tracing
    half = seconds / 2
    cli = workload.name == "cli"
    speed = spawn_probe(env) if cli else SpeedProbe()
    plain = measure(workload.round, half, speed=speed)
    tracer = tracing.Tracer()
    probes = {}
    try:
        if cli:
            workload.traced = True
        else:
            tracer.install()
            workload.setup()
        res = measure(workload.round, half, tracer=None if cli else tracer, speed=speed)
        if not cli:
            tracer.op = tracer.PROBE
            probes = run_probes(workload)
    finally:
        tracer.uninstall()
    ops = max(res.attempted, 1)
    if cli:
        summaries = workload.trace_summaries
        per_op = tracing.merge(summaries)
        per_proc, procs = per_op, max(len(summaries), 1)
        field_ops = sum(s["field.ops"][0] for s in summaries)
        field_failed = sum(s["field.ops"][1] for s in summaries)
        cli_rows = {"cli.interp_s": sum(s["interp_s"] for s in summaries) / procs,
                    "cli.import_s": sum(s["import_s"] for s in summaries) / procs}
    else:
        per_op = tracing.summarize(tracer.spans, lambda op: op >= 1)
        per_proc, procs = tracing.summarize(tracer.spans, lambda op: op == tracer.SETUP), 1
        field_ops, field_failed = res.field_ops, tracer.counts.get("field.ops", [0, 0])[1]
        cli_rows = {"cli.interp_s": 0.0, "cli.import_s": 0.0}

    rows = {}
    for name in tracing.SPAN_NAMES:
        src, div = (per_proc, procs) if name == "instances.parse" else (per_op, ops)
        tot = src["names"].get(name, {"calls": 0, "self_s": 0.0, "work": 0})
        rows[f"{name}.calls"] = tot["calls"] / div
        rows[f"{name}.self_s"] = tot["self_s"] / div
    rows["series.mul.packed_bits"] = per_op["names"].get("series.mul", {"work": 0})["work"] / ops
    lifts = per_op["names"].get("lifting.lift", {"calls": 0})["calls"]
    rows["lifting.iterations_per_lift"] = per_op["lift_iterations"] / lifts if lifts else 0.0
    rows["returns.iterates"] = per_op["return_iterates"] / ops
    rows["field.ops"] = field_ops / ops
    failed = dict(per_op["failed"]) if cli else tracing.summarize(
        tracer.spans, lambda op: False)["failed"]
    failed["field"] = failed.get("field", 0) + field_failed
    for layer in tracing.LAYERS:
        rows[f"{layer}.failed"] = failed.get(layer, 0)
    rows.update(cli_rows)
    rows["trace.ops"] = res.attempted
    base = plain.throughput(speed)
    rows["trace.overhead_frac"] = 1 - res.throughput(speed) / base if base > 0 else 0.0
    rows.update(kernels.measure())
    extra = {"untraced_ops": plain.attempted, "missing_targets": tracer.missing,
             "defect_probes": probes}
    return res, rows, extra


def per_layer_units() -> dict:
    import tracing
    units = dict(KERNEL_UNITS)
    for name in tracing.SPAN_NAMES:
        per = "proc" if name == "instances.parse" else "op"
        units[f"{name}.calls"] = f"1/{per}"
        units[f"{name}.self_s"] = f"s/{per}"
    units.update({"series.mul.packed_bits": "bits/op", "lifting.iterations_per_lift": "1/lift",
                  "returns.iterates": "1/op", "field.ops": "1/op",
                  "cli.interp_s": "s/op", "cli.import_s": "s/op",
                  "trace.ops": "count", "trace.overhead_frac": "frac"})
    units.update({f"{layer}.failed": "count" for layer in tracing.LAYERS})
    return units


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["lift", "returns", "symbolic", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")

    import_program()
    import workloads as W

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        if args.workload == "cli":
            workload = W.CliWorkload(args.seed, workdir, ROOT)
        else:
            workload = {"lift": W.LiftWorkload, "returns": W.ReturnsWorkload,
                        "symbolic": W.SymbolicWorkload}[args.workload](args.seed, workdir)
        workload.setup()
        if args.trace:
            res, values, extra = traced(workload, args.seconds, W.child_env(ROOT))
            units = per_layer_units()
            samples = {}
        else:
            res, values, samples, extra = end_to_end(workload, args.seconds,
                                                     W.child_env(ROOT))
            units = E2E_UNITS
            extra["defect_probes"] = run_probes(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "meta": metadata(args.seed), "attempted": res.attempted, "failed": res.failed,
              "failures_by_type": dict(res.by_type), "failures_by_layer": dict(res.by_layer),
              "first_error": res.first_error, "samples": samples, **extra}
    for name, value in values.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:36s} {value:14.6g} {units[name]}{n}")
    print("report: " + json.dumps(report, sort_keys=True))
    result = {"correct": res.failed == 0 and res.attempted > 0,
              "attempted": res.attempted, "failed": res.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
