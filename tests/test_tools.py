"""tools/bench_pairs.py: the fit of peak RSS against attempted ops;
tools/compile_times.py: the compile() time of every module."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rss_fit = load("bench_pairs").rss_fit
compile_times = load("compile_times")


def runs(points):
    return [{"attempted": n, "peak_rss_mb": mb} for n, mb in points]


def test_rss_fit_recovers_an_exact_line():
    # 25 MB of program, 148 B per attempted op
    pts = [(n, 25 + 148 * n / 2 ** 20) for n in (20_000, 35_000, 50_000, 61_000)]
    fit = rss_fit(runs(pts))
    assert fit["bytes_per_op"] == pytest.approx(148)
    assert fit["intercept_mb"] == pytest.approx(25)
    assert fit["r"] == pytest.approx(1)


def test_rss_fit_of_noisy_runs():
    pts = [(10, 30.0), (20, 30.5), (30, 30.25), (40, 31.0)]
    fit = rss_fit(runs(pts))
    # slope 0.0275 MB/op, intercept 29.75 MB, r = 0.8315 (by hand)
    assert fit["bytes_per_op"] == pytest.approx(0.0275 * 2 ** 20)
    assert fit["intercept_mb"] == pytest.approx(29.75)
    assert fit["r"] == pytest.approx(0.8315, abs=1e-4)
    falling = rss_fit(runs([(10, 31.0), (20, 30.0)]))
    assert falling["r"] == pytest.approx(-1) and falling["bytes_per_op"] < 0


def test_rss_fit_is_null_without_two_op_counts():
    assert rss_fit(runs([(1000, 30.0)])) is None      # one pair: one run a side
    assert rss_fit(runs([(1000, 30.0), (1000, 31.0)])) is None
    assert rss_fit([]) is None


def test_rss_fit_of_a_flat_peak_has_no_correlation():
    fit = rss_fit(runs([(10, 30.0), (20, 30.0), (40, 30.0)]))
    assert fit == {"bytes_per_op": 0.0, "intercept_mb": 30.0, "r": None}


def test_compile_times_prints_every_module_and_the_total(capsys):
    assert compile_times.main(["--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(f.name for f in compile_times.DEFAULT_PATH.glob("*.py"))
    assert [line.split()[0] for line in lines[:-1]] == names
    ms = [float(line.split()[-2]) for line in lines]
    assert all(x > 0 for x in ms) and lines[-1].split()[0] == "total"
    assert ms[-1] == pytest.approx(sum(ms[:-1]), abs=0.01 * len(ms))


def test_compile_times_runs_as_a_script_and_writes_no_bytecode():
    before = sorted(compile_times.DEFAULT_PATH.rglob("*"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run([sys.executable, str(TOOLS / "compile_times.py"), "--repeat", "2"],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1].split()[0] == "total"
    assert sorted(compile_times.DEFAULT_PATH.rglob("*")) == before
