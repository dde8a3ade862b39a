"""tools/bench_pairs.py: the fit of peak RSS against attempted ops."""
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)
rss_fit = bench_pairs.rss_fit


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
