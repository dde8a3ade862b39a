"""Self-tests of the benchmark's helpers.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ----------------------------------------------------------

def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert run.percentile(xs, 50) == 50
    assert run.percentile(xs, 90) == 90
    assert run.percentile(reversed(xs), 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


@pytest.mark.parametrize("n, want", [(9, None), (20, 50.0), (99, 75.0), (100, 90.0),
                                     (199, 90.0), (200, 95.0), (1000, 99.0),
                                     (10000, 99.9)])
def test_highest_percentile_with_ten_beyond(n, want):
    assert run.highest_supported_percentile(n) == want
    if want is not None:
        assert run.beyond(n, want) >= 10


# -- self time ----------------------------------------------------------------

def columns(rows):
    sp = tracing.Spans()
    for row in rows:
        sp.add(*row)
    return sp


def test_self_time_subtracts_union_of_children():
    spans = [
        ["a.outer", 0.0, 10.0, -1, 1, None, 0],
        ["b.left", 1.0, 3.0, 0, 1, None, 0],
        ["b.right", 2.0, 5.0, 0, 1, None, 0],    # overlaps b.left: union is 1..5
        ["c.leaf", 2.5, 3.5, 2, 1, None, 0],
        ["b.late", 9.0, 12.0, 0, 1, None, 0],    # clipped to the parent's end
    ]
    assert list(tracing.self_times(columns(spans))) == pytest.approx([10 - 4 - 1, 2, 2, 1, 3])


def test_summarize_keeps_ops_and_counts_iterations():
    spans = [
        ["lifting.lift", 0.0, 4.0, -1, 1, None, 0],
        ["dynamics.apply_map", 0.0, 1.0, 0, 1, None, 0],
        ["dynamics.apply_map", 1.0, 2.0, 0, 1, None, 0],
        ["dynamics.apply_map", 5.0, 6.0, -1, 2, None, 0],
        ["instances.parse", 7.0, 8.0, -1, 0, None, 0],
    ]
    s = tracing.summarize(columns(spans), lambda op: op >= 1)
    assert s["names"]["dynamics.apply_map"]["calls"] == 3
    assert s["names"]["lifting.lift"]["self_s"] == pytest.approx(2.0)
    assert "instances.parse" not in s["names"]
    assert s["lift_iterations"] == 2


# -- wrappers -----------------------------------------------------------------

@pytest.fixture
def fake_modules():
    """frobdml.benchtest_a defines f; frobdml.benchtest_b imported it by name."""
    a = types.ModuleType("frobdml.benchtest_a")
    b = types.ModuleType("frobdml.benchtest_b")
    exec("def f(x):\n    if x < 0:\n        raise ValueError(x)\n    return x + 1\n", a.__dict__)
    b.f = a.f
    exec("def g(x):\n    return f(x) * 2\n", b.__dict__)
    sys.modules[a.__name__], sys.modules[b.__name__] = a, b
    try:
        yield a, b
    finally:
        del sys.modules[a.__name__], sys.modules[b.__name__]


def test_one_callable_in_two_namespaces_spans_once(fake_modules):
    a, b = fake_modules
    original = a.f
    tracer = tracing.Tracer()
    targets = [("frobdml.benchtest_a", "f", "alpha.f"), ("frobdml.benchtest_b", "f", "alpha.f"),
               ("frobdml.benchtest_b", "g", "beta.g")]
    tracer.install(spanned=targets, counted=[])
    tracer.install(spanned=targets, counted=[])       # a second install wraps nothing
    try:
        assert a.f is b.f and a.f is not original
        assert b.g(1) == 4
        assert a.f(1) == 2
    finally:
        tracer.uninstall()
    assert a.f is original and b.f is original
    assert tracer.spans.names == ["beta.g", "alpha.f", "alpha.f"]
    assert list(tracer.spans.parents) == [-1, 0, -1]


def test_missing_target_is_skipped(fake_modules):
    tracer = tracing.Tracer()
    tracer.install(spanned=[("frobdml.benchtest_a", "gone", "alpha.gone"),
                            ("frobdml.not_loaded", "h", "alpha.h")], counted=[])
    tracer.uninstall()
    assert tracer.missing == ["frobdml.benchtest_a:gone", "frobdml.not_loaded:h"]


def test_exception_counted_once_per_layer_it_leaves(fake_modules):
    a, b = fake_modules
    tracer = tracing.Tracer()
    tracer.install(spanned=[("frobdml.benchtest_a", "f", "alpha.f"),
                            ("frobdml.benchtest_b", "g", "beta.g")], counted=[])
    try:
        with pytest.raises(ValueError):
            b.g(-1)
    finally:
        tracer.uninstall()
    assert tracer.spans.errors == {0: "ValueError", 1: "ValueError"}
    assert tracing.summarize(tracer.spans, lambda op: True)["failed"] == {"alpha": 1, "beta": 1}


def test_nested_failure_in_one_layer_counts_once():
    spans = columns([["series.mul", 0.0, 2.0, -1, 1, "ValueError", 0],
                     ["series.mul", 0.5, 1.0, 0, 1, "ValueError", 0]])
    assert tracing.summarize(spans, lambda op: True)["failed"] == {"series": 1}


# -- the measured loop ----------------------------------------------------------

def test_measure_counts_errors_and_wrong_answers():
    def boom():
        raise KeyError("x")

    def wrong(res):
        workloads.expect(res == 1, "not one")
    ops = [workloads.Op("ok", lambda: 1, wrong),
           workloads.Op("crash", boom, wrong),
           workloads.Op("bad", lambda: 2, wrong)]
    out = run.measure(lambda r: ops, 0.0)
    assert (out.rounds, out.attempted, out.verified, out.failed) == (1, 3, 1, 2)
    assert dict(out.by_type) == {"KeyError": 1, "WrongAnswer": 1}
    assert dict(out.by_layer) == {"bench": 1, "check": 1}
    assert len(out.durations(completed_only=True)) == 2
    assert out.throughput() == pytest.approx(1 / sum(out.durations()))


def test_speed_scale_uses_samples_around_the_interval():
    speed = run.SpeedProbe(nominal=0.0025)
    speed.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    speed.values = [9.0, 0.002, 0.004, 0.002, 0.004, 9.0]
    # samples at 2, 3 (before 3.5) and 4, 5 (after 3.9): median 0.003
    assert speed.scale(3.5, 3.9) == pytest.approx(0.0025 / 0.003)
    assert speed.scale(0.5, 0.6) == pytest.approx(0.0025 / 4.501)
    assert speed.scale(6.5, 7.0) == pytest.approx(0.0025 / 4.502)


# -- inputs and the metric catalogue ----------------------------------------------

def test_same_seed_same_inputs(tmp_path):
    for cls in (workloads.LiftWorkload, workloads.ReturnsWorkload, workloads.SymbolicWorkload):
        dirs = [tmp_path / f"{cls.name}{k}" for k in range(3)]
        for d in dirs:
            d.mkdir()
        w = [cls(7, dirs[0]), cls(7, dirs[1]), cls(8, dirs[2])]
        assert [p.read_bytes() for p in w[0].files] == [p.read_bytes() for p in w[1].files]
        assert [p.read_bytes() for p in w[0].files] != [p.read_bytes() for p in w[2].files]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["lift", "returns", "symbolic", "cli"]
