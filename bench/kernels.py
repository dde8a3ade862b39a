"""Kernel rows: unit costs of single library calls, measured best-of-5.

They re-measure the baseline table of ROADMAP item 1 on the shipped
fixtures (F_4 from f4.json), so those numbers come from this benchmark
rather than being quoted by hand.  Inputs are fixed and do not depend on the
workload seed.  Series operands are fresh objects for every call, so no
per-object cache in the program makes a repeated call cheaper than a real one.
"""
from __future__ import annotations

import random
from time import perf_counter
from typing import Callable, Dict, List

import frobdml.dynamics as dynamics
import frobdml.field as field
import frobdml.instances as instances
import frobdml.lifting as lifting
import frobdml.returns as returns
import frobdml.series as series
import frobdml.twist as twist

REPEAT = 5
# FieldSpec construction, including the irreducibility check of each
# modulus; (257, 4) is the large field, whose check dominates the row.
BUILD_FIELDS = [
    (2, 1, (0, 1)), (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)),
    (3, 2, (1, 0, 1)), (3, 3, (1, 2, 0, 1)), (5, 2, (2, 0, 1)),
    (5, 3, (1, 1, 0, 1)), (257, 4, (3, 0, 0, 0, 1)),
]


def best(fn: Callable[[int], None], number: int, repeat: int = REPEAT) -> float:
    """Least mean seconds per call over ``repeat`` timings of ``number`` calls;
    ``fn(k)`` performs call k, numbered 0 .. repeat*number-1 over all timings."""
    out = float("inf")
    for r in range(repeat):
        t0 = perf_counter()
        for k in range(r * number, (r + 1) * number):
            fn(k)
        out = min(out, (perf_counter() - t0) / number)
    return out


def series_text(rng: random.Random, prec: int, unit: bool) -> str:
    digits = ["0", "1", "a", "1+a"]
    terms = [f"({digits[rng.randrange(1 if (unit and j == 0) else 0, 4)]})*t^{j}"
             for j in range(prec)]
    return " + ".join(t for t in terms if not t.startswith("(0)")) + f" + O(t^{prec})"


def fresh_series(F, prec: int, count: int, unit: bool = False) -> List:
    rng = random.Random(prec)
    return [series.parse_series(F, series_text(rng, prec, unit)) for _ in range(count)]


def measure() -> Dict[str, float]:
    f4 = instances.parse_instance(instances.fixture_path("f4.json"))
    f3 = instances.parse_instance(instances.fixture_path("f3.json"))
    F = f4.field
    rows: Dict[str, float] = {}

    x, y = field.parse_element(F, "a"), field.parse_element(F, "1+a")
    rows["field.mul_us"] = best(lambda k: x * y, 2000) * 1e6
    rows["field.add_us"] = best(lambda k: x + y, 2000) * 1e6

    def timed_build():
        t0 = perf_counter()
        for p, m, mod in BUILD_FIELDS:
            field.make_field(p, m, mod)
        return perf_counter() - t0
    rows["field.build_ms"] = min(timed_build() for _ in range(2)) * 1e3

    for prec, number in ((65, 40), (256, 8)):
        a, b = (fresh_series(F, prec, number * REPEAT) for _ in range(2))
        rows[f"series.mul_us.prec{prec}"] = best(lambda k: a[k] * b[k], number) * 1e6
    a, b = (fresh_series(F, 65, 40 * REPEAT) for _ in range(2))
    rows["series.add_us.prec65"] = best(lambda k: a[k] + b[k], 40) * 1e6
    u = fresh_series(F, 65, 4 * REPEAT, unit=True)
    rows["series.inverse_us.prec65"] = best(lambda k: u[k].inverse(), 4) * 1e6

    P = f4.points["Ptilde"]
    rows["dynamics.apply_map_us.prec40"] = best(
        lambda k: dynamics.apply_map(f4.map, P), 20) * 1e6
    rows["lifting.lift_ms.prec40"] = best(
        lambda k: lifting.sigma_fixed_lift(f4.map, f4.points["P0"], 40), 2) * 1e3
    V = f4.varieties["orbitpt"]
    rows["returns.return_set_ms.H200"] = best(
        lambda k: returns.return_set(f4.map, P, V, 200, 30), 1, repeat=3) * 1e3
    _, A, q = instances.parse_twist_file(instances.fixture_path("twist_swap.json"))
    rows["twist.solve_ms.twist_swap"] = best(lambda k: twist.solve_twist(A, q, 64), 20) * 1e3
    rows["dynamics.compose_ms.f3x4"] = best(lambda k: dynamics.iterate_map(f3.map, 4), 5) * 1e3
    return rows
