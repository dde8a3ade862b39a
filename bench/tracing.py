"""Spans and counters recorded from outside the program.

The tracer swaps public callables of ``frobdml`` for wrappers, in every
module namespace that holds them (``dynamics.apply_map`` is also
``lifting.apply_map`` and ``returns.apply_map``), so calls made inside the
program are seen too.  Methods are patched once on their class.  Spans are
kept in memory, in the columns of ``Spans`` (name, start, end, parent, op
id, work, and the exception type that left the span), and summarised when
the run ends.  A span's self time is its duration minus the union of its children's
intervals.  Hot ``FqElem`` methods are only counted, not spanned, so their
time stays in the caller's self time; the kernel rows give their unit cost.

This module imports nothing from ``frobdml`` at import time, so the cli shim
can time ``import frobdml.cli`` after importing it.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List

# (module, attribute, span name); attributes "Class.method" are patched on
# the class.  A target whose module is not imported, or that no longer
# exists, is skipped and reported, so the benchmark keeps running when the
# program drops a function; its rows then read 0.
SPANNED = [
    ("frobdml.series", "TruncSeries.__mul__", "series.mul"),
    ("frobdml.series", "TruncSeries.__add__", "series.add"),
    ("frobdml.series", "TruncSeries.__sub__", "series.add"),
    ("frobdml.series", "TruncSeries.inverse", "series.inverse"),
    ("frobdml.geometry", "normalize", "geometry.normalize"),
    ("frobdml.geometry", "eval_hom_coords", "geometry.eval_hom"),
    ("frobdml.geometry", "poly_mul", "geometry.poly_mul"),
    ("frobdml.dynamics", "apply_map", "dynamics.apply_map"),
    ("frobdml.dynamics", "series_det", "dynamics.series_det"),
    ("frobdml.dynamics", "validate_map", "dynamics.validate"),
    ("frobdml.dynamics", "compose_maps", "dynamics.compose"),
    ("frobdml.dynamics", "recognize_dml_form", "dynamics.recognize"),
    ("frobdml.lifting", "sigma_fixed_lift", "lifting.lift"),
    ("frobdml.twist", "solve_twist", "twist.solve"),
    ("frobdml.twist", "normalize_conjugate", "twist.normalize"),
    ("frobdml.returns", "return_set", "returns.return_set"),
    ("frobdml.returns", "ap_decompose", "returns.ap_decompose"),
    ("frobdml.instances", "parse_instance", "instances.parse"),
    ("frobdml.instances", "parse_twist_file", "instances.parse"),
    ("frobdml.cli", "main", "cli.main"),
]
COUNTED = [("frobdml.field", f"FqElem.{meth}", "field.ops")
           for meth in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                        "inv", "__pow__", "frobenius")]
SPAN_NAMES = sorted({name for _, _, name in SPANNED})
LAYERS = ["field", "series", "geometry", "dynamics", "twist", "lifting",
          "returns", "instances", "cli"]


def mul_operand_bits(a, b) -> int:
    """Bits of one Kronecker-packed operand, computed from prec and m with
    the packing of this benchmark's baseline: 64 bits per F_p digit, 2m-1
    digits per series coefficient.  A computed work count, not a reading."""
    try:
        n = min(a.prec, b.prec)
        return 64 * (2 * a.field.m - 1) * n if n > 1 else 0
    except AttributeError:   # an operand that is not a series
        return 0


WORK = {"series.mul": mul_operand_bits}


class Spans:
    """Columns of the recorded spans, one entry per span in start order.
    Columnar arrays keep a traced run with millions of spans small."""

    def __init__(self):
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")     # row index of the enclosing span, or -1
        self.ops = array("q")         # op id, see Tracer.op
        self.works = array("q")
        self.errors: Dict[int, str] = {}   # row -> exception type that left it

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name, start, end, parent, op, error=None, work=0) -> int:
        """Append a finished span (used by tests and merges)."""
        i = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        self.works.append(work)
        if error is not None:
            self.errors[i] = error
        return i


class Tracer:
    IDLE = -2     # op id while the benchmark itself runs (answer checks)
    PROBE = -1    # op id of the p = 257 defect probes
    SETUP = 0     # op id of the traced set-up; measured ops are 1, 2, ...

    def __init__(self):
        self.spans = Spans()
        self.counts: Dict[str, List[int]] = {}   # name -> [calls, failed]
        self.op = self.SETUP
        self.missing: List[str] = []
        self._open: List[int] = []
        self._patched: List[tuple] = []          # (owner, attr, previous value)
        self._wrapper_of: Dict[int, Callable] = {}
        self._wrappers: set = set()

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn: Callable) -> Callable:
        sp, stack, tracer = self.spans, self._open, self
        names, starts, ends, parents, ops, works = (
            sp.names, sp.starts, sp.ends, sp.parents, sp.ops, sp.works)
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            w = work(*args) if work is not None else 0
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            works.append(w)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as ex:
                sp.errors[i] = type(ex).__name__
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
        return self._register(fn, wrapper)

    def counted(self, name: str, fn: Callable) -> Callable:
        cell = self.counts.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                cell[1] += 1
                raise
        return self._register(fn, wrapper)

    def _register(self, fn: Callable, wrapper: Callable) -> Callable:
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        self._wrapper_of[id(fn)] = wrapper
        self._wrappers.add(id(wrapper))
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, spanned=SPANNED, counted=COUNTED) -> None:
        """Wrap every target in every loaded frobdml namespace that holds it.
        A callable reached through several names gets one wrapper, and a
        wrapper is never wrapped again, so each call makes one span."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "frobdml" or k.startswith("frobdml."))]
        for how, targets in ((self.spanned, spanned), (self.counted, counted)):
            for modname, attr, name in targets:
                owner = sys.modules.get(modname)
                owner_name, _, meth = attr.rpartition(".")
                if owner_name:
                    owner = getattr(owner, owner_name, None)
                original = vars(owner).get(meth) if owner is not None else None
                if original is None:
                    self.missing.append(f"{modname}:{attr}")
                    continue
                if id(original) in self._wrappers:
                    continue
                wrapper = self._wrapper_of.get(id(original)) or how(name, original)
                if owner_name:
                    self._patch(owner, meth, wrapper)
                    continue
                for ns in modules:
                    for key, val in list(vars(ns).items()):
                        if val is original:
                            self._patch(ns, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, previous = self._patched.pop()
            setattr(owner, attr, previous)

    def count(self, name: str) -> int:
        return self.counts.get(name, [0, 0])[0]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(sp: Spans) -> array:
    """Duration minus the union of the children's intervals (clipped to the
    parent), per span.  One pass: children arrive in start order, so each
    parent's union is merged incrementally."""
    n = len(sp)
    covered = array("d", bytes(8 * n))
    cur_s = array("d", bytes(8 * n))
    cur_e = array("d", [-1.0]) * n
    starts, ends, parents = sp.starts, sp.ends, sp.parents
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        a, b = max(starts[i], starts[p]), min(ends[i], ends[p])
        if b <= a:
            continue
        if cur_e[p] < 0 or a > cur_e[p]:
            if cur_e[p] >= 0:
                covered[p] += cur_e[p] - cur_s[p]
            cur_s[p], cur_e[p] = a, b
        elif b > cur_e[p]:
            cur_e[p] = b
    return array("d", [ends[i] - starts[i] - covered[i]
                       - (cur_e[i] - cur_s[i] if cur_e[i] >= 0 else 0.0)
                       for i in range(n)])


def summarize(sp: Spans, keep: Callable[[int], bool]) -> dict:
    """Totals over the spans whose op id passes ``keep``:
    per span name calls, self seconds and work; apply_map calls under a
    lift span and under a return_set span; and, over all spans, the
    exceptions that left each layer (a span that failed whose parent is in
    another layer, or that has none)."""
    selfs = self_times(sp)
    names: Dict[str, List[float]] = {}
    under_lift = bytearray(len(sp))
    under_returns = bytearray(len(sp))
    lift_iters = return_iters = 0
    failed: Dict[str, int] = {}
    for i, name in enumerate(sp.names):
        parent = sp.parents[i]
        if parent >= 0:
            pname = sp.names[parent]
            under_lift[i] = under_lift[parent] or pname == "lifting.lift"
            under_returns[i] = under_returns[parent] or pname == "returns.return_set"
        if i in sp.errors and (parent < 0 or layer_of(sp.names[parent]) != layer_of(name)):
            failed[layer_of(name)] = failed.get(layer_of(name), 0) + 1
        if not keep(sp.ops[i]):
            continue
        tot = names.get(name)
        if tot is None:
            tot = names[name] = [0, 0.0, 0]
        tot[0] += 1
        tot[1] += selfs[i]
        tot[2] += sp.works[i]
        if name == "dynamics.apply_map":
            lift_iters += under_lift[i]
            return_iters += under_returns[i]
    return {"names": {k: {"calls": v[0], "self_s": v[1], "work": v[2]}
                      for k, v in names.items()},
            "lift_iterations": lift_iters, "return_iterates": return_iters,
            "failed": failed}


def merge(summaries: List[dict]) -> dict:
    """Sum summaries (one per cli child process)."""
    out = {"names": {}, "lift_iterations": 0, "return_iterates": 0, "failed": {}}
    for s in summaries:
        for k, v in s["names"].items():
            tot = out["names"].setdefault(k, {"calls": 0, "self_s": 0.0, "work": 0})
            for f in tot:
                tot[f] += v[f]
        out["lift_iterations"] += s["lift_iterations"]
        out["return_iterates"] += s["return_iterates"]
        for k, v in s["failed"].items():
            out["failed"][k] = out["failed"].get(k, 0) + v
    return out
