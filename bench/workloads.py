"""Seeded inputs, operations and answer checks of the benchmark workloads.

The generators are the benchmark's own; nothing is imported from the
repository's tests, so editing the tests cannot change a workload.  Every
generated input is written out as an instance file or a twist-matrix file,
and the program receives only those files (parsed at set-up) plus the op
parameters.

Shapes are fixed and values are seeded.  The sequence of op shapes (map
configuration, precision, horizon, command) and each input's structure
(which monomials, t-powers and matrix entries are nonzero) come from the
workload name alone; the seed draws the nonzero values, the points and the
twist matrices.  Op cost depends mostly on structure, so a run reaches ops
of nearly the same mean cost on every seed, which keeps run-to-run spreads
small while every run still covers the whole range of shapes.

The library is always called through its module attributes
(``lifting.sigma_fixed_lift``), so that the traced run, which swaps those
attributes for wrappers, sees every call the benchmark makes.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence

import frobdml.dynamics as dynamics
import frobdml.geometry as geometry
import frobdml.instances as instances
import frobdml.lifting as lifting
import frobdml.returns as returns
import frobdml.series as series
import frobdml.twist as twist

BENCH_DIR = Path(__file__).resolve().parent

# Monic irreducible moduli (little-endian F_p coefficients) for the fields the
# generators draw from.  Instance parsing re-checks irreducibility.
MODULI = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    (257, 1): (0, 1),
}


class WrongAnswer(Exception):
    """An op returned, but its answer failed the benchmark's check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]           # the timed library call(s)
    check: Callable[[object], None]     # untimed; raises WrongAnswer


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# text forms of generated inputs (the instance-file grammar)
# ---------------------------------------------------------------------------

def elem_text(digits: Sequence[int]) -> str:
    """F_(p^m) element from its F_p digits in powers of the generator a."""
    terms = []
    for i, c in enumerate(digits):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = "a" if i == 1 else f"a^{i}"
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms) or "0"


def series_text(coeffs: Dict[int, int], prec: int) -> str:
    """Series with F_p digit coefficients {t-power: digit}."""
    parts = []
    for j, c in sorted(coeffs.items()):
        if j >= prec or not c:
            continue
        mono = "1" if j == 0 else ("t" if j == 1 else f"t^{j}")
        if j == 0:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    parts.append(f"O(t^{prec})")
    return " + ".join(parts)


def field_obj(p: int, m: int) -> dict:
    return {"p": p, "m": m, "modulus": list(MODULI[(p, m)])}


def rand_exponents(shape: random.Random, n: int, degree: int) -> List[int]:
    exps = [0] * n
    for _ in range(degree):
        exps[shape.randrange(n)] += 1
    return exps


def rand_ideal_series(shape: random.Random, vals: random.Random, p: int,
                      prec: int) -> Dict[int, int]:
    """Prime-field digits (so sigma-fixed for every e) with valuation 1..3."""
    v = shape.randint(1, 3)
    powers = [v] + [shape.randrange(v + 1, prec) for _ in range(shape.randint(0, 3))]
    return {j: vals.randrange(1, p) for j in powers}


def rand_g(shape: random.Random, vals: random.Random, p: int, n: int, degree: int,
           prec: int, terms_per_coord: int) -> List[list]:
    G = []
    for _ in range(n):
        terms = {}
        for _ in range(terms_per_coord):
            terms[tuple(rand_exponents(shape, n, degree))] = rand_ideal_series(
                shape, vals, p, prec)
        G.append([{"exponents": list(e), "coeff": series_text(c, prec)}
                  for e, c in sorted(terms.items())])
    return G


def identity_text(n: int) -> List[List[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def rand_residue(vals: random.Random, p: int, m: int, N: int) -> List[str]:
    """Canonical residue point: first coordinate 1, the rest random."""
    return ["1"] + [elem_text([vals.randrange(p) for _ in range(m)]) for _ in range(N)]


def structured_doc(shape: random.Random, vals: random.Random, label: str, p: int,
                   m: int, e: int, N: int, prec: int, terms_per_coord: int) -> dict:
    """A = I, G in the maximal ideal, a random residue point P0."""
    n = N + 1
    return {
        "label": label,
        "field": field_obj(p, m),
        "map": {"p": p, "e": e, "A": identity_text(n),
                "G": rand_g(shape, vals, p, n, p ** (e - 1), prec, terms_per_coord)},
        "points": {"P0": {"residue": rand_residue(vals, p, m, N)}},
        "parameters": {"prec": prec},
    }


def gf_mul(u: Sequence[int], v: Sequence[int], p: int, m: int) -> tuple:
    """Product in F_p[a]/(MODULI[(p, m)]), digits little-endian."""
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] += x * y
    mod = MODULI[(p, m)]
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            for i in range(m + 1):
                prod[k - m + i] -= c * mod[i]
    return tuple(x % p for x in prod[:m])


def gf_inverse(M: List[List[tuple]], p: int, m: int):
    """Inverse over F_(p^m) by Gauss-Jordan, or None when M is singular;
    element inverses by search, which is fine for the small fields here."""
    n = len(M)
    zero, one = (0,) * m, (1,) + (0,) * (m - 1)
    elems = list(itertools.product(range(p), repeat=m))

    def axpy(f, x, y):   # y - f*x, entrywise
        return [tuple((b - a) % p for a, b in zip(gf_mul(f, xi, p, m), yi))
                for xi, yi in zip(x, y)]
    a = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != zero), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = next(x for x in elems if gf_mul(x, a[c][c], p, m) == one)
        a[c] = [gf_mul(inv, x, p, m) for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != zero:
                a[r] = axpy(a[r][c], a[c], a[r])
    return [row[n:] for row in a]


def gf_matmul(X, Y, p: int, m: int) -> List[List[tuple]]:
    out = []
    for row in X:
        out.append([])
        for col in zip(*Y):
            acc = [0] * m
            for x, y in zip(row, col):
                acc = [a + b for a, b in zip(acc, gf_mul(x, y, p, m))]
            out[-1].append(tuple(a % p for a in acc))
    return out


def rand_gl(vals: random.Random, p: int, m: int, n: int) -> List[List[tuple]]:
    """Random invertible n x n matrix over F_(p^m), entries as digit tuples."""
    while True:
        M = [[tuple(vals.randrange(p) for _ in range(m)) for _ in range(n)]
             for _ in range(n)]
        if gf_inverse(M, p, m) is not None:
            return M


def rand_conjugate(shape: random.Random, vals: random.Random, p: int, m: int,
                   n: int) -> List[List[tuple]]:
    """S C S^-1 with C the companion matrix of a monic polynomial drawn from
    ``shape`` and S random from ``vals``.  Conjugation keeps the order of C,
    which fixes the extension degree r a twist solve searches up to, and so
    its cost, while the entries still come from the seed."""
    coeffs = [tuple(shape.randrange(p) for _ in range(m)) for _ in range(n)]
    while not any(coeffs[0]):
        coeffs[0] = tuple(shape.randrange(p) for _ in range(m))
    zero, one = (0,) * m, (1,) + (0,) * (m - 1)
    C = [[one if i == j + 1 else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        C[i][n - 1] = tuple((-c) % p for c in coeffs[i])
    S = rand_gl(vals, p, m, n)
    return gf_matmul(gf_matmul(S, C, p, m), gf_inverse(S, p, m), p, m)


def rand_unit_matrix(shape: random.Random, vals: random.Random, p: int,
                     n: int) -> List[List[int]]:
    """Invertible matrix over F_p: zero pattern from ``shape``, nonzero
    values from ``vals``."""
    while True:
        pattern = [[shape.random() < 0.75 for _ in range(n)] for _ in range(n)]
        for _ in range(20):
            M = [[vals.randrange(1, p) if nz else 0 for nz in row] for row in pattern]
            if gf_inverse([[(x,) for x in row] for row in M], p, 1) is not None:
                return M


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def parse_file(path: Path):
    """Set-up parsing, the same call the set-up probe makes per file."""
    if path.name.startswith("twist-"):
        return instances.parse_twist_file(str(path))
    return instances.parse_instance(str(path))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Generates its input files into ``workdir`` at construction."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.files: List[Path] = []
        self.generate()

    def shape(self, key) -> random.Random:
        """Structure source for input ``key``: independent of the seed."""
        return random.Random(f"{self.name}:shape:{key}")

    def add_file(self, fname: str, doc: dict) -> None:
        path = self.workdir / fname
        write_json(path, doc)
        self.files.append(path)

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Parse every input file (what set-up time measures), then build
        any untimed per-op state."""
        self.parsed = {p.name: parse_file(p) for p in self.files}

    def round(self, r: int) -> List[Op]:
        """Round r of the op sequence.  Every round holds the same op shapes,
        so runs that complete different numbers of rounds measure the same
        mix."""
        raise NotImplementedError


def interleave(n: int, stride: int) -> List[int]:
    """A fixed visiting order of range(n) that spreads neighbours apart
    (stride coprime to n)."""
    return sorted(range(n), key=lambda i: (i * stride) % n)


class LiftWorkload(Workload):
    """sigma_fixed_lift of A = I maps, then a 2m-step walk of the lift."""

    name = "lift"
    # 20 precisions spaced evenly in log scale over 40..256: a smooth spread of
    # op costs keeps the latency percentiles off the cliffs a few discrete
    # sizes would put them on.
    PRECS = tuple(round(40 * 6.4 ** (k / 19)) for k in range(20))
    GRID = [(p, m, e, N) for p in (2, 3, 5) for m in (1, 2, 3)
            for e in (1, 2) for N in (1, 2, 3)]
    COEFF_PREC = 256
    # The p = 257 probe: a valid instance whose G holds the digit 256 (= -1),
    # which TruncSeries._encode cannot pack into one byte at this commit.
    PROBES = 2

    def generate(self) -> None:
        for c, (p, m, e, N) in enumerate(self.GRID):
            self.add_file(f"lift-{c:02d}.json", structured_doc(
                self.shape(c), self.rng, f"lift{c:02d}", p, m, e, N, self.COEFF_PREC, 1))
        for k in range(self.PROBES):
            doc = structured_doc(self.shape(f"p257-{k}"), self.rng, f"p257-{k}",
                                 257, 1, 1, k + 1, 64, 1)
            doc["map"]["G"][-1].append(
                {"exponents": [1] + [0] * (k + 1), "coeff": "256*t + O(t^64)"})
            self.add_file(f"probe257-{k}.json", doc)

    def lift_op(self, inst, prec: int) -> Op:
        f, P0 = inst.map, inst.points["P0"]

        def run():
            L = lifting.sigma_fixed_lift(f, P0, prec)
            walk = [L.lift]
            for _ in range(2 * f.field.m):
                walk.append(dynamics.apply_map(f, walk[-1]))
            return L, walk

        def check(res):
            L, walk = res
            expect(L.lift.prec == prec, f"lift precision {L.lift.prec} != {prec}")
            expect(tuple(geometry.reduce_point(L.lift)) == tuple(P0),
                   "lift does not reduce to P0")
            for n, Q in enumerate(walk):
                expect(geometry.proj_eq(Q, lifting.point_galois(L.lift, f.e, times=n)),
                       f"f^{n}(P~) != sigma^{n}(P~)")
        return Op(f"lift.p{f.p}.prec{prec}", run, check)

    def round(self, r: int) -> List[Op]:
        return [self.lift_op(self.parsed[f"lift-{c:02d}.json"],
                             self.PRECS[(7 * c) % len(self.PRECS)])
                for c in interleave(len(self.GRID), 17)]

    def probe_ops(self) -> List[Op]:
        return [self.lift_op(self.parsed[f"probe257-{k}.json"], 40)
                for k in range(self.PROBES)]


class ReturnsWorkload(Workload):
    """return_set of a sigma-fixed lift against the point variety of one of
    its Galois conjugates, then ap_decompose."""

    name = "returns"
    PREC = 32
    HORIZONS = tuple(range(12, 37, 2))
    GRID = [(p, m, e, N) for p in (2, 3, 5) for m in (2, 3)
            for e in (1, 2) for N in (1, 2)]
    M_MAX = 12

    def generate(self) -> None:
        for c, (p, m, e, N) in enumerate(self.GRID):
            self.add_file(f"ret-{c:02d}.json", structured_doc(
                self.shape(c), self.rng, f"ret{c:02d}", p, m, e, N, self.PREC, 2))
        self.conjugate = [self.rng.randrange(6) for _ in self.GRID]

    def setup(self) -> None:
        super().setup()
        self.queries = []
        for c in range(len(self.GRID)):
            inst = self.parsed[f"ret-{c:02d}.json"]
            f = inst.map
            P = lifting.sigma_fixed_lift(f, inst.points["P0"], self.PREC).lift
            d = next(d for d in range(1, 7)
                     if geometry.proj_eq(lifting.point_galois(P, f.e, times=d), P))
            j = self.conjugate[c] % d
            target = lifting.point_galois(P, f.e, times=j) if j else P
            self.queries.append((f, P, geometry.point_variety(target), d, j))

    def round(self, r: int) -> List[Op]:
        return [self.return_op(c, self.HORIZONS[(5 * c) % len(self.HORIZONS)])
                for c in interleave(len(self.GRID), 7)]

    def return_op(self, c: int, H: int) -> Op:
        f, P, V, d, j = self.queries[c]
        tau = returns.default_threshold(self.PREC)

        def run():
            rs = returns.return_set(f, P, V, H, tau)
            return rs, returns.ap_decompose(rs, self.M_MAX)

        def check(res):
            rs, dec = res
            want = tuple(n for n in range(H + 1) if n % d == j)
            expect(rs.hits == want, f"hits {rs.hits} != {want}")
            expect(dec.status == returns.EXACT, f"status {dec.status}")
            expect(dec.expand() == set(rs.hits), "decomposition fails re-expansion")
            expect((dec.n0, dec.sporadic, dec.progressions) == (0, (), ((j, d),)),
                   f"decomposition {dec} != {j} mod {d}")
        return Op(f"returns.H{H}", run, check)


class SymbolicWorkload(Workload):
    """Validation, twist solving, conjugation and symbolic iteration on
    short, low-precision series."""

    name = "symbolic"
    PREC = 8
    # Two N = 5 inputs per copy put more than a tenth of each round among the
    # costly validations, so p90 falls inside that class, not on its edge.
    VALIDATE_N = (2, 3, 4, 5, 5, 6)
    # q^(N+1) - 1 <= 64 bounds every element order, so R_max = 64 always suffices
    TWIST_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
    NORMALIZE_SHAPES = [(p, N) for p in (2, 3) for N in (1, 2)]
    ITERATE_SHAPES = [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 2), (2, 1, 3)]   # (p, N, k)
    COPIES = 3

    def generate(self) -> None:
        vals, prec = self.rng, self.PREC
        for c in range(self.COPIES):
            for v, N in enumerate(self.VALIDATE_N):
                shape, p, n = self.shape(f"val-{v}-{c}"), (2, 3, 5)[(v + c) % 3], N + 1
                A0 = rand_unit_matrix(shape, vals, p, n)
                A = [[series_text({0: x, 1: vals.randrange(1, p),
                                   shape.randrange(2, prec): vals.randrange(1, p)}, prec)
                      for x in row] for row in A0]
                self.add_file(f"val-{v}-{c}.json", {
                    "label": f"val{N}", "field": field_obj(p, 1),
                    "map": {"p": p, "e": 1, "A": A,
                            "G": rand_g(shape, vals, p, n, 1, prec, 2)},
                    "parameters": {"prec": prec}})
            for k, (q, N) in enumerate(self.TWIST_SHAPES):
                p, m = (2, 2) if q == 4 else (q, 1)
                A = rand_conjugate(self.shape(f"twist-{k}-{c}"), vals, p, m, N + 1)
                self.add_file(f"twist-{k}-{c}.json", {
                    "q": q, "field": field_obj(p, m),
                    "A": [[elem_text(x) for x in row] for row in A]})
            for k, (p, N) in enumerate(self.NORMALIZE_SHAPES):
                shape, n = self.shape(f"norm-{k}-{c}"), N + 1
                A0 = [[x[0] for x in row] for row in rand_conjugate(shape, vals, p, 1, n)]
                self.add_file(f"norm-{k}-{c}.json", {
                    "label": f"norm{k}", "field": field_obj(p, 1),
                    "map": {"p": p, "e": 1, "A": [[str(x) for x in row] for row in A0],
                            "G": rand_g(shape, vals, p, n, 1, prec, 2)},
                    "parameters": {"prec": prec}})
            for k, (p, N, _) in enumerate(self.ITERATE_SHAPES):
                shape, n = self.shape(f"gen-{k}-{c}"), N + 1
                A0 = rand_unit_matrix(shape, vals, p, n)
                coords = []
                for row in A0:
                    terms = [{"exponents": [p if k2 == j else 0 for k2 in range(n)],
                              "coeff": series_text({0: x}, prec)}
                             for j, x in enumerate(row) if x]
                    for _ in range(2):
                        y = rand_exponents(shape, n, 1)
                        terms.append({"exponents": [p * x for x in y], "coeff": series_text(
                            rand_ideal_series(shape, vals, p, prec), prec)})
                    coords.append({"degree": p, "terms": terms})
                point = [series_text({j: vals.randrange(p) for j in range(prec)}, prec)
                         for _ in range(n)]
                point[0] = series_text({0: 1}, prec)
                self.add_file(f"gen-{k}-{c}.json", {
                    "label": f"gen{k}", "field": field_obj(p, 1),
                    "map": {"coordinates": coords},
                    "points": {"P": {"coords": point}},
                    "parameters": {"prec": prec}})

    def validate_op(self, inst) -> Op:
        f = inst.map

        def run():
            return dynamics.validate_map(f.field, f.p, f.e, f.A, f.G, f.label)

        def check(res):
            expect(isinstance(res, dynamics.DmlMap), f"validation failed: {res}")
            expect(res.N == f.N and res.e0 == 1, "validated map differs")
        return Op(f"validate.N{f.N}", run, check)

    def twist_op(self, parsed) -> Op:
        field, A, q = parsed

        def run():
            return twist.solve_twist(A, q, 64)

        def check(sol):
            ext, B, n = sol.ext, sol.B_raw, len(A)
            for r in range(n):
                for c in range(n):
                    rhs = ext.zero
                    for k in range(n):
                        rhs = ext.add(rhs, ext.scalar(A[r][k].index(), B[k][c]))
                    expect(ext.pow(B[r][c], q) == rhs, f"B^(q) != A B at ({r}, {c})")
            expect(not ext.is_zero(ext_det(ext, B)), "det B = 0")
        return Op(f"twist.q{q}.N{len(A) - 1}", run, check)

    def normalize_op(self, inst) -> Op:
        f = inst.map

        def run():
            return twist.normalize_conjugate(f, 64)

        def check(res):
            sol, rec = res
            expect(isinstance(rec, dynamics.DmlMap) and rec.q == f.q, "conjugate not recognized")
            for i, row in enumerate(rec.A):
                for j, s in enumerate(row):
                    want = ("1 + " if i == j else "") + f"O(t^{s.prec})"
                    got = series.format_series(s)
                    expect(got == want, f"conjugated A[{i}][{j}] = {got}")
        return Op(f"normalize.N{f.N}", run, check)

    def iterate_op(self, inst, k: int) -> Op:
        f = inst.map
        p = f.field.p
        P = inst.points["P"]

        def run():
            F = dynamics.iterate_map(f, k)
            return F, dynamics.recognize_dml_form(F, p, k)

        def check(res):
            F, rec = res
            expect(isinstance(rec, dynamics.DmlMap), f"f^{k} not recognized: {rec}")
            expect(rec.q == p ** k, f"recognized q = {rec.q} != {p ** k}")
            Q = P
            for _ in range(k):
                Q = dynamics.apply_map(f, Q)
            expect(geometry.proj_eq(dynamics.apply_map(F, P), Q),
                   f"f^{k}(P) differs from {k} applications of f")
        return Op(f"iterate.p{p}.N{f.N}.k{k}", run, check)

    def round(self, r: int) -> List[Op]:
        ops = []
        for c in range(self.COPIES):
            ops += [self.validate_op(self.parsed[f"val-{v}-{c}.json"])
                    for v in range(len(self.VALIDATE_N))]
            ops += [self.twist_op(self.parsed[f"twist-{k}-{c}.json"])
                    for k in range(len(self.TWIST_SHAPES))]
            ops += [self.normalize_op(self.parsed[f"norm-{k}-{c}.json"])
                    for k in range(len(self.NORMALIZE_SHAPES))]
            ops += [self.iterate_op(self.parsed[f"gen-{k}-{c}.json"], shape[2])
                    for k, shape in enumerate(self.ITERATE_SHAPES)]
        return [ops[i] for i in interleave(len(ops), 11)]


def ext_det(ext, M) -> tuple:
    """Cofactor determinant in the solver's extension field."""
    if len(M) == 1:
        return M[0][0]
    out = ext.zero
    for j in range(len(M)):
        minor = [[row[k] for k in range(len(M)) if k != j] for row in M[1:]]
        term = ext.mul(M[0][j], ext_det(ext, minor))
        out = ext.add(out, term) if j % 2 == 0 else ext.sub(out, term)
    return out


# ---------------------------------------------------------------------------
# cli: the 13 commands of acceptance criterion 10, one fresh process each
# ---------------------------------------------------------------------------

FIX = "src/frobdml/fixtures"
CLI_COMMANDS = [
    ("validate-f1", ["validate", f"{FIX}/f1.json"]),
    ("validate-f3-json", ["validate", f"{FIX}/f3.json", "--format", "json"]),
    ("check-conditions-f3", ["check-conditions", f"{FIX}/f3.json"]),
    ("orbit-f1-csv", ["orbit", f"{FIX}/f1.json", "--point", "P", "--horizon", "6",
                      "--format", "csv"]),
    ("lift-f4-json", ["lift", f"{FIX}/f4.json", "--point0", "P0", "--prec", "40",
                      "--format", "json"]),
    ("twist-swap", ["twist", f"{FIX}/twist_swap.json"]),
    ("twist-swap-json", ["twist", f"{FIX}/twist_swap.json", "--format", "json"]),
    ("normalize-f1-json", ["normalize", f"{FIX}/f1.json", "--format", "json"]),
    ("returns-f4-csv", ["returns", f"{FIX}/f4.json", "--point", "Ptilde", "--variety",
                        "orbitpt", "--horizon", "40", "--format", "csv"]),
    ("returns-f1-json", ["returns", f"{FIX}/f1.json", "--point", "P", "--variety", "axis",
                         "--format", "json"]),
    ("compose-f3", ["compose", f"{FIX}/f3.json", "--times", "2", "--recognize", "4"]),
    ("witness-f4", ["witness", f"{FIX}/f4.json", "--point0", "P0", "--index", "2",
                    "--prec", "40"]),
    ("period-f4", ["period", f"{FIX}/f4.json", "--point0", "P0", "--prec", "40"]),
]
EXPECTED_DIR = BENCH_DIR / "expected" / "cli"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class CliWorkload(Workload):
    """Each op runs one command in a fresh interpreter; rounds visit all 13
    commands in a seeded order."""

    name = "cli"
    TIMEOUT_S = 60

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.root = root
        super().__init__(seed, workdir)

    def generate(self) -> None:
        self.expected = {name: (EXPECTED_DIR / f"{name}.out").read_bytes()
                         for name, _ in CLI_COMMANDS}

    def setup(self) -> None:
        self.env = child_env(self.root)
        self.traced = False
        self.trace_summaries: List[dict] = []

    def run_command(self, args: List[str]) -> subprocess.CompletedProcess:
        if not self.traced:
            return subprocess.run([sys.executable, "-m", "frobdml.cli"] + args,
                                  cwd=self.root, env=self.env, capture_output=True,
                                  timeout=self.TIMEOUT_S)
        env = dict(self.env, BENCH_SPAWN_T=repr(perf_counter()))
        res = subprocess.run([sys.executable, str(BENCH_DIR / "cli_shim.py")] + args,
                             cwd=self.root, env=env, capture_output=True,
                             timeout=self.TIMEOUT_S)
        err = res.stderr.decode(errors="replace").splitlines()
        if err and err[-1].startswith("BENCH_TRACE "):
            self.trace_summaries.append(json.loads(err[-1][len("BENCH_TRACE "):]))
        return res

    def round(self, r: int) -> List[Op]:
        """All 13 commands, in an order drawn from the seed and the round."""
        ops = []
        for name, args in random.Random(f"cli-order:{self.seed}:{r}").sample(
                CLI_COMMANDS, len(CLI_COMMANDS)):
            def check(res, name=name):
                expect(res.returncode == 0,
                       f"exit {res.returncode}: {res.stderr.decode(errors='replace')[-300:]}")
                expect(res.stdout == self.expected[name], "stdout differs from expected")
            ops.append(Op(f"cli.{name}", lambda args=args: self.run_command(args), check))
        return ops
