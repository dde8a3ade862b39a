"""Acceptance suite: ten end-to-end checks of the shipped behavior.

Every check uses a fixed seed and exact (bit-level) equality; where a runtime
bound is part of the contract it is asserted.  The underlying qualitative
statement (return sets are finite unions of progressions over the full
algebraic closure) is not checkable at finite precision or horizon, so these
are its precision- and horizon-qualified shadows; the CLI output carries the
same disclaimer.

Run with -v to get one PASSED/FAILED line per criterion; each test also
prints "CRITERION nn: PASS" into its captured output.
"""
import math
import os
import random
import subprocess
import sys
import time

from frobdml.dynamics import (DmlMap, apply_map, compose_maps, preimage_qp,
                              check_conditions, recognize_dml_form,
                              validate_map)
from frobdml.geometry import HomogPoly, ProjPoint, proj_eq
from frobdml.instances import fixture_path, parse_instance, parse_twist_file
from frobdml.lifting import minimal_period, point_galois, sigma_fixed_lift
from frobdml.returns import (EXACT, ReturnSet, ap_decompose, decompose_oracle,
                             return_set)
from frobdml.series import TruncSeries, parse_series
from frobdml.twist import (count_solutions_exhaustive, normalize_conjugate,
                           solve_twist)

from conftest import (ext_det, field_for, identity_matrix, rand_exponents,
                      rand_gl, rand_point, rand_prime_series, rand_residue_point,
                      rand_suite_map)

F1_PATH = fixture_path("f1.json")
F3_PATH = fixture_path("f3.json")
F4_PATH = fixture_path("f4.json")
TWIST_PATH = fixture_path("twist_swap.json")

# suite 2 artifacts, built once and reused by criteria 3 and 5
_SUITE = {}


def suite_items():
    if "items" not in _SUITE:
        rng = random.Random(40202)
        items = []
        for _ in range(100):
            f = rand_suite_map(rng)
            P0 = rand_residue_point(rng, f)
            items.append((f, P0, sigma_fixed_lift(f, P0, 40)))
        _SUITE["items"] = items
    return _SUITE["items"]


def same_poly(g: HomogPoly, h: HomogPoly) -> bool:
    if g.N != h.N or g.degree != h.degree or set(g.terms) != set(h.terms):
        return False
    for key, c in g.terms.items():
        d = h.terms[key]
        if c.prec != d.prec or list(c.coeffs) != list(d.coeffs):
            return False
    return True


def test_criterion_01_closed_form_lift():
    t0 = time.perf_counter()
    inst = parse_instance(F1_PATH)
    f = inst.map
    L = sigma_fixed_lift(f, inst.points["P0"], 65)
    elapsed = time.perf_counter() - t0
    field = inst.field
    want = [field.zero()] * 65
    k = 1
    while k < 65:
        want[k] = field.one()
        k *= 2
    x0, x1 = L.lift.coords
    assert x0.prec == 65 and x1.prec == 65
    assert list(x0.coeffs) == [field.one()] + [field.zero()] * 64
    assert list(x1.coeffs) == want
    assert proj_eq(apply_map(f, L.lift), point_galois(L.lift, f.e))
    assert elapsed < 1.0, f"lift took {elapsed:.3f}s"
    print("CRITERION 01: PASS")


def test_criterion_02_lift_suite_fixed_by_sigma():
    t0 = time.perf_counter()
    for i, (f, P0, L) in enumerate(suite_items()):
        assert proj_eq(apply_map(f, L.lift), point_galois(L.lift, f.e)), i
        Q = L.lift
        for n in range(1, 2 * f.field.m + 1):
            Q = apply_map(f, Q)
            assert proj_eq(Q, point_galois(L.lift, f.e, times=n)), (i, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    print("CRITERION 02: PASS")


def test_criterion_03_period_divides_residue_degree():
    for i, (f, P0, L) in enumerate(suite_items()):
        assert L.residue_degree % minimal_period(f, L) == 0, i
    inst = parse_instance(F4_PATH)
    L = sigma_fixed_lift(inst.map, inst.points["P0"], 40)
    assert minimal_period(inst.map, L) == 2
    print("CRITERION 03: PASS")


def test_criterion_04_twist_solver():
    fields = {2: field_for(2, 1), 3: field_for(3, 1), 4: field_for(2, 2)}
    rng = random.Random(5)
    for i in range(100):
        q = rng.choice((2, 3, 4))
        N = rng.randint(1, 3)
        A = rand_gl(rng, fields[q], N + 1)
        sol = solve_twist(A, q, 64)
        ext = sol.ext
        n = N + 1
        # entrywise B^(q) = A B, recomputed independently of the solver
        for r in range(n):
            for c in range(n):
                lhs = ext.pow(sol.B_raw[r][c], q)
                rhs = ext.zero
                for k in range(n):
                    rhs = ext.add(rhs,
                                  ext.scalar(A[r][k].index(), sol.B_raw[k][c]))
                assert lhs == rhs, (i, r, c)
        assert not ext.is_zero(ext_det(ext, sol.B_raw)), i

    field, A, q = parse_twist_file(TWIST_PATH)
    sol = solve_twist(A, q, 64)
    assert sol.r == 2
    assert count_solutions_exhaustive(A, q, sol) == 4 == q ** len(A)

    # conjugating a map with that matrix part yields matrix part exactly I
    prec = 16
    one = TruncSeries.one(field, prec)
    zero = TruncSeries.zeros(field, prec)
    t = parse_series(field, "t", default_prec=prec)
    G = [HomogPoly(field, 1, 1, {}),
         HomogPoly(field, 1, 1, {(1, 0): t})]
    f = validate_map(field, 2, 1, [[zero, one], [one, zero]], G, label="swap")
    assert isinstance(f, DmlMap)
    sol2, rec = normalize_conjugate(f, 64)
    assert sol2.r == 2 and isinstance(rec, DmlMap)
    tone = rec.field.one()
    for i in range(2):
        for j in range(2):
            sv = rec.A[i][j]
            if i == j:
                assert sv.constant_term() == tone
                assert all(c.is_zero() for c in sv.coeffs[1:])
            else:
                assert sv.is_zero_at_precision()
    print("CRITERION 04: PASS")


def test_criterion_05_structural_conditions():
    for i, (f, P0, L) in enumerate(suite_items()):
        rep = check_conditions(f)
        assert rep.zero_differential is True, i
        assert rep.special_fiber_is_frobenius is True, i
        assert rep.frobenius_power == f.q, i
    print("CRITERION 05: PASS")


def test_criterion_06_composition_golden():
    inst = parse_instance(F3_PATH)
    f = inst.map
    ff = compose_maps(f, f)
    field = inst.field
    one = parse_series(field, "1", default_prec=8)
    tt = parse_series(field, "t + t^2", default_prec=8)
    want = [HomogPoly(field, 2, 4, {(4, 0, 0): one}),
            HomogPoly(field, 2, 4, {(0, 4, 0): one}),
            HomogPoly(field, 2, 4, {(0, 0, 4): one, (2, 2, 0): tt})]
    assert len(ff.coords) == 3
    for got, expect in zip(ff.coords, want):
        assert same_poly(got, expect)
    rec = recognize_dml_form(ff, 2, 2)
    assert isinstance(rec, DmlMap) and rec.q == 4
    for i in range(3):
        for j in range(3):
            sv = rec.A[i][j]
            if i == j:
                assert sv.constant_term() == field.one()
                assert all(c.is_zero() for c in sv.coeffs[1:])
            else:
                assert sv.is_zero_at_precision()
    assert rec.G[0].is_zero() and rec.G[1].is_zero()
    assert same_poly(rec.G[2], HomogPoly(field, 2, 2, {(1, 1, 0): tt}))
    print("CRITERION 06: PASS")


def test_criterion_07_return_set_structure():
    t0 = time.perf_counter()
    inst = parse_instance(F4_PATH)
    rs = return_set(inst.map, inst.points["Ptilde"],
                    inst.varieties["orbitpt"], 200, 30)
    assert rs.hits == tuple(range(1, 201, 2))
    dec = ap_decompose(rs, inst.parameters.M_max)
    assert dec.status == EXACT
    assert dec.progressions == ((1, 2),) and dec.sporadic == () and dec.n0 == 0

    rng = random.Random(271828)
    for i in range(1000):
        m = rng.randint(1, 12)
        pre = rng.randint(0, 20)
        pattern = {r for r in range(m) if rng.random() < 0.5}
        hits = {n for n in range(pre) if rng.random() < 0.3}
        hits |= {n for n in range(pre, 301) if n % m in pattern}
        ordered = tuple(sorted(hits))
        d = ap_decompose(ReturnSet(horizon=300, threshold=1, hits=ordered,
                                   valuations=()), 12)
        o = decompose_oracle(ordered, 300, 12)
        assert (d.status, d.n0, d.sporadic, d.progressions) == \
               (o.status, o.n0, o.sporadic, o.progressions), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 7 took {elapsed:.1f}s"
    print("CRITERION 07: PASS")


def rand_qp_map(rng: random.Random, prec: int = 40) -> DmlMap:
    """Like the suite generator but with e = 1, so q equals p."""
    p = rng.choice((2, 3, 5))
    N = rng.randint(1, 3)
    m = rng.randint(1, 3)
    field = field_for(p, m)
    n = N + 1
    G = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[rand_exponents(rng, n, 1)] = rand_prime_series(rng, field, prec)
        G.append(HomogPoly(field, N, 1, terms))
    f = validate_map(field, p, 1, identity_matrix(field, n, prec), G,
                     label="qp")
    assert isinstance(f, DmlMap)
    return f


def test_criterion_08_preimage_round_trip():
    rng = random.Random(88)
    for i in range(100):
        f = rand_qp_map(rng)
        field, p = f.field, f.p
        R = rand_point(rng, field, f.N, 40)
        P = apply_map(f, R)
        Q = preimage_qp(f, P)
        assert Q.prec == math.ceil(40 / p), i
        # tail digits beyond Q.prec cannot reach t^40 after the p-power,
        # so a zero-padded representative recovers P at full precision
        Qpad = ProjPoint(field, [TruncSeries(field, 40, list(c.coeffs))
                                 for c in Q.coords])
        back = apply_map(f, Qpad)
        assert back.prec == 40 and proj_eq(back, P), i
    print("CRITERION 08: PASS")


def test_criterion_09_precision_and_equivariance():
    rng = random.Random(99)
    maps = [rand_suite_map(rng) for _ in range(20)]
    for i in range(1000):
        f = maps[i % len(maps)]
        prec = rng.randint(5, 40)
        P = rand_point(rng, f.field, f.N, prec)
        assert apply_map(f, P).prec == prec, i
    for i in range(100):
        f = maps[i % len(maps)]
        P = rand_point(rng, f.field, f.N, 40)
        lhs = apply_map(f, point_galois(P, f.e))
        rhs = point_galois(apply_map(f, P), f.e)
        assert proj_eq(lhs, rhs), i
    print("CRITERION 09: PASS")


# name -> argv; bench/expected/cli/<name>.out holds the expected stdout
CLI_COMMANDS = {
    "validate-f1": ["validate", F1_PATH],
    "validate-f3-json": ["validate", F3_PATH, "--format", "json"],
    "check-conditions-f3": ["check-conditions", F3_PATH],
    "orbit-f1-csv": ["orbit", F1_PATH, "--point", "P", "--horizon", "6",
                     "--format", "csv"],
    "lift-f4-json": ["lift", F4_PATH, "--point0", "P0", "--prec", "40",
                     "--format", "json"],
    "twist-swap": ["twist", TWIST_PATH],
    "twist-swap-json": ["twist", TWIST_PATH, "--format", "json"],
    "normalize-f1-json": ["normalize", F1_PATH, "--format", "json"],
    "returns-f4-csv": ["returns", F4_PATH, "--point", "Ptilde", "--variety",
                       "orbitpt", "--horizon", "40", "--format", "csv"],
    "returns-f1-json": ["returns", F1_PATH, "--point", "P", "--variety", "axis",
                        "--format", "json"],
    "compose-f3": ["compose", F3_PATH, "--times", "2", "--recognize", "4"],
    "witness-f4": ["witness", F4_PATH, "--point0", "P0", "--index", "2",
                   "--prec", "40"],
    "period-f4": ["period", F4_PATH, "--point0", "P0", "--prec", "40"],
}
EXPECTED_CLI = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "bench", "expected", "cli")


def run_cli(args, env_extra):
    env = os.environ.copy()
    env.update(env_extra)
    r = subprocess.run([sys.executable, "-m", "frobdml.cli"] + args,
                       capture_output=True, env=env)
    assert r.returncode == 0, (args, r.stderr.decode())
    return r.stdout


def test_criterion_10_cli_determinism():
    env_a = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}
    env_b = {"PYTHONHASHSEED": "42", "OMP_NUM_THREADS": "8"}
    for name, args in CLI_COMMANDS.items():
        first = run_cli(args, env_a)
        assert first, args
        assert run_cli(args, env_a) == first, args
        assert run_cli(args, env_b) == first, args
        with open(os.path.join(EXPECTED_CLI, f"{name}.out"), "rb") as fh:
            assert first == fh.read(), name
    print("CRITERION 10: PASS")
