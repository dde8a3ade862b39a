import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frobdml import dynamics, poly
from frobdml.dynamics import DmlMap, recognize_dml_form, validate_map
from frobdml.errors import (DegreeMismatch, FrobdmlError, NonConstantMatrix,
                            NonFlattenableExtension, NotInvertible,
                            SearchExhausted)
from frobdml.field import FqElem, _Shape, _fit, _unpack, format_element, make_field
from frobdml.geometry import HomogPoly
from frobdml.instances import fixture_path, parse_twist_file
from frobdml.series import TruncSeries, format_series, parse_series
from frobdml import twist
from frobdml.twist import (count_solutions_exhaustive, normalize_conjugate,
                           solve_twist)

from conftest import ext_det, field_for, fq_det, rand_dml, rand_gl, width_changes

F2 = field_for(2, 1)
F3 = field_for(3, 1)
F4 = field_for(2, 2)
F8 = field_for(2, 3)
F9 = field_for(3, 2)
F16 = make_field(2, 4, [1, 1, 0, 0, 1])


def elems(F, rows):
    return [[F.from_int(x) for x in row] for row in rows]


def entry_strs(sol, rows):
    if sol.field is not None:
        return [[format_element(x) for x in row] for row in rows]
    return [[x for x in row] for row in rows]


def test_swap_golden():
    sol = solve_twist(elems(F2, [[0, 1], [1, 0]]), 2)
    assert sol.r == 2
    assert sol.field is not None and sol.field.order == 4
    basis = entry_strs(sol, sol.basis)
    assert basis == [["1", "1"], ["a", "1+a"]]
    B = entry_strs(sol, sol.B)
    assert B == [["1", "a"], ["1", "1+a"]]
    assert all(sol.entry_str(x) == "0" for row in sol.residue() for x in row)


def test_swap_exhaustive_count():
    A = elems(F2, [[0, 1], [1, 0]])
    sol = solve_twist(A, 2)
    # q^(N+1) solutions of the inhomogeneous-free system over F_(q^r)
    assert count_solutions_exhaustive(A, 2, sol) == 4


def test_identity_matrix_r1():
    sol = solve_twist(elems(F3, [[1, 0], [0, 1]]), 3)
    assert sol.r == 1
    B = entry_strs(sol, sol.B)
    assert B == [["1", "0"], ["0", "1"]]


def test_entrywise_verification_when_flattened():
    rng = random.Random(606)
    for F, q in ((F2, 2), (F3, 3)):
        for _ in range(10):
            n = rng.randint(2, 4)
            A = rand_gl(rng, F, n)
            sol = solve_twist(A, q)
            assert sol.field is not None  # prime base always flattens
            B = sol.B
            tgt = sol.field
            emb = [[tgt.from_int(x.index()) for x in row] for row in A]
            for i in range(n):
                for j in range(n):
                    lhs = B[i][j] ** q
                    rhs = sum((emb[i][k] * B[k][j] for k in range(n)),
                              tgt.zero())
                    assert lhs == rhs
            assert not fq_det(B).is_zero()


def test_unipotent_closed_form_spans():
    # the characteristic divides r = 2 here, yet the closed-form candidates
    # still span: with A = C^(q) C^-1 they are C * Tr(C^-1 v), and the trace
    # of F_(q^r)/F_q is onto
    sol = solve_twist(elems(F2, [[1, 1], [0, 1]]), 2)
    assert sol.r == 2
    assert all(sol.entry_str(x) == "0" for row in sol.residue() for x in row)
    assert not fq_det(sol.B).is_zero()


def test_base_f4_q2_diagonal_flattens_to_base():
    # |base| = q^2, so r scans multiples of 2; r = 2 lands in the base itself
    a = F4.gen()
    A = [[a, F4.zero()], [F4.zero(), F4.one()]]
    sol = solve_twist(A, 2)
    assert sol.r == 2 and sol.field == F4
    B = sol.B
    assert (B[0][0] ** 2, B[1][1] ** 2) == (a * B[0][0], B[1][1])


def test_base_f4_q2_offdiagonal_tower():
    a = F4.gen()
    A = [[F4.zero(), F4.one()], [a, F4.zero()]]
    sol = solve_twist(A, 2)
    assert sol.r == 6
    assert sol.field is None  # degree-3 tower over F_4 does not flatten
    assert all(sol.entry_str(x) == "0" for row in sol.residue() for x in row)
    assert not sol.ext.is_zero(ext_det(sol.ext, sol.B_raw))
    assert count_solutions_exhaustive(A, 2, sol) == 4


def test_zero_residue_check_survives_python_O():
    """B's invertibility rests on the zero-residue check (module docstring),
    so it must not be an assert that ``python -O`` strips."""
    code = ("from frobdml import twist\n"
            "from frobdml.field import make_field\n"
            "assert False, 'asserts are on'\n"
            "F = make_field(2, 1, [0, 1])\n"
            "twist._residue = lambda ext, A, B, q: [[ext.one]]\n"
            "twist.solve_twist([[F.zero(), F.one()], [F.one(), F.zero()]], 2)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1] == "AssertionError: echelon basis fails B^(q) = A B"


def test_search_bound_respected():
    with pytest.raises(SearchExhausted):
        solve_twist(elems(F2, [[0, 1], [1, 0]]), 2, R_max=1)


def test_solution_count_is_q_to_matrix_size():
    rng = random.Random(607)
    for _ in range(5):
        A = rand_gl(rng, F2, 2)
        sol = solve_twist(A, 2)
        if sol.ext.d * 4 <= 12:  # keep enumeration tiny
            assert count_solutions_exhaustive(A, 2, sol) == 4


def swap_map(prec=8):
    one = TruncSeries.one(F2, prec)
    zero = TruncSeries.zeros(F2, prec)
    A = [[zero, one], [one, zero]]
    G = [HomogPoly(F2, 1, 1, {}), HomogPoly(F2, 1, 1, {})]
    f = validate_map(F2, 2, 1, A, G, label="swap")
    assert isinstance(f, DmlMap)
    return f


def test_normalize_conjugate_swap():
    sol, fprime = normalize_conjugate(swap_map())
    assert sol.r == 2
    assert all(format_series(fprime.A[i][j]) == ("1 + O(t^8)" if i == j else "O(t^8)")
               for i in range(2) for j in range(2))
    assert all(g.is_zero() for g in fprime.G)


def test_normalize_conjugate_keeps_g_and_recognizes():
    prec = 12
    one = TruncSeries.one(F2, prec)
    zero = TruncSeries.zeros(F2, prec)
    A = [[zero, one], [one, zero]]
    t = parse_series(F2, "t", default_prec=prec)
    G = [HomogPoly(F2, 1, 1, {(1, 0): t}), HomogPoly(F2, 1, 1, {})]
    f = validate_map(F2, 2, 1, A, G)
    sol, fprime = normalize_conjugate(f)
    assert isinstance(fprime, DmlMap)
    assert all(format_series(fprime.A[i][j]) ==
               ("1 + O(t^12)" if i == j else "O(t^12)")
               for i in range(2) for j in range(2))
    assert any(not g.is_zero() for g in fprime.G)  # the perturbation survives


def normalize_reference(f, R_max=64):
    """normalize_conjugate by composition and recognition: rebuild f as a map
    of degree q, compose it with B and B^-1 at full precision, split the
    result with recognize_dml_form and check that its matrix part is I."""
    n = f.N + 1
    A0 = []
    for row in f.A:
        if any(not c.is_zero() for sv in row for c in sv.coeffs[1:]):
            raise NonConstantMatrix("normalize_conjugate requires a residue-constant matrix A")
        A0.append([sv.constant_term() for sv in row])
    Ainv = twist._mat_inv(A0)
    if Ainv is None:
        raise NotInvertible("A is singular mod t")
    sol = solve_twist(Ainv, f.q, R_max)
    if sol.field is None:
        raise NonFlattenableExtension("conjugation needs a flattenable field")
    target = sol.field
    prec = f.coefficient_precision()
    femb = f
    if target != f.field:
        def emb_series(sv):
            return TruncSeries(target, sv.prec, [target.el([c.coeffs[0]]) for c in sv.coeffs])
        femb = DmlMap(target, f.p, f.e, [[emb_series(sv) for sv in row] for row in f.A],
                      [HomogPoly(target, f.N, g.degree,
                                 {exp: emb_series(c) for exp, c in g.terms.items()})
                       for g in f.G], f.label)
    # B^-1 = adj(B) / det B over the residue field, each cofactor by fq_det
    B, dinv = sol.B, fq_det(sol.B).inv()

    def cofactor(i, j):
        d = fq_det([[x for k, x in enumerate(row) if k != j] for r, row in enumerate(B) if r != i])
        return -d if (i + j) % 2 else d
    Bconst = [[TruncSeries.from_constant(x, prec) for x in row] for row in B]
    Binvconst = [[TruncSeries.from_constant(cofactor(j, i) * dinv, prec) for j in range(n)]
                 for i in range(n)]

    def linear_map(M):
        return dynamics.GeneralMap(target, [
            HomogPoly(target, f.N, 1, {tuple(int(k == j) for k in range(n)): M[i][j]
                                       for j in range(n)}) for i in range(n)])

    comp = dynamics.compose_maps(linear_map(Binvconst), dynamics.compose_maps(
        dynamics.dml_to_general(femb), linear_map(Bconst)))
    rec = recognize_dml_form(comp, f.p, f.e)
    assert isinstance(rec, DmlMap), rec
    assert all(rec.A[i][j].is_one() == (i == j) and
               (i == j or rec.A[i][j].is_zero_at_precision())
               for i in range(n) for j in range(n))
    return sol, rec


def series_key(s):
    return (s.field, s.prec, s.packed)


def normalize_outcome(route, f):
    """Everything normalize_conjugate returns, or the type of its error.
    R_max = 24 keeps the twists small; a longer search raises on both routes."""
    try:
        sol, g = route(f, 24)
    except FrobdmlError as exc:
        return type(exc)
    return (sol.r, sol.basis_raw, g.field, g.p, g.e, g.e0, g.label,
            [[series_key(s) for s in row] for row in g.A],
            [(h.degree, {exp: series_key(c) for exp, c in h.terms.items()})
             for h in g.G])


def test_normalize_matches_composition_reference():
    rng = random.Random(1018)
    F5 = field_for(5, 1)
    F4_in_F16 = [x for x in F16.elements() if x.frobenius(2) == x]
    F2_in_F8 = [F8.zero(), F8.one()]

    def involution(F, n):
        while True:
            A = [[F.from_int(rng.randrange(2)) for _ in range(n)] for _ in range(n)]
            if all(sum((A[i][k] * A[k][j] for k in range(n)), F.zero()) == F.from_int(i == j)
                   for i in range(n) for j in range(n)):
                return A

    cases = []
    for F in (F2, F3, F5):  # q = p: G linear
        for _ in range(24):
            n = rng.randint(2, 4)
            cases.append(rand_dml(rng, F, 1, rand_gl(rng, F, n), list(F.elements())))
    for _ in range(24):  # q = 4 over F_16, A an F_2 involution: r = 2 in F_16
        cases.append(rand_dml(rng, F16, 2, involution(F16, rng.randint(2, 4)), F4_in_F16))
    for _ in range(24):  # q = 4 over F_4: the tower over F_4 does not flatten
        A0 = rand_gl(rng, F4, rng.randint(2, 3))
        while A0 == [[F4.from_int(i == j) for j in range(len(A0))] for i in range(len(A0))]:
            A0 = rand_gl(rng, F4, len(A0))
        cases.append(rand_dml(rng, F4, 2, A0, list(F4.elements())))
    for _ in range(24):  # q = 4 over F_8: 2 does not divide 3
        A0 = [[F8.from_int(x.index()) for x in row] for row in rand_gl(rng, F2, rng.randint(2, 3))]
        cases.append(rand_dml(rng, F8, 2, A0, F2_in_F8))
    seen = set()
    for f in cases:
        got = normalize_outcome(normalize_conjugate, f)
        assert got == normalize_outcome(normalize_reference, f), f
        seen.add((f.field.order, got if isinstance(got, type) else "equal"))
    assert {(2, "equal"), (3, "equal"), (5, "equal"), (16, "equal"),
            (4, NonFlattenableExtension), (8, DegreeMismatch),
            (5, SearchExhausted)} <= seen


def test_fit_into_the_twist_field_matches_the_digitwise_embedding():
    # normalize_conjugate moves G's packings over F_p into the slots of the
    # flattened twist field; the reference decodes and re-encodes each digit
    rng = random.Random(2603)
    widths = set()
    for p in (2, 3, 5, 7):
        Fp = field_for(p, 1)
        K = Fp._kron
        for d in (2, 3, 4):
            target = twist.first_irreducible(Fp, d)[1]
            T = target._kron
            precs = sorted(set(width_changes(Fp, 1200)) | set(width_changes(target, 1200)))
            for a in precs:
                widths.add(K[a].L.w == T[a].L.w)
                top = [Fp.from_int(p - 1)] * a
                sparse = [Fp.from_int(rng.randrange(p)) if rng.random() < 0.1 else Fp.zero()
                          for _ in range(a)]
                rand = [Fp.from_int(rng.randrange(p)) for _ in range(a)]
                for digits in (top, sparse, rand, [Fp.zero()] * a):
                    c = TruncSeries(Fp, a, digits)
                    for b in (a, rng.choice(precs)):   # at its own precision, cut or padded
                        want = TruncSeries(target, b, [target.el(x.coeffs) for x in c.coeffs])
                        assert _fit(K, c.packed, a, b, into=T) == want.packed, (p, d, a, b)
    assert widths == {True, False}


def test_twist_solver_builds_each_shape_once(monkeypatch):
    A = elems(F9, [[0, 1], [1, 0]])
    solve_twist(A, 3)
    normalize_conjugate(swap_map())
    built = []
    init = _Shape.__init__
    monkeypatch.setattr(_Shape, "__init__", lambda sh, L, n: built.append(n) or init(sh, L, n))
    solve_twist(A, 3)
    normalize_conjugate(swap_map())
    assert built == []


def test_flattened_field_is_built_once():
    F = make_field(2, 1, [0, 1])  # equal to F2, a distinct object
    sol = solve_twist(elems(F2, [[0, 1], [1, 0]]), 2)
    again = solve_twist(elems(F, [[0, 1], [1, 0]]), 2)
    assert sol.field.order == 4 and again.field is sol.field


def test_normalize_conjugate_requires_constant_matrix():
    prec = 8
    t1 = parse_series(F2, "1 + t", default_prec=prec)
    one = TruncSeries.one(F2, prec)
    zero = TruncSeries.zeros(F2, prec)
    A = [[t1, zero], [zero, one]]
    G = [HomogPoly(F2, 1, 1, {}), HomogPoly(F2, 1, 1, {})]
    f = validate_map(F2, 2, 1, A, G)
    assert isinstance(f, DmlMap)
    with pytest.raises(NonConstantMatrix):
        normalize_conjugate(f)


def test_normalize_conjugate_nonflattenable():
    prec = 8
    a = F4.gen()
    one = TruncSeries.one(F4, prec)
    zero = TruncSeries.zeros(F4, prec)
    A = [[TruncSeries.from_constant(a, prec), zero], [zero, one]]
    G = [HomogPoly(F4, 1, 2, {}), HomogPoly(F4, 1, 2, {})]
    f = validate_map(F4, 2, 2, A, G)  # q = 4 over F_4: tower of degree 3
    assert isinstance(f, DmlMap)
    with pytest.raises(NonFlattenableExtension):
        normalize_conjugate(f)


def test_twist_file_fixture():
    field, A, q = parse_twist_file(fixture_path("twist_swap.json"))
    assert field == F2 and q == 2
    assert [[x.index() for x in row] for row in A] == [[0, 1], [1, 0]]


def test_singular_matrix_is_not_invertible():
    with pytest.raises(NotInvertible):
        solve_twist(elems(F2, [[1, 1], [1, 1]]), 2)


# Canonical bases captured before the twist solver's echelon steps moved to
# poly.rref.  Criterion 4 checks only B^(q) = A B and det B != 0; these fix
# which basis of the solution space is returned.
@pytest.mark.parametrize("F, rows, q, r, basis", [
    (F9, [[1, 2], [3, 4]], 3, 4,
     [["1+2*a", "a"], ["(1+2*a)*b", "(1+a)*b"]]),
    (F8, [[1, 2], [3, 4]], 2, 9,
     [["b+b^2", "a^2*b+(1+a^2)*b^2"],
      ["(a+a^2)*b+(1+a+a^2)*b^2", "(1+a)*b^2"]]),
    (F16, [[1, 2], [3, 4]], 4, 6,
     [["1+a+a^2+a^3", "a+a^3"], ["(1+a)*b", "(a+a^3)*b"]]),
    (F4, [[0, 1], [2, 0]], 2, 6,
     [["b", "b^2"], ["a*b", "(1+a)*b^2"]]),
])
def test_tower_basis_golden(F, rows, q, r, basis):
    sol = solve_twist(elems(F, rows), q)
    assert sol.r == r and sol.field is None
    assert not sol.ext.is_zero(ext_det(sol.ext, sol.B_raw))
    assert [list(v) for v in sol.basis] == basis
    assert sol.B == [[v[i] for v in basis] for i in range(len(basis))]


def test_f8_3x3_basis_raw_golden():
    sol = solve_twist(elems(F8, [[1, 2, 0], [0, 1, 5], [3, 0, 1]]), 2)
    assert sol.r == 21 and sol.ext.h == (2, 0, 0, 0, 0, 0, 0, 1)
    assert [tuple(tuple(c.index() for c in sol.ext.coeffs(x)) for x in v)
            for v in sol.basis_raw] == [
        ((0, 1, 2, 0, 3, 0, 0), (0, 0, 4, 0, 6, 0, 0), (0, 3, 3, 0, 0, 0, 0)),
        ((0, 2, 3, 0, 1, 0, 0), (0, 0, 6, 0, 2, 0, 0), (0, 6, 7, 0, 0, 0, 0)),
        ((0, 4, 7, 0, 6, 0, 0), (0, 0, 5, 0, 7, 0, 0), (0, 7, 1, 0, 0, 0, 0))]
    assert sol.B_raw == [[v[i] for v in sol.basis_raw] for i in range(3)]
    assert not sol.ext.is_zero(ext_det(sol.ext, sol.B_raw))


def test_cyclic_9x9_solves_under_a_second():
    n = 9
    A = elems(F2, [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
    start = time.perf_counter()
    sol = solve_twist(A, 2)
    assert time.perf_counter() - start < 1.0
    assert sol.r == 9
    assert all(sol.entry_str(x) == "0" for row in sol.residue() for x in row)
    assert not fq_det(sol.B).is_zero()


def test_f2048_twist_solves():
    F = make_field(2, 11, [1, 0, 1] + [0] * 8 + [1])
    a, zero, one = F.gen(), F.zero(), F.one()
    sol = solve_twist([[a, zero], [zero, one]], 2)
    assert sol.r == 11 and sol.field == F
    assert sol.B == [[a, zero], [zero, one]]
    assert all(sol.entry_str(x) == "0" for row in sol.residue() for x in row)


def test_basis_and_b_are_decoded_once(monkeypatch):
    # a tower that does not flatten renders every entry as a string; B is
    # the transpose of basis and shares its entries
    sol = solve_twist(rand_gl(random.Random(5), F4, 5), 2)
    assert sol.r == 30 and sol.field is None
    calls = []
    coeffs = FqElem.coeffs
    monkeypatch.setattr(FqElem, "coeffs", property(lambda x: calls.append(1) or coeffs.fget(x)))
    basis = sol.basis
    assert calls
    calls.clear()
    B = sol.B
    assert sol.basis is basis and sol.B is B and not calls
    assert B == [[v[i] for v in basis] for i in range(5)]
    assert B == [[sol.entry_str(u) for u in row] for row in sol.B_raw]


def test_first_irreducible_skips_only_reducible_binomials():
    # Y^4 + c is reducible for every c over F_p with p = 3 mod 4
    # (Lidl-Niederreiter, Thm 3.75): the scan starts at Y^4 + Y + c
    P31 = make_field(2 ** 31 - 1, 1, [0, 1])
    assert twist.first_irreducible(P31, 4)[0] == (1, 1, 0, 0, 1)
    cycle = [[P31.from_int(int(j == (i + 1) % 4)) for j in range(4)] for i in range(4)]
    sol = solve_twist(cycle, P31.p)
    assert sol.r == 4
    assert all(sol.entry_str(x) == "0" for row in sol.residue() for x in row)


def first_irreducible_scan(F, d):
    """Reference: every monic degree-d candidate in index order."""
    Q = F.order
    R = twist._base_ring(F)
    for idx in range(Q ** d):
        h = poly.digits(idx, Q, d) + [1]
        if idx % Q and poly.least_factor_degree(R, [F.from_int(c).packed for c in h]) is None:
            return tuple(h)


def test_first_irreducible_matches_the_plain_scan():
    small = [q for q in range(2, 44) if all(q % k for k in range(2, q))]
    fields = [make_field(q, 1, [0, 1]) for q in small] + [F4, F8, F9]
    for F in fields:
        for d in range(2, 7):
            assert twist.first_irreducible(F, d)[0] == first_irreducible_scan(F, d), (F, d)


def coordinates(fq, sh, v, count):
    """The F_q-coordinates of the packed row v of count coefficients."""
    L = sh.L
    return [c for k in range(count) for c in fq.coords(L, (v >> (k * L.S)) & L.slot)]


def test_echelon_is_canonical_and_incremental():
    rng = random.Random(808)
    for F, e in ((F2, 1), (field_for(5, 1), 1), (F4, 1), (F4, 2), (F9, 1), (F16, 2)):
        fq = twist.FqStructure(F, e)
        one = F._kron[1]
        powers = [F.one()] + [F.gen() ** t for t in range(1, fq.s)]
        for x in F.elements():  # x = sum_i c_i a^i with every c_i in F_q
            cs = [_unpack(F, c, 1)[0] for c in fq.coords(one.L, one.L.pack(x.coeffs))]
            assert all(c.frobenius(e) == c for c in cs)
            assert sum((c * w for c, w in zip(cs, powers)), F.zero()) == x
        for _ in range(60):
            width = rng.randint(1, 6)
            sh = F._kron[width]
            rows = [sum(sh.L.pack(F.from_int(rng.randrange(F.order)).coeffs) << (k * sh.L.S)
                        for k in range(width) if rng.random() < 0.6)
                    for _ in range(rng.randint(1, 6))]
            out = twist._echelon(fq, sh, rows, [])
            co = [coordinates(fq, sh, v, width) for _, v in out]
            pivots = [j * fq.s + i for (j, i), _ in out]
            assert pivots == sorted(set(pivots))
            assert all(r[c] == 1 and not any(r[:c]) for r, c in zip(co, pivots))
            assert all(r[c] == (i == k) for i, r in enumerate(co)
                       for k, c in enumerate(pivots))
            # no input row extends the result, and resuming from the form of
            # a prefix of the rows gives the same result
            assert twist._echelon(fq, sh, rows, list(out)) == out
            k = rng.randint(0, len(rows))
            assert twist._echelon(fq, sh, rows[k:], twist._echelon(fq, sh, rows[:k], [])) == out


def naive_ext_mul(F, h, u, v):
    """u*v mod the monic h by schoolbook, on lists of d FqElem coefficients."""
    d = len(h) - 1
    prod = [F.zero()] * (2 * d - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] = prod[i + j] + x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        for i, hc in enumerate(h):
            prod[k - d + i] = prod[k - d + i] - c * hc
    return prod[:d]


def test_tower_matches_schoolbook_reference():
    rng = random.Random(1111)
    for p in (2, 3, 5, 257, 2 ** 31 - 1):
        for m in (1, 2, 3):
            F = field_for(p, m)
            top = F.el([p - 1] * m)  # the largest digits
            for d in (1, 2, 3, 7, 12):
                h = [rng.randrange(F.order) for _ in range(d)] + [1]  # any monic h
                ext = twist.ExtContext(F, h)
                hF = [F.from_int(c) for c in h]
                u = [F.from_int(rng.randrange(F.order)) for _ in range(d)]
                for v in ([F.from_int(rng.randrange(F.order)) for _ in range(d)], [top] * d):
                    U, V = ext.encode(u), ext.encode(v)
                    assert list(ext.coeffs(U)) == u
                    assert list(ext.coeffs(ext.add(U, V))) == [x + y for x, y in zip(u, v)]
                    assert list(ext.coeffs(ext.sub(U, V))) == [x - y for x, y in zip(u, v)]
                    assert list(ext.coeffs(ext.mul(V, V))) == naive_ext_mul(F, hF, v, v)
                    assert list(ext.coeffs(ext.mul(U, V))) == naive_ext_mul(F, hF, u, v)
                    c = rng.randrange(F.order)
                    assert list(ext.coeffs(ext.scalar(c, V))) == [F.from_int(c) * x for x in v]
                n = rng.randint(2, 4)
                want = u
                for _ in range(n - 1):
                    want = naive_ext_mul(F, hF, want, u)
                assert list(ext.coeffs(ext.pow(ext.encode(u), n))) == want

