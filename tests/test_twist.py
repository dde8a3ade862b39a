import random
import time

import pytest

from frobdml import dynamics
from frobdml.dynamics import DmlMap, recognize_dml_form, validate_map
from frobdml.errors import (DegreeMismatch, FrobdmlError, NonConstantMatrix,
                            NonFlattenableExtension, NotInvertible,
                            SearchExhausted)
from frobdml.field import format_element, make_field
from frobdml.geometry import HomogPoly
from frobdml.instances import fixture_path, parse_twist_file
from frobdml.series import TruncSeries, format_series, parse_series
from frobdml import twist
from frobdml.twist import (count_solutions_exhaustive, normalize_conjugate,
                           solve_twist)

from conftest import field_for, fq_det, identity_matrix, rand_gl, rand_prime_series

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
    assert count_solutions_exhaustive(A, 2, sol) == 4


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
    pf = twist.packed_field(f.field)
    Ainv_packed = twist._mat_inv(pf, twist._mat_from_fq(A0))
    if Ainv_packed is None:
        raise NotInvertible("A is singular mod t")
    sol = solve_twist([[f.field.from_int(x) for x in row] for row in Ainv_packed],
                      f.q, R_max)
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
                       for g in f.G], f.e0, f.label)
    Bconst = [[TruncSeries.from_constant(x, prec) for x in row] for row in sol.B]
    Binvconst = dynamics.invert_series_matrix(Bconst, prec)

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
    return (s.field, s.prec, s.packed, s.inexact)


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


def rand_dml(rng, F, e, A0, coeffs):
    """DmlMap with constant matrix A0 and random G of degree p^(e-1) whose
    coefficients, drawn from ``coeffs``, multiply series of valuation >= 1;
    A and every G term get their own precision in 4..12."""
    n = len(A0)
    d = F.p ** (e - 1)
    A = [[TruncSeries.from_constant(x, rng.randint(4, 12)) for x in row] for row in A0]
    G = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            s = rand_prime_series(rng, F, rng.randint(4, 12), 1, 2)
            terms[tuple(exps)] = s * TruncSeries.from_constant(rng.choice(coeffs), s.prec)
        G.append(HomogPoly(F, n - 1, d, terms))
    f = validate_map(F, F.p, e, A, G)
    assert isinstance(f, DmlMap), f
    return f


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


def test_packed_field_is_shared_by_solve_and_conjugation(monkeypatch):
    F = make_field(2, 1, [0, 1])   # a fresh FieldSpec: no tables built yet
    built = []
    real = twist.PackedField

    def counting(field):
        built.append(real(field))
        return built[-1]

    monkeypatch.setattr(twist, "PackedField", counting)
    one, zero = TruncSeries.one(F, 8), TruncSeries.zeros(F, 8)
    f = validate_map(F, 2, 1, [[zero, one], [one, zero]],
                     [HomogPoly(F, 1, 1, {}), HomogPoly(F, 1, 1, {})])
    sol, _ = normalize_conjugate(f)
    again = solve_twist(elems(F, [[0, 1], [1, 0]]), 2)
    assert len(built) == 1
    assert twist.packed_field(F) is built[0] is sol.ext.pf is again.ext.pf


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
    assert [list(v) for v in sol.basis] == basis
    assert sol.B == [[v[i] for v in basis] for i in range(len(basis))]


def test_f8_3x3_basis_raw_golden():
    sol = solve_twist(elems(F8, [[1, 2, 0], [0, 1, 5], [3, 0, 1]]), 2)
    assert sol.r == 21 and sol.ext.h == (2, 0, 0, 0, 0, 0, 0, 1)
    assert sol.basis_raw == [
        ((0, 1, 2, 0, 3, 0, 0), (0, 0, 4, 0, 6, 0, 0), (0, 3, 3, 0, 0, 0, 0)),
        ((0, 2, 3, 0, 1, 0, 0), (0, 0, 6, 0, 2, 0, 0), (0, 6, 7, 0, 0, 0, 0)),
        ((0, 4, 7, 0, 6, 0, 0), (0, 0, 5, 0, 7, 0, 0), (0, 7, 1, 0, 0, 0, 0))]
    assert sol.B_raw == [[v[i] for v in sol.basis_raw] for i in range(3)]


def test_cyclic_9x9_solves_under_a_second():
    n = 9
    A = elems(F2, [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
    start = time.perf_counter()
    sol = solve_twist(A, 2)
    assert time.perf_counter() - start < 1.0
    assert sol.r == 9
    assert all(sol.entry_str(x) == "0" for row in sol.residue() for x in row)
    assert not fq_det(sol.B).is_zero()
