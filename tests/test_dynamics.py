import random
import time

import pytest

from frobdml.dynamics import (SECTION_MIN_R, CoefficientFieldTooLarge,
                              CoefficientNotInMaximalIdeal, DmlMap, GeneralMap,
                              NonUnitDeterminant, NotInForm, WrongDegree,
                              apply_map, check_conditions, compose_maps,
                              dml_to_general, invert_series_matrix, iterate_map,
                              orbit, preimage_qp, recognize_dml_form, series_det,
                              validate_map)
from frobdml.errors import (DegreeMismatch, NonUnitDivisor, NotInImage,
                            PrecisionExhausted, UnsupportedQ)
from frobdml.geometry import (HomogPoly, ProjPoint, eval_hom_coords, format_poly,
                              normalize, poly_mul, proj_eq)
from frobdml.instances import fixture_path, parse_instance
from frobdml.lifting import point_galois, sigma_fixed_lift
from frobdml.series import (AtPrecisionZero, GaloisAction, TruncSeries,
                            format_series, parse_series)

from conftest import (field_for, identity_matrix, rand_exponents, rand_point, t_power,
                      rand_suite_map, rand_residue_point)

F2 = field_for(2, 1)
F4 = field_for(2, 2)

F1 = parse_instance(fixture_path("f1.json")).map
F3 = parse_instance(fixture_path("f3.json")).map


def ser(F, text, prec=8):
    return parse_series(F, text, default_prec=prec)


def test_series_det_golden():
    A = [[ser(F2, "1"), ser(F2, "t")],
         [ser(F2, "t"), ser(F2, "1 + t")]]
    assert format_series(series_det(A)) == "1 + t + t^2 + O(t^8)"


def cofactor_det(A):
    """Reference: first-row cofactor expansion of the entries cut to their
    least precision n.  The determinant is a polynomial in the entries, so
    its digits below t^n are determined by theirs.  Without the cut the
    expansion skips an entry zero at its own low precision, as in
    [[t, O(t^2)], [O(t^2), t]] at t^8, and states digits the input does not
    determine.  Entries zero at precision n are skipped."""
    prec = min(s.prec for row in A for s in row)
    A = [[s.change_precision(prec) for s in row] for row in A]
    n = len(A)
    if n == 1:
        return A[0][0]
    out = None
    for j in range(n):
        entry = A[0][j]
        if entry.is_zero_at_precision():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in A[1:]]
        term = entry * cofactor_det(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    if out is None:
        return TruncSeries.zeros(A[0][0].field, min(s.prec for row in A for s in row))
    return out


def rand_entry(rng, F, prec):
    """Zero, a non-unit of random valuation, or a dense (usually unit) series."""
    kind = rng.random()
    if kind < 0.15:
        return TruncSeries.zeros(F, prec)
    v = rng.randint(1, prec) if kind < 0.4 else 0
    return TruncSeries(F, prec, [F.zero()] * v + [F.from_int(rng.randrange(F.order))
                                                  for _ in range(prec - v)])


def test_series_det_matches_cofactor_reference():
    rng = random.Random(600)
    fields = [F2, F4, field_for(3, 1), field_for(5, 2)]
    seen = {"unit": 0, "nonunit": 0, "zero": 0, "prec1": 0, "mixed": 0}
    for case in range(600):
        F = rng.choice(fields)
        n = rng.randint(1, 4)
        prec = rng.randint(1, 9)
        mixed = rng.random() < 0.3
        A = [[rand_entry(rng, F, rng.randint(1, 9) if mixed else prec)
              for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.15:
            A[1] = list(A[0])  # singular
        got, want = series_det(A), cofactor_det(A)
        assert (got.prec, got.coeffs) == (want.prec, want.coeffs), case
        v = want.valuation()
        seen["unit" if v == 0 else "nonunit" if isinstance(v, int) else "zero"] += 1
        seen["prec1"] += want.prec == 1
        seen["mixed"] += mixed
    assert min(seen.values()) >= 30, seen


def mat_mul(X, Y):
    n = len(X)
    return [[sum((X[i][k] * Y[k][j] for k in range(1, n)), X[i][0] * Y[0][j])
             for j in range(n)] for i in range(n)]


def test_invert_series_matrix_is_an_inverse():
    rng = random.Random(601)
    inverted = 0
    for case in range(200):
        F = rng.choice([F2, F4, field_for(3, 1)])
        n = rng.randint(1, 4)
        prec = rng.randint(1, 9)
        M = [[rand_entry(rng, F, prec) for _ in range(n)] for _ in range(n)]
        if not series_det(M).is_unit():
            with pytest.raises(NonUnitDivisor):
                invert_series_matrix(M, prec)
            continue
        inverted += 1
        one, zero = TruncSeries.one(F, prec), TruncSeries.zeros(F, prec)
        ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
        assert mat_mul(invert_series_matrix(M, prec), M) == ident, case
    assert inverted >= 50


def test_invert_series_matrix_names_the_failing_column():
    with pytest.raises(NonUnitDivisor) as ei:
        invert_series_matrix([[ser(F2, "t"), ser(F2, "1")],
                              [ser(F2, "t^2"), ser(F2, "1 + t")]], 8)
    assert str(ei.value) == "no unit pivot in column 0; matrix not invertible over O_K"
    with pytest.raises(NonUnitDivisor) as ei:
        invert_series_matrix([[ser(F2, "1"), ser(F2, "1"), ser(F2, "0")],
                              [ser(F2, "1"), ser(F2, "1 + t"), ser(F2, "0")],
                              [ser(F2, "0"), ser(F2, "0"), ser(F2, "1")]], 8)
    assert str(ei.value) == "no unit pivot in column 1; matrix not invertible over O_K"


def test_validate_n7_over_f4_at_prec_20():
    rng = random.Random(602)
    n, prec = 8, 20
    y2 = [tuple(2 if k == j else 0 for k in range(n)) for j in range(n)]
    G = [HomogPoly(F4, n - 1, 2, {y2[(i + 1) % n]: rand_entry(rng, F4, prec) * ser(F4, "t", prec)})
         for i in range(n)]
    while True:
        A = [[rand_entry(rng, F4, prec) for _ in range(n)] for _ in range(n)]
        t0 = time.perf_counter()
        f = validate_map(F4, 2, 2, A, G)
        elapsed = time.perf_counter() - t0
        if isinstance(f, DmlMap):
            break
    assert f.N == 7
    assert elapsed < 2.0, f"8x8 validation took {elapsed:.2f}s"
    # non-unit variant: a banded matrix keeps the cofactor reference cheap
    band = [[rand_entry(rng, F4, prec) if abs(i - j) <= 1 else TruncSeries.zeros(F4, prec)
             for j in range(n)] for i in range(n)]
    band[3] = [ser(F4, "t", prec) * s for s in band[3]]
    diags = validate_map(F4, 2, 2, band, G)
    assert isinstance(diags, list)
    det = cofactor_det(band)
    v = det.valuation()
    shown = f">= {v.prec}" if isinstance(v, AtPrecisionZero) else v
    assert str(diags[0]) == f"NonUnitDeterminant: det(A) = {det} has valuation {shown}"


def test_validate_map_accepts_f1_shape():
    assert isinstance(F1, DmlMap)
    assert F1.q == 2 and F1.N == 1
    assert F1.e0 == 1  # all coefficients lie in the prime field


def test_validate_diagnostics_order_and_content():
    prec = 8
    A = [[ser(F2, "t"), ser(F2, "0")],     # det has valuation > 0
         [ser(F2, "0"), ser(F2, "1")]]
    G = [HomogPoly(F2, 1, 2, {(2, 0): ser(F2, "1")}),   # wrong degree, unit coeff
         HomogPoly(F2, 1, 1, {(0, 1): ser(F2, "1")})]   # unit coeff
    diags = validate_map(F2, 2, 1, A, G)
    assert isinstance(diags, list)
    assert isinstance(diags[0], NonUnitDeterminant)
    assert isinstance(diags[1], WrongDegree) and diags[1].coordinate == 0
    assert isinstance(diags[2], CoefficientNotInMaximalIdeal)


def test_validate_rejects_unfixed_coefficients():
    # a in F_4 is not Frob_2-fixed, so it cannot appear at e = 1 (q = 2)
    prec = 8
    G1 = [HomogPoly(F4, 1, 1, {(1, 0): ser(F4, "a*t")}),
          HomogPoly(F4, 1, 1, {})]
    diags = validate_map(F4, 2, 1, identity_matrix(F4, 2, prec), G1)
    assert isinstance(diags, list)
    assert any(isinstance(d, CoefficientFieldTooLarge) for d in diags)
    # at e = 2 the action is Frob_4, which fixes all of F_4
    G2 = [HomogPoly(F4, 1, 2, {(2, 0): ser(F4, "a*t")}),
          HomogPoly(F4, 1, 2, {})]
    assert isinstance(validate_map(F4, 2, 2, identity_matrix(F4, 2, prec), G2),
                      DmlMap)


def test_apply_map_golden():
    P = ProjPoint(F2, [ser(F2, "1"), ser(F2, "0")])
    Q = apply_map(F1, P)
    assert format_series(Q.coords[1]) == "t + O(t^8)"
    assert Q.prec == 8


def test_orbit_length_and_start():
    P = ProjPoint(F2, [ser(F2, "1"), ser(F2, "t")])
    pts = orbit(F1, P, 5)
    assert len(pts) == 6 and pts[0] == P
    assert pts[1] == apply_map(F1, P)


def orbit_reference(f, P, H):
    """Reference: H applications of the map, one after another."""
    if H < 0:
        raise DegreeMismatch("horizon must be >= 0")
    out = [P]
    cur = P
    for _ in range(H):
        cur = apply_map(f, cur)
        out.append(cur)
    return out


def orbit_outcome(fn, f, P, H):
    """Every point with its consumed precision and, per coordinate, the
    precision and packing; or the error type and message."""
    try:
        pts = fn(f, P, H)
    except Exception as ex:  # compared, never swallowed
        return type(ex), str(ex)
    return [(Q.consumed, [(c.prec, c.packed) for c in Q.coords])
            for Q in pts]


def test_orbit_matches_reference_on_random_maps():
    rng = random.Random(6007)
    prec = 10
    for _ in range(24):
        f = rand_suite_map(rng, prec=prec)
        L = sigma_fixed_lift(f, rand_residue_point(rng, f), prec).lift
        conj = point_galois(L, f.e, times=rng.randint(1, 5))
        short = rand_suite_map(rng, prec=prec - 3)   # raises at step 1 unless G = 0
        cases = [(f, L), (f, conj), (f, rand_point(rng, f.field, f.N, prec)),
                 (short, rand_point(rng, short.field, short.N, prec))]
        for g, P in cases:
            H = rng.choice((-1, 0, 1, 2, 3, 7, 13))
            assert orbit_outcome(orbit, g, P, H) == orbit_outcome(orbit_reference, g, P, H)


def test_orbit_keys_on_consumed_precision():
    """The f1 orbit of (1 : t) is fixed from step 2.  The same fixed point
    reached by dividing out t has the same packings, but only the start
    point records the consumed digit, so the walk must key on it."""
    Q = orbit(F1, ProjPoint(F2, [ser(F2, "1"), ser(F2, "t")]), 2)[2]
    t = t_power(F2, 1, 9)
    Pt = ProjPoint(F2, [t * c.change_precision(9) for c in Q.coords])
    assert Pt.consumed == 1 and Pt.coords == Q.coords
    assert [P.consumed for P in orbit(F1, Pt, 4)] == [1, 0, 0, 0, 0]
    assert orbit_outcome(orbit, F1, Pt, 4) == orbit_outcome(orbit_reference, F1, Pt, 4)


def test_compose_golden_and_iterate_agree():
    ff = compose_maps(F3, F3)
    assert format_poly(ff.coords[0], "x") == "x0^4"
    assert format_poly(ff.coords[1], "x") == "x1^4"
    assert format_poly(ff.coords[2], "x") == \
        "(t + t^2 + O(t^8))*x0^2*x1^2 + x2^4"
    it = iterate_map(F3, 2)
    for h, k in zip(ff.coords, it.coords):
        assert h.terms.keys() == k.terms.keys()
        for e in h.terms:
            assert h.terms[e].coeffs == k.terms[e].coeffs


def compose_reference(F, G):
    """Reference: (F o G) with each power G_j^k built by k - 1 products in
    a row, as compose_maps did before it powered by square-and-multiply."""
    Fg = dml_to_general(F) if isinstance(F, DmlMap) else F
    Gg = dml_to_general(G) if isinstance(G, DmlMap) else G
    powers = {}
    out = []
    for h in Fg.coords:
        acc = HomogPoly.zero(Fg.field, Fg.N, Fg.degree * Gg.degree)
        for exps, coeff in h.terms.items():
            mono = None
            for j, k in enumerate(exps):
                if k:
                    for i in range(1, k + 1):
                        if (j, i) not in powers:
                            powers[j, i] = Gg.coords[j] if i == 1 else \
                                poly_mul(powers[j, i - 1], Gg.coords[j])
                    mono = powers[j, k] if mono is None else poly_mul(mono, powers[j, k])
            acc = acc + mono.scale(coeff)
        out.append(acc)
    return GeneralMap(Fg.field, out)


def iterate_reference(f, k):
    cur = base = dml_to_general(f) if isinstance(f, DmlMap) else f
    for _ in range(k - 1):
        cur = compose_reference(cur, base)
    return cur


def map_key(F):
    """Every coefficient with its digits and precision."""
    return [(h.degree, sorted((e, c.coeffs, c.prec) for e, c in h.terms.items()))
            for h in F.coords]


def rand_mixed_map(rng, prec):
    """(x0 : .. : xN) -> random forms of degree 2 or 3 whose coefficients
    are known to different precisions, some of them zero-padded."""
    F = field_for(rng.choice((2, 3, 5)), rng.randint(1, 2))
    N, d = rng.randint(1, 2), rng.randint(2, 3)
    coords = []
    for _ in range(N + 1):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, prec)
            c = TruncSeries(F, n, [F.from_int(rng.randrange(F.order)) for _ in range(n)])
            if rng.random() < 0.3:
                c = c.change_precision(prec)
            exps = [0] * (N + 1)
            for _ in range(d):
                exps[rng.randrange(N + 1)] += 1
            terms[tuple(exps)] = c
        coords.append(HomogPoly(F, N, d, terms))
    return GeneralMap(F, coords)


def test_iterate_matches_linear_power_reference():
    """Square-and-multiply powers give the same coefficients and precisions
    as the linear product, on suite maps and on maps with mixed-precision
    coefficients."""
    rng = random.Random(909)
    mixed = 0
    for case in range(60):
        f = rand_suite_map(rng, prec=8) if case % 2 else rand_mixed_map(rng, 6)
        k = rng.randint(2, 3)
        assert map_key(iterate_map(f, k)) == map_key(iterate_reference(f, k)), case
        mixed += len({c.prec for h in iterate_map(f, 1).coords for c in h.terms.values()}) > 1
    assert mixed >= 10
    assert map_key(iterate_map(F3, 11)) == map_key(iterate_reference(F3, 11))


def test_composition_is_associative_on_points():
    rng = random.Random(2024)
    f = rand_suite_map(rng, prec=12)
    g = dml_to_general(f)
    fg = compose_maps(f, g)
    for _ in range(5):
        P = rand_point(rng, f.field, f.N, 12)
        assert proj_eq(apply_map(fg, P), apply_map(f, apply_map(g, P)))


def test_recognize_round_trip_f1():
    gen = dml_to_general(F1)
    rec = recognize_dml_form(gen, 2, 1)
    assert isinstance(rec, DmlMap)
    assert rec.q == 2
    assert format_series(rec.G[1].terms[(1, 0)]) == "t + O(t^65)"


def test_recognize_not_in_form():
    # t*x0*x1 cannot be written with p-th-power inner variables at q = 2
    rec = recognize_dml_form(F3, 2, 1)
    assert isinstance(rec, NotInForm)
    assert rec.coordinate == 2


def test_recognize_splits_pure_power_coefficients():
    # coefficient of x_j^q contributes its constant to A and its tail to G
    prec = 8
    coeff = ser(F2, "1 + t^2")
    h0 = HomogPoly(F2, 1, 2, {(2, 0): coeff})
    h1 = HomogPoly(F2, 1, 2, {(0, 2): ser(F2, "1")})
    rec = recognize_dml_form(GeneralMap(F2, [h0, h1]), 2, 1)
    assert isinstance(rec, DmlMap)
    assert format_series(rec.A[0][0]) == "1 + O(t^8)"
    assert format_series(rec.G[0].terms[(1, 0)]) == "t^2 + O(t^8)"


def test_preimage_round_trip_golden():
    # f1(1, t + t^2) = (1, t + t^2 + t^4)
    P = ProjPoint(F2, [ser(F2, "1", 8), ser(F2, "t + t^2 + t^4", 8)])
    Q = preimage_qp(F1, P)
    assert Q.prec == 4  # ceil(8 / 2)
    assert format_series(Q.coords[1]) == "t + t^2 + O(t^4)"
    # pad the preimage representative back to full precision and re-apply
    pad = ProjPoint(F2, [TruncSeries(F2, 8, c.coeffs) for c in Q.coords])
    back = apply_map(F1, pad)
    assert proj_eq(back, P)


def test_preimage_renormalizes_unit_factor():
    # G feeding coordinate 0 makes the canonical image representative differ
    # from the raw image vector by the unit 1 + t
    G = [HomogPoly(F2, 1, 1, {(0, 1): ser(F2, "t")}), HomogPoly(F2, 1, 1, {})]
    f = validate_map(F2, 2, 1, identity_matrix(F2, 2, 8), G, label="g0")
    P = apply_map(f, ProjPoint(F2, [ser(F2, "1"), ser(F2, "1")]))
    assert format_series(P.coords[0]) == "1 + O(t^8)"
    Q = preimage_qp(f, P)
    assert format_series(Q.coords[0]) == "1 + O(t^4)"
    assert format_series(Q.coords[1]) == "1 + O(t^4)"


def test_preimage_not_in_image():
    # f1 output x1-digit at t^3 is forced to 0; t^3 present means no preimage
    P = ProjPoint(F2, [ser(F2, "1", 8), ser(F2, "t^3", 8)])
    with pytest.raises(NotInImage):
        preimage_qp(F1, P)


def test_preimage_requires_q_equal_p():
    rng = random.Random(5)
    while True:
        f = rand_suite_map(rng, prec=8)
        if f.e == 2:
            break
    P = rand_point(rng, f.field, f.N, 8)
    with pytest.raises(UnsupportedQ):
        preimage_qp(f, P)


def test_check_conditions_golden():
    rep = check_conditions(F1)
    assert rep.zero_differential and rep.special_fiber_is_frobenius
    assert rep.frobenius_power == 2
    rep3 = check_conditions(F3)
    assert not rep3.zero_differential  # t*x0*x1 has odd exponents
    # but mod t the perturbation vanishes, so the fiber is still Frob_2
    assert rep3.special_fiber_is_frobenius and rep3.frobenius_power == 2


def test_apply_preserves_absolute_precision():
    rng = random.Random(31)
    for _ in range(40):
        f = rand_suite_map(rng, prec=16)
        P = rand_point(rng, f.field, f.N, rng.randint(4, 16))
        assert apply_map(f, P).prec == P.prec


def test_apply_commutes_with_galois():
    rng = random.Random(32)
    for _ in range(20):
        f = rand_suite_map(rng, prec=12)
        P = rand_point(rng, f.field, f.N, 12)
        sigma = GaloisAction(f.e)
        sigmaP = ProjPoint(f.field, [c.galois(sigma) for c in P.coords])
        fP = apply_map(f, P)
        sigma_fP = ProjPoint(f.field, [c.galois(sigma) for c in fP.coords])
        assert proj_eq(apply_map(f, sigmaP), sigma_fP)


def test_apply_commutes_with_galois_at_large_p():
    rng = random.Random(33)
    for _ in range(15):
        f = rand_suite_map(rng, prec=12, primes=(257, 65537, 2 ** 31 - 1), max_e=1)
        P = rand_point(rng, f.field, f.N, 12)
        sigma = GaloisAction(f.e)
        sigmaP = ProjPoint(f.field, [c.galois(sigma) for c in P.coords])
        fP = apply_map(f, P)
        sigma_fP = ProjPoint(f.field, [c.galois(sigma) for c in fP.coords])
        assert proj_eq(apply_map(f, sigmaP), sigma_fP)


# ---------------------------------------------------------------------------
# apply_map through p-sections against the full-precision route
# ---------------------------------------------------------------------------

def eval_at_pth_powers_reference(g, coords):
    """Reference: dilate every coordinate, then evaluate at full precision."""
    return eval_hom_coords(g, [c.frobenius_power(1) for c in coords])


def apply_map_reference(f, P):
    """apply_map of a DmlMap by the full-precision route: x^q dilated, every
    product at the point precision, G at the dilated coordinates.  Every
    entry of A, exactly 0 or 1 included, is checked against the point
    precision, row by row and before G: the order that fixes the error
    precedence."""
    prec = P.prec
    for row in f.A:
        for s in row:
            if s.prec < prec:
                raise PrecisionExhausted(
                    f"map coefficient known only to t^{s.prec} < point precision {prec}")
    xq = [c.frobenius_power(f.e) for c in P.coords]
    imgs = []
    for row, g in zip(f.A, f.G):
        acc = TruncSeries.zeros(f.field, prec)
        for s, x in zip(row, xq):
            acc = acc + s * x
        if not g.is_zero():
            acc = acc + eval_at_pth_powers_reference(g, P.coords)
        imgs.append(acc)
    Q = normalize(imgs)
    if Q.consumed:
        raise PrecisionExhausted(
            f"image lies in t^{Q.consumed}*O^(N+1); the map drops precision here")
    return Q


def outcome(fn, *args):
    """The result (a series, or a point's coordinates), or the error type
    and message."""
    try:
        out = fn(*args)
    except Exception as ex:  # compared, never swallowed
        return type(ex), str(ex)
    return out.coords if isinstance(out, ProjPoint) else out


def rand_coeff_prec(rng, n):
    """A coefficient precision: usually at or above n, now and then below."""
    return rng.choice((n, n + 1, n + 7, 2 * n + 3, max(1, n - 1), max(1, n - rng.randint(1, 3))))


def rand_ideal_series(rng, F, prec, v=1, full=False):
    """Digits from t^v on: from the prime subfield (fixed by every Frobenius),
    or with ``full`` from all of F."""
    digit = (lambda: F.from_int(rng.randrange(F.order))) if full else (
        lambda: F.from_int(rng.randrange(F.p)))
    return TruncSeries(F, prec, [F.zero()] * v + [digit() for _ in range(prec - v)])


def rand_g_map(rng, F, e, N, n, short):
    """A = I + t*B and G of degree p^(e-1), each coefficient at its own
    precision: at least n, or with ``short`` around n.  Now and
    then an entry of A is exactly 0 or 1, and a G term sits at a pure power
    y_j^(q/p), where it meets A's column j.  Digits come from all of F when
    Frob_(p^e) fixes F, else from F_p."""
    d, full = F.p ** (e - 1), e % F.m == 0

    def cprec():
        return rand_coeff_prec(rng, n) if short else rng.choice((n, n + 1, n + 7, 2 * n + 3))

    A = []
    for i in range(N + 1):
        row = []
        for j in range(N + 1):
            prec = cprec()
            if rng.random() < 0.25:
                s = TruncSeries.one(F, prec) if i == j else TruncSeries.zeros(F, prec)
            else:
                s = rand_ideal_series(rng, F, prec, full=full)
                s = s + TruncSeries.one(F, prec) if i == j else s
            row.append(s)
        A.append(row)
    G = []
    for _ in range(N + 1):
        terms = {rand_exponents(rng, N + 1, d): None for _ in range(rng.randint(0, 3))}
        if rng.random() < 0.3:
            j = rng.randrange(N + 1)
            terms[tuple(d if k == j else 0 for k in range(N + 1))] = None
        G.append(HomogPoly(F, N, d, {exps: rand_ideal_series(rng, F, cprec() + 1, full=full)
                                     for exps in terms}))
    f = validate_map(F, F.p, e, A, G)
    assert isinstance(f, DmlMap), f
    return f


G_CASES = [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)] + [(257, 1), (257, 2), (65537, 1)]


@pytest.mark.parametrize("p,e", G_CASES, ids=[f"p{p}e{e}" for p, e in G_CASES])
def test_g_at_pth_powers_matches_the_full_precision_route(p, e):
    # apply_map forms its products at r = ceil(n/p) digits, through
    # p-sections when r >= SECTION_MIN_R, the reference at n: the images, the
    # PrecisionExhausted messages and their precedence agree.  Precisions
    # fall on both sides of n = p and, for small p, of the sections' rule
    rng = random.Random(1500 + 10 * p + e)
    long = SECTION_MIN_R * p
    routes = set()
    for i in range(20):
        F = field_for(p, rng.randint(1, 3))
        N = rng.randint(1, 2)
        ns = [1, 2, 3, rng.randint(4, 40)]
        if p < 1000:
            ns += [p, p + 1, rng.randint(p + 1, p + 40)]
        if p < 10:
            ns += [long - p, long - p + 1, rng.randint(long - p + 1, long + 40)]
        n = ns[i // 2 % len(ns)]
        f = rand_g_map(rng, F, e, N, n, short=i % 2 == 1)
        P = rand_point(rng, F, N, n)
        got = outcome(apply_map, f, P)
        assert got == outcome(apply_map_reference, f, P)
        if not isinstance(got[0], type):
            routes.add(-(-n // p) >= SECTION_MIN_R)
    assert routes == ({False, True} if p < 10 else {False})


def test_apply_map_checks_entries_exactly_zero_or_one():
    # A = [[1, 0], [0, 1]] known to t^4 at a point known to t^16: no entry is
    # known below t^4, whatever the zero and one digits suggest
    P = ProjPoint(F2, [ser(F2, "1", 16), ser(F2, "t + t^3 + t^9", 16)])
    one, zero = ser(F2, "1", 4), ser(F2, "0", 4)
    for A in ([[one, zero], [zero, one]], [[ser(F2, "1", 16), zero], [zero, one]]):
        f = validate_map(F2, 2, 1, A, [HomogPoly.zero(F2, 1, 1)] * 2)
        with pytest.raises(PrecisionExhausted,
                           match="map coefficient known only to t\\^4 < point precision 16$"):
            apply_map(f, P)


@pytest.mark.parametrize("p,m,e,N", [(2, 1, 1, 7), (3, 1, 1, 7), (5, 1, 1, 7), (3, 2, 2, 3),
                                     (2, 3, 3, 3)])
def test_apply_map_with_largest_digits_at_tier_edges(p, m, e, N):
    # every digit as large as the field allows, every coefficient dense, at
    # the last precision of the narrowest digit width and the next: the sums
    # of products that form an F_ik stay below the Barrett bound only when
    # they are reduced in chunks
    F = field_for(p, m)
    top = ((1 << 7) - 1 - m * p * p) // (m * (p - 1) ** 2)
    big = F.el([p - 1] * m) if e % m == 0 else F.from_int(p - 1)
    d = p ** (e - 1)
    for n in (top, top + 1):
        tail = [F.zero()] + [big] * (n - 1)
        A = [[TruncSeries(F, n, tail) + (TruncSeries.one(F, n) if i == j
                                         else TruncSeries.zeros(F, n))
              for j in range(N + 1)] for i in range(N + 1)]
        mixed = [exps for exps in {rand_exponents(random.Random(k), N + 1, d) for k in range(8)}
                 if max(exps) < d]
        G = [HomogPoly(F, N, d, {exps: TruncSeries(F, n, tail) for exps in mixed})
             for _ in range(N + 1)]
        f = validate_map(F, p, e, A, G)
        assert isinstance(f, DmlMap), f
        x = TruncSeries(F, n, [F.el([p - 1] * m)] * n)
        P = ProjPoint(F, [TruncSeries.one(F, n)] + [x] * N, _trusted=True)
        assert apply_map(f, P).coords == apply_map_reference(f, P).coords
