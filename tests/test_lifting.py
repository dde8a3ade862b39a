import random
from functools import partial

import pytest

from frobdml import dynamics, geometry, lifting, twist
from frobdml.dynamics import DmlMap, apply_map
from frobdml.errors import (NonCanonicalBasePoint, PrecisionBelowThreshold,
                            PrecisionExhausted, PrecisionTooLow,
                            PreconditionMatrixNotIdentityModT)
from frobdml.field import make_field
from frobdml.geometry import (HomogPoly, ProjPoint, normalize, point_variety, proj_eq,
                              reduce_point)
from frobdml.instances import fixture_path, parse_instance
from frobdml.lifting import (SigmaFixedLift, critical_witness, detect_residue_degree,
                             invariance_evidence, minimal_period, point_galois,
                             sigma_fixed_lift)
from frobdml.returns import default_threshold, return_set
from frobdml.series import TruncSeries, format_series

from conftest import field_for, rand_point, rand_residue_point, rand_suite_map

F2 = field_for(2, 1)
F4 = field_for(2, 2)

INST1 = parse_instance(fixture_path("f1.json"))
INST4 = parse_instance(fixture_path("f4.json"))
F1 = INST1.map
FF4 = INST4.map


def closed_form_digits(prec):
    want = [0] * prec
    k = 1
    while k < prec:
        want[k] = 1
        k *= 2
    return want


def test_f1_closed_form():
    L = sigma_fixed_lift(F1, (F2.one(), F2.zero()), 20)
    assert format_series(L.lift.coords[0]) == "1 + O(t^20)"
    assert [0 if c.is_zero() else 1 for c in L.lift.coords[1].coeffs] \
        == closed_form_digits(20)
    assert L.residue_degree == 1


def lift_reference(f, base, prec):
    """The full-precision lift: every step at prec, from the constant lift."""
    cur = ProjPoint(f.field, [TruncSeries.from_constant(c, prec) for c in base])
    for _ in range(prec + 2):
        nxt = point_galois(apply_map(f, cur), -f.e)
        if nxt.coords == cur.coords:
            break
        cur = nxt
    else:
        raise AssertionError("contraction failed to reach a fixed point")
    assert reduce_point(cur) == tuple(base)
    assert proj_eq(apply_map(f, cur), point_galois(cur, f.e))
    return cur


def test_earned_precision_lift_matches_full_precision_reference():
    rng = random.Random(5150)
    seen = set()
    for _ in range(8):
        f = rand_suite_map(rng, prec=300)
        seen.add((f.p, f.e, f.field.m, f.N))
        P0 = rand_residue_point(rng, f)
        for prec in sorted({1, 2, 3, f.p, f.p + 1, 40, 127, 255, 256, 300}):
            L = sigma_fixed_lift(f, P0, prec)
            want = lift_reference(f, P0, prec)
            assert [c.packed for c in L.lift.coords] == [c.packed for c in want.coords]
            assert all(c.prec == prec for c in L.lift.coords)
            assert L.residue_degree == detect_residue_degree(want, f.e)
            assert L.sigma_exponent == f.e
    p, e, m, N = (set(col) for col in zip(*seen))
    assert p == {2, 3, 5} and e == {1, 2} and m == {1, 2, 3} and N == {1, 2, 3}


def test_lift_ramp_climbs_by_p(monkeypatch):
    # the ramp runs at ceil(prec/p^k) for k descending, every value above
    # the constant lift's precision 1, then the certificate at prec
    precs = []
    rung, step = lifting._raw_image, lifting.apply_map

    def rung_spy(f, coords):
        precs.append(coords[0].prec)
        return rung(f, coords)

    def step_spy(f, P):
        precs.append(P.prec)
        return step(f, P)

    monkeypatch.setattr(lifting, "_raw_image", rung_spy)
    monkeypatch.setattr(lifting, "apply_map", step_spy)
    rng = random.Random(5152)
    seen = set()
    for _ in range(12):
        f = rand_suite_map(rng, prec=200)
        seen.add(f.p)
        for prec in (1, 2, f.p, f.p + 1, 40, 64, 81, 125, 200):
            precs.clear()
            sigma_fixed_lift(f, rand_residue_point(rng, f), prec)
            ladder = sorted({-(-prec // f.p ** k) for k in range(9)} - {1})
            assert precs[:len(ladder)] == ladder, (f.p, prec, precs)
            assert precs[len(ladder):] and set(precs[len(ladder):]) == {prec}
    assert seen == {2, 3, 5}


def counted(calls, name, fn):
    """fn, appending name to calls on every call."""
    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return spy


def test_a_lift_divides_at_most_twice(monkeypatch):
    # the ramp never divides: one normalize at prec, and one more when the
    # certificate's raw image is not sigma of the point's raw coordinates
    calls = []
    spy = partial(counted, calls)
    normalize_spy = spy("normalize", geometry.normalize)
    for mod in (geometry, dynamics, lifting):
        monkeypatch.setattr(mod, "normalize", normalize_spy)
    monkeypatch.setattr(TruncSeries, "inverse", spy("inverse", TruncSeries.inverse))
    rng = random.Random(5158)
    seen, divisions = set(), set()
    for _ in range(40):
        f = rand_suite_map(rng, prec=200)
        seen.add((f.p, f.field.m))
        for prec in sorted({1, 2, f.p, f.p + 1, 40, 200}):
            calls.clear()
            sigma_fixed_lift(f, rand_residue_point(rng, f), prec)
            n = calls.count("normalize")
            assert 1 <= n <= 2 and calls.count("inverse") == n, (f, prec, calls)
            divisions.add(n)
    assert seen == {(p, m) for p in (2, 3, 5) for m in (1, 2, 3)}
    assert divisions == {1, 2}


def test_walks_from_a_lift_never_normalize(monkeypatch):
    # f(P~) = sigma(P~): along the forward orbit of a lift and of its Galois
    # conjugates every raw image is sigma of its point's raw coordinates, so
    # no step divides, the first step from L.lift included
    calls = []
    spy = partial(counted, calls)
    rng = random.Random(5153)
    seen = set()
    steps = 0
    step = dynamics.apply_map
    for i in range(40):
        f = rand_suite_map(rng, prec=48)
        seen.add((f.p, f.field.m))
        m = f.field.m
        L = sigma_fixed_lift(f, rand_residue_point(rng, f), rng.choice((5, 17, 32, 48)))
        V = point_variety(point_galois(L.lift, f.e, times=rng.randrange(3)))
        tau = default_threshold(L.lift.prec)
        monkeypatch.setattr(dynamics, "normalize", spy("normalize", geometry.normalize))
        monkeypatch.setattr(geometry, "normalize", spy("normalize", geometry.normalize))
        monkeypatch.setattr(TruncSeries, "inverse", spy("inverse", TruncSeries.inverse))
        monkeypatch.setattr(dynamics, "apply_map", spy("apply_map", step))
        calls.clear()
        cur = L.lift
        for _ in range(2 * m):
            cur = apply_map(f, cur)
        return_set(f, L.lift, V, 3 * m, tau)
        minimal_period(f, L)
        critical_witness(f, L, min(i % 4, L.lift.prec))
        monkeypatch.undo()
        assert set(calls) <= {"apply_map"}, (i, f, sorted(set(calls)))
        steps += len(calls)
    assert seen == {(p, m) for p in (2, 3, 5) for m in (1, 2, 3)}
    assert steps >= 40 * 4


def stripped(P):
    """P as a point built without normalize: no raw."""
    return ProjPoint(P.field, P.coords, consumed=P.consumed, _trusted=True)


def outer_coefficients(f):
    """f with every G coefficient times a generator of its field: no
    Frob_q fixes it when q does not cover the field, so e % e0 != 0."""
    F = f.field
    G = [HomogPoly(F, f.N, g.degree,
                   {exps: c * TruncSeries.from_constant(F.gen(), c.prec)
                    for exps, c in g.terms.items()}) for g in f.G]
    return DmlMap(F, f.p, f.e, f.A, G)


def plain_first_row(f):
    """f with G_0 = 0: f_0 = x_0^q, so a raw point whose first coordinate
    is the series 1 keeps it under f, whatever its other coordinates."""
    return DmlMap(f.field, f.p, f.e, f.A, (HomogPoly.zero(f.field, f.N, f.G[0].degree),) + f.G[1:])


def sample_points(rng, f, n):
    """Lifts, their conjugates, orbit and off-orbit points, one with
    consumed precision, each with its raw coordinates, all at precision n."""
    F, e = f.field, f.e
    L = sigma_fixed_lift(f, rand_residue_point(rng, f), n).lift
    P = normalize(rand_point(rng, F, f.N, n).coords)
    t = TruncSeries(F, n + 1, [F.zero(), F.one()])
    shifted = normalize([c.change_precision(n + 1) * t for c in P.coords])
    assert shifted.consumed == 1 and shifted.prec == n
    one = normalize([TruncSeries.one(F, n)] + list(P.coords[1:]))
    pts = [L, point_galois(L, e, times=2), point_galois(L, -e),
           apply_map(f, L), P, apply_map(f, P), shifted, point_galois(shifted, e), one]
    return pts + [apply_map(f, Q) for Q in pts[-2:]]


def suite_maps(rng, count):
    """Random A = I maps; every third with coefficients sigma moves when it
    can, every third with G_0 = 0."""
    for i in range(count):
        f = rand_suite_map(rng, prec=24)
        if i % 3 == 2 and f.field.m > 1 and f.e % f.field.m:
            f = outer_coefficients(f)
        elif i % 3 == 1:
            f = plain_first_row(f)
        yield f


def test_normalize_keeps_its_raw_coordinates():
    # normalize(P.raw) == P in coords and consumed, on every point
    # normalize, apply_map and point_galois return
    rng = random.Random(5156)
    kinds = set()
    for f in suite_maps(rng, 36):
        e = f.e
        for Q in sample_points(rng, f, rng.choice((1, 3, 9, 24))):
            for R in (Q, apply_map(f, Q), point_galois(Q, e), point_galois(Q, -e)):
                ref = normalize(R.raw)
                assert [c.packed for c in ref.coords] == [c.packed for c in R.coords]
                assert ref.coords == R.coords and ref.prec == R.prec
                assert ref.consumed == R.consumed
                kinds.add((R.prec, R.consumed > 0, f.e % f.e0 == 0))
    assert {k[1:] for k in kinds} == {(False, True), (True, True), (False, False), (True, False)}
    assert {k[0] for k in kinds} == {1, 3, 9, 24}


def test_apply_map_digits_do_not_depend_on_raw(monkeypatch):
    # a point with raw stripped is always normalized; the
    # result is the same whether or not the raw image was sigma of the raw
    divided, total = [], 0
    rng = random.Random(5157)
    for f in suite_maps(rng, 36):
        for Q in sample_points(rng, f, rng.choice((1, 3, 9, 24))):
            total += 1
            monkeypatch.setattr(dynamics, "normalize",
                                counted(divided, "normalize", geometry.normalize))
            got = apply_map(f, Q)
            monkeypatch.undo()
            ref = apply_map(f, stripped(Q))
            assert [c.packed for c in got.coords] == [c.packed for c in ref.coords]
            assert got.consumed == ref.consumed
            assert got.raw == ref.raw
    assert 0 < len(divided) < total    # both routes ran


def test_lift_beyond_map_precision_fails_at_the_requested_precision():
    # f1's A[0][0] = 1 is known to t^65, and every entry of A is checked
    # before G; the error names the lift precision
    with pytest.raises(PrecisionExhausted,
                       match="map coefficient known only to t\\^65 < point precision 80$"):
        sigma_fixed_lift(F1, (F2.one(), F2.zero()), 80)


def test_f4_lift_matches_fixture_point():
    L = sigma_fixed_lift(FF4, (F4.one(), F4.gen()), 40)
    assert L.lift == INST4.points["Ptilde"]
    assert L.residue_degree == 2
    assert minimal_period(FF4, L) == 2


def test_fixed_point_equation_holds():
    L = sigma_fixed_lift(FF4, (F4.one(), F4.gen()), 24)
    lhs = apply_map(FF4, L.lift)
    rhs = point_galois(L.lift, FF4.e)
    assert proj_eq(lhs, rhs)


def test_iterated_equivariance():
    L = sigma_fixed_lift(FF4, (F4.one(), F4.gen()), 24)
    cur = L.lift
    for n in range(1, 5):
        cur = apply_map(FF4, cur)
        assert proj_eq(cur, point_galois(L.lift, FF4.e, times=n))


def test_point_galois_round_trip():
    rng = random.Random(8)
    P = rand_point(rng, F4, 2, 10)
    back = point_galois(point_galois(P, 1, times=3), -1, times=3)
    assert back == P


def test_detect_residue_degree():
    L = sigma_fixed_lift(FF4, (F4.one(), F4.gen()), 16)
    assert detect_residue_degree(L.lift, FF4.e) == 2
    L1 = sigma_fixed_lift(FF4, (F4.one(), F4.one()), 16)
    assert detect_residue_degree(L1.lift, FF4.e) == 1


def residue_degree_scan(P, e):
    """The scan detect_residue_degree replaced: least m <= [F:F_p] with
    every coefficient fixed by Frob_(q^m), or None."""
    for m in range(1, P.field.m + 1):
        if all(s.galois(e * m) == s for s in P.coords):
            return m
    return None


def subfield_series(rng, F, d, prec):
    """A series with coefficients in F_(p^d), d | m: traces to F_(p^d)."""
    cs = []
    for _ in range(prec):
        x = F.from_int(rng.randrange(F.order))
        cs.append(sum((x.frobenius(d * i) for i in range(F.m // d)), F.zero()))
    return TruncSeries(F, prec, cs)


def test_detect_residue_degree_matches_the_scan():
    rng = random.Random(6060)
    for p in (2, 3):
        for m in range(1, 7):
            F = twist.first_irreducible(make_field(p, 1, [0, 1]), m)[1]
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            for _ in range(6):
                coords = [subfield_series(rng, F, rng.choice(divisors), rng.randint(1, 6))
                          for _ in range(rng.randint(2, 3))]
                coords[0] = TruncSeries.one(F, 6)
                P = ProjPoint(F, coords)
                for e in range(1, m + 2):
                    assert detect_residue_degree(P, e) == residue_degree_scan(P, e), (p, m, e)


def test_period_divides_residue_degree_randomized():
    rng = random.Random(4040)
    for _ in range(15):
        f = rand_suite_map(rng, prec=20)
        L = sigma_fixed_lift(f, rand_residue_point(rng, f), 20)
        m = L.residue_degree
        assert m is not None and m >= 1
        assert m % minimal_period(f, L) == 0


def minimal_period_reference(f, L):
    """The plain walk: apply_map until proj_eq with the lift, at most the
    residue degree times."""
    m = L.residue_degree
    cur = L.lift
    for d in range(1, m + 1):
        cur = apply_map(f, cur)
        if proj_eq(cur, L.lift):
            return d
    raise AssertionError(f"no period <= residue degree {m}")


def test_minimal_period_matches_the_walk():
    # the seeded lift suite of criterion 2, and each lift with a residue
    # degree one below its period, where both raise
    def outcome(fn, *args):
        try:
            return fn(*args)
        except AssertionError as ex:  # compared, never swallowed
            return str(ex)

    rng = random.Random(40202)
    periods = set()
    for _ in range(100):
        f = rand_suite_map(rng)
        L = sigma_fixed_lift(f, rand_residue_point(rng, f), 40)
        d = outcome(minimal_period, f, L)
        assert d == outcome(minimal_period_reference, f, L)
        periods.add(d)
        if d > 1:
            short = SigmaFixedLift(L.base, L.lift, L.sigma_exponent, d - 1)
            want = f"no period <= residue degree {d - 1}"
            assert outcome(minimal_period, f, short) == want
            assert outcome(minimal_period_reference, f, short) == want
    assert {1, 2, 3} <= periods


def test_critical_witness_golden():
    L = sigma_fixed_lift(FF4, (F4.one(), F4.gen()), 12)
    Q = critical_witness(FF4, L, 3)
    # odd Galois power sends a to a^2 = 1 + a
    assert format_series(Q.coords[1]) == \
        "(1+a) + t + t^2 + t^4 + t^8 + O(t^12)"
    cur = Q
    for _ in range(3):
        cur = apply_map(FF4, cur)
    assert proj_eq(cur, L.lift)


def test_witness_index_bounds():
    L = sigma_fixed_lift(F1, (F2.one(), F2.zero()), 8)
    with pytest.raises(PrecisionTooLow):
        critical_witness(F1, L, -1)
    with pytest.raises(PrecisionTooLow):
        critical_witness(F1, L, 9)
    assert critical_witness(F1, L, 0) == L.lift


def test_matrix_must_reduce_to_identity():
    from frobdml.dynamics import validate_map
    from frobdml.geometry import HomogPoly
    from frobdml.series import TruncSeries
    prec = 8
    one = TruncSeries.one(F2, prec)
    zero = TruncSeries.zeros(F2, prec)
    A = [[zero, one], [one, zero]]
    G = [HomogPoly(F2, 1, 1, {}), HomogPoly(F2, 1, 1, {})]
    f = validate_map(F2, 2, 1, A, G)
    with pytest.raises(PreconditionMatrixNotIdentityModT):
        sigma_fixed_lift(f, (F2.one(), F2.zero()), 8)


def test_base_point_must_be_canonical():
    with pytest.raises(NonCanonicalBasePoint):
        sigma_fixed_lift(F1, (F2.zero(), F2.zero()), 8)
    with pytest.raises(NonCanonicalBasePoint):
        sigma_fixed_lift(FF4, (F4.gen(), F4.one()), 8)  # leading entry not 1
    # leading zero then 1 is fine
    L = sigma_fixed_lift(F1, (F2.zero(), F2.one()), 8)
    assert L.lift.coords[0].is_zero_at_precision()


def test_invariance_evidence_on_orbit_point():
    L = sigma_fixed_lift(FF4, (F4.one(), F4.gen()), 40)
    V = INST4.varieties["orbitpt"]
    rep = invariance_evidence(FF4, V, [L], tau=30)
    # P~ itself is off the variety (it differs from sigma(P~)); such lifts
    # are reported but not counted as checked
    assert rep.entries[0].on_variety is False
    assert rep.entries[0].image_on_variety is None
    assert rep.checked == 0
    # the lift over the conjugate residue is exactly sigma(P~), which is on V;
    # its image f(sigma(P~)) = P~ leaves V again
    Lc = sigma_fixed_lift(FF4, (F4.one(), F4.one() + F4.gen()), 40)
    assert Lc.lift == point_galois(L.lift, FF4.e)
    rep2 = invariance_evidence(FF4, V, [Lc], tau=30)
    assert rep2.entries[0].on_variety is True
    assert rep2.entries[0].image_on_variety is False
    assert rep2.checked == 1 and rep2.stable == 0
    assert rep2.aggregate is False


@pytest.mark.parametrize("tau", [0, -5])
def test_invariance_evidence_refuses_a_threshold_below_1(tau):
    # every valuation is >= tau <= 0, so such a threshold would put every
    # point on V: P~ over P0, off V at tau = 30, would count as checked and
    # stable.  The rule is return_set's, which refuses it
    L = sigma_fixed_lift(FF4, INST4.points["P0"], 40)
    with pytest.raises(PrecisionBelowThreshold, match="threshold must be >= 1"):
        invariance_evidence(FF4, INST4.varieties["orbitpt"], [L], tau)
