import random

import pytest

from frobdml.dynamics import apply_map
from frobdml.errors import (NonCanonicalBasePoint, PrecisionExhausted,
                            PrecisionTooLow, PreconditionMatrixNotIdentityModT)
from frobdml.geometry import ProjPoint, proj_eq, reduce_point
from frobdml.instances import fixture_path, parse_instance
from frobdml.lifting import (critical_witness, detect_residue_degree,
                             invariance_evidence, minimal_period, point_galois,
                             sigma_fixed_lift)
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
        nxt = point_galois(apply_map(f, cur), f.e, inverse=True)
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


def test_lift_carries_each_pivot_inverse_into_the_next_step(monkeypatch):
    # every pivot inverse after the first ramp step gets the last image's as
    # a start, and the certificate's start is already its exact inverse
    starts = []
    inverse = TruncSeries.inverse

    def spy(u, start=None):
        inv = inverse(u, start)
        starts.append(None if start is None else start == inv)
        return inv

    monkeypatch.setattr(TruncSeries, "inverse", spy)
    rng = random.Random(5151)
    for _ in range(6):
        f = rand_suite_map(rng, prec=64)
        starts.clear()
        sigma_fixed_lift(f, rand_residue_point(rng, f), 64)
        # the constant lift and the first ramp step start cold
        assert starts[:2] == [None, None] and None not in starts[2:]
        assert starts[-1] is True


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
    back = point_galois(point_galois(P, 1, times=3), 1, inverse=True, times=3)
    assert back == P


def test_detect_residue_degree():
    L = sigma_fixed_lift(FF4, (F4.one(), F4.gen()), 16)
    assert detect_residue_degree(L.lift, FF4.e) == 2
    L1 = sigma_fixed_lift(FF4, (F4.one(), F4.one()), 16)
    assert detect_residue_degree(L1.lift, FF4.e) == 1


def test_period_divides_residue_degree_randomized():
    rng = random.Random(4040)
    for _ in range(15):
        f = rand_suite_map(rng, prec=20)
        L = sigma_fixed_lift(f, rand_residue_point(rng, f), 20)
        m = L.residue_degree
        assert m is not None and m >= 1
        assert m % minimal_period(f, L) == 0


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
