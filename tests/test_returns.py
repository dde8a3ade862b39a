import random

import pytest

from frobdml.dynamics import GeneralMap, apply_map
from frobdml.errors import DegreeMismatch, PrecisionBelowThreshold
from frobdml.geometry import (HomogPoly, Subvariety, _meets, point_variety,
                              proj_eq)
from frobdml.instances import fixture_path, parse_instance
from frobdml.lifting import point_galois, sigma_fixed_lift
from frobdml.returns import (EXACT, NO_DECOMPOSITION, ReturnSet,
                             ap_decompose, decompose_oracle, default_threshold,
                             return_set)
from frobdml.series import AtPrecisionZero, TruncSeries

from conftest import eval_reference, field_for, rand_point, rand_residue_point, rand_suite_map

INST4 = parse_instance(fixture_path("f4.json"))
INST1 = parse_instance(fixture_path("f1.json"))


def rs_of(hits, H):
    return ReturnSet(horizon=H, threshold=1, hits=tuple(sorted(hits)),
                     valuations=())


def test_default_threshold():
    assert default_threshold(40) == 36
    assert default_threshold(5) == 1
    with pytest.raises(PrecisionBelowThreshold):
        default_threshold(4)


def test_decompose_odds():
    d = ap_decompose(rs_of({1, 3, 5, 7, 9}, 10), 12)
    assert d.status == EXACT
    assert d.n0 == 0 and d.sporadic == () and d.progressions == ((1, 2),)
    assert d.expand() == {1, 3, 5, 7, 9}


def test_decompose_empty():
    d = ap_decompose(rs_of(set(), 10), 12)
    assert d.status == EXACT and d.progressions == () and d.sporadic == ()
    assert d.expand() == set()


def test_decompose_singleton():
    d = ap_decompose(rs_of({3}, 100), 12)
    assert d.status == EXACT
    assert d.n0 == 4 and d.sporadic == (3,) and d.progressions == ()


def test_decompose_mixed():
    # 0 sporadic, then every n = 2 mod 3 from 2 on
    hits = {0} | {n for n in range(2, 61) if n % 3 == 2}
    d = ap_decompose(rs_of(hits, 60), 12)
    assert d.status == EXACT
    assert d.expand() == hits
    assert (2, 3) in d.progressions
    assert 0 in d.sporadic


def test_oracle_golden():
    o = decompose_oracle(tuple(range(0, 11, 2)), 10, 12)
    assert o.progressions == ((0, 2),) and o.sporadic == ()
    o = decompose_oracle(tuple(range(11)), 10, 12)
    assert o.progressions == ((0, 1),)
    with pytest.raises(ValueError):
        decompose_oracle((11,), 10, 12)


def test_finite_set_below_horizon_is_all_sporadic():
    hits = {n * n for n in range(8)}  # max 49, horizon 120: room to verify
    d = ap_decompose(rs_of(hits, 120), 12)
    assert d.status == EXACT
    assert set(d.sporadic) == hits and d.progressions == ()


def test_no_decomposition_when_horizon_hit_is_unmatched():
    # the hit at n = 49 = H has no partner at distance <= 12, so no window
    # [n0, H] is m-periodic for any allowed m
    hits = {n * n for n in range(8)}
    d = ap_decompose(rs_of(hits, 49), 12)
    o = decompose_oracle(tuple(sorted(hits)), 49, 12)
    assert d.status == NO_DECOMPOSITION and o.status == NO_DECOMPOSITION
    assert d.n0 is None and d.progressions == () and d.sporadic == ()


def test_oracle_agreement_randomized():
    rng = random.Random(314159)
    H = 300
    for _ in range(200):
        m = rng.randint(1, 12)
        pre = rng.randint(0, 20)
        pattern = {r for r in range(m) if rng.random() < 0.4}
        prefix = {n for n in range(pre) if rng.random() < 0.3}
        hits = sorted(prefix | {n for n in range(pre, H + 1)
                                if n % m in pattern})
        d = ap_decompose(rs_of(hits, H), 12)
        o = decompose_oracle(tuple(hits), H, 12)
        assert (d.status, d.n0, d.sporadic, d.progressions) \
            == (o.status, o.n0, o.sporadic, o.progressions)
        if d.status == EXACT:
            assert d.expand() == set(hits)


def test_return_set_f4_golden():
    f = INST4.map
    P = INST4.points["Ptilde"]
    V = INST4.varieties["orbitpt"]
    rs = return_set(f, P, V, 10, 30)
    assert rs.hits == (1, 3, 5, 7, 9)
    assert rs.horizon == 10 and rs.threshold == 30
    assert len(rs.valuations) == 11
    # odd steps land exactly on the variety: valuation is full precision
    v1 = rs.valuations[1][0]
    assert isinstance(v1, AtPrecisionZero) and v1.prec == 40
    # even steps miss at valuation 0
    assert rs.valuations[2][0] == 0
    assert 3 in rs and 4 not in rs


def test_return_set_f1_empty():
    rs = return_set(INST1.map, INST1.points["P"], INST1.varieties["axis"],
                    10, 8)
    assert rs.hits == ()
    d = ap_decompose(rs, 12)
    assert d.status == EXACT and d.progressions == () and d.sporadic == ()


def test_return_set_bounds():
    f = INST4.map
    P = INST4.points["Ptilde"]
    V = INST4.varieties["orbitpt"]
    with pytest.raises(DegreeMismatch):
        return_set(f, P, V, -1, 30)
    with pytest.raises(PrecisionBelowThreshold):
        return_set(f, P, V, 5, 41)  # threshold above the point's precision
    with pytest.raises(PrecisionBelowThreshold):
        return_set(f, P, V, 5, 0)
    with pytest.raises(DegreeMismatch):
        ap_decompose(rs_of({1}, 10), 0)


def test_membership_monotone_in_threshold():
    f = INST4.map
    P = INST4.points["Ptilde"]
    V = INST4.varieties["orbitpt"]
    lo = return_set(f, P, V, 20, 10)
    hi = return_set(f, P, V, 20, 35)
    assert set(hi.hits) <= set(lo.hits)


def return_set_reference(f, x, V, H, tau):
    """Reference: the full walk, V evaluated at every f^n(x) before
    f^(n+1)(x) is computed."""
    if H < 0:
        raise DegreeMismatch("horizon must be >= 0")
    if tau > x.prec:
        raise PrecisionBelowThreshold(
            f"threshold {tau} exceeds point precision {x.prec}")
    if tau < 1:
        raise PrecisionBelowThreshold("threshold must be >= 1")
    hits = []
    vals = []
    cur = x
    for n in range(H + 1):
        row = tuple(eval_reference(h, cur.coords).valuation() for h in V.generators)
        vals.append(row)
        if all(_meets(v, tau) for v in row):
            hits.append(n)
        if n < H:
            cur = apply_map(f, cur)
    return ReturnSet(H, tau, tuple(hits), tuple(vals))


def outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as ex:  # compared, never swallowed
        return type(ex), str(ex)


def galois_period(P, e):
    return next(d for d in range(1, 50) if proj_eq(point_galois(P, e, times=d), P))


def test_return_set_matches_reference_on_random_maps():
    """Lifts (periodic) and their conjugates, random points, and walks that
    lose precision part-way, at H = 0 and around the period."""
    rng = random.Random(6006)
    prec = 10
    tau = default_threshold(prec)
    seen = {"periodic": 0, "long_h": 0, "raised": 0, "random": 0}
    for _ in range(24):
        f = rand_suite_map(rng, prec=prec)
        L = sigma_fixed_lift(f, rand_residue_point(rng, f), prec).lift
        d = galois_period(L, f.e)
        conj = [point_galois(L, f.e, times=j) for j in range(d)]
        V = point_variety(rng.choice(conj))
        for x in (L, rng.choice(conj)):
            for H in sorted({0, max(d - 1, 0), d, d + 1, 3 * d + rng.randint(0, 4)}):
                got = return_set(f, x, V, H, tau)
                assert got == return_set_reference(f, x, V, H, tau)
                seen["periodic"] += 1
                seen["long_h"] += H > d
        x = rand_point(rng, f.field, f.N, prec)
        H = rng.randint(0, 12)
        assert outcome(return_set, f, x, V, H, tau) \
            == outcome(return_set_reference, f, x, V, H, tau)
        seen["random"] += 1
        # coefficients known to fewer digits than the point: the walk raises
        # PrecisionExhausted at step 1 unless G is zero
        g = rand_suite_map(rng, prec=prec - 2)
        y = rand_point(rng, g.field, g.N, prec)
        W = point_variety(rand_point(rng, g.field, g.N, prec))
        H = rng.randint(0, 4)
        want = outcome(return_set_reference, g, y, W, H, tau)
        assert outcome(return_set, g, y, W, H, tau) == want
        seen["raised"] += isinstance(want, tuple)
    assert all(seen.values()), seen


def rand_general_map(rng, F, prec):
    """(x0 : x1) -> two random quadratic forms with dense coefficients; the
    image loses precision wherever both forms vanish mod t."""
    def dense():
        return TruncSeries(F, prec, [F.from_int(rng.randrange(F.order))
                                     for _ in range(prec)])
    return GeneralMap(F, [HomogPoly(F, 1, 2, {e: dense() for e in
                                              ((2, 0), (1, 1), (0, 2))})
                          for _ in range(2)])


def test_return_set_matches_reference_when_precision_runs_out_part_way():
    F = field_for(3, 1)
    prec = 8
    rng = random.Random(66)
    one = TruncSeries.one(F, prec)
    V = Subvariety(F, 1, [HomogPoly(F, 1, 1, {(0, 1): one})])
    late = 0
    for _ in range(40):
        f = rand_general_map(rng, F, prec)
        for _ in range(3):
            x = rand_point(rng, F, 1, prec)
            H = rng.randint(0, 10)
            want = outcome(return_set_reference, f, x, V, H, 4)
            assert outcome(return_set, f, x, V, H, 4) == want
            late += (isinstance(want, tuple)
                     and not isinstance(outcome(return_set_reference, f, x, V, 1, 4), tuple))
    assert late, "no walk lost precision after its first step"


def test_return_set_error_precedence_matches_reference():
    """V is evaluated at f^n(x) before f^(n+1)(x) is computed, so a V whose
    N or field does not match x fails before a walk that would fail at
    step 1, and a valid V lets the walk's own error through."""
    rng = random.Random(67)
    f = rand_suite_map(rng, prec=6)
    while all(g.is_zero() for g in f.G):
        f = rand_suite_map(rng, prec=6)
    x = rand_point(rng, f.field, f.N, 10)   # finer than the map: step 1 raises
    other_N = point_variety(rand_point(rng, f.field, f.N + 1, 10))
    other_field = point_variety(rand_point(
        rng, field_for(7 - f.field.p if f.field.p != 5 else 2, 1), f.N, 10))
    same = point_variety(rand_point(rng, f.field, f.N, 10))
    kinds = set()
    for V in (other_N, other_field, same):
        for H in (0, 1, 5):
            want = outcome(return_set_reference, f, x, V, H, 6)
            assert outcome(return_set, f, x, V, H, 6) == want
            kinds.add(want[0] if isinstance(want, tuple) else "ok")
    assert len(kinds) >= 3, kinds
