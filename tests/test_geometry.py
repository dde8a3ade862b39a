import gc
import random

import pytest

from frobdml.errors import (DegreeMismatch, DimensionMismatch,
                            IndistinguishableFromZero)
from frobdml.geometry import (HomogPoly, ProjPoint, Subvariety, eval_hom,
                              format_poly, point_variety, poly_mul, proj_eq,
                              reduce_point)
from frobdml.instances import fixture_path, parse_instance
from frobdml.series import TruncSeries, format_series, parse_series

from conftest import field_for, rand_point

F2 = field_for(2, 1)
F4 = field_for(2, 2)
F9 = field_for(3, 2)


def ser(F, text, prec=8):
    return parse_series(F, text, default_prec=prec)


def test_canonical_form_unit_pivot():
    P = ProjPoint(F9, [ser(F9, "2 + t"), ser(F9, "1 + 2*t")])
    # first unit coordinate is scaled to exactly 1
    assert P.coords[0].constant_term() == F9.one()
    assert P.prec == 8 and P.consumed == 0


def test_canonical_form_valuation_shift():
    P = ProjPoint(F2, [ser(F2, "t"), ser(F2, "t + t^2")])
    # common factor t is shifted out; one precision digit is consumed
    assert P.prec == 7
    assert P.consumed == 1
    assert P.coords[0].constant_term() == F2.one()
    assert format_series(P.coords[1]) == "1 + t + O(t^7)"


def test_all_zero_rejected():
    with pytest.raises(IndistinguishableFromZero):
        ProjPoint(F2, [TruncSeries.zeros(F2, 4), TruncSeries.zeros(F2, 4)])


def test_proj_eq_ignores_scaling():
    u = ser(F9, "1 + t + 2*t^2")
    lam = ser(F9, "2 + t^3")
    P = ProjPoint(F9, [ser(F9, "1"), u])
    Q = ProjPoint(F9, [lam, lam * u])
    assert proj_eq(P, Q)
    R = ProjPoint(F9, [ser(F9, "1"), u + ser(F9, "t^4")])
    assert not proj_eq(P, R)


def test_reduce_point():
    P = ProjPoint(F4, [ser(F4, "1 + t"), ser(F4, "a + t^2")])
    assert reduce_point(P) == (F4.one(), F4.gen())


def test_homog_poly_validation():
    with pytest.raises(DegreeMismatch):
        HomogPoly(F2, 1, 2, {(1, 0): ser(F2, "1")})
    with pytest.raises(DimensionMismatch):
        HomogPoly(F2, 1, 2, {(1, 1, 0): ser(F2, "1")})
    g = HomogPoly(F2, 1, 2, {(2, 0): TruncSeries.zeros(F2, 4)})
    assert g.is_zero()


def test_eval_hom_golden():
    # x0*x1 at [1, t] over F_2
    g = HomogPoly(F2, 1, 2, {(1, 1): ser(F2, "1")})
    P = ProjPoint(F2, [ser(F2, "1"), ser(F2, "t")])
    assert format_series(eval_hom(g, P)) == "t + O(t^8)"


def test_eval_hom_leaves_no_garbage_cycles():
    inst = parse_instance(fixture_path("f1.json"))
    g, P = inst.map.G[1], inst.points["P"]
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            eval_hom(g, P)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0


def test_poly_mul_against_naive():
    rng = random.Random(555)
    for _ in range(25):
        n = rng.randint(2, 3)
        da, db = rng.randint(1, 2), rng.randint(1, 2)

        def rand_poly(d):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * n
                for _ in range(d):
                    exps[rng.randrange(n)] += 1
                cs = [F9.from_int(rng.randrange(9)) for _ in range(6)]
                terms[tuple(exps)] = TruncSeries(F9, 6, cs)
            return HomogPoly(F9, n - 1, d, terms)

        A, B = rand_poly(da), rand_poly(db)
        got = poly_mul(A, B)
        want = {}
        for ea, ca in A.terms.items():
            for eb, cb in B.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                want[key] = want.get(key, TruncSeries.zeros(F9, 6)) + ca * cb
        want = {k: v for k, v in want.items() if not v.is_zero_at_precision()}
        assert got.degree == da + db
        assert set(got.terms) == set(want)
        for k in want:
            assert got.terms[k].coeffs == want[k].coeffs


def test_point_variety_vanishes_on_the_point():
    rng = random.Random(99)
    for _ in range(10):
        P = rand_point(rng, F9, 2, 6)
        V = point_variety(P)
        assert V.N == 2 and len(V.generators) == 3
        for g in V.generators:
            assert eval_hom(g, P).is_zero_at_precision()
        # and does not vanish on a visibly different point
        Q = rand_point(rng, F9, 2, 6)
        if not proj_eq(P, Q):
            assert any(not eval_hom(g, Q).is_zero_at_precision()
                       for g in V.generators)


def test_subvariety_checks():
    g = HomogPoly(F2, 1, 1, {(0, 1): ser(F2, "1")})
    V = Subvariety(F2, 1, [g])
    assert len(V.generators) == 1
    with pytest.raises(DimensionMismatch):
        Subvariety(F2, 2, [g])
    with pytest.raises(DegreeMismatch):
        Subvariety(F2, 1, [HomogPoly(F2, 1, 0, {(0, 0): ser(F2, "1")})])


def test_format_poly():
    g = HomogPoly(F4, 2, 2, {(1, 1, 0): ser(F4, "t + t^2"),
                             (0, 0, 2): ser(F4, "1")})
    assert format_poly(g, "x") == "(t + t^2 + O(t^8))*x0*x1 + x2^2"
