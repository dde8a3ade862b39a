import gc
import random

import pytest

from frobdml.errors import (DegreeMismatch, DegreeOverflow, DimensionMismatch,
                            IndistinguishableFromZero)
from frobdml.geometry import (HomogPoly, ProjPoint, Subvariety, eval_hom, eval_hom_coords,
                              format_poly, point_variety, poly_mul, proj_eq,
                              reduce_point)
from frobdml.instances import fixture_path, parse_instance
from frobdml.series import TruncSeries, format_series, parse_series

from conftest import (eval_reference, extension, field_for, poly_mul_reference,
                      rand_exponents, rand_point)

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


def test_homog_poly_sums_repeated_vectors():
    g = HomogPoly(F9, 1, 2, [((2, 0), ser(F9, "1 + t", 6)), ((1, 1), ser(F9, "a")),
                             ((2, 0), ser(F9, "a*t^2", 5))])
    assert list(g.terms) == [(2, 0), (1, 1)] and g.prec == 5
    assert format_series(g.terms[2, 0]) == "1 + t + a*t^2 + O(t^5)"
    assert g == HomogPoly(F9, 1, 2, {(1, 1): ser(F9, "a"), (2, 0): ser(F9, "1 + t + a*t^2", 5)})


def test_homog_poly_keeps_the_precision_of_a_cancelled_sum():
    # 1 + O(t) and 2 + O(t^5) cancel at precision 1: the sum is dropped only
    # once every term is in, so t + O(t^5) does not restart it, and prec is 1
    x0 = [((1, 0), ser(F9, "1", 1)), ((1, 0), ser(F9, "2", 5)), ((1, 0), ser(F9, "t", 5))]
    g = HomogPoly(F9, 1, 1, x0 + [((0, 1), ser(F9, "a"))])
    assert list(g.terms) == [(0, 1)] and g.prec == 1
    # a chain of + collects once per +, so there the last summand restarts it
    a, b, c = (HomogPoly(F9, 1, 1, [term]) for term in x0)
    assert format_poly(a + b + c) == "(t + O(t^5))*x0" and (a + b + c).prec == 1


def test_homog_poly_raises_at_the_first_vector_past_max_terms():
    drawn = []

    def terms():
        for k in range(5):
            drawn.append(k)
            yield (k, 4 - k), ser(F2, "1")

    with pytest.raises(DegreeOverflow) as exc:
        HomogPoly(F2, 1, 4, terms(), max_terms=3)
    assert str(exc.value) == "product exceeds the symbolic size bound of 3 terms"
    assert drawn == [0, 1, 2, 3]
    # repeated vectors are one term each
    g = HomogPoly(F2, 1, 4, [((k % 3, 4 - k % 3), ser(F2, "1")) for k in range(9)], max_terms=3)
    assert len(g.terms) == 3


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


# ---------------------------------------------------------------------------
# the one evaluator against the TruncSeries reference
# ---------------------------------------------------------------------------

EVAL_FIELDS = [(2, 1), (2, 2), (2, 5), (2, 12), (3, 1), (3, 4), (3, 12), (5, 3), (7, 2),
               (257, 2), (65537, 1), (2 ** 31 - 1, 3), (2 ** 64 - 59, 1), (2 ** 64 - 59, 2)]


def rand_series(rng, F, prec, big=False):
    """Random digits, or with ``big`` every digit p - 1."""
    top = F.el([F.p - 1] * F.m)
    return TruncSeries(F, prec, [top if big else F.from_int(rng.randrange(F.order))
                                 for _ in range(prec)])


def rand_forms(rng, F, N, n):
    """Up to five forms in N+1 variables whose monomials come from one small
    pool per degree, so they share monomials: zero forms, degree-0 forms,
    coefficients at n or longer, and now and then a coefficient zero at n."""
    forms = []
    for _ in range(rng.randint(1, 5)):
        d = rng.choice((0, 1, 1, 2, 3))
        pool = list({rand_exponents(random.Random(d * 10 + k), N + 1, d) for k in range(4)})
        terms = {}
        for exps in rng.sample(pool, rng.randint(0, len(pool))):
            prec = n + rng.choice((0, 0, 1, 5))
            c = rand_series(rng, F, prec)
            if rng.random() < 0.1:   # zero below t^n, nonzero above
                c = c - c.change_precision(n).change_precision(prec)
            terms[exps] = c
        forms.append(HomogPoly(F, N, d, terms))
    return forms


def assert_evaluates_like_the_reference(forms, coords):
    assert eval_hom_coords(forms, coords) == [eval_reference(h, coords) for h in forms]


@pytest.mark.parametrize("p,m", EVAL_FIELDS, ids=[f"p{p}m{m}" for p, m in EVAL_FIELDS])
def test_eval_hom_coords_matches_the_reference(p, m):
    # coordinates of mixed precision, n = 1 among them
    F = extension(p, m)
    rng = random.Random(p * 31 + m)
    for i in range(12):
        N = rng.randint(1, 3)
        n = (1, 2, rng.randint(3, 40))[i % 3]
        coords = [rand_series(rng, F, n + rng.choice((0, 0, 2, 9))) for _ in range(N + 1)]
        coords[rng.randrange(N + 1)] = rand_series(rng, F, n)
        assert_evaluates_like_the_reference(rand_forms(rng, F, N, n), coords)


def width_tops(p, m, widths):
    """(w, n): n the last precision that packs w-bit digits, by the bound
    n*m*(p-1)^2 + m*p^2 < 2^(w-1)."""
    return [(w, ((1 << (w - 1)) - 1 - m * p * p) // (m * (p - 1) ** 2)) for w in widths]


TOPS = [(p, m, w, n) for p, m, widths in [(3, 1, (8, 16)), (3, 2, (8,)), (5, 2, (16,)),
                                          (7, 1, (16,)), (7, 2, (16,)), (31, 1, (16,)),
                                          (2 ** 31 - 1, 1, (64,))]
        for w, n in width_tops(p, m, widths)]


@pytest.mark.parametrize("p,m,w,n", TOPS, ids=[f"p{p}m{m}w{w}" for p, m, w, n in TOPS])
def test_eval_hom_coords_with_largest_digits_at_width_tops(p, m, w, n):
    # every digit p - 1 at the last precision of a digit width, where a sum
    # of products must be reduced after each one: with two products per run
    # the digits of p = 7 at w = 16 reach the Barrett pass's blind spots
    F = extension(p, m)
    assert ((1 << (w - 1)) - 1 - m * p * p) // (n * m * (p - 1) ** 2) == 1
    assert F._kron[n].L.w == w
    rng = random.Random(n)
    for N in (1, 2):
        coords = [rand_series(rng, F, n, big=True) for _ in range(N + 1)]
        forms = [HomogPoly(F, N, d, {exps: rand_series(rng, F, n, big=True)
                                     for exps in {rand_exponents(rng, N + 1, d) for _ in range(4)}})
                 for d in (1, 1, 2)]
        assert_evaluates_like_the_reference(forms, coords)


def test_eval_hom_coords_reports_the_first_failing_form():
    # a form with another number of variables, or known below the point
    # precision, raises as the reference does on the forms in order
    F = field_for(3, 2)
    coords = [TruncSeries.one(F, 6), ser(F, "t + a", 8), ser(F, "2*t^2", 7)]
    ok = HomogPoly(F, 2, 1, {(1, 0, 0): ser(F, "t", 9)})
    short = HomogPoly(F, 2, 2, {(0, 1, 1): ser(F, "1 + t", 5)})
    dropped = HomogPoly(F, 2, 1, {(0, 0, 1): ser(F, "1", 9)}, prec=4)
    narrow = HomogPoly(F, 1, 1, {(1, 0): ser(F, "1", 9)})

    def outcome(fn, *args):
        try:
            return fn(*args)
        except Exception as ex:  # compared, never swallowed
            return type(ex), str(ex)

    for forms in ([ok, short, narrow], [ok, narrow, short], [dropped, short], [narrow, dropped]):
        want = outcome(lambda: [eval_reference(h, coords) for h in forms])
        assert isinstance(want, tuple) and outcome(eval_hom_coords, forms, coords) == want
    assert eval_hom_coords([], coords) == []


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


# ---------------------------------------------------------------------------
# products of forms on packed coefficients against the TruncSeries reference
# ---------------------------------------------------------------------------

MUL_FIELDS = [(p, m) for p in (2, 3, 5, 7, 257) for m in (1, 2, 3)]


def assert_multiplies_like_the_reference(a, b):
    got, want = poly_mul(a, b), poly_mul_reference(a, b)
    assert (got.degree, got.prec, got.terms) == (want.degree, want.prec, want.terms)


def rand_product_form(rng, F, N, d, n, mixed):
    """A form of degree d on a small pool of monomials, so products share
    vectors; coefficients at precision n, or with ``mixed`` at n..n+6, some
    zero-padded, some with every digit p - 1, and now and then a vector given
    as c, -c at a lower precision and c' after them: a sum cancelled below
    the rest, whose precision the form must keep."""
    pool = list({rand_exponents(rng, N + 1, d) for _ in range(4)})
    terms = []
    for exps in rng.sample(pool, rng.randint(1, len(pool))):
        prec = n + rng.randint(0, 6) if mixed else n
        c = rand_series(rng, F, prec, big=rng.random() < 0.2)
        if mixed and rng.random() < 0.3:
            c = c.change_precision(prec + 3)
        if rng.random() < 0.2:
            low = rand_series(rng, F, max(1, n - 1))
            terms += [(exps, low), (exps, -low)]
        terms.append((exps, c))
    h = HomogPoly(F, N, d, terms)
    assert h.prec == min(c.prec for _, c in terms)
    return h


def reflected(h):
    """h(x0, -x1, x2, ..): h times it is even in x1, so every product of
    odd x1-degree cancels, in characteristic 2 too (2*c*c' = 0)."""
    return HomogPoly(h.field, h.N, h.degree,
                     {e: -c if e[1] % 2 else c for e, c in h.terms.items()}, h.prec)


@pytest.mark.parametrize("p,m", MUL_FIELDS, ids=[f"p{p}m{m}" for p, m in MUL_FIELDS])
def test_poly_mul_matches_the_reference(p, m):
    # precision 1, one precision and mixed precisions; cancelled sums in the
    # factors and in the product
    F = extension(p, m)
    rng = random.Random(p * 17 + m)
    for i in range(12):
        N, mixed = rng.randint(1, 2), i % 3 == 2
        n = (1, rng.randint(2, 12), rng.randint(1, 12))[i % 3]
        a, b = (rand_product_form(rng, F, N, rng.randint(1, 3), n, mixed) for _ in range(2))
        assert_multiplies_like_the_reference(a, b)
        assert_multiplies_like_the_reference(a, reflected(a))
        assert_multiplies_like_the_reference(a, a)


@pytest.mark.parametrize("p,m,w,n", TOPS, ids=[f"p{p}m{m}w{w}" for p, m, w, n in TOPS])
def test_poly_mul_with_largest_digits_at_width_tops(p, m, w, n):
    # every digit p - 1 at the last precision of a digit width, where each
    # run holds one product: x_i*x_j collects two products for i != j, and
    # a vector of the square of a quadratic form up to four
    F = extension(p, m)
    assert F._kron[n].L.w == w
    rng = random.Random(n + 1)
    for N in (1, 2):
        lin = HomogPoly(F, N, 1, {tuple(int(k == j) for k in range(N + 1)):
                                  rand_series(rng, F, n, big=True) for j in range(N + 1)})
        assert_multiplies_like_the_reference(lin, lin)
        quad = poly_mul(lin, lin)
        assert_multiplies_like_the_reference(quad, quad)


def test_poly_mul_raises_at_the_first_vector_past_the_bound():
    # (x0 + x1)^2 collects 3 vectors from 4 products; the message is the
    # constructor's
    lin = HomogPoly(F9, 1, 1, {(1, 0): ser(F9, "1"), (0, 1): ser(F9, "a")})
    assert len(poly_mul(lin, lin, max_terms=3).terms) == 3
    with pytest.raises(DegreeOverflow) as exc:
        poly_mul(lin, lin, max_terms=2)
    assert str(exc.value) == "product exceeds the symbolic size bound of 2 terms"


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
