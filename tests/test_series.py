import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from frobdml import field as layout, series, twist
from frobdml.errors import (DegreeMismatch, DegreeOverflow, FieldMismatch,
                            NonUnitDivisor, ParseError)
from frobdml.field import make_field
from frobdml.series import (AtPrecisionZero, TruncSeries,
                            format_series, parse_series)

from conftest import MODULI, field_for, t_power

F2 = field_for(2, 1)
F4 = field_for(2, 2)
F9 = field_for(3, 2)


def S(field, prec, *digits):
    return TruncSeries(field, prec, [field.from_int(d) for d in digits])


def test_constructor_pads_and_truncates():
    s = S(F2, 5, 1, 0, 1)
    assert len(s.coeffs) == 5 and s.coeffs[2] == F2.one() and s.coeffs[4].is_zero()
    s = TruncSeries(F2, 2, [F2.one()] * 7)
    assert s.prec == 2
    with pytest.raises(DegreeMismatch):
        TruncSeries(F2, 0, [])


def test_add_mul_golden():
    s = S(F2, 4, 1, 1)        # 1 + t
    u = S(F2, 4, 1, 0, 1)     # 1 + t^2
    assert format_series(s + u) == "t + t^2 + O(t^4)"
    assert format_series(s * u) == "1 + t + t^2 + t^3 + O(t^4)"
    sq = s * s                # (1+t)^2 = 1 + t^2 in characteristic 2
    assert format_series(sq) == "1 + t^2 + O(t^4)"


def test_precision_is_min_of_operands():
    s = S(F2, 8, 1, 1)
    u = S(F2, 5, 1)
    assert (s + u).prec == 5
    assert (s * u).prec == 5


def naive_mul(s, u):
    prec = min(s.prec, u.prec)
    field = s.field
    out = [field.zero()] * prec
    for i, a in enumerate(s.coeffs[:prec]):
        if a.is_zero():
            continue
        for j, b in enumerate(u.coeffs[:prec]):
            if i + j >= prec:
                break
            out[i + j] = out[i + j] + a * b
    return TruncSeries(field, prec, out)


def test_mul_matches_schoolbook_reference():
    rng = random.Random(411)
    for F in (F2, F4, F9):
        for _ in range(60):
            prec = rng.randint(1, 24)
            s = TruncSeries(F, prec, [F.from_int(rng.randrange(F.order))
                                      for _ in range(prec)])
            u = TruncSeries(F, prec, [F.from_int(rng.randrange(F.order))
                                      for _ in range(prec)])
            assert (s * u).coeffs == naive_mul(s, u).coeffs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=12),
       st.lists(st.integers(0, 8), min_size=1, max_size=12))
def test_mul_commutes_f9(xs, ys):
    prec = max(len(xs), len(ys))
    s = TruncSeries(F9, prec, [F9.from_int(i) for i in xs])
    u = TruncSeries(F9, prec, [F9.from_int(i) for i in ys])
    assert (s * u).coeffs == (u * s).coeffs


def test_valuation():
    assert S(F2, 6, 0, 0, 1).valuation() == 2
    v = S(F2, 6).valuation()
    assert isinstance(v, AtPrecisionZero) and v.prec == 6
    assert S(F2, 6, 1).valuation() == 0


def test_galois_action_fixes_t_and_acts_on_coefficients():
    a = F4.gen()
    s = TruncSeries(F4, 4, [a, F4.one(), a * a, F4.zero()])
    g = s.galois(1)
    assert g.coeffs == (a * a, F4.one(), a, F4.zero())
    # inverse round trip
    assert g.galois(-1).coeffs == s.coeffs
    # Frob_q with q = field order is the identity
    assert s.galois(2).coeffs == s.coeffs


def test_division_by_unit():
    s = S(F9, 8, 2, 1, 0, 1)
    u = S(F9, 8, 1, 2)
    q = s / u
    assert (q * u).coeffs == s.coeffs
    with pytest.raises(NonUnitDivisor):
        s / S(F9, 8, 0, 1)


def test_change_precision_truncates():
    s = S(F2, 8, 1, 1, 1)
    t = s.change_precision(2)
    assert t.prec == 2 and t.coeffs == s.coeffs[:2]


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        S(F2, 4, 1) + S(F4, 4, 1)


def test_parse_format_round_trip_random():
    rng = random.Random(77)
    for F in (F2, F4, F9):
        for _ in range(40):
            prec = rng.randint(1, 16)
            s = TruncSeries(F, prec, [F.from_int(rng.randrange(F.order))
                                      for _ in range(prec)])
            back = parse_series(F, format_series(s))
            assert back.prec == s.prec and back.coeffs == s.coeffs


def test_parse_golden():
    s = parse_series(F4, "1 + (a+1)*t + t^3 + O(t^5)")
    assert s.prec == 5
    assert s.coeffs[0] == F4.one()
    assert s.coeffs[1] == F4.gen() + F4.one()
    assert s.coeffs[3] == F4.one()
    assert parse_series(F2, "t", default_prec=4).coeffs[1] == F2.one()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_series(F2, "1 + t")          # no marker, no default
    with pytest.raises(ParseError):
        parse_series(F2, "O(t^3) + 1")     # marker must be final
    with pytest.raises(ParseError):
        parse_series(F2, "1 + t^ + O(t^4)")
    with pytest.raises(ParseError):
        parse_series(F2, "")


# The series grammar, pinned: (field, text, the value as printed).
LONG = "9" * 5000  # past the 4,300-digit limit of int() on a string


def _id(x):
    return f"F{x.order}" if hasattr(x, "order") else x[:24]
F3, F5 = field_for(3, 1), field_for(5, 1)
ACCEPTED = [
    (F3, "2t + O(t^3)", "2*t + O(t^3)"),
    (F4, "at + O(t^2)", "a*t + O(t^2)"),
    (F4, "a^2t+O(t^3)", "(1+a)*t + O(t^3)"),
    (F4, "(-a)*t^2 + O(t^4)", "a*t^2 + O(t^4)"),
    (F4, "t^03 + O(t^5)", "t^3 + O(t^5)"),
    (F4, "O(t)", "O(t^1)"),
    (F4, "+1 + O(t^2)", "1 + O(t^2)"),
    (F4, "t^9 + O(t^4)", "O(t^4)"),
    (F5, "\u0663*t + O(t^2)", "3*t + O(t^2)"),   # an Arabic-Indic three
]
REJECTED = [(F4, text) for text in (
    "1++t + O(t^2)", "((a))", "O(t^0)", "O(t^3) + 1", "1 - O(t^3)", "t*2 + O(t^3)",
    "2a", "a^", "(a)(a)t + O(t^2)", "*t + O(t^2)", "() + O(t^2)",
    # superscript digits and over-long literals, which int() refuses
    "\u00b2", "a^\u00b2", "t^\u00b2 + O(t^4)", "O(t^\u00b2)",
    LONG + "*t + O(t^2)", "t^" + LONG + " + O(t^2)", "1 + O(t^" + LONG + ")")] + [(F3, "a")]


@pytest.mark.parametrize("field,text,printed", ACCEPTED, ids=_id)
def test_grammar_accepts(field, text, printed):
    assert format_series(parse_series(field, text)) == printed


@pytest.mark.parametrize("field,text", REJECTED, ids=_id)
def test_grammar_rejects_with_parse_error(field, text):
    with pytest.raises(ParseError):
        parse_series(field, text)


def test_t_power_and_one():
    assert format_series(t_power(F2, 3, 6)) == "t^3 + O(t^6)"
    assert format_series(TruncSeries.one(F2, 3)) == "1 + O(t^3)"
    assert format_series(TruncSeries.zeros(F2, 3)) == "O(t^3)"


# ---------------------------------------------------------------------------
# packed arithmetic against per-coefficient definitions, small to large p
# ---------------------------------------------------------------------------

P31 = 2 ** 31 - 1
WIDE_FIELDS = [field_for(2, 1), field_for(2, 3), field_for(3, 2), field_for(5, 3),
               make_field(257, 1, [0, 1]), make_field(257, 2, [3, 0, 1]),
               make_field(257, 3, [1, 1, 0, 1]), make_field(65537, 1, [0, 1]),
               make_field(65537, 2, [3, 0, 1]), make_field(P31, 1, [0, 1]),
               make_field(P31, 3, [4, 1, 0, 1])]


@st.composite
def series_in(draw, field, prec, unit=False):
    if prec <= 12:
        digit = lambda: draw(st.sampled_from((0, 1, field.p - 1))
                             | st.integers(0, field.p - 1))
    else:   # long: digits from a drawn Random, edge values as often as not
        rng = draw(st.randoms(use_true_random=False))
        digit = lambda: rng.choice((0, 1, field.p - 1, rng.randrange(field.p)))
    cs = [field.el([digit() for _ in range(field.m)]) for _ in range(prec)]
    if unit and cs[0].is_zero():
        cs[0] = field.one()
    return TruncSeries(field, prec, cs)


@st.composite
def field_series(draw, count=2, unit=False, precs=st.integers(1, 12)):
    field = draw(st.sampled_from(WIDE_FIELDS))
    ns = [draw(precs) for _ in range(count)]
    return field, [draw(series_in(field, n, unit)) for n in ns]


def coeffwise(fn, *ss):
    n = min(s.prec for s in ss)
    return tuple(fn(*cs) for cs in zip(*(s.coeffs[:n] for s in ss)))


def naive_inverse(s):
    a = s.coeffs
    a0_inv = a[0].inv()
    b = [a0_inv]
    for k in range(1, s.prec):
        acc = s.field.zero()
        for i in range(1, k + 1):
            acc = acc + a[i] * b[k - i]
        b.append(-(acc * a0_inv))
    return tuple(b)


@settings(max_examples=150, deadline=None)
@given(field_series())
def test_packed_ring_ops_match_coefficientwise(fs):
    field, (s, u) = fs
    assert (s * u).coeffs == naive_mul(s, u).coeffs
    assert (s + u).coeffs == coeffwise(lambda a, b: a + b, s, u)
    assert (s - u).coeffs == coeffwise(lambda a, b: a - b, s, u)
    assert (-s).coeffs == coeffwise(lambda a: -a, s)
    c = u.coeffs[0]
    assert s.scale(c).coeffs == coeffwise(lambda a: c * a, s)
    assert (s + u).prec == (s * u).prec == min(s.prec, u.prec)
    assert s - s == TruncSeries.zeros(field, s.prec)


@settings(max_examples=100, deadline=None)
@given(field_series(count=1, unit=True, precs=st.integers(1, 12) | st.integers(13, 300)))
def test_packed_inverse_matches_recursion(fs):
    # precisions that are not powers of two end Newton with a step k - h < h
    field, (s,) = fs
    inv = s.inverse()
    assert inv.prec == s.prec and (s * inv).is_one()
    if s.prec <= 40:   # the recursion is quadratic in FqElem operations
        assert inv.coeffs == naive_inverse(s)


@settings(max_examples=100, deadline=None)
@given(field_series(count=1), st.integers(-3, 3), st.integers(1, 2))
def test_packed_galois_and_frobenius_power(fs, e, k):
    field, (s,) = fs
    assert s.galois(e).coeffs == coeffwise(lambda a: a.frobenius(e), s)
    assert s.galois(-e).coeffs == coeffwise(lambda a: a.frobenius(-e), s)
    pk = field.p ** k
    want = [field.zero()] * s.prec
    for j, c in enumerate(s.coeffs):
        if j * pk < s.prec:
            want[j * pk] = c ** pk
    assert s.frobenius_power(k).coeffs == tuple(want)


@settings(max_examples=100, deadline=None)
@given(field_series(), st.data())
def test_packed_precision_ops(fs, data):
    field, (s, u) = fs
    cs = s.coeffs
    v = next((j for j, c in enumerate(cs) if not c.is_zero()), None)
    assert s.valuation() == (AtPrecisionZero(s.prec) if v is None else v)
    assert s.is_zero_at_precision() == (v is None)
    assert s.constant_term() == cs[0] and s.is_unit() == (v == 0)
    k = data.draw(st.integers(0, s.prec - 1))
    assert s.shift_down(k).coeffs == cs[k:]
    n = data.draw(st.integers(1, 14))
    t = s.change_precision(n)
    assert t.coeffs == (cs + (field.zero(),) * n)[:n]
    x = s.change_precision(s.prec + n)
    assert x.coeffs == cs + (field.zero(),) * n
    assert x.change_precision(x.prec) is x
    n = data.draw(st.integers(1, min(s.prec, u.prec)))
    assert s.eq_at_precision(u, n) == (cs[:n] == u.coeffs[:n])
    assert s.eq_at_precision(s.change_precision(n), n)


def test_digit_sums_beyond_64_bits_are_exact():
    # every coefficient -1: the t^j coefficient of the square sums j+1 terms
    # (p-1)^2, which passes 2^64 before reduction at this length
    F = make_field(P31, 1, [0, 1])
    prec = 3000
    s = TruncSeries(F, prec, [F.el([P31 - 1])] * prec)
    sq = s * s
    assert [c.coeffs[0] for c in sq.coeffs] == [j + 1 for j in range(prec)]


def bound(F, n):
    """Largest digit sum of a precision-n product before its reduction."""
    return n * F.m * (F.p - 1) ** 2 + F.m * F.p ** 2


def tier_tops(F):
    """The last precision of each digit width below MAX_PREC, from the bound."""
    tops, w = [], 8
    while True:
        top = ((1 << (w - 1)) - 1 - F.m * F.p ** 2) // (F.m * (F.p - 1) ** 2)
        if top >= series.MAX_PREC:
            return tops
        if top >= 1:
            tops.append(top)
        w *= 2


EDGES = [(F, top) for F in WIDE_FIELDS for top in tier_tops(F)]
EDGE_IDS = [f"p{F.p}m{F.m}n{top}" for F, top in EDGES]
# the edges a schoolbook or per-coefficient reference can afford
SHORT_EDGES = [(F, top) for F, top in EDGES if top < 700]


def test_digit_width_follows_the_bound():
    # the bound holds at each precision and fails at the next narrower width
    for F in WIDE_FIELDS:
        edges = {n for top in tier_tops(F) for n in (top, top + 1)}
        for n in sorted(edges | {1, 2, series.MAX_PREC}):
            w = layout._width(F, n)
            assert bound(F, n) < 2 ** (w - 1) and (w == 8 or bound(F, n) >= 2 ** (w // 2 - 1))
        # the packings use it (a shape at MAX_PREC is megabytes, so none is built)
        K = F._kron
        assert all(K[n].L.w == layout._width(F, n) for n in edges | {1, 2})
    assert [top for F, top in EDGES if F.p == 2 and F.m == 1] == [123, 32763]
    with pytest.raises(DegreeOverflow):
        TruncSeries.zeros(F2, series.MAX_PREC + 1)
    with pytest.raises(DegreeOverflow):
        TruncSeries.one(F2, 4).change_precision(series.MAX_PREC + 1)
    with pytest.raises(DegreeMismatch):
        TruncSeries.one(F2, 4).change_precision(0)


def test_shape_cache_is_bounded():
    F = make_field(3, 2, [1, 0, 1])
    for n in range(1, 3 * layout.SHAPES_KEPT):
        s = t_power(F, n - 1, n) * TruncSeries.one(F, n) - TruncSeries.zeros(F, n)
        assert s.valuation() == n - 1 and s.coeffs[n - 1] == F.one()
    K = F._kron
    assert len(K) <= layout.SHAPES_KEPT
    # precision 13 is the last at width 8; each shape points into the layouts
    assert {8, 16} <= set(K.layouts) and all(K.layouts[sh.L.w] is sh.L for sh in K.values())


def test_layout_keeps_its_shapes_by_slot_count():
    F = make_field(3, 2, [1, 0, 1])
    L = layout._Layout(F, 16)
    top = 2 * layout.SHAPES_KEPT
    shapes = [L.shape(n) for n in range(1, top)]
    assert len(L.shapes) == layout.SHAPES_KEPT
    # the last SHAPES_KEPT slot counts are kept, each built once
    assert all(L.shape(n) is shapes[n - 1] for n in range(top - layout.SHAPES_KEPT, top))
    again = L.shape(1)
    assert again is not shapes[0] and again.mask == shapes[0].mask
    # the shape of a precision is its layout's shape of that many slots
    K = F._kron
    assert K[3001].L.shape(3001) is K[3001]


# ---------------------------------------------------------------------------
# the digit width tiers: both sides of every edge, mixed widths, repacks
# ---------------------------------------------------------------------------

def top_digits(F):
    """The coefficient whose F_p digits are all p-1, the largest ones."""
    return F.el([F.p - 1] * F.m)


def int_times(F, k, c):
    """k*c for an integer k."""
    return F.el([k * d for d in c.coeffs])


@pytest.mark.parametrize("F,top", EDGES, ids=EDGE_IDS)
def test_tier_edges_with_largest_digits(F, top):
    # s = c/(1-t) with every digit p-1: s*s = c^2/(1-t)^2, s^-1 = (1-t)/c
    c = top_digits(F)
    c2, ci = c * c, c.inv()
    zero, square = F.zero(), {}
    for n in (top, top + 1):
        s = TruncSeries(F, n, [c] * n)
        square[n] = s * s
        assert square[n] == TruncSeries(F, n, [int_times(F, j + 1, c2) for j in range(n)])
        assert s + s == TruncSeries(F, n, [c + c] * n)
        assert -s == TruncSeries(F, n, [-c] * n) and (s - s).is_zero_at_precision()
        assert s.inverse() == TruncSeries(F, n, [ci, -ci])
        scaled = TruncSeries(F, n, [c2] * n)
        assert s.scale(c) == scaled and TruncSeries.from_constant(c, n) * s == scaled
        assert s.constant_term() == c and square[n].constant_term() == c2
        assert TruncSeries.from_constant(c, n) == TruncSeries(F, n, [c])
        if n > 1:
            assert s.shift_down(1) == TruncSeries(F, n - 1, [c] * n)
    wide, narrow = TruncSeries(F, top + 1, [c] * (top + 1)), TruncSeries(F, top, [c] * top)
    assert wide.change_precision(top) == narrow and wide.shift_down(1) == narrow
    assert narrow.change_precision(top + 1) == TruncSeries(F, top + 1, [c] * top + [zero])
    assert wide * narrow == square[top] and wide.eq_at_precision(narrow)


def test_digits_invert_pack_in_every_width():
    # every width a field's packings meet, 1 to MAX_PREC coefficients: P31
    # reaches 128 bits and 2^64 - 59 256
    rng = random.Random(256)
    seen = set()
    for F in WIDE_FIELDS + [make_field(2 ** 64 - 59, 1, [0, 1])]:
        p, m = F.p, F.m
        for n in [1] + [top + 1 for top in tier_tops(F)]:
            w = layout._width(F, n)
            seen.add(w)
            L = layout._Layout(F, w)
            for ds in ([0] * m, [p - 1] * m, [rng.randrange(p) for _ in range(m)]):
                assert L.digits(L.pack(ds)) == tuple(ds)
    assert seen == {8, 16, 32, 64, 128, 256}


@st.composite
def across_an_edge(draw, count=2, unit=False):
    """Series over a field with a short edge, at precisions drawn from both
    sides of it (so operands of one draw often differ in width)."""
    F, top = draw(st.sampled_from(SHORT_EDGES))
    precs = st.integers(max(1, top - 3), top) | st.integers(top + 1, top + 4)
    return F, top, [draw(series_in(F, draw(precs), unit)) for _ in range(count)]


def rebuilt(s, n):
    """s at precision n <= s.prec, built afresh from its coefficients."""
    return TruncSeries(s.field, n, s.coeffs[:n])


@settings(max_examples=40, deadline=None)
@given(across_an_edge(), st.data())
def test_mixed_width_operands(fsu, data):
    F, top, (s, u) = fsu
    n = min(s.prec, u.prec)
    a, b = rebuilt(s, n), rebuilt(u, n)
    assert s * u == a * b and s + u == a + b and s - u == a - b
    if n <= 130:
        assert (s * u).coeffs == naive_mul(a, b).coeffs
    assert (s + u).coeffs == coeffwise(lambda x, y: x + y, a, b)
    k = data.draw(st.integers(1, n))
    assert s.eq_at_precision(u, k) == (s.coeffs[:k] == u.coeffs[:k])
    assert s.eq_at_precision(a) and a.eq_at_precision(s, k)


@settings(max_examples=40, deadline=None)
@given(across_an_edge(count=1, unit=True), st.data())
def test_precision_changes_and_inverse_across_an_edge(fs, data):
    F, top, (s,) = fs
    cs, zero = s.coeffs, F.zero()
    n = data.draw(st.integers(max(1, top - 3), top + 4))
    t = s.change_precision(n)
    assert t == TruncSeries(F, n, (cs + (zero,) * n)[:n])
    x = s.change_precision(s.prec + data.draw(st.integers(0, 8)))
    assert x == TruncSeries(F, x.prec, cs)
    k = data.draw(st.integers(0, s.prec - 1))
    assert s.shift_down(k) == TruncSeries(F, s.prec - k, cs[k:])
    inv = s.inverse()      # the Newton ramp crosses the edge when s.prec > top
    assert (s * inv).is_one() and inv.prec == s.prec
    if s.prec <= 40:
        assert inv.coeffs == naive_inverse(s)


WARM_FIELDS = [field_for(p, m) for p in (2, 3, 5, 257, P31) for m in (1, 2, 3)]


@settings(max_examples=25, deadline=None)
@given(across_an_edge(count=1), st.integers(0, 6), st.integers(1, 6))
def test_one_precision_one_packing(fs, k, extra):
    # built directly, cut down, extended up or shifted: one integer, one hash
    F, top, (s,) = fs
    n, zero = s.prec, F.zero()
    j = max(1, n - extra)
    head = list(s.coeffs[:j])
    want = TruncSeries(F, n, head)
    short = TruncSeries(F, j, head)
    ways = [TruncSeries(F, n + extra, head + [zero] * (n - j) + [top_digits(F)] * extra
                        ).change_precision(n),
            TruncSeries(F, n + k, [zero] * k + head).shift_down(k),
            short.change_precision(n)]
    for w in ways:
        assert w == want and w.packed == want.packed and hash(w) == hash(want)


# ---------------------------------------------------------------------------
# the Barrett pass and the strided Frobenius move against slow references
# ---------------------------------------------------------------------------

STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def modp_reference(L, n, X, count):
    """X with digits 0..count-1 of each of its n slots of layout L reduced by
    Python's % p and the other digits 0: one Python operation per digit,
    read and written by a struct up to 64 bits and byte by byte above."""
    w, k = L.w, 2 * L.m - 1
    buf = X.to_bytes(n * L.S // 8, "little")
    if w <= 64:
        st = struct.Struct(f"<{n * k}{STRUCT_CODES[w]}")
        ds = st.unpack(buf)
    else:
        b = w // 8
        ds = [int.from_bytes(buf[o:o + b], "little") for o in range(0, len(buf), b)]
    out = [d % L.p for d in ds]
    for i in range(count, k):
        out[i::k] = [0] * n
    if w <= 64:
        return int.from_bytes(st.pack(*out), "little")
    return int.from_bytes(b"".join(d.to_bytes(b, "little") for d in out), "little")


def assert_barrett_matches(sh, n, X):
    """The Barrett pass of sh reduces X, its stored digits 0..m-1 alone and
    its product digits m..2m-2 alone as modp_reference does."""
    L = sh.L
    lo = X & sh.low
    for Y in (X, lo, X ^ lo):
        assert layout._barrett(sh, Y) == modp_reference(L, n, Y, 2 * L.m - 1)
    assert layout._reduce_low(sh, lo) == modp_reference(L, n, X, L.m)


def extension(p, m):
    """F_(p^m) by the first irreducible modulus of degree m."""
    return twist.first_irreducible(make_field(p, 1, [0, 1]), m)[1]


def digit_comb(w, count, period, first=0):
    """1 in every period-th of count w-bit digits, from digit first on."""
    reps = -(-(count - first) // period)
    return ((1 << (period * w * reps)) - 1) // ((1 << (period * w)) - 1) << (first * w)


@pytest.mark.parametrize("F,top", [(F, top) for F, top in EDGES if F.p > 2],
                         ids=[i for (F, _), i in zip(EDGES, EDGE_IDS) if F.p > 2])
def test_barrett_at_tier_edges(F, top):
    # digits 0, p-1, p and 2^(w-1)-1 at every third digit (both parities,
    # every place in a slot), alone and between the largest digits; each
    # digit's % p is read off its comb
    K = F._kron
    for n in (top, top + 1):
        sh = K[n]
        w, p = sh.L.w, F.p
        count = n * (2 * F.m - 1)
        every, big = digit_comb(w, count, 1), (1 << (w - 1)) - 1
        for first in range(3):
            comb = digit_comb(w, count, 3, first)
            rest = every - comb
            for v in (0, p - 1, p, big):
                for X, want in ((v * comb, v % p * comb),
                                (v * comb + big * rest, v % p * comb + big % p * rest)):
                    assert layout._barrett(sh, X) == want
                    assert layout._reduce_low(sh, X & sh.low) == want & sh.low
            assert_barrett_matches(sh, n, big * comb + (p - 1) * rest)


def packed_digits(ds, w):
    """The w-bit digits ds side by side, the first lowest."""
    return int.from_bytes(b"".join(d.to_bytes(w // 8, "little") for d in ds), "little")


@pytest.mark.parametrize("w,primes", [
    (8, [q for q in range(3, 128) if all(q % k for k in range(2, q))]),
    (16, [3, 7, 127, 131, 251, 257, 4093, 16381, 16411, 32749])])
def test_barrett_quotient_is_exact_for_every_digit(w, primes):
    # every digit below 2^(w-1), at even and at odd index: a shift one bit
    # shorter than w-1+b is exact at the tier edges but not for all of these
    for p in primes:
        L = layout._Layout(make_field(p, 1, [0, 1]), w)
        for ds in (list(range(1 << (w - 1))), [0] + list(range(1 << (w - 1)))):
            sh = layout._Shape(L, len(ds))
            assert layout._barrett(sh, packed_digits(ds, w)) == packed_digits(
                [d % p for d in ds], w)


@pytest.mark.parametrize("p", [3, 5, 257, 65521, 65537, P31])
def test_barrett_at_wide_digits(p):
    # widths above 64 bits, whose digits the reference reads byte by byte
    rng = random.Random(p)
    for m in (1, 2, 3):
        F = field_for(p, m) if (p, m) in MODULI else extension(p, m)
        for w in (64, 128, 256):
            L = layout._Layout(F, w)
            edge = (0, 1, p - 1, p, p + 1, (1 << (w - 1)) - 1)
            for n in (1, 2, 3, 8):
                sh = layout._Shape(L, n)
                for _ in range(10):
                    ds = [rng.choice(edge + (rng.randrange(1 << (w - 1)),))
                          for _ in range(n * (2 * m - 1))]
                    assert_barrett_matches(sh, n, sum(d << (g * w) for g, d in enumerate(ds)))


@pytest.mark.parametrize("p", [3, 5, 257])
def test_barrett_on_both_selections_up_to_m_12(p):
    rng = random.Random(12 * p)
    for m in range(1, 13):
        F = extension(p, m)
        for n in (1, 2, 3, 4, 7):
            sh = F._kron[n]
            w = sh.L.w
            edge = (0, p - 1, p, (1 << (w - 1)) - 1)
            for _ in range(8):
                ds = [rng.choice(edge + (rng.randrange(1 << (w - 1)),))
                      for _ in range(n * (2 * m - 1))]
                assert_barrett_matches(sh, n, sum(d << (g * w) for g, d in enumerate(ds)))


def frobenius_reference(s, k):
    """s^(p^k) with one slot moved per loop iteration, then Frob_{p^k}."""
    F, n = s.field, s.prec
    pk, S = F.p ** k, F._kron[n].L.S
    moved = sum(((s.packed >> (i * S)) & ((1 << S) - 1)) << (i * pk * S)
                for i in range((n - 1) // pk + 1))
    return series._new(F, n, moved).galois(k)


def test_strided_frobenius_power_matches_the_slot_loop():
    # P31 packs 128-bit digits from n = 2; p^k >= n moves slot 0 only, and
    # p^k divides few of the n
    rng = random.Random(1212)
    widths = set()
    for F in WIDE_FIELDS:
        ns = {1, 2, 3, 5, 9, 17, 30} | {n for top in tier_tops(F) if top < 200
                                          for n in (top, top + 1)}
        for n in sorted(ns):
            widths.add(F._kron[n].L.w)
            s = TruncSeries(F, n, [F.el([rng.randrange(F.p) for _ in range(F.m)])
                                   for _ in range(n)])
            for k in (1, 2, 3):
                assert s.frobenius_power(k) == frobenius_reference(s, k)
    assert widths == {8, 16, 32, 64, 128}


@st.composite
def sectioned(draw):
    """A series over a field of WARM_FIELDS at a precision from 1 to 300 or
    on either side of one of the field's short tier edges."""
    F = draw(st.sampled_from(WARM_FIELDS))
    precs = st.integers(1, 12) | st.integers(13, 300)
    edges = [top for top in tier_tops(F) if top < 700]
    if edges:
        precs |= st.sampled_from(edges).flatmap(
            lambda top: st.integers(max(1, top - 3), top + 4))
    return draw(series_in(F, draw(precs)))


@settings(max_examples=100, deadline=None)
@given(sectioned())
def test_interleaving_the_sections_gives_back_the_series(s):
    # c = sum_(k<p) t^k * d_k^p, where slot j of d_k is Frob_p^(-1) of slot
    # k + p*j of c: the sections have ceil(n/p) slots in the width of n
    F, n, p = s.field, s.prec, s.field.p
    L, r = F._kron[n].L, -(-n // p)
    ds = layout._gather(L, s.galois(-1).packed, n, p)
    assert len(ds) == min(p, n)
    cs, zero = s.coeffs, F.zero()
    for k, D in enumerate(ds):
        assert D >> (r * L.S) == 0
        d = series._new(F, n, D)
        assert d.coeffs == tuple(cs[k + p * j].frobenius(-1) if k + p * j < n else zero
                                 for j in range(r)) + (zero,) * (n - r)
    assert series._new(F, n, layout._scatter(L, n, p, list(enumerate(ds)))).galois(1) == s
    # the identity itself, by public operations at n digits
    total = TruncSeries.zeros(F, n)
    for k, D in enumerate(ds):
        total = total + t_power(F, k, n) * series._new(F, n, D).frobenius_power(1)
    assert total == s
