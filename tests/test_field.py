import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from frobdml import poly
from frobdml.errors import (DegreeMismatch, DegreeOverflow, DivisionByZero,
                            FieldMismatch, NonPrimeP, ParseError, ReducibleModulus)
from frobdml.field import (MAX_INT_DIGITS, PRIME_BOUND, _fit, _is_prime, _pack, _poly_str,
                           _unpack, format_element, make_field, parse_element, parse_int)

from conftest import field_for, fq_reference, frobenius_pow, width_changes

F2 = field_for(2, 1)
F4 = field_for(2, 2)
F8 = field_for(2, 3)
F9 = field_for(3, 2)
F25 = field_for(5, 2)


def test_construction_golden():
    assert F4.order == 4 and F4.p == 2 and F4.m == 2
    assert F9.order == 9
    assert len(list(F8.elements())) == 8


def test_nonprime_p_rejected():
    with pytest.raises(NonPrimeP):
        make_field(4, 1, [0, 1])
    with pytest.raises(NonPrimeP):
        make_field(1, 1, [0, 1])


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_matches_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division(n)]


def test_primality_on_pseudoprimes_and_large_numbers():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265)
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    psi9, psi12 = 149491 * 747451 * 34233211, 399165290221 * 798330580441
    for n in carmichael + (psi9, psi12, 4294967291 * 4294967311):
        assert not _is_prime(n), n
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59):
        assert _is_prime(n), n
    # the least composite the 13 bases pass: the bound of the test
    assert _is_prime(PRIME_BOUND) and PRIME_BOUND == 1287836182261 * 2575672364521


def test_twenty_digit_prime_builds_fast_and_huge_p_exits_3():
    t0 = time.perf_counter()
    F = make_field(2 ** 64 - 59, 1, [0, 1])
    assert time.perf_counter() - t0 < 0.1 and F.order == 2 ** 64 - 59
    t0 = time.perf_counter()
    for n in (4294967291 * 4294967311, 399165290221 * 798330580441, PRIME_BOUND - 1):
        with pytest.raises(NonPrimeP):
            make_field(n, 1, [0, 1])
    assert time.perf_counter() - t0 < 0.1
    for p in (PRIME_BOUND, PRIME_BOUND + 2, 10 ** 5000 + 1):
        with pytest.raises(DegreeOverflow) as exc:
            make_field(p, 1, [0, 1])
        assert exc.value.exit_code == 3


def test_reducible_modulus_names_a_factor():
    with pytest.raises(ReducibleModulus) as ei:
        make_field(2, 2, [0, 0, 1])  # x^2 = x * x
    assert "divisible by a" in str(ei.value)
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2
    with pytest.raises(ReducibleModulus):
        make_field(3, 3, [0, 0, 0, 1])
    # (a^3+a+1)(a^3+a^2+1): the trace splits two cubic factors over F_2
    with pytest.raises(ReducibleModulus) as ei:
        make_field(2, 6, [1] * 7)
    assert str(ei.value).endswith("is divisible by 1+a+a^3")


def test_modulus_degree_checked():
    with pytest.raises(DegreeMismatch):
        make_field(2, 2, [1, 1])
    with pytest.raises(DegreeMismatch):
        make_field(2, 2, [1, 1, 0])  # leading coefficient vanishes


def test_index_is_a_total_order():
    for F in (F2, F4, F8, F9, F25):
        seen = [x.index() for x in F.elements()]
        assert seen == list(range(F.order))
        for i in range(F.order):
            assert F.from_int(i).index() == i


def test_element_str_round_trip_exhaustive():
    for F in (F4, F8, F9):
        for x in F.elements():
            assert parse_element(F, format_element(x)) == x


def test_parse_element_forms():
    a = F9.gen()
    assert parse_element(F9, "2*a + 1") == F9.one() + a + a
    assert parse_element(F9, "a^2") == a * a
    assert parse_element(F9, "-1") == -F9.one()
    assert parse_element(F4, "1+a") == F4.one() + F4.gen()


# The element grammar, pinned: (field, text, the value as printed).
LONG = "9" * 5000  # past the 4,300-digit limit of int() on a string


def _id(x):
    return f"F{x.order}" if hasattr(x, "order") else x[:24]


@pytest.mark.parametrize("field,text,printed", [
    (F4, "a^5", "1+a"), (F4, " - a + 3 ", "1+a"), (F9, "2*a^0 + a^2", "1"),
    (F25, "\u0663*a", "3*a"),   # an Arabic-Indic three
], ids=_id)
def test_element_grammar_accepts(field, text, printed):
    assert format_element(parse_element(field, text)) == printed


@pytest.mark.parametrize("field,text", [
    (F4, "((a))"), (F4, "2a"), (F4, "a^"), (F4, "1++a"), (F4, "a*2"), (F4, ""),
    (F2, "a"), (F2, "a^0"),
    # superscript digits and over-long literals, which int() refuses
    (F4, "\u00b2"), (F4, "a^\u00b2"), (F4, LONG), (F4, "a^" + LONG), (F4, LONG + "*a"),
], ids=_id)
def test_element_grammar_rejects_with_parse_error(field, text):
    with pytest.raises(ParseError):
        parse_element(field, text)


def test_powers_of_a_reduce_mod_q_minus_1():
    # a^(q-1) = 1, so an exponent counts mod q - 1 and a long one costs no
    # long powering
    for F in (F4, F8, F9, F25):
        q, a = F.order, F.gen()
        for k in range(q - 1):
            for j in (k, q - 1 + k, 7 * (q - 1) + k):
                assert parse_element(F, f"a^{j}") == a ** k, (q, j)
    long = "9" * MAX_INT_DIGITS   # 10^4300 - 1 = 0 mod 3
    assert parse_element(F4, "a^" + long) == F4.one()
    assert parse_element(F4, "+".join(["a^" + long] * 20)) == F4.zero()
    assert parse_element(F4, "+".join(["a^" + long] * 21)) == F4.one()


def test_parse_int_counts_digits_without_the_sign():
    assert parse_int("-" + "9" * MAX_INT_DIGITS) == -(10 ** MAX_INT_DIGITS - 1)
    with pytest.raises(ParseError, match="^integer literal of 4301 digits exceeds "
                                         "the 4300-digit limit$"):
        parse_int("-" + "9" * (MAX_INT_DIGITS + 1))


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        F4.one() + F8.one()


def test_division():
    a = F8.gen()
    x = a * a + F8.one()
    assert x * x.inv() == F8.one()
    assert (x / x) == F8.one()
    with pytest.raises(DivisionByZero):
        F8.zero().inv()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_ring_axioms_f9(i, j, k):
    x, y, z = F9.from_int(i), F9.from_int(j), F9.from_int(k)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == F9.zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 24))
def test_frobenius_is_p_power_f25(i):
    x = F25.from_int(i)
    assert x.frobenius(1) == x ** 5
    assert x.frobenius(2) == x  # Frob^m = id on F_(p^m)
    assert frobenius_pow(x, -1).frobenius(1) == x


def test_frobenius_additive_multiplicative():
    for F in (F8, F9):
        xs = list(F.elements())
        for x in xs:
            for y in xs:
                assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)
                assert (x * y).frobenius(1) == x.frobenius(1) * y.frobenius(1)


def test_subfield_degree():
    assert F8.one().subfield_degree() == 1
    assert F8.gen().subfield_degree() == 3
    assert F9.gen().subfield_degree() == 2
    two = F9.one() + F9.one()
    assert two.subfield_degree() == 1


def test_prime_field_modulus_shape():
    F = make_field(7, 1, [0, 1])
    assert F.order == 7
    x = F.from_int(3)
    assert x + x + x == F.from_int(2)


def trial_division_factor(modulus, p):
    """Reference: least-index monic factor of least degree 1..deg/2, found by
    dividing by every monic candidate in index order; None if irreducible."""
    m = len(modulus) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            cand = list(reversed(low)) + [1]  # index order: low digit first
            rem = list(modulus)
            for k in range(m - d, -1, -1):
                c = rem[k + d]
                for i, ci in enumerate(cand):
                    rem[k + i] = (rem[k + i] - c * ci) % p
            if not any(rem[:d]):
                return cand
    return None


@pytest.mark.parametrize("p,max_degree", [(2, 4), (3, 4), (5, 3)])
def test_modulus_check_matches_trial_division(p, max_degree):
    reducible = 0
    for m in range(1, max_degree + 1):
        for low in itertools.product(range(p), repeat=m):
            mod = list(low) + [1]
            factor = trial_division_factor(mod, p)
            if factor is None:
                assert make_field(p, m, mod).modulus == tuple(mod)
                continue
            reducible += 1
            with pytest.raises(ReducibleModulus) as ei:
                make_field(p, m, mod)
            assert str(ei.value) == \
                f"modulus {_poly_str(mod)} is divisible by {_poly_str(factor)}"
    assert reducible > 0


@pytest.mark.parametrize("p,modulus", [
    (1009, [1, 1, 0, 0, 1]),
    (65537, [1, 1, 1]),
    (2 ** 31 - 1, [4, 1, 0, 1]),
])
def test_large_characteristic_fields(p, modulus):
    m = len(modulus) - 1
    F = make_field(p, m, modulus)
    for coeffs in ([1], [0, 1], [3, p - 1], [p - 2] + [7] * (m - 1)):
        x = F.el(coeffs)
        assert x * x.inv() == F.one()
        assert x.frobenius(m) == x
        assert x.frobenius(1) == x ** p


def test_large_characteristic_reducible_modulus_names_factor():
    # (a + 1)(a^2 + a + 1) over F_65537
    with pytest.raises(ReducibleModulus) as ei:
        make_field(65537, 3, [1, 2, 2, 1])
    assert str(ei.value) == "modulus 1+2*a+2*a^2+a^3 is divisible by 1+a"
    # (a^2 - 3)(a^2 - 5) over F_(2^31-1): two irreducible least-degree
    # factors, which candidate enumeration would take p^2 divisions to order
    t0 = time.perf_counter()
    with pytest.raises(ReducibleModulus) as ei:
        make_field(2 ** 31 - 1, 4, [15, 0, 2 ** 31 - 9, 0, 1])
    assert time.perf_counter() - t0 < 1.0
    assert str(ei.value) == \
        "modulus 15+2147483639*a^2+a^4 is divisible by 2147483642+a^2"


FQ_FIELDS = [(p, m) for p in (2, 3, 5) for m in range(1, 13)] + \
    [(p, m) for p in (257, 2 ** 31 - 1, 2 ** 64 - 59) for m in range(1, 5)]


def first_field(p, m):
    """F_(p^m) by the first irreducible modulus from x^m + x on, in index
    order (over F_(2^31-1) every x^4 + c is reducible)."""
    R = poly.prime_field(p)
    for idx in itertools.count(p):
        mod = poly.digits(idx, p, m) + [1]
        if m == 1 or poly.least_factor_degree(R, mod) is None:
            return make_field(p, m, mod)


@pytest.mark.parametrize("p,m", FQ_FIELDS, ids=[f"p{p}m{m}" for p, m in FQ_FIELDS])
def test_packed_element_ops_match_reference(p, m):
    # 2^64 - 59 needs digits wider than 64 bits
    F = first_field(p, m)
    mul, power = fq_reference(F)
    q, rng = F.order, random.Random(p * 100 + m)
    xs = [F.from_int(rng.randrange(1, q)), F.el([p - 1] * m)]
    if m % 2 == 0:
        xs.append(xs[0] * xs[0].frobenius(m // 2))  # in F_(p^(m/2))
    for x in xs:
        y = F.from_int(rng.randrange(q))
        u, v = x.coeffs, y.coeffs
        assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(u, v))
        assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(u, v))
        assert (-x).coeffs == tuple(-a % p for a in u)
        assert (x * y).coeffs == mul(u, v)
        inv = power(u, q - 2)
        assert x.inv().coeffs == inv and (y / x).coeffs == mul(v, inv)
        for n, want in ((-3, power(inv, 3)), (0, power(u, 0)), (1, u), (2, mul(u, u)),
                        (3 * q + 5, power(u, 3 * q + 5))):
            assert (x ** n).coeffs == want, n
        frob = [u]
        for _ in range(m - 1):
            frob.append(power(frob[-1], p))
        for e in range(-m, 2 * m + 1):
            assert x.frobenius(e).coeffs == frob[e % m], e
        assert x.subfield_degree() == min(d for d in range(1, m + 1)
                                          if m % d == 0 and frob[d % m] == u)
        i = rng.randrange(q)
        assert F.from_int(i).index() == i
        assert F.from_int(i).coeffs == tuple(poly.digits(i, p, m))
    # equal fields built separately have equal, equally hashed elements
    twin = make_field(p, m, F.modulus)
    for x in xs:
        y = twin.from_int(x.index())
        assert y == x and hash(y) == hash(x) and y != x + F.one()
    with pytest.raises(DivisionByZero):
        F.zero().inv()
    with pytest.raises(DivisionByZero):
        F.one() / twin.zero()


CODEC_FIELDS = [(p, m) for p in (2, 3, 5, 257, 65537, 2 ** 31 - 1) for m in (1, 2, 3)]


def pack_reference(F, elems, n):
    """The per-slot join: each element's slot fitted to precision n on its
    own, shifted to its slot and summed."""
    K = F._kron
    return sum(_fit(K, x.packed, 1, n) << (j * K[n].L.S) for j, x in enumerate(elems))


@pytest.mark.parametrize("p,m", CODEC_FIELDS, ids=[f"p{p}m{m}" for p, m in CODEC_FIELDS])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_pack_is_the_per_slot_join_and_unpack_inverts_it(p, m, data):
    # at every precision where the digit width changes, and the one on each
    # side: n elements and fewer, the largest digits among them
    F = field_for(p, m)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    top = F.el([F.p - 1] * F.m)
    for n in width_changes(F):
        for k in (data.draw(st.integers(0, n - 1), label=f"short length at {n}"), n):
            elems = [rng.choice((top, F.from_int(rng.randrange(F.order)))) for _ in range(k)]
            X = _pack(F, elems, n)
            assert X == pack_reference(F, elems, n)
            assert _pack(F, iter(elems + [top]), n) == pack_reference(F, (elems + [top])[:n], n)
            assert _unpack(F, X, n) == tuple(elems) + (F.zero(),) * (n - k)
