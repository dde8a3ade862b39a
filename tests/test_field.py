import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from frobdml.errors import (DegreeMismatch, DegreeOverflow, DivisionByZero,
                            FieldMismatch, NonPrimeP, ReducibleModulus)
from frobdml.field import (PRIME_BOUND, _is_prime, _poly_str,
                           format_element, make_field, parse_element)

from conftest import field_for, frobenius_pow

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
