"""Truncated power series k[[t]]/(t^prec) with absolute precision tracking.

A TruncSeries over k = F_{p^m} is one integer, the Kronecker packing of its
prec coefficients (D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 2009) in the digit
layout of ``field``: the coefficient of t^j owns slot j, and one bignum
multiply followed by one ``_reduce`` is the whole truncated product.

The cost of the product follows the operand bit size, so a series is as
narrow as its own precision allows: over F_4, precisions up to 59 pack
8-bit digits and 60 to 16,379 pack 16-bit ones.  A precision above MAX_PREC
is rejected rather than given ever wider digits.

The width is a function of (field, prec), so every precision has exactly one
packing: equality, hashing, the zero test, is_one, the valuation (lowest set
bit over the slot width), division by t^k (a shift) and truncation (a mask)
read the integer directly.  Whatever changes the precision repacks when the
new precision has another width: an operation whose operands differ in
precision cuts the longer one to the common precision, and change_precision,
shift_down and eq_at_precision pass through _fit.  A coefficient is an
FqElem holding its slot in the width of precision 1, so it is a packing of
precision 1.  This module moves no slot of its own: the list constructor
and ``coeffs`` join and split the FqElems by ``field._pack`` and
``field._unpack`` on every call, ``constant_term``, ``from_constant`` and
``scale`` fit one slot, and ``frobenius_power`` is ``field._dilate``.

Precision is absolute: arithmetic results carry min(prec_a, prec_b);
division by a unit preserves precision; truncation is exact, and padding
appends zero digits: the caller that pads must recompute or cut back those
digits.

The zero-at-precision series is not "zero", it is "indistinguishable from
zero below t^prec"; ``valuation`` returns the AtPrecisionZero sentinel for
it rather than an integer.

``parse_series`` reads the element grammar of ``field`` extended by t and
the precision marker O(t^n) (see "text syntax" below).
"""
from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    FieldMismatch,
    NonUnitDivisor,
    ParseError,
)
from .field import (ELEMENT, TERM, FieldSpec, FqElem, _add, _dilate, _element_value, _fit,
                    _galois, _inv, _pack, _reduce, _sub, _unpack, _unspaced, format_element,
                    parse_int)
from .record import Record

MAX_PREC = 1 << 16


class AtPrecisionZero(Record):
    """Valuation sentinel: every stored coefficient vanishes below t^prec."""
    __slots__ = ("prec",)


# ---------------------------------------------------------------------------
# TruncSeries
# ---------------------------------------------------------------------------

class TruncSeries:
    """Series over ``field`` known to absolute precision ``prec``, stored as
    the packed integer ``packed`` (see the module docstring)."""

    __slots__ = ("field", "prec", "packed")

    def __init__(self, field: FieldSpec, prec: int, coeffs: Sequence[FqElem]):
        _check_prec(prec)
        self.field = field
        self.prec = prec
        self.packed = _pack(field, coeffs, prec)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, prec: int) -> "TruncSeries":
        _check_prec(prec)
        return _new(field, prec, 0)

    @staticmethod
    def from_constant(c: FqElem, prec: int) -> "TruncSeries":
        _check_prec(prec)
        return _new(c.field, prec, _fit(c.field._kron, c.packed, 1, prec))

    @staticmethod
    def one(field: FieldSpec, prec: int) -> "TruncSeries":
        _check_prec(prec)
        return _new(field, prec, 1)

    # -- inspection -------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[FqElem, ...]:
        """The prec coefficients, decoded afresh on every access."""
        return _unpack(self.field, self.packed, self.prec)

    def is_zero_at_precision(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        """Exactly the series 1 at this precision."""
        return self.packed == 1

    def is_unit(self) -> bool:
        return bool(self.packed & self.field._kron[self.prec].L.slot)

    def constant_term(self) -> FqElem:
        return FqElem(self.field, _fit(self.field._kron, self.packed, self.prec, 1))

    def valuation(self) -> Union[int, AtPrecisionZero]:
        X = self.packed
        if not X:
            return AtPrecisionZero(self.prec)
        return ((X & -X).bit_length() - 1) // self.field._kron[self.prec].L.S

    # -- helpers ----------------------------------------------------------

    def _align(self, other: "TruncSeries") -> int:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return min(self.prec, other.prec)

    def _operands(self, other: "TruncSeries") -> Tuple[int, int, int]:
        """(n, X, Y): the common precision and both packings fitted to it."""
        n = self._align(other)
        X, Y = self.packed, other.packed
        if self.prec > n:
            X = _fit(self.field._kron, X, self.prec, n)
        elif other.prec > n:
            Y = _fit(self.field._kron, Y, other.prec, n)
        return n, X, Y

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n, X, Y = self._operands(other)
        return _new(self.field, n, _add(self.field._kron[n], X, Y))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n, X, Y = self._operands(other)
        return _new(self.field, n, _sub(self.field._kron[n], X, Y))

    def __neg__(self) -> "TruncSeries":
        if self.field.p == 2:
            return self
        return _new(self.field, self.prec, _sub(self.field._kron[self.prec], 0, self.packed))

    def scale(self, c: FqElem) -> "TruncSeries":
        field = self.field
        if c.field is not field and c.field != field:
            raise FieldMismatch(f"{field} vs {c.field}")
        sh = field._kron[self.prec]
        P = self.packed * _fit(field._kron, c.packed, 1, self.prec)
        return _new(field, self.prec, _reduce(sh, P))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n, X, Y = self._operands(other)
        sh = self.field._kron[n]
        return _new(self.field, n, _reduce(sh, (X * Y) & sh.mask))

    def inverse(self) -> "TruncSeries":
        """Inverse of a unit by Newton iteration with precision doubling
        (R. P. Brent, H. T. Kung, "Fast algorithms for manipulating formal
        power series", J. ACM 1978), on the packings alone.

        Newton starts from the inverse of the constant term.  When v is right
        mod t^h, u*v = 1 + t^h*d, and for k = min(2h, prec) the step
        v - t^h*((v mod t^(k-h))*d) is right mod t^k, whatever the digits of
        v above h: the correction costs one (k-h)-slot product besides the
        product u*v that gives d.  Every step works in the digit width of
        prec, whose bound also holds for the shorter products, and truncates
        with a mask, so no step repacks or builds a TruncSeries."""
        if not self.is_unit():
            raise NonUnitDivisor(
                f"valuation {self.valuation()} > 0, cannot invert at fixed precision")
        field, prec, U = self.field, self.prec, self.packed
        sh = field._kron[prec]
        S = sh.L.S
        c = U & sh.L.slot
        v = 1 if c == 1 else _inv(sh.L, c)  # 1 is its own inverse
        h = 1
        while h < prec:
            k = min(2 * h, prec)
            mk, mc = (1 << (k * S)) - 1, (1 << ((k - h) * S)) - 1
            vk = v & mk
            P = _reduce(sh, ((U & mk) * vk) & mk)
            c = _reduce(sh, ((v & mc) * ((P >> (h * S)) & mc)) & mc)
            v = _sub(sh, vk, c << (h * S))
            h = k
        return _new(field, prec, v)

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._align(other)
        return self.change_precision(n) * other.change_precision(n).inverse()

    def frobenius_power(self, k: int = 1) -> "TruncSeries":
        """self^(p^k) via the char-p identity (sum c_j t^j)^p = sum c_j^p t^(pj):
        slot j moves to slot j*p^k, then Frob_{p^k} acts on every coefficient.

        Exact, one pass; absolute precision is conservatively kept.  Only the
        first r = ceil(prec/p^k) digits reach the result, since (x + t^r*y)^(p^k)
        = x^(p^k) + t^(r*p^k)*y^(p^k): x known mod t^r and padded with zero
        digits to prec has the same x^(p^k) mod t^prec.

        Read backwards, the identity splits any series into p sections,
        c = sum_(k<p) t^k * d_k^p, where slot j of d_k is Frob_p^(-1) of slot
        k + p*j of c.  Then c mod t^n is the interleave of the d_k mod
        t^ceil(n/p): slot j of d_k lands at slot p*j + k, and a digit whose
        slot lands at or above n never reaches the result.  apply_map
        evaluates structured maps on this identity."""
        field, n = self.field, self.prec
        return _new(field, n, _dilate(field._kron[n], field, self.packed, n, k))

    def shift_down(self, k: int) -> "TruncSeries":
        """Divide by t^k (index shift); consumes k digits of precision."""
        if k == 0:
            return self
        n = self.prec - k
        if n < 1:
            raise DegreeMismatch(f"shift by {k} exhausts precision {self.prec}")
        K = self.field._kron
        X = self.packed >> (k * K[self.prec].L.S)
        return _new(self.field, n, _fit(K, X, self.prec, n))

    def galois(self, e: int) -> "TruncSeries":
        """The semilinear action sigma = Frob_(p^e) on every coefficient,
        e of either sign; t is fixed."""
        field = self.field
        k = e % field.m
        if k == 0:
            return self
        return _new(field, self.prec, _galois(field._kron[self.prec], self.packed, k))

    # -- precision management ---------------------------------------------

    def change_precision(self, n: int) -> "TruncSeries":
        """The series cut to n digits, or padded with zero digits up to n."""
        if n == self.prec:
            return self
        _check_prec(n)
        return _new(self.field, n, _fit(self.field._kron, self.packed, self.prec, n))

    def eq_at_precision(self, other: "TruncSeries", n: Optional[int] = None) -> bool:
        k = self._align(other)
        if n is not None:
            if n > k:
                raise DegreeMismatch(f"cannot compare at {n} beyond stored precision {k}")
            k = n
        K = self.field._kron
        return _fit(K, self.packed, self.prec, k) == _fit(K, other.packed, other.prec, k)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.packed == other.packed
                and self.prec == other.prec and self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.prec, self.packed))

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return format_series(self)


def _check_prec(prec: int) -> None:
    if prec < 1:
        raise DegreeMismatch(f"precision {prec} must be >= 1")
    if prec > MAX_PREC:
        raise DegreeOverflow(f"precision {prec} exceeds the packed series limit {MAX_PREC}")


def _new(field: FieldSpec, prec: int, packed: int) -> TruncSeries:
    s = object.__new__(TruncSeries)
    s.field, s.prec, s.packed = field, prec, packed
    return s


# ---------------------------------------------------------------------------
# text syntax:  1 + (a+1)*t + t^3 + O(t^8)
#
# A series term is a coefficient (an element term, or an element in
# parentheses), a power t^j after an optional *, or both; terms are joined
# by signs, the first sign optional, and O(t^n) may only end the string,
# added.  Without it the precision is default_prec.
# ---------------------------------------------------------------------------

_TERM = re.compile(rf"(?P<sign>[+-]?)(?P<c>{TERM}|\({ELEMENT}\))?"
                   rf"(?P<t>(?(c)\*?)t(?:\^(?P<j>\d+))?)?")
_PRECISION = re.compile(r"(?:\A\+?|\+)O\(t(?:\^(\d+))?\)\Z")


def parse_series(field: FieldSpec, text: str,
                 default_prec: Optional[int] = None) -> TruncSeries:
    s = _unspaced(text, "series")
    if not s:
        raise ParseError("empty series string")
    marker = _PRECISION.search(s)
    body = s[:marker.start()] if marker else s
    terms: List[Tuple[FqElem, int]] = []
    pos = 0
    while pos < len(body):
        mt = _TERM.match(body, pos)
        c, t = mt["c"], mt["t"]
        if not (c or t) or (pos and not mt["sign"]):
            raise ParseError(f"malformed term at {body[pos:]!r} in {text!r}")
        x = field.one() if c is None else _element_value(field, c.strip("()"))
        terms.append((-x if mt["sign"] == "-" else x,
                      0 if t is None else parse_int(mt["j"] or "1")))
        pos = mt.end()
    if marker:
        prec = parse_int(marker[1] or "1")
        if prec < 1:
            raise ParseError(f"precision must be >= 1 in {text!r}")
    elif default_prec is None:
        raise ParseError(f"no O(t^n) marker and no default precision for {text!r}")
    else:
        prec = default_prec
    _check_prec(prec)
    cs = [field.zero()] * prec
    for x, j in terms:
        if j < prec:
            cs[j] += x
    return TruncSeries(field, prec, cs)


def format_series(s: TruncSeries) -> str:
    """Canonical form: ascending powers of t, zero terms omitted, unit
    coefficients omitted except in degree 0, non-monomial coefficients
    parenthesized, mandatory O(t^prec) tail."""
    parts = []
    one = s.field.one()
    for j, c in enumerate(s.coeffs):
        if c.is_zero():
            continue
        cstr = format_element(c)
        if "+" in cstr:
            cstr = f"({cstr})"
        if j == 0:
            parts.append(cstr)
        else:
            tpow = "t" if j == 1 else f"t^{j}"
            parts.append(tpow if c == one else f"{cstr}*{tpow}")
    parts.append(f"O(t^{s.prec})")
    return " + ".join(parts)
