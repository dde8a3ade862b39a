"""Truncated power series k[[t]]/(t^prec) with absolute precision tracking.

A TruncSeries stores exactly ``prec`` coefficients (ascending powers of t)
over a FieldSpec.  Precision is absolute: arithmetic results carry
min(prec_a, prec_b); division by a unit preserves precision; truncation is
exact while zero-padding marks the result inexact.

The zero-at-precision series is not "zero", it is "indistinguishable from
zero below t^prec"; ``valuation`` returns the AtPrecisionZero sentinel for
it rather than an integer.

Multiplication uses Kronecker substitution: a series over F_{p^m} is packed
into one big integer with an 8-byte digit per F_p coefficient and a stride
of 2m-1 digits per series coefficient, so one CPython bignum multiply
performs the whole convolution and the only per-coefficient work is the
modular reduction while decoding.  Digit overflow is impossible at desk
scale (bound prec * m * (p-1)^2 << 2^64).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    DegreeMismatch,
    FieldMismatch,
    NonUnitDivisor,
    ParseError,
)
from .field import FieldSpec, FqElem, parse_element, format_element


@dataclass(frozen=True)
class AtPrecisionZero:
    """Valuation sentinel: every stored coefficient vanishes below t^prec."""
    prec: int


@dataclass(frozen=True)
class GaloisAction:
    """The semilinear action sigma = Frob_{p^e}, coefficientwise, fixing t."""
    e: int


_STRUCT_CACHE: dict = {}


def _unpack_u64(buf: bytes, n: int) -> Tuple[int, ...]:
    st = _STRUCT_CACHE.get(n)
    if st is None:
        st = struct.Struct(f"<{n}Q")
        _STRUCT_CACHE[n] = st
    return st.unpack_from(buf)


class TruncSeries:
    __slots__ = ("field", "prec", "coeffs", "inexact", "_enc")

    def __init__(self, field: FieldSpec, prec: int, coeffs: Sequence[FqElem],
                 inexact: bool = False):
        if prec < 1:
            raise DegreeMismatch(f"precision {prec} must be >= 1")
        cs = list(coeffs)
        if len(cs) > prec:
            cs = cs[:prec]
        elif len(cs) < prec:
            cs.extend([field.zero()] * (prec - len(cs)))
        self.field = field
        self.prec = prec
        self.coeffs = tuple(cs)
        self.inexact = inexact
        self._enc: Optional[int] = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, prec: int) -> "TruncSeries":
        return TruncSeries(field, prec, [])

    @staticmethod
    def from_constant(c: FqElem, prec: int) -> "TruncSeries":
        return TruncSeries(c.field, prec, [c])

    @staticmethod
    def one(field: FieldSpec, prec: int) -> "TruncSeries":
        return TruncSeries(field, prec, [field.one()])

    @staticmethod
    def t_power(field: FieldSpec, j: int, prec: int) -> "TruncSeries":
        cs = [field.zero()] * prec
        if j < prec:
            cs[j] = field.one()
        return TruncSeries(field, prec, cs)

    # -- inspection -------------------------------------------------------

    def is_zero_at_precision(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_unit(self) -> bool:
        return not self.coeffs[0].is_zero()

    def constant_term(self) -> FqElem:
        return self.coeffs[0]

    def valuation(self) -> Union[int, AtPrecisionZero]:
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                return j
        return AtPrecisionZero(self.prec)

    # -- helpers ----------------------------------------------------------

    def _check(self, other: "TruncSeries") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _align(self, other: "TruncSeries") -> int:
        self._check(other)
        return min(self.prec, other.prec)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._align(other)
        cs = [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])]
        return TruncSeries(self.field, n, cs, self.inexact or other.inexact)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._align(other)
        cs = [a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])]
        return TruncSeries(self.field, n, cs, self.inexact or other.inexact)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.field, self.prec, [-c for c in self.coeffs], self.inexact)

    def scale(self, c: FqElem) -> "TruncSeries":
        return TruncSeries(self.field, self.prec, [c * x for x in self.coeffs], self.inexact)

    def _encode(self) -> int:
        """Kronecker packing of all prec coefficients (cached)."""
        if self._enc is None:
            m = self.field.m
            stride = 8 * (2 * m - 1)
            buf = bytearray(stride * self.prec)
            pos = 0
            for c in self.coeffs:
                for i, ci in enumerate(c.coeffs):
                    if ci:
                        buf[pos + 8 * i] = ci
                pos += stride
            self._enc = int.from_bytes(bytes(buf), "little")
        return self._enc

    def _enc_prefix(self, n: int) -> int:
        """Packing of the first n coefficients: a bitmask of the cache."""
        if n >= self.prec:
            return self._encode()
        bits = 64 * (2 * self.field.m - 1) * n
        return self._encode() & ((1 << bits) - 1)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._align(other)
        field = self.field
        if n == 1:
            return TruncSeries(field, 1, [self.coeffs[0] * other.coeffs[0]],
                               self.inexact or other.inexact)
        prod = self._enc_prefix(n) * other._enc_prefix(n)
        cs = _decode(field, prod, n)
        return TruncSeries(field, n, cs, self.inexact or other.inexact)

    def inverse(self) -> "TruncSeries":
        """Inverse of a unit by Newton doubling (error squares each step)."""
        if not self.is_unit():
            raise NonUnitDivisor(
                f"valuation {self.valuation()} > 0, cannot invert at fixed precision")
        field, prec = self.field, self.prec
        inv = TruncSeries(field, 1, [self.coeffs[0].inv()])
        k = 1
        while k < prec:
            k = min(2 * k, prec)
            v = TruncSeries(field, k, inv.coeffs[: k], self.inexact)
            u = TruncSeries(field, k, self.coeffs[:k], self.inexact)
            e = TruncSeries.one(field, k) - u * v
            inv = v + v * e
        return TruncSeries(field, prec, inv.coeffs, self.inexact)

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._align(other)
        return TruncSeries(self.field, n, self.coeffs[:n],
                           self.inexact) * TruncSeries(
                               other.field, n, other.coeffs[:n], other.inexact).inverse()

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise DegreeMismatch("negative series powers are not defined here")
        out = TruncSeries.one(self.field, self.prec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def frobenius_power(self, k: int = 1) -> "TruncSeries":
        """self^(p^k) via the char-p identity (sum c_j t^j)^p = sum c_j^p t^(pj).

        Exact, one pass; absolute precision is conservatively kept."""
        field = self.field
        pk = field.p ** k
        cs = [field.zero()] * self.prec
        for j, c in enumerate(self.coeffs):
            if j * pk >= self.prec:
                break
            if not c.is_zero():
                cs[j * pk] = c.frobenius(k)
        return TruncSeries(field, self.prec, cs, self.inexact)

    def shift_down(self, k: int) -> "TruncSeries":
        """Divide by t^k (index shift); consumes k digits of precision."""
        if k == 0:
            return self
        if self.prec - k < 1:
            raise DegreeMismatch(f"shift by {k} exhausts precision {self.prec}")
        return TruncSeries(self.field, self.prec - k, self.coeffs[k:], self.inexact)

    def galois(self, act: Union[GaloisAction, int], inverse: bool = False) -> "TruncSeries":
        e = act.e if isinstance(act, GaloisAction) else act
        if inverse:
            e = -e
        cs = [c.frobenius(e) for c in self.coeffs]
        return TruncSeries(self.field, self.prec, cs, self.inexact)

    # -- precision management ---------------------------------------------

    def change_precision(self, n: int) -> "TruncSeries":
        if n <= self.prec:
            return TruncSeries(self.field, n, self.coeffs[:n], self.inexact)
        return TruncSeries(self.field, n, list(self.coeffs), inexact=True)

    def eq_at_precision(self, other: "TruncSeries", n: Optional[int] = None) -> bool:
        k = self._align(other)
        if n is not None:
            if n > k:
                raise DegreeMismatch(f"cannot compare at {n} beyond stored precision {k}")
            k = n
        return self.coeffs[:k] == other.coeffs[:k]

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.field == other.field
                and self.prec == other.prec and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.prec, self.coeffs))

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return format_series(self)


def _decode(field: FieldSpec, prod: int, out_prec: int) -> List[FqElem]:
    m, p = field.m, field.p
    stride = 2 * m - 1
    nd = stride * out_prec
    need = 8 * nd
    blen = max(need, (prod.bit_length() + 7) // 8)
    buf = prod.to_bytes(blen, "little")
    digits = _unpack_u64(buf, nd)
    out = []
    if m == 1:
        for j in range(out_prec):
            out.append(FqElem(field, (digits[j] % p,)))
        return out
    for j in range(out_prec):
        chunk = [d % p for d in digits[j * stride:(j + 1) * stride]]
        out.append(FqElem(field, field._reduce(chunk)))
    return out


# ---------------------------------------------------------------------------
# text syntax:  1 + (a+1)*t + t^3 + O(t^8)
# ---------------------------------------------------------------------------

def _split_top_level(s: str) -> List[Tuple[int, str]]:
    """Split on +/- at paren depth 0; returns (sign, term) pairs."""
    out = []
    depth = 0
    sign = 1
    term = ""
    i = 0
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
            term += ch
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parens in {s!r}")
            term += ch
        elif ch in "+-" and depth == 0:
            if not term:
                raise ParseError(f"empty term in {s!r}")
            out.append((sign, term))
            sign = -1 if ch == "-" else 1
            term = ""
        else:
            term += ch
        i += 1
    if depth != 0:
        raise ParseError(f"unbalanced parens in {s!r}")
    if not term:
        raise ParseError(f"trailing operator or empty series string {s!r}")
    out.append((sign, term))
    return out


def _strip_parens(s: str) -> str:
    if s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i < len(s) - 1:
                    return s
        return s[1:-1]
    return s


def parse_series(field: FieldSpec, text: str,
                 default_prec: Optional[int] = None) -> TruncSeries:
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty series string")
    terms = _split_top_level(s)
    prec: Optional[int] = None
    pairs: List[Tuple[int, FqElem, int]] = []
    for pos, (sign, term) in enumerate(terms):
        if term.startswith("O("):
            if pos != len(terms) - 1 or sign < 0:
                raise ParseError(f"O(...) must be the final added term in {text!r}")
            inner = term[2:-1] if term.endswith(")") else None
            if inner == "t":
                prec = 1
            elif inner and inner.startswith("t^") and inner[2:].isdigit():
                prec = int(inner[2:])
            else:
                raise ParseError(f"malformed precision marker {term!r}")
            if prec < 1:
                raise ParseError(f"precision must be >= 1 in {term!r}")
            continue
        c, j = _parse_series_term(field, term, text)
        pairs.append((sign, c, j))
    if prec is None:
        prec = default_prec
    if prec is None:
        raise ParseError(f"no O(t^n) marker and no default precision for {text!r}")
    cs = [field.zero()] * prec
    for sign, c, j in pairs:
        if j >= prec:
            continue
        cs[j] = cs[j] + (-c if sign < 0 else c)
    return TruncSeries(field, prec, cs)


def _parse_series_term(field: FieldSpec, term: str, full: str) -> Tuple[FqElem, int]:
    # locate the series variable at depth 0; element syntax never contains t
    depth = 0
    tpos = -1
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "t" and depth == 0:
            tpos = i
            break
    if tpos < 0:
        return parse_element(field, _strip_parens(term)), 0
    tail = term[tpos + 1:]
    if tail == "":
        j = 1
    elif tail.startswith("^") and tail[1:].isdigit():
        j = int(tail[1:])
    else:
        raise ParseError(f"malformed t-power in term {term!r} of {full!r}")
    head = term[:tpos]
    if head == "":
        return field.one(), j
    if head.endswith("*"):
        head = head[:-1]
    return parse_element(field, _strip_parens(head)), j


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
