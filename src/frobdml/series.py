"""Truncated power series k[[t]]/(t^prec) with absolute precision tracking.

A TruncSeries over k = F_{p^m} is one integer, the Kronecker packing of its
prec coefficients (D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 2009).  The
coefficient of t^j owns slot j, 2m-1 digits of w bits starting at bit
j*(2m-1)*w.  Its F_p coordinates (ascending powers of the generator a) sit
in the low m digits of the slot, each reduced to [0, p); the high m-1 digits
are zero.

The high digits make room for products.  One bignum multiply performs the
whole convolution, slot j receiving the 2m-1 digits of sum_i c_i d_(j-i);
every digit is reduced mod p, digits m..2m-2 are folded back through the
rows a^(m+k) mod the modulus, and the low digits are reduced again.  Each
reduction is one Barrett pass over all digits at once, SIMD within a
register (T. Granlund, P. Montgomery, "Division by invariant integers using
multiplication", PLDI 1994): a few bignum operations, exact for every digit
below 2^(w-1).  A product digit of a precision-n result sums at most n*m
terms below (p-1)^2 and the fold adds less than m*p^2, so a series of
precision n packs at the least digit width w in {8, 16, 32, 64, ..} with

    n * m * (p-1)^2 + m * p^2 < 2^(w-1),

which is that precondition.

The cost of the product follows the operand bit size, so a series is as
narrow as its own precision allows: over F_4, precisions up to 59 pack
8-bit digits and 60 to 16,379 pack 16-bit ones.  Each field has a
_Layout per width it meets (the rows and Frobenius columns in that width)
and one table of _Shapes, the masks and digit struct per precision, each
pointing at the layout of its width.  A precision above MAX_PREC is rejected
rather than given ever wider digits.

The width is a function of (field, prec), so every precision has exactly one
packing: equality, hashing, the zero test, is_one, the valuation (lowest set
bit over the slot width), division by t^k (a shift) and truncation (a mask)
read the integer directly.  Whatever changes the precision repacks when the
new precision has another width: an operation whose operands differ in
precision cuts the longer one to the common precision, and change_precision,
shift_down and eq_at_precision pass through _fit.  A repack copies the low
bytes of every digit into a buffer of the other width, which is exact
because a reduced digit is below p < 2^(w-1) in every width the precision
admits.  FqElem values appear only at the boundaries: the list constructor
used by parsing, and ``coeffs`` and ``constant_term``, which decode on every
call.

The spare top bit serves addition: digits are added, then p is subtracted
from exactly the digits that reached p, read off as bit w-1 after adding
2^(w-1)-p to every digit.  Over F_2 addition is XOR and a digit mod 2 is its
low bit.

Precision is absolute: arithmetic results carry min(prec_a, prec_b);
division by a unit preserves precision; truncation is exact, and padding
appends zero digits: the caller that pads must recompute or cut back those
digits.

The zero-at-precision series is not "zero", it is "indistinguishable from
zero below t^prec"; ``valuation`` returns the AtPrecisionZero sentinel for
it rather than an integer.
"""
from __future__ import annotations

import struct
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    FieldMismatch,
    NonUnitDivisor,
    ParseError,
)
from .field import FieldSpec, FqElem, parse_element, format_element
from .record import Record

MAX_PREC = 1 << 16
# Shapes kept per field: a shape costs a few integers of n slots, and a walk
# that loses precision step by step meets a new n at every step.
SHAPES_KEPT = 64
_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class AtPrecisionZero(Record):
    """Valuation sentinel: every stored coefficient vanishes below t^prec."""
    __slots__ = ("prec",)


class GaloisAction(Record):
    """The semilinear action sigma = Frob_{p^e}, coefficientwise, fixing t."""
    __slots__ = ("e",)


# ---------------------------------------------------------------------------
# the packings of one field
# ---------------------------------------------------------------------------

class _WideDigits:
    """struct.Struct stand-in for digits wider than 64 bits: reads and writes
    the wb-byte digits at the given byte offsets, zero elsewhere."""

    __slots__ = ("size", "wb", "offsets")

    def __init__(self, size: int, wb: int, offsets: List[int]):
        self.size, self.wb, self.offsets = size, wb, offsets

    def unpack(self, buf: bytes) -> Tuple[int, ...]:
        wb = self.wb
        return tuple(int.from_bytes(buf[o:o + wb], "little") for o in self.offsets)

    def pack(self, *digits: int) -> bytes:
        out = bytearray(self.size)
        wb = self.wb
        for o, d in zip(self.offsets, digits):
            out[o:o + wb] = d.to_bytes(wb, "little")
        return bytes(out)


def _digit_struct(L: "_Layout", n: int, first: int, count: int):
    """Reader/writer of digits first..first+count-1 of each of n slots."""
    wb, slot = L.w // 8, L.S // 8
    code = _STRUCT_CODES.get(L.w)
    if code is None:
        return _WideDigits(n * slot, wb, [j * slot + (first + i) * wb
                                          for j in range(n) for i in range(count)])
    pre, post = first * wb, slot - (first + count) * wb
    if not pre and not post:     # every digit of every slot
        return struct.Struct(f"<{n * count}{code}")
    item = (f"{pre}x" if pre else "") + f"{count}{code}" + (f"{post}x" if post else "")
    return struct.Struct("<" + item * n)


def _tile(x: int, bits: int, nbytes: int) -> int:
    """The bits-wide pattern x repeated over nbytes bytes, cut at the top."""
    b = bits // 8
    return int.from_bytes((x.to_bytes(b, "little") * -(-nbytes // b))[:nbytes], "little")


class _Layout:
    """One digit width of a field: slot width, the reduction rows a^(m+k)
    and the Frobenius columns as packed slots."""

    __slots__ = ("p", "m", "w", "S", "slot", "ones_slot", "red", "_frob", "mu", "shift",
                 "qbits", "unit", "U")

    def __init__(self, field: FieldSpec, w: int):
        p, m = field.p, field.m
        self.p, self.m, self.w, self.S = p, m, w, (2 * m - 1) * w
        # a slot as U memoryview items of format unit, for strided slot moves
        self.unit = _STRUCT_CODES[min(w, 64)]
        self.U = (2 * m - 1) * max(1, w // 64)
        self.slot = (1 << (m * w)) - 1
        # Barrett: d // p == (d * mu) >> shift for every d < 2^(w-1); the
        # quotient is below 2^(w-b+1), its window's qbits
        b = p.bit_length()
        self.shift = w - 1 + b
        self.mu = (1 << self.shift) // p + 1
        self.qbits = (1 << (w - b + 1)) - 1
        self.ones_slot = self.pack((1,) * m)
        self.red = [self.pack(row) for row in field._red[:m - 1]]
        self._frob: Dict[int, List[int]] = {}

    def pack(self, digits: Sequence[int]) -> int:
        """One coefficient's digits as a packed slot."""
        w = self.w
        return sum(d << (i * w) for i, d in enumerate(digits))

    def frob_cols(self, field: FieldSpec, k: int) -> List[int]:
        """The images of 1, a, .., a^(m-1) under x -> x^(p^k), packed."""
        cols = self._frob.get(k)
        if cols is None:
            cols = self._frob[k] = [self.pack(c) for c in field._frob_mat(k)]
        return cols


class _Shape:
    """The layout, masks and digit struct of an n-coefficient packing.  For
    p > 2 the Barrett pass reads two more: ``even``, every digit at an even
    global index, and ``qmask``, the low w-b+1 bits of each such digit (b
    the bit length of p), where the quotient of its 2w-bit window lands."""

    __slots__ = ("L", "mask", "rep", "ones", "bias", "pones", "digit", "low", "lo",
                 "even", "qmask")

    def __init__(self, L: _Layout, n: int):
        p, m, w, S = L.p, L.m, L.w, L.S
        nb = n * S // 8
        self.L = L
        self.mask = (1 << (n * S)) - 1                 # all n slots
        self.rep = _tile(1, S, nb)                     # bit 0 of each slot
        self.ones = _tile(L.ones_slot, S, nb)          # 1 in every stored digit
        self.digit = _tile((1 << w) - 1, S, nb)        # all of digit 0 of each slot
        self.low = _tile(L.slot, S, nb)                # all of the stored digits
        self.lo = _digit_struct(L, n, 0, m)
        self.bias = self.pones = self.even = self.qmask = None
        if p > 2:
            # add/sub: digits reaching p gain bit w-1 from bias; pones - x negates
            self.bias = _tile(L.ones_slot * ((1 << (w - 1)) - p), S, nb)
            self.pones = _tile(L.ones_slot * p, S, nb)
            self.even = _tile((1 << w) - 1, 2 * w, nb)
            self.qmask = _tile(L.qbits, 2 * w, nb)


def _width(field: FieldSpec, n: int) -> int:
    """The least w in {8, 16, 32, ..} with n*m*(p-1)^2 + m*p^2 < 2^(w-1)."""
    p, m = field.p, field.m
    need, w = n * m * (p - 1) ** 2 + m * p * p, 8
    while need >= 1 << (w - 1):
        w *= 2
    return w


class _Kron(dict):
    """The packings of one field: a table of _Shapes by precision, the last
    SHAPES_KEPT used, and a _Layout per digit width they point at."""

    __slots__ = ("field", "layouts")

    def __init__(self, field: FieldSpec):
        super().__init__()
        self.field = field
        self.layouts: Dict[int, _Layout] = {}

    def __missing__(self, n: int) -> _Shape:
        F = self.field
        w = _width(F, n)
        L = self.layouts.get(w)
        if L is None:
            L = self.layouts[w] = _Layout(F, w)
        if len(self) >= SHAPES_KEPT:   # evict the oldest
            del self[next(iter(self))]
        sh = self[n] = _Shape(L, n)
        return sh


_KRONS: Dict[Tuple[int, int, Tuple[int, ...]], _Kron] = {}


def _kron(field: FieldSpec) -> _Kron:
    """The packings of ``field``, shared by every equal FieldSpec (each parsed
    instance file builds its own) and kept on the field for direct access."""
    K = field._kron
    if K is None:
        key = (field.p, field.m, field.modulus)
        K = _KRONS.get(key)
        if K is None:
            K = _KRONS[key] = _Kron(field)
        field._kron = K
    return K


def _fit(K: _Kron, X: int, a: int, b: int) -> int:
    """The packing X of a precision-a series as one of precision b: cut to b
    slots when b < a (zero digits are added when b > a), in the width of b."""
    A, B = K[a].L, K[b]
    if A is B.L:
        return X & B.mask if b < a else X
    B = B.L
    if b < a:
        X &= (1 << (b * A.S)) - 1
    # a digit of a precision-n series is below p < 2^(w-1) in the width w of
    # n, so copying the low bytes of every digit is exact both ways
    ab, bb = A.w // 8, B.w // 8
    count = min(a, b) * (2 * A.m - 1)
    src = X.to_bytes(count * ab, "little")
    out = bytearray(count * bb)
    for i in range(min(ab, bb)):
        out[i::bb] = src[i::ab]
    return int.from_bytes(out, "little")


def _barrett(sh: _Shape, X: int) -> int:
    """X with every digit reduced mod p, for p > 2 and digits below 2^(w-1).

    The digits at even and at odd global index are split apart, so each lies
    alone in a 2w-bit window starting at an even digit.  There d * mu <
    2^(2w-1) stays inside the window, its quotient (d * mu) >> shift is exact
    for d < 2^(w-1), and qmask drops the fraction bits the next window shifts
    down into it."""
    L = sh.L
    w, p, mu, s, ev, qm = L.w, L.p, L.mu, L.shift, sh.even, sh.qmask
    E, O = X & ev, (X >> w) & ev
    E -= (((E * mu) >> s) & qm) * p
    O -= (((O * mu) >> s) & qm) * p
    return E | (O << w)


def _reduce_low(sh: _Shape, P: int) -> int:
    """Canonical packing of P, whose slots hold m low digits below 2^(w-1)
    and zero high digits."""
    return P & sh.ones if sh.L.p == 2 else _barrett(sh, P)


def _reduce(sh: _Shape, P: int) -> int:
    """Canonical packing of P, whose slots hold 2m-1 digits below 2^(w-1)."""
    L = sh.L
    if L.m > 1:
        w = L.w
        if L.p == 2:
            H, dig = P, sh.rep          # a digit mod 2 is its low bit
        else:
            H = P = _barrett(sh, P)
            dig = sh.digit
        P &= sh.low
        for k, row in enumerate(L.red, L.m):
            P += ((H >> (k * w)) & dig) * row
    return _reduce_low(sh, P)


def _add(sh: _Shape, X: int, Y: int) -> int:
    """Canonical packing of X + Y for canonical X and Y; for p > 2 any
    packings whose digit sums stay below 2p."""
    L = sh.L
    if L.p == 2:
        return X ^ Y
    Z = X + Y
    return Z - (((Z + sh.bias) >> (L.w - 1)) & sh.ones) * L.p


def _sub(sh: _Shape, X: int, Y: int) -> int:
    """Canonical packing of X - Y, for canonical X and Y."""
    return X ^ Y if sh.L.p == 2 else _add(sh, X, sh.pones - Y)


def _galois(sh: _Shape, field: FieldSpec, X: int, k: int) -> int:
    """x -> x^(p^k) on every coefficient of the canonical packing X."""
    w = sh.L.w
    acc = 0
    for j, col in enumerate(sh.L.frob_cols(field, k)):
        acc += ((X >> (j * w)) & sh.digit) * col
    return _reduce_low(sh, acc)


def _scatter(L: _Layout, n: int, step: int, parts) -> int:
    """The n-slot packing whose slot k + step*j is slot j of F, for every
    (k, F) of ``parts`` and k + step*j < n, and zero elsewhere.  Each F has
    at most ceil(n/step) slots (canonical or not: whole slots move), and
    each k is below step, so no two slots meet.  One strided memoryview
    assignment per item of a slot and per part."""
    U, sb = L.U, L.S // 8
    out = bytearray(n * sb)
    dst = memoryview(out).cast(L.unit)
    r = -(-n // step)
    for k, F in parts:
        cnt = (n - k - 1) // step + 1
        src = memoryview(F.to_bytes(r * sb, "little")).cast(L.unit)
        for i in range(U):
            dst[k * U + i::step * U] = src[i:cnt * U:U]
    return int.from_bytes(out, "little")


def _gather(L: _Layout, X: int, n: int, p: int) -> List[int]:
    """The p-sections of the n-slot packing X: for k < min(p, n), the
    packing of ceil(n/p) slots whose slot j is slot k + p*j of X."""
    U, sb = L.U, L.S // 8
    r = -(-n // p)
    src = memoryview(X.to_bytes(n * sb, "little")).cast(L.unit)
    out = []
    for k in range(min(p, n)):
        cnt = (n - k - 1) // p + 1
        buf = bytearray(r * sb)
        dst = memoryview(buf).cast(L.unit)
        for i in range(U):
            dst[i:cnt * U:U] = src[k * U + i::p * U]
        out.append(int.from_bytes(buf, "little"))
    return out


def _dilate(sh: _Shape, field: FieldSpec, X: int, n: int, k: int) -> int:
    """X^(p^k) mod t^n, n slots in the width of sh, for a canonical packing
    X, by (sum c_j t^j)^(p^k) = sum c_j^(p^k) t^(j*p^k): slot j moves to
    slot j*p^k, then Frob_(p^k) acts on every coefficient.  Only the slots
    j < ceil(n/p^k) of X are read."""
    pk = field.p ** k
    X &= (1 << (-(-n // pk) * sh.L.S)) - 1
    if k == 0:
        return X
    X = _scatter(sh.L, n, pk, [(0, X)])
    k %= field.m
    return _galois(sh, field, X, k) if k else X


def _unpack(field: FieldSpec, sh: _Shape, X: int) -> Tuple[FqElem, ...]:
    """The coefficients of the canonical packing X with sh's slots."""
    m = field.m
    ds = sh.lo.unpack(X.to_bytes(sh.lo.size, "little"))
    return tuple(FqElem(field, ds[i:i + m]) for i in range(0, len(ds), m))


# ---------------------------------------------------------------------------
# TruncSeries
# ---------------------------------------------------------------------------

class TruncSeries:
    """Series over ``field`` known to absolute precision ``prec``, stored as
    the packed integer ``packed`` (see the module docstring).  Every
    TruncSeries has built the packings of its field, so methods read
    ``self.field._kron`` directly."""

    __slots__ = ("field", "prec", "packed")

    def __init__(self, field: FieldSpec, prec: int, coeffs: Sequence[FqElem]):
        _check_prec(prec)
        m = field.m
        digits = [d for c in islice(coeffs, prec) for d in c.coeffs]
        digits += [0] * (prec * m - len(digits))
        self.field = field
        self.prec = prec
        self.packed = int.from_bytes(_kron(field)[prec].lo.pack(*digits), "little")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, prec: int) -> "TruncSeries":
        return _make(field, prec, lambda L: 0)

    @staticmethod
    def from_constant(c: FqElem, prec: int) -> "TruncSeries":
        return _make(c.field, prec, lambda L: L.pack(c.coeffs))

    @staticmethod
    def one(field: FieldSpec, prec: int) -> "TruncSeries":
        return _make(field, prec, lambda L: 1)

    # -- inspection -------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[FqElem, ...]:
        """The prec coefficients, decoded afresh on every access."""
        return _unpack(self.field, self.field._kron[self.prec], self.packed)

    def is_zero_at_precision(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        """Exactly the series 1 at this precision."""
        return self.packed == 1

    def is_unit(self) -> bool:
        return bool(self.packed & self.field._kron[self.prec].L.slot)

    def constant_term(self) -> FqElem:
        L = self.field._kron[self.prec].L
        x, w, dm = self.packed & L.slot, L.w, (1 << L.w) - 1
        return FqElem(self.field, tuple((x >> (i * w)) & dm for i in range(L.m)))

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
        P = self.packed * sh.L.pack(c.coeffs)
        return _new(field, self.prec, _reduce(sh, P))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n, X, Y = self._operands(other)
        sh = self.field._kron[n]
        return _new(self.field, n, _reduce(sh, (X * Y) & sh.mask))

    def inverse(self, start: Optional["TruncSeries"] = None) -> "TruncSeries":
        """Inverse of a unit by Newton iteration with precision doubling
        (R. P. Brent, H. T. Kung, "Fast algorithms for manipulating formal
        power series", J. ACM 1978), on the packings alone.

        When v is right mod t^h, u*v = 1 + t^h*d, and for k = min(2h, prec)
        the step v - t^h*((v mod t^(k-h))*d) is right mod t^k, whatever the
        digits of v above h: the correction costs one (k-h)-slot product
        besides the product u*v that gives d.  Every step works in the digit
        width of prec, whose bound also holds for the shorter products, and
        truncates with a mask, so no step repacks or builds a TruncSeries.

        ``start``, a guess of any precision, is trusted only as far as it is
        measured: the product u*start shows its first wrong slot h, and
        Newton continues from there with d read off that product (from u's
        constant term if slot 0 is wrong)."""
        if not self.is_unit():
            raise NonUnitDivisor(
                f"valuation {self.valuation()} > 0, cannot invert at fixed precision")
        field, prec, U = self.field, self.prec, self.packed
        sh = field._kron[prec]
        S = sh.L.S
        h = 0
        if start is not None:
            self._align(start)
            v = _fit(field._kron, start.packed, start.prec, prec)
            P = _reduce(sh, (U * v) & sh.mask)
            if P == 1:
                return _new(field, prec, v)
            D = P ^ 1     # its lowest set bit lies in the first slot of P that is wrong
            h = ((D & -D).bit_length() - 1) // S
        if not h:
            one = (U & sh.L.slot) == 1  # 1 is its own inverse
            v = 1 if one else sh.L.pack(self.constant_term().inv().coeffs)
            h, P = 1, None
        while h < prec:
            k = min(2 * h, prec)
            mk, mc = (1 << (k * S)) - 1, (1 << ((k - h) * S)) - 1
            vk = v & mk
            if P is None:
                P = _reduce(sh, ((U & mk) * vk) & mk)
            c = _reduce(sh, ((v & mc) * ((P >> (h * S)) & mc)) & mc)
            v = _sub(sh, vk, c << (h * S))
            h, P = k, None
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

    def galois(self, act: Union[GaloisAction, int], inverse: bool = False) -> "TruncSeries":
        e = act.e if isinstance(act, GaloisAction) else act
        if inverse:
            e = -e
        field = self.field
        k = e % field.m
        if k == 0:
            return self
        return _new(field, self.prec, _galois(field._kron[self.prec], field, self.packed, k))

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


def _make(field: FieldSpec, prec: int, packing) -> TruncSeries:
    """The series whose packing ``packing(layout)`` computes in the layout
    of prec, once prec is known to be in range."""
    _check_prec(prec)
    return _new(field, prec, packing(_kron(field)[prec].L))


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
    if not isinstance(text, str):
        raise ParseError(f"series must be a string, not {type(text).__name__}")
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
