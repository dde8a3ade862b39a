"""Finite fields F_{p^m} presented as F_p[a]/(modulus), and the packed digit
layout that their elements, the series over them and the twist tower share.

The modulus is monic, user supplied, and checked for irreducibility by
Rabin's distinct-degree sieve in ``poly``, so large p costs a few modular
powerings.  ``poly`` also gives the reduction rows ``_red`` (a^(m+k) mod
the modulus).  There are no Conway polynomial tables and no cross-field
coercion except the constant embedding F_p -> F_{p^m}.  ``_poly_str``
prints field elements in ``a`` and the twist solver's tower elements in
``b``.

The layout.  A packing of n coefficients (a precision-n series) gives
coefficient j slot j, 2m-1 digits of w bits starting at bit j*(2m-1)*w.  Its
F_p coordinates (ascending powers of a) sit in the low m digits of the slot,
each reduced to [0, p); the high m-1 digits are zero.  The high digits make
room for products: one bignum multiply performs a whole convolution, slot j
receiving the 2m-1 digits of sum_i c_i d_(j-i); every digit is reduced mod
p, digits m..2m-2 are folded back through the rows of ``_red``, and the low
digits are reduced again (``_reduce``).  Each reduction is one Barrett pass
over all digits at once, SIMD within a register (T. Granlund, P. Montgomery,
"Division by invariant integers using multiplication", PLDI 1994): a few
bignum operations, exact for every digit below 2^(w-1).  A product digit of
a precision-n result sums at most n*m terms below (p-1)^2 and the fold adds
less than m*p^2, so n coefficients pack at the least digit width w in
{8, 16, 32, 64, ..} with

    n * m * (p-1)^2 + m * p^2 < 2^(w-1),

which is that precondition; solved for the number of products, it is how
many a sum may add before one reduction (``_run_cap``).  Each field has a
_Layout per width it meets (the rows and Frobenius columns in that width)
and one table of _Shapes, the masks per precision, each pointing at the
layout of its width.  One codec serves them all, and this module is the
only one that marshals packings: ``_Layout.pack`` and its inverse
``_Layout.digits`` write and read one slot's digits, ``_fit`` moves slots
between widths, ``_pack`` and its inverse ``_unpack`` join and split the
FqElem slots of a packing, and the strided moves ``_scatter``, ``_gather``
and ``_dilate`` restride slots within one width: interleaves, p-sections
and x -> x^(p^k).  The spare top bit serves addition: digits are
added, then p is subtracted from exactly the digits that reached p, read
off as bit w-1 after adding 2^(w-1)-p to every digit.  Over F_2 addition is
XOR and a digit mod 2 is its low bit.

An FqElem is one packed slot in the layout of precision 1, so the field's
arithmetic is these kernels: a sum is ``_add``, a product one multiply and
``_reduce``, a Frobenius power ``_galois`` on the powers of a^(p^k), and an
inverse ``_inv`` (Itoh-Tsujii), which the twist tower and the series
inverse also call in their own widths.  For m = 1 the slot is the residue
itself, and a product is ``% p``.

Row reduction over a subfield F_q of the field is ``_echelon``, on rows
packed in one layout, a row's coefficients in its slots: a column is one
F_q-coordinate of one slot (``FqStructure``), read only where a pivot or
its column is, and a pivot is scaled to 1 by ``_inv``.  It has three
callers: ``dynamics._unit_det``, the rank of A mod t over the whole field,
in validation and recognition; ``twist._mat_inv`` on [A | I]; and the
twist solver's F_q-basis of solutions, one row added at a time.

Frobenius powers x -> x^(p^e) are first-class, including negative e: the
inverse Frobenius is x -> x^(p^(((e mod m) + m) mod m)), never a root
computation.

The text grammar of elements is two patterns, which ``series`` extends to
series: TERM, a decimal coefficient, a power a^j, or both joined by *, and
ELEMENT, terms joined by signs.  Every digit string of the grammar and of
an instance file is read by ``parse_int``, which refuses more than
MAX_INT_DIGITS digits as a ParseError.
"""
from __future__ import annotations

import re
from bisect import insort
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import poly
from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    DivisionByZero,
    FieldMismatch,
    NonPrimeP,
    ParseError,
    ReducibleModulus,
)

Coeffs = Tuple[int, ...]


# Miller-Rabin to the first 13 prime bases decides primality below
# PRIME_BOUND, the least composite that passes all 13 (J. Sorenson,
# J. Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _least_factor(R: poly.Ring, k: int, g: List[int]) -> List[int]:
    """Least-index monic degree-k divisor of g, the product of the distinct
    irreducible factors of least degree k of a modulus.  Every monic degree-k
    divisor of the modulus is such a factor, so this is the least-index one.

    Equal-degree factorization (D. G. Cantor, H. Zassenhaus, Math. Comp.
    1981) splits g into its factors by gcds with s(a) mod h, where
    s(a) = a^((Q^k - 1)/2) - 1 for odd Q = R.order and, for Q = 2, the trace
    a + a^2 + .. + a^(2^(k-1)).  The splitting polynomials a = x, x + 1, ..
    run in index order, so the run is deterministic.  It ends: the a of
    degree below deg h meet every residue mod h, and by CRT one of them has
    s(a) = 0 mod one factor of h and s(a) != 0 mod another."""
    if len(g) - 1 == k:
        return g
    Q = R.order
    done: List[List[int]] = []
    todo = [g]
    idx = Q  # x: constants split nothing
    while todo:
        a = poly.digits(idx, Q)
        idx += 1
        left = []
        for h in todo:
            if Q == 2:
                s, w = [], a
                for _ in range(k):
                    s, w = poly.sub(R, s, w), poly.powmod(R, w, 2, h)  # sub = add
            else:
                s = poly.sub(R, poly.powmod(R, a, (Q ** k - 1) // 2, h), [1])
            d = poly.gcd(R, h, s)
            parts = [d, poly.divmod(R, h, d)[0]] if 1 < len(d) < len(h) else [h]
            for c in parts:
                (done if len(c) - 1 == k else left).append(c)
        todo = left
    return min(done, key=lambda c: c[-2::-1])  # index order: high digit first


def _poly_str(coeffs: Iterable, var: str = "a") -> str:
    """c0+c1*var+c2*var^2.. with each coefficient printed by str: zero terms
    omitted, a unit coefficient omitted except for the constant, and a
    coefficient that is itself a sum put in parentheses."""
    terms = []
    for j, c in enumerate(map(str, coeffs)):
        if c == "0":
            continue
        if j == 0:
            terms.append(c)
            continue
        x = var if j == 1 else f"{var}^{j}"
        if c != "1":
            x = f"({c})*{x}" if "+" in c else f"{c}*{x}"
        terms.append(x)
    return "+".join(terms) if terms else "0"


def p_power_exponent(p: int, n: int) -> int:
    """e >= 1 with n = p^e, or 0 when n is no such power."""
    e = 0
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else 0


# ---------------------------------------------------------------------------
# the packed digit layout
# ---------------------------------------------------------------------------

# Shapes kept per field and per layout: a shape costs a few integers of n
# slots, and a walk that loses precision step by step meets a new n at every
# step.
SHAPES_KEPT = 64


def _tile(x: int, bits: int, nbytes: int) -> int:
    """The bits-wide pattern x repeated over nbytes bytes, cut at the top."""
    b = bits // 8
    return int.from_bytes((x.to_bytes(b, "little") * -(-nbytes // b))[:nbytes], "little")


class _Layout:
    """One digit width of a field: slot width, the reduction rows a^(m+k),
    the Frobenius columns as packed slots, and the _Shapes of this width by
    slot count."""

    __slots__ = ("p", "m", "w", "S", "slot", "ones_slot", "red", "_frob", "mu", "shift",
                 "qbits", "unit", "U", "shapes", "single")

    def __init__(self, field: FieldSpec, w: int):
        p, m = field.p, field.m
        self.p, self.m, self.w, self.S = p, m, w, (2 * m - 1) * w
        # a slot as U memoryview items of format unit, for strided slot moves
        self.unit = {8: "B", 16: "H", 32: "I"}.get(w, "Q")
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
        self.shapes: Dict[int, _Shape] = {}
        self.single = self.shape(1)  # one coefficient: a field element

    def shape(self, n: int) -> "_Shape":
        """The _Shape of n slots in this width, kept for the last
        SHAPES_KEPT slot counts."""
        sh = self.shapes.get(n)
        if sh is None:
            if len(self.shapes) >= SHAPES_KEPT:   # evict the oldest
                del self.shapes[next(iter(self.shapes))]
            sh = self.shapes[n] = _Shape(self, n)
        return sh

    def pack(self, digits: Sequence[int]) -> int:
        """One coefficient's digits as a packed slot."""
        w, x = self.w, 0
        for d in reversed(digits):
            x = (x << w) + d
        return x

    def digits(self, x: int) -> Coeffs:
        """The m low digits of the packed slot x, inverse to ``pack``."""
        w, dm = self.w, (1 << self.w) - 1
        return tuple([(x >> s) & dm for s in range(0, self.m * w, w)])

    def mul(self, x: int, y: int) -> int:
        """The product of two packed coefficients."""
        return x * y % self.p if self.m == 1 else _reduce(self.single, x * y)

    def frob_cols(self, k: int) -> List[int]:
        """The images of 1, a, .., a^(m-1) under x -> x^(p^k), packed: the
        powers of a^(p^k).  For m > 1 the slot of a is digit 1."""
        cols = self._frob.get(k)
        if cols is None:
            cols = [1]
            if self.m > 1:
                apk = poly.power(self.mul, 1 << self.w, self.p ** k)
                for _ in range(self.m - 1):
                    cols.append(self.mul(cols[-1], apk))
            self._frob[k] = cols
        return cols


class _Shape:
    """The layout and masks of an n-coefficient packing.  For
    p > 2 the Barrett pass reads two more: ``even``, every digit at an even
    global index, and ``qmask``, the low w-b+1 bits of each such digit (b
    the bit length of p), where the quotient of its 2w-bit window lands."""

    __slots__ = ("L", "mask", "rep", "ones", "bias", "pones", "digit", "low", "even", "qmask")

    def __init__(self, L: _Layout, n: int):
        p, m, w, S = L.p, L.m, L.w, L.S
        nb = n * S // 8
        self.L = L
        self.mask = (1 << (n * S)) - 1                 # all n slots
        self.rep = _tile(1, S, nb)                     # bit 0 of each slot
        self.ones = _tile(L.ones_slot, S, nb)          # 1 in every stored digit
        self.digit = _tile((1 << w) - 1, S, nb)        # all of digit 0 of each slot
        self.low = _tile(L.slot, S, nb)                # all of the stored digits
        self.bias = self.pones = self.even = self.qmask = None
        if p > 2:
            # add/sub: digits reaching p gain bit w-1 from bias; pones - x negates
            self.bias = _tile(L.ones_slot * ((1 << (w - 1)) - p), S, nb)
            self.pones = _tile(L.ones_slot * p, S, nb)
            self.even = _tile((1 << w) - 1, 2 * w, nb)
            self.qmask = _tile(L.qbits, 2 * w, nb)


def _run_cap(field: FieldSpec, w: int, r: int) -> int:
    """How many products of canonical r-slot packings a sum in w-bit digits
    may add before _reduce: the c with c*r*m*(p-1)^2 + m*p^2 < 2^(w-1)."""
    p, m = field.p, field.m
    return ((1 << (w - 1)) - 1 - m * p * p) // (r * m * (p - 1) ** 2)


def _width(field: FieldSpec, n: int) -> int:
    """The least w in {8, 16, 32, ..} that holds one product of n slots."""
    w = 8
    while _run_cap(field, w, n) < 1:
        w *= 2
    return w


class _Kron(dict):
    """The packings of one field: a table of _Shapes by precision, the last
    SHAPES_KEPT used, and a _Layout per digit width they belong to."""

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
        sh = self[n] = L.shape(n)
        return sh


_KRONS: Dict[Tuple[int, int, Tuple[int, ...]], _Kron] = {}


def _fit(K: _Kron, X: int, a: int, b: int, n: Optional[int] = None,
         into: Optional[_Kron] = None) -> int:
    """X, packed in the width of precision a, in that of precision b, cut to
    n slots (by default b): a precision-a series as one of precision b, or
    for a or b = 1 FqElem slots into or out of a series.  With ``into``, the
    packings of F_(p^d) when K's field is F_p, the slots land in into's
    packing of precision b, each residue as digit 0 of its slot: the
    constant embedding F_p -> F_(p^d).  A reduced digit is below p < 2^(w-1)
    in every width, so copying its low bytes is exact."""
    A, sh = K[a].L, (K if into is None else into)[b]
    if n is None:
        if A is sh.L:
            return X & sh.mask if b < a else X
        n = b
    if n < a:
        X &= (1 << (n * A.S)) - 1
    B = sh.L
    if A is B:
        return X
    ab, bb = A.w // 8, B.w // 8
    step = bb if A.m == B.m else B.S // 8   # digit k to digit k, or F_p's one digit to digit 0
    src = X.to_bytes(-(-X.bit_length() // A.S) * A.S // 8, "little")
    out = bytearray(len(src) // ab * step)
    for i in range(min(ab, bb)):
        out[i::step] = src[i::ab]
    return int.from_bytes(out, "little")


def _pack(field: FieldSpec, elems: Iterable[FqElem], n: int) -> int:
    """The packing of precision n whose slot j holds elems[j]: the first n
    elements' slots joined in the width of precision 1, then one ``_fit``;
    the slots past the last element are zero."""
    sb = field._L.S // 8
    X = int.from_bytes(b"".join([c.packed.to_bytes(sb, "little")
                                 for c in islice(elems, n)]), "little")
    return _fit(field._kron, X, 1, n)


def _unpack(field: FieldSpec, X: int, n: int) -> Tuple[FqElem, ...]:
    """The n coefficients of the canonical packing X of precision n, inverse
    to ``_pack``: X fitted to the width of precision 1, cut up."""
    sb = field._L.S // 8
    src = _fit(field._kron, X, n, 1, n).to_bytes(n * sb, "little")
    return tuple(FqElem(field, int.from_bytes(src[o:o + sb], "little"))
                 for o in range(0, len(src), sb))


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
    return _galois(sh, X, k) if k else X


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


def _galois(sh: _Shape, X: int, k: int) -> int:
    """x -> x^(p^k) on every coefficient of the canonical packing X."""
    w = sh.L.w
    acc = 0
    for j, col in enumerate(sh.L.frob_cols(k)):
        acc += ((X >> (j * w)) & sh.digit) * col
    return _reduce_low(sh, acc)


def _inv(L: _Layout, x: int) -> int:
    """Inverse of the packed coefficient x of layout L.

    For m = 1 it is x^(p-2) mod p.  Else Itoh-Tsujii (T. Itoh, S. Tsujii,
    "A fast algorithm for computing multiplicative inverses in GF(2^m) using
    normal bases", Inf. Comput. 78, 1988): with r = (p^m - 1)/(p - 1),
    x^(-1) = (x^r)^(-1) * x^(r-1), and x^r, the norm of x, lies in F_p.
    x^(r-1) = b_(m-1)^p for b_k = x^(1 + p + .. + p^(k-1)), which the bits of
    m - 1 reach by b_(2k) = b_k^(p^k) * b_k and b_(k+1) = b_k^p * x: about
    2 log2(m) products and Frobenius powers."""
    if not x:
        raise DivisionByZero("inverse of 0")
    p, m = L.p, L.m
    if m == 1:
        return pow(x, p - 2, p)
    sh, mul = L.single, L.mul
    b, k = x, 1
    for bit in bin(m - 1)[3:]:
        b, k = mul(_galois(sh, b, k), b), 2 * k
        if bit == "1":
            b, k = mul(_galois(sh, b, 1), x), k + 1
    y = _galois(sh, b, 1)  # x^(r-1)
    return _reduce_low(sh, y * pow(mul(y, x), p - 2, p))


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------

class FieldSpec:
    """Immutable description of F_{p^m}; its elements are packed in ``_L``,
    the layout of precision 1."""

    __slots__ = (
        "p", "m", "modulus", "order",
        "_fp", "_red", "_L", "_zero", "_one", "_kron",
    )

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if p >= PRIME_BOUND:
            raise DegreeOverflow(
                f"p is not below {PRIME_BOUND}, the bound of the primality test")
        if not _is_prime(p):
            raise NonPrimeP(f"p = {p} is not prime")
        if m < 1:
            raise DegreeMismatch(f"m = {m} must be >= 1")
        mod = tuple(c % p for c in modulus)
        if len(mod) != m + 1:
            raise DegreeMismatch(
                f"modulus has {len(mod) - 1 if mod else -1} coefficients past degree 0, expected degree {m}")
        if mod[-1] != 1:
            raise DegreeMismatch("modulus must be monic")
        self._fp = poly.prime_field(p)
        found = poly.least_factor_degree(self._fp, mod)
        if found is not None:
            factor = _least_factor(self._fp, *found)
            raise ReducibleModulus(
                f"modulus {_poly_str(mod)} is divisible by {_poly_str(factor)}")
        self.p = p
        self.m = m
        self.modulus = mod
        self.order = p ** m
        self._red = poly.reduction_rows(self._fp, mod)  # read by _Layout
        # the packings, also the twist tower's, shared by every equal
        # FieldSpec (each parsed instance file builds its own)
        K = _KRONS.get((p, m, mod))
        if K is None:
            K = _KRONS[p, m, mod] = _Kron(self)
        self._kron = K
        self._L = K[1].L
        self._zero = FqElem(self, 0)
        self._one = FqElem(self, 1)

    # -- basic elements ------------------------------------------------

    def zero(self) -> "FqElem":
        return self._zero

    def one(self) -> "FqElem":
        return self._one

    def gen(self) -> "FqElem":
        if self.m == 1:
            raise DegreeMismatch("F_p has no generator symbol a")
        return FqElem(self, 1 << self._L.w)

    def el(self, coeffs: Sequence[int]) -> "FqElem":
        c = [x % self.p for x in coeffs]
        if len(c) > self.m:
            raise DegreeMismatch(f"{len(c)} coefficients for degree-{self.m} field")
        return FqElem(self, self._L.pack(c))

    def from_int(self, idx: int) -> "FqElem":
        """Element with base-p digit vector idx (little-endian); the fixed
        total order on elements is this integer index."""
        return FqElem(self, self._L.pack(poly.digits(idx, self.p, self.m)))

    def elements(self) -> Iterator["FqElem"]:
        for idx in range(self.order):
            yield self.from_int(idx)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"F_{{{self.p}^{self.m}}}[a]/({_poly_str(self.modulus)})"


def make_field(p: int, m: int, modulus: Sequence[int]) -> FieldSpec:
    return FieldSpec(p, m, modulus)


# ---------------------------------------------------------------------------
# FqElem
# ---------------------------------------------------------------------------

class FqElem:
    """Element of a FieldSpec: ``packed``, its coordinates as one slot of the
    field's precision-1 layout (the residue itself when m = 1)."""

    __slots__ = ("field", "packed")

    def __init__(self, field: FieldSpec, packed: int):
        self.field = field
        self.packed = packed

    @property
    def coeffs(self) -> Coeffs:
        """The m coordinates over F_p, decoded afresh on every access."""
        return self.field._L.digits(self.packed)

    def _check(self, other: "FqElem") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, _add(self.field._L.single, self.packed, other.packed))

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, _sub(self.field._L.single, self.packed, other.packed))

    def __neg__(self) -> "FqElem":
        return FqElem(self.field, _sub(self.field._L.single, 0, self.packed))

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field._L.mul(self.packed, other.packed))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        L = self.field._L
        return FqElem(self.field, L.mul(self.packed, _inv(L, other.packed)))

    def inv(self) -> "FqElem":
        return FqElem(self.field, _inv(self.field._L, self.packed))

    def __pow__(self, n: int) -> "FqElem":
        if n < 0:
            return self.inv() ** (-n)
        if not n:
            return self.field._one
        return FqElem(self.field, poly.power(self.field._L.mul, self.packed, n))

    def frobenius(self, e: int) -> "FqElem":
        k = e % self.field.m
        if not k:
            return self
        return FqElem(self.field, _galois(self.field._L.single, self.packed, k))

    def is_zero(self) -> bool:
        return not self.packed

    def index(self) -> int:
        """Position in the fixed total element order (base-p digit value)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.p + c
        return out

    def subfield_degree(self) -> int:
        """Least d (a divisor of m) with self in F_{p^d}."""
        m, sh = self.field.m, self.field._L.single
        for d in range(1, m):
            if m % d == 0 and _galois(sh, self.packed, d) == self.packed:
                return d
        return m

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.packed == other.packed
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.packed))

    def __str__(self):
        return _poly_str(self.coeffs)

    def __repr__(self):
        return _poly_str(self.coeffs)


# ---------------------------------------------------------------------------
# row reduction over F_q
# ---------------------------------------------------------------------------

class FqStructure:
    """The subfield F_q of Fbase (q = p^e) and the F_q-coordinates of Fbase
    in the basis 1, a, .., a^(s-1), s = m/e.  These are the first powers of
    the generator a that are F_q-independent, since the minimal polynomial
    g of a over F_q has degree s; a^t for t >= s reduces by g."""

    def __init__(self, field: FieldSpec, e: int):
        p, m = field.p, field.m
        if m % e:
            raise DegreeMismatch(
                f"F_q with q = {p}^{e} is not a subfield of F_{{{p}^{m}}}")
        self.field, self.e, self.q, self.s = field, e, p ** e, m // e
        s = self.s
        self.cols: List[List[Tuple[int, ...]]] = []  # [t][i]: F_p digits of coordinate i of a^t
        if s > 1:
            a, zero = field.gen(), field.zero()
            g = [field.one()]  # prod over l < s of (Y - a^(q^l))
            for l in range(s):
                c = -a.frobenius(e * l)
                g = [x + c * y for x, y in zip([zero] + g, g + [zero])]
            co = [field.one()] + [zero] * (s - 1)
            for _ in range(m):
                self.cols.append([x.coeffs for x in co])
                co = [x - co[-1] * y for x, y in zip([zero] + co[:-1], g)]

    def coords(self, L: _Layout, x: int) -> List[int]:
        """The s F_q-coordinates of the packed coefficient x, packed."""
        if self.s == 1:
            return [x]
        p, ds = L.p, L.digits(x)
        return [L.pack([sum(d * col[i][u] for d, col in zip(ds, self.cols)) % p
                        for u in range(L.m)]) for i in range(self.s)]


def _echelon(fq: FqStructure, sh: _Shape, rows: Sequence[int],
             out: List[Tuple[Tuple[int, int], int]]) -> List[Tuple[Tuple[int, int], int]]:
    """Reduced row echelon form over F_q of packed rows over Fbase, whose
    columns are the F_q-coordinates of the coefficients in order: the nonzero
    rows as ((slot, coordinate) of the pivot, row), sorted by pivot, each
    with pivot coordinate 1 that is 0 in every other row.  ``out`` is
    extended in place, so adding a row costs one pass over those reduced."""
    L = sh.L
    S, slot = L.S, L.slot
    for v in rows:
        for (j, i), r in out:
            c = fq.coords(L, (v >> (j * S)) & slot)[i]
            if c:
                v = _sub(sh, v, _reduce(sh, c * r))
        if not v:
            continue
        j = ((v & -v).bit_length() - 1) // S
        i, c = next(ic for ic in enumerate(fq.coords(L, (v >> (j * S)) & slot)) if ic[1])
        v = _reduce(sh, _inv(L, c) * v)
        for k, (key, r) in enumerate(out):
            c = fq.coords(L, (r >> (j * S)) & slot)[i]
            if c:
                out[k] = (key, _sub(sh, r, _reduce(sh, c * v)))
        insort(out, ((j, i), v))
    return out


# ---------------------------------------------------------------------------
# text syntax:  a+1   2*a^3+1   -a^5   0
#
# An element term is a coefficient, a power of a, or both joined by *; an
# element is terms joined by signs, the first sign optional; spaces are
# ignored.  \d is a Unicode decimal digit, exactly the characters int()
# reads.  The groups of TERM: the coefficient, the *a part after it, and
# the exponent of a in either alternative.
# ---------------------------------------------------------------------------

MAX_INT_DIGITS = 4300     # CPython's default limit of int() on a string
TERM = r"(\d+)(\*a(?:\^(\d+))?)?|a(?:\^(\d+))?"
ELEMENT = rf"[+-]?(?:{TERM})(?:[+-](?:{TERM}))*"
_ELEMENT = re.compile(ELEMENT)
_SIGNED_TERM = re.compile(rf"([+-]?)(?:{TERM})")


def parse_int(text: str) -> int:
    """The integer a decimal literal spells, refused past MAX_INT_DIGITS
    digits (the sign not counted); also json's integer hook."""
    digits = len(text.lstrip("+-"))
    if digits > MAX_INT_DIGITS:
        raise ParseError(
            f"integer literal of {digits} digits exceeds the {MAX_INT_DIGITS}-digit limit")
    return int(text)


def _unspaced(text: str, what: str) -> str:
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a string, not {type(text).__name__}")
    return text.replace(" ", "")


def parse_element(field: FieldSpec, text: str) -> FqElem:
    s = _unspaced(text, "element")
    if not _ELEMENT.fullmatch(s):
        raise ParseError(f"malformed element {text!r}")
    return _element_value(field, s)


def _element_value(field: FieldSpec, s: str) -> FqElem:
    """The element that s, a match of ELEMENT, denotes."""
    m = field.m
    if m == 1 and "a" in s:
        raise ParseError(f"generator a used over prime field in {s!r}")
    coeffs = [0] * m
    for sign, c, a, i, k in _SIGNED_TERM.findall(s):
        e = i or k
        j = parse_int(e) if e else 1 if a or not c else 0
        c = parse_int(sign + (c or "1"))
        if j >= m:      # a != 0 has a^(q-1) = 1
            j %= field.order - 1
        if j < m:
            coeffs[j] += c
        else:   # a^j reduced by the modulus
            coeffs = [x + c * y for x, y in zip(coeffs, (field.gen() ** j).coeffs)]
    return field.el(coeffs)


def format_element(x: FqElem) -> str:
    """Canonical form: ascending powers of a, zero terms omitted, unit
    coefficients omitted except for the constant."""
    return _poly_str(x.coeffs)
