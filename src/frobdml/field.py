"""Finite fields F_{p^m} presented as F_p[a]/(modulus).

Elements are coefficient vectors over F_p in ascending powers of the
generator ``a``, so (c0, c1, c2) means c0 + c1*a + c2*a^2.  The modulus is
monic, user supplied, and checked for irreducibility by Rabin's
distinct-degree sieve in ``poly``, so large p costs a few modular powerings.
There are no Conway polynomial tables and no cross-field coercion except the
constant embedding F_p -> F_{p^m}.

All element arithmetic is ``poly``'s: a product is ``poly.mul`` reduced by
``poly.divmod``, a power is ``poly.powmod``, an inverse is extended Euclid
on ``poly.divmod``, and ``from_int`` reads ``poly.digits``.  The reduction
rows ``_red`` (a^(m+k) mod modulus) are kept for the packed series kernels,
which fold their products with them.  ``_poly_str`` prints field elements in
``a`` and the twist solver's tower elements in ``b``.

Frobenius powers x -> x^(p^e) are first-class, including negative e: the
inverse Frobenius is x -> x^(p^(((e mod m) + m) mod m)), never a root
computation.
"""
from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

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
# FieldSpec
# ---------------------------------------------------------------------------

class FieldSpec:
    """Immutable description of F_{p^m} together with cached tables."""

    __slots__ = (
        "p", "m", "modulus", "order",
        "_fp", "_red", "_frob_mats", "_zero", "_one", "_gen", "_kron",
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
        self._red = poly.reduction_rows(self._fp, mod)  # read by series._Layout
        self._frob_mats: dict = {}
        self._kron = None  # the series packings, also the twist tower's, built by series._kron
        self._zero = FqElem(self, (0,) * m)
        self._one = FqElem(self, (1,) + (0,) * (m - 1))
        self._gen = FqElem(self, poly.padded(poly.divmod(self._fp, [0, 1], mod)[1], m))

    # -- basic elements ------------------------------------------------

    def zero(self) -> "FqElem":
        return self._zero

    def one(self) -> "FqElem":
        return self._one

    def gen(self) -> "FqElem":
        if self.m == 1:
            raise DegreeMismatch("F_p has no generator symbol a")
        return self._gen

    def el(self, coeffs: Sequence[int]) -> "FqElem":
        c = [x % self.p for x in coeffs]
        if len(c) > self.m:
            raise DegreeMismatch(f"{len(c)} coefficients for degree-{self.m} field")
        c += [0] * (self.m - len(c))
        return FqElem(self, tuple(c))

    def from_int(self, idx: int) -> "FqElem":
        """Element with base-p digit vector idx (little-endian); the fixed
        total order on elements is this integer index."""
        return FqElem(self, tuple(poly.digits(idx, self.p, self.m)))

    def elements(self) -> Iterator["FqElem"]:
        for idx in range(self.order):
            yield self.from_int(idx)

    # -- coefficient arithmetic (tuples in, tuples out) ------------------

    def _mul(self, u: Coeffs, v: Coeffs) -> Coeffs:
        if self.m == 1:
            return ((u[0] * v[0]) % self.p,)
        R = self._fp
        return poly.padded(poly.divmod(R, poly.mul(R, u, v), self.modulus)[1], self.m)

    def _inv(self, u: Coeffs) -> Coeffs:
        if not any(u):
            raise DivisionByZero("inverse of 0")
        p, m = self.p, self.m
        if m == 1:
            return (pow(u[0], p - 2, p),)
        # extended Euclid on (modulus, u); invariant s_i * u = r_i mod modulus
        R = self._fp
        r0, r1 = list(self.modulus), poly.trim(list(u))
        s0: List[int] = []
        s1: List[int] = [1]
        while r1:
            q, r = poly.divmod(R, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly.sub(R, s0, poly.mul(R, q, s1))
        # r0 = gcd is a nonzero constant
        c_inv = R.inv(r0[0])
        return poly.padded([R.mul(x, c_inv) for x in s0], m)

    # -- Frobenius -------------------------------------------------------

    def _frob_mat(self, k: int) -> Tuple[Coeffs, ...]:
        """Matrix (columns) of x -> x^(p^k) in the basis 1, a, .., a^(m-1)."""
        k %= self.m
        mat = self._frob_mats.get(k)
        if mat is None:
            apk = self._pow(self._gen.coeffs, self.p ** k)  # a^(p^k)
            cols = [self._one.coeffs]
            for _ in range(self.m - 1):
                cols.append(self._mul(cols[-1], apk))
            mat = self._frob_mats[k] = tuple(cols)
        return mat

    def _pow(self, u: Coeffs, n: int) -> Coeffs:
        return poly.padded(poly.powmod(self._fp, u, n, self.modulus), self.m)

    def _frob(self, u: Coeffs, e: int) -> Coeffs:
        k = e % self.m
        if k == 0:
            return u
        cols = self._frob_mat(k)
        p, m = self.p, self.m
        acc = [0] * m
        for j in range(m):
            c = u[j]
            if c:
                col = cols[j]
                for i in range(m):
                    acc[i] += c * col[i]
        return tuple(x % p for x in acc)

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
    """Element of a FieldSpec; immutable coefficient vector over F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "FqElem") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FqElem":
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field._mul(self.coeffs, self.field._inv(other.coeffs)))

    def inv(self) -> "FqElem":
        return FqElem(self.field, self.field._inv(self.coeffs))

    def __pow__(self, n: int) -> "FqElem":
        if n < 0:
            return self.inv() ** (-n)
        return FqElem(self.field, self.field._pow(self.coeffs, n))

    def frobenius(self, e: int) -> "FqElem":
        return FqElem(self.field, self.field._frob(self.coeffs, e))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def index(self) -> int:
        """Position in the fixed total element order (base-p digit value)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.p + c
        return out

    def subfield_degree(self) -> int:
        """Least d (a divisor of m) with self in F_{p^d}."""
        m = self.field.m
        for d in range(1, m + 1):
            if m % d == 0 and self.field._frob(self.coeffs, d) == self.coeffs:
                return d
        return m

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def __str__(self):
        return _poly_str(self.coeffs)

    def __repr__(self):
        return _poly_str(self.coeffs)


# ---------------------------------------------------------------------------
# element text syntax:  a+1   2*a^3+1   0
# ---------------------------------------------------------------------------

def parse_element(field: FieldSpec, text: str) -> FqElem:
    if not isinstance(text, str):
        raise ParseError(f"element must be a string, not {type(text).__name__}")
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty element string")
    coeffs = [0] * field.m
    sign = 1
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    term = ""
    tokens: List[Tuple[int, str]] = []
    while i <= len(s):
        ch = s[i] if i < len(s) else None
        if ch in ("+", "-", None):
            if not term:
                raise ParseError(f"malformed element {text!r}")
            tokens.append((sign, term))
            if ch is None:
                break
            sign = -1 if ch == "-" else 1
            term = ""
        else:
            term += ch
        i += 1
    for sgn, t in tokens:
        c, j = _parse_term(field, t, text)
        if j >= field.m:
            # reduce a^j via field arithmetic
            val = field.gen() ** j if field.m > 1 else field.one()
            contrib = field.el([c]) * val
            if sgn < 0:
                contrib = -contrib
            for k in range(field.m):
                coeffs[k] = (coeffs[k] + contrib.coeffs[k]) % field.p
        else:
            coeffs[j] = (coeffs[j] + sgn * c) % field.p
    return FqElem(field, tuple(coeffs))


def _parse_term(field: FieldSpec, t: str, full: str) -> Tuple[int, int]:
    """One element term -> (coefficient, power of a)."""
    if t.isdigit():
        return int(t) % field.p, 0
    if "*" in t:
        cs, _, rest = t.partition("*")
        if not cs.isdigit():
            raise ParseError(f"malformed term {t!r} in {full!r}")
        c = int(cs) % field.p
    else:
        rest = t
        c = 1
    if rest == "a":
        j = 1
    elif rest.startswith("a^") and rest[2:].isdigit():
        j = int(rest[2:])
    else:
        raise ParseError(f"malformed term {t!r} in {full!r}")
    if field.m == 1:
        raise ParseError(f"generator a used over prime field in {full!r}")
    return c, j


def format_element(x: FqElem) -> str:
    """Canonical form: ascending powers of a, zero terms omitted, unit
    coefficients omitted except for the constant."""
    return _poly_str(x.coeffs)
