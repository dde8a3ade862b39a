"""Dense univariate polynomials over a small finite ring interface: the one
polynomial core of the package.

A polynomial is a list of ring elements in ascending powers, trimmed so the
last entry is nonzero (the zero polynomial is []).  Ring elements are ints
with 0 the zero and 1 the one; a ``Ring`` carries its order and the
operations add, sub, mul and inv (of a nonzero element).  ``prime_field`` is
F_p on 0..p-1, used by FieldSpec; the twist solver's ``_base_ring`` is
F_(p^m) on packed coefficients.

FieldSpec checks its modulus and builds its reduction rows here, and so
does the twist tower; element arithmetic is the packed kernels of
``field``, which keep hand-written loops because they are on the hot path.
``power`` is the one square-and-multiply (J. von zur Gathen, J. Gerhard,
*Modern Computer Algebra*, ch. 4), for any associative product: residues
mod f here, packed field elements and Frobenius columns, tower elements,
and the coordinate powers of symbolic composition.  ``digits`` is the one
index -> digit vector conversion.

Irreducibility has one test, Rabin's distinct-degree sieve (M. O. Rabin,
"Probabilistic algorithms in finite fields", SIAM J. Comput. 1980), which
costs a few modular powerings per degree instead of p^(d/2) trial divisions.
"""
from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

Poly = List[int]
T = TypeVar("T")


class Ring(NamedTuple):
    order: int
    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]


def prime_field(p: int) -> Ring:
    return Ring(p, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a, b: a * b % p, lambda a: pow(a, p - 2, p))


def trim(c: Poly) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return c


def padded(c: Sequence[int], n: int) -> Tuple[int, ...]:
    """c as a tuple of exactly n >= len(c) coefficients."""
    return tuple(c) + (0,) * (n - len(c))


def digits(idx: int, base: int, count: Optional[int] = None) -> Poly:
    """The base-``base`` digits of idx >= 0, little-endian: exactly count of
    them, or all of them (none for 0, so the list is trimmed) when count is
    None."""
    out = []
    while (idx if count is None else len(out) < count):
        out.append(idx % base)
        idx //= base
    return out


def sub(R: Ring, u: Sequence[int], v: Sequence[int]) -> Poly:
    n = max(len(u), len(v))
    return trim([R.sub(u[i] if i < len(u) else 0, v[i] if i < len(v) else 0)
                 for i in range(n)])


def mul(R: Ring, u: Sequence[int], v: Sequence[int]) -> Poly:
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[i + j] = R.add(out[i + j], R.mul(ui, vj))
    return trim(out)


def divmod(R: Ring, u: Sequence[int], v: Sequence[int]) -> Tuple[Poly, Poly]:
    """Quotient and remainder by a nonzero trimmed v (v need not be monic)."""
    r = trim(list(u))
    dv = len(v) - 1
    inv_lead = R.inv(v[-1])
    q = [0] * max(len(r) - dv, 0)
    while r and len(r) - 1 >= dv:
        k = len(r) - 1 - dv
        c = R.mul(r[-1], inv_lead)
        q[k] = c
        for i, vi in enumerate(v):
            if vi:
                r[k + i] = R.sub(r[k + i], R.mul(c, vi))
        trim(r)
    return q, r


def gcd(R: Ring, u: Sequence[int], v: Sequence[int]) -> Poly:
    """Monic greatest common divisor ([] when both vanish)."""
    u, v = trim(list(u)), trim(list(v))
    while v:
        u, v = v, divmod(R, u, v)[1]
    if not u:
        return u
    c = R.inv(u[-1])
    return [R.mul(c, x) for x in u]


def reduction_rows(R: Ring, f: Sequence[int]) -> List[Tuple[int, ...]]:
    """x^(d+k) mod f for k = 0..d-2, d = deg f >= 1, each padded to d
    coefficients: the rows that fold a product of two residues mod f back
    below degree d."""
    d = len(f) - 1
    return [padded(divmod(R, [0] * (d + k) + [1], f)[1], d) for k in range(d - 1)]


def power(mul: Callable[[T, T], T], u: T, n: int) -> T:
    """u^n for n >= 1 under the associative product mul, by square-and-multiply:
    about 2 log2(n) products."""
    out = None
    while True:
        if n & 1:
            out = u if out is None else mul(out, u)
        n >>= 1
        if not n:
            return out
        u = mul(u, u)


def powmod(R: Ring, base: Sequence[int], n: int, f: Sequence[int]) -> Poly:
    """base^n mod f (deg f >= 1, n >= 0)."""
    if not n:
        return [1]
    return power(lambda u, v: divmod(R, mul(R, u, v), f)[1], divmod(R, base, f)[1], n)


def least_factor_degree(R: Ring, f: Sequence[int]) -> Optional[Tuple[int, Poly]]:
    """Rabin's distinct-degree sieve on a monic f of degree d.

    gcd(x^(Q^k) - x, f) with Q = R.order is the product of the distinct
    monic irreducible factors of f whose degree divides k.  Scanning
    k = 1..d/2 upward, the first nontrivial gcd g is the product of the
    factors of least degree k.  Returns None when f is irreducible, else
    (k, g)."""
    x = [0, 1]
    w = x
    for k in range(1, (len(f) - 1) // 2 + 1):
        w = powmod(R, w, R.order, f)
        g = gcd(R, f, sub(R, w, x))
        if len(g) > 1:
            return k, g
    return None
