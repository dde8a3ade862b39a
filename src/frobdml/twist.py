"""The Frobenius twist equation B^(q) = A B and conjugation to matrix part I.

For A in GL_{N+1} over F_{q^s} the solution set of beta^(q) = A beta in the
algebraic closure is an F_q-vector space of dimension N+1 whose F_q-bases
are automatically linearly independent over the big field, so they assemble
into an invertible B.  All solutions are rational over F_{q^r} exactly when
the twisted norm N_r(A) = A^(q^{r-1}) ... A^(q) A equals the identity, so
the search visits r = s, 2s, ... <= R_max and solves only at qualifying r.

F_{q^r} is represented as a tower Fbase[Y]/(h) with h the first irreducible
monic polynomial of degree r/s in a fixed enumeration (Rabin's sieve in
``poly``), which avoids any root-finding embeddings.  Inside one qualifying r
the solver first tries the closed-form solutions

    beta(v) = sum_{i<r} N_i(A)^{-1} v^(q^i)      (exact whenever N_r(A) = I)

over a spanning set of v; if those do not span (possible when the
characteristic divides r) it falls back to the kernel of the F_q-linear
operator beta -> beta^(q) - A beta by exact Gaussian elimination.  The
returned basis is the canonical reduced-row-echelon basis of the solution
space, so the output is independent of search order.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import poly
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    FieldMismatch,
    NonConstantMatrix,
    NonFlattenableExtension,
    NotInvertible,
    SearchExhausted,
)
from .field import FieldSpec, FqElem
from .geometry import HomogPoly
from .series import TruncSeries
from . import dynamics
from .dynamics import DmlMap, compose_maps, dml_to_general, recognize_dml_form

PACKED_ORDER_BOUND = 1024

Vec = Tuple[int, ...]          # packed Fbase indices
ExtVec = Tuple[Vec, ...]       # element of E^(N+1)


class PackedField:
    """Integer-indexed tables for a small FieldSpec (index = base-p digits)."""

    def __init__(self, field: FieldSpec):
        if field.order > PACKED_ORDER_BOUND:
            raise SearchExhausted(
                f"twist arithmetic tables need |F| <= {PACKED_ORDER_BOUND}, got {field.order}")
        self.field = field
        self.order = field.order
        els = list(field.elements())
        self.els = els
        self.add = [[(x + y).index() for y in els] for x in els]
        self.mul = [[(x * y).index() for y in els] for x in els]
        self.neg = [(-x).index() for x in els]
        self.inv = [0] + [x.inv().index() for x in els[1:]]
        self._frob: Dict[int, List[int]] = {}

    def frob_table(self, e: int) -> List[int]:
        key = e % self.field.m
        tab = self._frob.get(key)
        if tab is None:
            tab = [x.frobenius(key).index() for x in self.els]
            self._frob[key] = tab
        return tab


_IRR_CACHE: Dict[Tuple[int, int, Tuple[int, ...], int], Tuple[int, ...]] = {}


def first_irreducible(pf: PackedField, d: int) -> Tuple[int, ...]:
    """First monic degree-d polynomial (little-endian coefficient index order)
    that is irreducible over Fbase."""
    if d == 1:
        return (0, 1)
    f = pf.field
    key = (f.p, f.m, f.modulus, d)
    hit = _IRR_CACHE.get(key)
    if hit is not None:
        return hit
    Q = pf.order
    ring = poly.table_ring(pf.add, pf.mul, pf.neg, pf.inv)
    for idx in range(Q ** d):
        if idx % Q == 0:
            continue  # constant term zero: divisible by Y
        h = poly.monic_from_index(idx, d, Q)
        if poly.least_factor_degree(ring, h) is None:
            _IRR_CACHE[key] = tuple(h)
            return tuple(h)
    raise SearchExhausted(f"no irreducible polynomial of degree {d} found")  # pragma: no cover


class ExtContext:
    """E = Fbase[Y]/(h); elements are coefficient tuples of packed indices."""

    def __init__(self, pf: PackedField, h: Sequence[int]):
        self.pf = pf
        self.h = tuple(h)
        self.d = len(h) - 1
        self.zero: Vec = (0,) * self.d
        one = [0] * self.d
        one[0] = 1
        self.one: Vec = tuple(one)
        gen = [0] * self.d
        if self.d > 1:
            gen[1] = 1
        else:
            gen[0] = pf.neg[h[0]]  # Y = -h0 in the trivial extension
        self.gen: Vec = tuple(gen)
        # reduction rows Y^(d+k) mod h
        red = []
        if self.d > 1:
            cur = [pf.neg[c] for c in h[:-1]]
            red.append(tuple(cur))
            for _ in range(self.d - 2):
                nxt = [0] + cur[:-1]
                top = cur[-1]
                if top:
                    row = red[0]
                    nxt = [pf.add[x][pf.mul[top][y]] for x, y in zip(nxt, row)]
                red.append(tuple(nxt))
                cur = nxt
        self.red = red

    def add(self, u: Vec, v: Vec) -> Vec:
        add = self.pf.add
        return tuple(add[a][b] for a, b in zip(u, v))

    def sub(self, u: Vec, v: Vec) -> Vec:
        add, neg = self.pf.add, self.pf.neg
        return tuple(add[a][neg[b]] for a, b in zip(u, v))

    def neg_(self, u: Vec) -> Vec:
        neg = self.pf.neg
        return tuple(neg[a] for a in u)

    def scalar(self, c: int, u: Vec) -> Vec:
        row = self.pf.mul[c]
        return tuple(row[a] for a in u)

    def mul(self, u: Vec, v: Vec) -> Vec:
        d = self.d
        if d == 1:
            return (self.pf.mul[u[0]][v[0]],)
        pf = self.pf
        madd, mmul = pf.add, pf.mul
        prod = [0] * (2 * d - 1)
        for i, ui in enumerate(u):
            if ui:
                row = mmul[ui]
                for j, vj in enumerate(v):
                    if vj:
                        prod[i + j] = madd[prod[i + j]][row[vj]]
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                row = self.red[k - d]
                crow = mmul[c]
                for i in range(d):
                    if row[i]:
                        prod[i] = madd[prod[i]][crow[row[i]]]
        return tuple(prod[:d])

    def pow(self, u: Vec, n: int) -> Vec:
        out = self.one
        b = u
        while n:
            if n & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            n >>= 1
        return out

    def frob_base(self, u: Vec, e: int) -> Vec:
        """Coefficientwise Frob_{p^e}; only valid for d == 1 towers."""
        tab = self.pf.frob_table(e)
        return tuple(tab[a] for a in u)

    def is_zero(self, u: Vec) -> bool:
        return not any(u)

    def from_base(self, c: int) -> Vec:
        v = [0] * self.d
        v[0] = c
        return tuple(v)

    def to_str(self, u: Vec) -> str:
        if self.d == 1:
            return str(self.pf.els[u[0]])
        parts = []
        for j, c in enumerate(u):
            if not c:
                continue
            cs = str(self.pf.els[c])
            if j == 0:
                parts.append(cs)
                continue
            bpow = "b" if j == 1 else f"b^{j}"
            if cs == "1":
                parts.append(bpow)
            else:
                if "+" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{bpow}")
        return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# constant-matrix helpers over packed Fbase
# ---------------------------------------------------------------------------

Mat = Tuple[Tuple[int, ...], ...]


def _mat_from_fq(A: Sequence[Sequence[FqElem]]) -> Mat:
    return tuple(tuple(x.index() for x in row) for row in A)


def _mat_mul(pf: PackedField, X: Mat, Y: Mat) -> Mat:
    n = len(X)
    add, mul = pf.add, pf.mul
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                if X[i][k] and Y[k][j]:
                    acc = add[acc][mul[X[i][k]][Y[k][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_frob(pf: PackedField, X: Mat, e: int) -> Mat:
    tab = pf.frob_table(e)
    return tuple(tuple(tab[x] for x in row) for row in X)


def _mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_inv(pf: PackedField, X: Mat) -> Optional[Mat]:
    n = len(X)
    add, mul, neg, inv = pf.add, pf.mul, pf.neg, pf.inv
    a = [list(row) for row in X]
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        u = inv[a[col][col]]
        a[col] = [mul[u][x] for x in a[col]]
        b[col] = [mul[u][x] for x in b[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [add[x][neg[mul[c][y]]] for x, y in zip(a[r], a[col])]
                b[r] = [add[x][neg[mul[c][y]]] for x, y in zip(b[r], b[col])]
    return tuple(tuple(row) for row in b)


# ---------------------------------------------------------------------------
# F_q structure inside Fbase
# ---------------------------------------------------------------------------

class FqStructure:
    """The subfield F_q of Fbase with an F_q-basis of Fbase and coordinate maps."""

    def __init__(self, pf: PackedField, e: int):
        field = pf.field
        p, m = field.p, field.m
        if m % e:
            raise DegreeMismatch(
                f"F_q with q = {p}^{e} is not a subfield of F_{{{p}^{m}}}")
        self.pf = pf
        self.e = e
        self.q = p ** e
        self.s = m // e
        tab = pf.frob_table(e)
        self.fq_indices = [i for i in range(pf.order) if tab[i] == i]
        assert len(self.fq_indices) == self.q
        if self.s == 1:
            self.basis = [1]  # index of the element 1
            self._coord_solver = None
            return
        # greedy F_p-basis of F_q
        g_basis: List[FqElem] = []
        g_span: List[Tuple[int, ...]] = []
        for idx in self.fq_indices:
            x = pf.els[idx]
            if x.is_zero():
                continue
            if _fp_extends(g_span, x.coeffs, p):
                g_basis.append(x)
                g_span = _fp_row_reduce(g_span + [x.coeffs], p)
        assert len(g_basis) == e
        # greedy F_q-basis of Fbase from powers of the generator
        w_basis: List[FqElem] = []
        span: List[Tuple[int, ...]] = []
        cand = field.one()
        gen = field.gen()
        for _ in range(m):
            prods = [(g * cand).coeffs for g in g_basis]
            if any(_fp_extends(span, v, p) for v in prods):
                w_basis.append(cand)
                for v in prods:
                    if _fp_extends(span, v, p):
                        span = _fp_row_reduce(span + [v], p)
            if len(w_basis) == self.s:
                break
            cand = cand * gen
        assert len(w_basis) == self.s
        self.basis = [w.index() for w in w_basis]
        # columns w_j * g_t as an m x m matrix over F_p, inverted once
        cols = []
        for w in w_basis:
            for g in g_basis:
                cols.append((w * g).coeffs)
        self._g_basis = g_basis
        self._minv = _fp_mat_inv(cols, p)  # rows of the inverse

    def coords(self, idx: int) -> Tuple[int, ...]:
        """F_q-coordinates (as packed indices) of a Fbase element."""
        if self.s == 1:
            return (idx,)
        pf = self.pf
        x = pf.els[idx].coeffs
        p = pf.field.p
        lam = _fp_mat_apply(self._minv, x, p)
        out = []
        for j in range(self.s):
            acc = 0
            for t, g in enumerate(self._g_basis):
                c = lam[j * self.e + t]
                if c:
                    scaled = 0
                    gi = g.index()
                    for _ in range(c):
                        scaled = pf.add[scaled][gi]
                    acc = pf.add[acc][scaled]
            out.append(acc)
        return tuple(out)


def _fp_row_reduce(rows: List[Tuple[int, ...]], p: int) -> List[Tuple[int, ...]]:
    mat = [list(r) for r in rows]
    out: List[List[int]] = []
    pivots: List[int] = []
    for row in mat:
        r = row[:]
        for pr, pc in zip(out, pivots):
            if r[pc]:
                c = r[pc]
                r = [(x - c * y) % p for x, y in zip(r, pr)]
        nz = next((i for i, x in enumerate(r) if x), None)
        if nz is None:
            continue
        inv = pow(r[nz], p - 2, p)
        r = [(x * inv) % p for x in r]
        out.append(r)
        pivots.append(nz)
    return [tuple(r) for r in out]


def _fp_extends(span: List[Tuple[int, ...]], vec: Tuple[int, ...], p: int) -> bool:
    r = list(vec)
    for row in span:
        nz = next(i for i, x in enumerate(row) if x)
        if r[nz]:
            c = r[nz]
            r = [(x - c * y) % p for x, y in zip(r, row)]
    return any(r)


def _fp_mat_inv(cols: List[Tuple[int, ...]], p: int) -> List[List[int]]:
    m = len(cols)
    a = [[cols[j][i] % p for j in range(m)] for i in range(m)]
    b = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        u = pow(a[col][col], p - 2, p)
        a[col] = [(u * x) % p for x in a[col]]
        b[col] = [(u * x) % p for x in b[col]]
        for r in range(m):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [(x - c * y) % p for x, y in zip(a[r], a[col])]
                b[r] = [(x - c * y) % p for x, y in zip(b[r], b[col])]
    return b


def _fp_mat_apply(rows: List[List[int]], vec: Sequence[int], p: int) -> List[int]:
    return [sum(r * v for r, v in zip(row, vec)) % p for row in rows]


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

class TwistSolution:
    """Basis and matrix for B^(q) = A B.

    ``entries`` of basis and B are FqElem when the solution lives in a
    FieldSpec-backed field (r = s, or the base field is prime so the tower
    flattens); otherwise they are tower elements rendered by ``entry_str``.
    """

    def __init__(self, q: int, r: int, base_field: FieldSpec,
                 ext: ExtContext, basis: List[ExtVec], B: List[List[Vec]],
                 field: Optional[FieldSpec]):
        self.q = q
        self.r = r
        self.base_field = base_field
        self.ext = ext
        self.basis_raw = basis
        self.B_raw = B
        self.field = field  # FieldSpec carrying the entries, when flattenable

    def _to_field_elem(self, u: Vec) -> FqElem:
        assert self.field is not None
        if self.ext.d == 1:
            return self.base_field.from_int(u[0])
        digits: List[int] = []
        for c in u:  # base field is F_p here; packed index = digit
            digits.append(c)
        return self.field.el(digits)

    @property
    def basis(self) -> List[Tuple]:
        if self.field is not None:
            return [tuple(self._to_field_elem(x) for x in vec) for vec in self.basis_raw]
        return [tuple(self.ext.to_str(x) for x in vec) for vec in self.basis_raw]

    @property
    def B(self) -> List[List]:
        if self.field is not None:
            return [[self._to_field_elem(x) for x in row] for row in self.B_raw]
        return [[self.ext.to_str(x) for x in row] for row in self.B_raw]

    def entry_str(self, u: Vec) -> str:
        return self.ext.to_str(u)

    def residue(self) -> List[List[Vec]]:
        """B^(q) - A_embedded B; all-zero by construction."""
        return self._residue

    def __repr__(self):
        return f"TwistSolution(q={self.q}, r={self.r})"


def solve_twist(A: Sequence[Sequence[FqElem]], q: int,
                R_max: int = 64) -> TwistSolution:
    field = A[0][0].field
    n = len(A)
    if n < 2 or any(len(row) != n for row in A):
        raise DimensionMismatch("A must be square of size N+1 >= 2")
    for row in A:
        for x in row:
            if x.field != field:
                raise FieldMismatch("matrix entries over mixed fields")
    p = field.p
    e = 0
    qq = q
    while qq > 1 and qq % p == 0:
        qq //= p
        e += 1
    if qq != 1 or e < 1:
        raise DegreeMismatch(f"q = {q} is not a positive power of the characteristic {p}")
    pf = PackedField(field)
    fq = FqStructure(pf, e)
    s = fq.s
    A_packed = _mat_from_fq(A)
    Ainv = _mat_inv(pf, A_packed)
    if Ainv is None:
        raise NotInvertible("A is singular")

    ident = _mat_identity(n)
    Ncur = A_packed
    r = 0
    for step in range(1, R_max + 1):
        r = step
        if r % s == 0 and Ncur == ident and r >= s:
            sol = _solve_at(pf, fq, A_packed, Ainv, r)
            if sol is not None:
                return sol
        Ncur = _mat_mul(pf, _mat_frob(pf, Ncur, e), A_packed)
    raise SearchExhausted(
        f"no full solution space of B^(q) = A B within F_(q^{R_max})")


def _solve_at(pf: PackedField, fq: FqStructure, A: Mat, Ainv: Mat,
              r: int) -> Optional[TwistSolution]:
    n = len(A)
    s, e, q = fq.s, fq.e, fq.q
    d = r // s
    h = first_irreducible(pf, d)
    ext = ExtContext(pf, h)

    # N_i(A)^{-1} for i = 0..r-1:  Ninv_{i+1} = Ainv * Ninv_i^(q)
    ninv = [_mat_identity(n)]
    for _ in range(r - 1):
        ninv.append(_mat_mul(pf, Ainv, _mat_frob(pf, ninv[-1], e)))

    # theta^(q^i) and w^(q^i)
    u = [ext.gen]
    for _ in range(r - 1):
        u.append(ext.pow(u[-1], q))
    ftab = pf.frob_table(e)
    wpows = []
    for w in fq.basis:
        seq = [w]
        for _ in range(r - 1):
            seq.append(ftab[seq[-1]])
        wpows.append(seq)

    D = r * n
    rows: List[Tuple[List[int], ExtVec]] = []   # (coordinate row, solution)

    def coord_vec(beta: ExtVec) -> List[int]:
        out: List[int] = []
        for comp in beta:
            for c in comp:
                out.extend(fq.coords(c))
        return out

    def try_add(beta: ExtVec) -> None:
        if all(ext.is_zero(c) for c in beta):
            return
        if not _check_solution(pf, ext, A, beta, q):
            raise AssertionError("closed-form candidate fails the twist equation")
        _rref_insert(pf, rows, coord_vec(beta), beta, ext)

    # closed-form candidates over a spanning set of v
    ujpow: List[Vec] = [ext.one] * r
    for j in range(d):
        if j:
            ujpow = [ext.mul(x, y) for x, y in zip(ujpow, u)]
        for wseq in wpows:
            for k in range(n):
                beta = [ext.zero] * n
                for i in range(r):
                    c_i = ext.scalar(wseq[i], ujpow[i])
                    col = ninv[i]
                    for row_i in range(n):
                        a = col[row_i][k]
                        if a:
                            beta[row_i] = ext.add(beta[row_i], ext.scalar(a, c_i))
                try_add(tuple(beta))
                if len(rows) == n:
                    break
            if len(rows) == n:
                break
        if len(rows) == n:
            break

    if len(rows) < n:
        _kernel_solve(pf, fq, ext, A, Ainv, rows, coord_vec)
    if len(rows) < n:
        return None

    _rref_backsubstitute(pf, rows, ext)
    rows.sort(key=lambda rv: next(i for i, x in enumerate(rv[0]) if x))
    basis = [rv[1] for rv in rows]
    B = [[basis[j][i] for j in range(n)] for i in range(n)]
    if ext.is_zero(_ext_det(ext, B)):
        raise AssertionError("echelon basis assembled into a singular B")
    field: Optional[FieldSpec] = None
    if d == 1:
        field = pf.field
    elif pf.field.m == 1:
        field = FieldSpec(pf.field.p, d, [pf.els[c].coeffs[0] for c in h])
    sol = TwistSolution(q, r, pf.field, ext, basis, B, field)
    sol._residue = _twist_residue(pf, ext, A, B, q)
    assert all(ext.is_zero(x) for row in sol._residue for x in row)
    return sol


def _check_solution(pf: PackedField, ext: ExtContext, A: Mat,
                    beta: ExtVec, q: int) -> bool:
    n = len(A)
    for i in range(n):
        lhs = ext.pow(beta[i], q)
        rhs = ext.zero
        for k in range(n):
            if A[i][k]:
                rhs = ext.add(rhs, ext.scalar(A[i][k], beta[k]))
        if lhs != rhs:
            return False
    return True


def _twist_residue(pf: PackedField, ext: ExtContext, A: Mat,
                   B: List[List[Vec]], q: int) -> List[List[Vec]]:
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            lhs = ext.pow(B[i][j], q)
            rhs = ext.zero
            for k in range(n):
                if A[i][k]:
                    rhs = ext.add(rhs, ext.scalar(A[i][k], B[k][j]))
            row.append(ext.sub(lhs, rhs))
        out.append(row)
    return out


def _rref_insert(pf: PackedField, rows: List[Tuple[List[int], ExtVec]],
                 vec: List[int], beta: ExtVec, ext: ExtContext) -> None:
    add, mul, neg, inv = pf.add, pf.mul, pf.neg, pf.inv
    v = vec[:]
    b = list(beta)
    for row, rbeta in rows:
        piv = next(i for i, x in enumerate(row) if x)
        c = v[piv]
        if c:
            v = [add[x][neg[mul[c][y]]] for x, y in zip(v, row)]
            b = [ext.sub(x, ext.scalar(c, y)) for x, y in zip(b, rbeta)]
    nz = next((i for i, x in enumerate(v) if x), None)
    if nz is None:
        return
    c = inv[v[nz]]
    v = [mul[c][x] for x in v]
    b = [ext.scalar(c, x) for x in b]
    rows.append((v, tuple(b)))


def _rref_backsubstitute(pf: PackedField, rows: List[Tuple[List[int], ExtVec]],
                         ext: ExtContext) -> None:
    add, mul, neg = pf.add, pf.mul, pf.neg
    for idx in range(len(rows)):
        row, rbeta = rows[idx]
        piv = next(i for i, x in enumerate(row) if x)
        for jdx in range(len(rows)):
            if jdx == idx:
                continue
            orow, obeta = rows[jdx]
            c = orow[piv]
            if c:
                nrow = [add[x][neg[mul[c][y]]] for x, y in zip(orow, row)]
                nbeta = tuple(ext.sub(x, ext.scalar(c, y)) for x, y in zip(obeta, rbeta))
                rows[jdx] = (nrow, nbeta)


_MODP_TABLES: Dict[int, bytes] = {}


def _modp_table(p: int) -> bytes:
    tab = _MODP_TABLES.get(p)
    if tab is None:
        tab = bytes(i % p for i in range(256))
        _MODP_TABLES[p] = tab
    return tab


def _kernel_solve(pf: PackedField, fq: FqStructure, ext: ExtContext, A: Mat,
                  Ainv: Mat, rows: List[Tuple[List[int], ExtVec]],
                  coord_vec) -> None:
    """Fallback: kernel of tau - 1 where tau(v) = Ainv v^(q), as an F_p-linear
    map on E^n.  Rows are byte-packed ints (one F_p digit per byte, no carries
    since digit values stay below 256), normalized mod p by bytes.translate,
    so elimination runs at C speed.  The F_p-kernel basis is then fed through
    the F_q echelon insert, which canonicalizes the basis over F_q."""
    n = len(A)
    d, m, p, q, e = ext.d, pf.field.m, pf.field.p, fq.q, fq.e
    Dp = n * d * m
    tab = _modp_table(p)

    def norm(x: int) -> int:
        return int.from_bytes(x.to_bytes(Dp + 8, "little").translate(tab)[:Dp], "little")

    digs = [tuple((x // p ** t) % p for t in range(m)) for x in range(pf.order)]
    theta_q = ext.pow(ext.gen, q)
    tq_pows = [ext.one]
    for _ in range(d - 1):
        tq_pows.append(ext.mul(tq_pows[-1], theta_q))
    ftab = pf.frob_table(e)

    # coordinate index (k, j, t) -> k*d*m + j*m + t; basis vec = a^t theta^j e_k
    mat = [bytearray(Dp) for _ in range(Dp)]
    for k in range(n):
        for j in range(d):
            for t in range(m):
                col = (k * d + j) * m + t
                uk = ext.scalar(ftab[p ** t], tq_pows[j])  # (a^t theta^j)^q
                for i in range(n):
                    c = Ainv[i][k]
                    if c:
                        comp = ext.scalar(c, uk)
                        base = i * d * m
                        for jj in range(d):
                            if comp[jj]:
                                for tt, dg in enumerate(digs[comp[jj]]):
                                    mat[base + jj * m + tt][col] = dg
                mat[col][col] = (mat[col][col] - 1) % p

    rints = [int.from_bytes(bytes(ba), "little") for ba in mat]
    pivots: Dict[int, int] = {}
    rk = 0
    for col in range(Dp):
        shift = 8 * col
        piv = next((i for i in range(rk, Dp) if (rints[i] >> shift) & 0xFF), None)
        if piv is None:
            continue
        rints[rk], rints[piv] = rints[piv], rints[rk]
        c = (rints[rk] >> shift) & 0xFF
        if c != 1:
            rints[rk] = norm(rints[rk] * pow(c, p - 2, p))
        for i in range(Dp):
            if i != rk:
                di = (rints[i] >> shift) & 0xFF
                if di:
                    rints[i] = norm(rints[i] + (p - di) * rints[rk])
        pivots[col] = rk
        rk += 1

    for fc in (c for c in range(Dp) if c not in pivots):
        x = [0] * Dp
        x[fc] = 1
        for col, pr in pivots.items():
            dg = (rints[pr] >> (8 * fc)) & 0xFF
            if dg:
                x[col] = p - dg
        beta = []
        for k in range(n):
            comp = []
            for jj in range(d):
                base = (k * d + jj) * m
                comp.append(sum(x[base + tt] * p ** tt for tt in range(m)))
            beta.append(tuple(comp))
        beta = tuple(beta)
        if not _check_solution(pf, ext, A, beta, q):
            raise AssertionError("kernel vector fails the twist equation")
        _rref_insert(pf, rows, coord_vec(beta), beta, ext)
        if len(rows) == n:
            return


def _ext_det(ext: ExtContext, M: List[List[Vec]]) -> Vec:
    n = len(M)
    if n == 1:
        return M[0][0]
    out = ext.zero
    for j in range(n):
        if ext.is_zero(M[0][j]):
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in M[1:]]
        term = ext.mul(M[0][j], _ext_det(ext, minor))
        out = ext.add(out, term) if j % 2 == 0 else ext.sub(out, term)
    return out


def count_solutions_exhaustive(A: Sequence[Sequence[FqElem]], q: int,
                               sol: TwistSolution) -> int:
    """Enumerate all of F_{q^r}^{N+1} and count solutions (test-scale only)."""
    ext = sol.ext
    pfld = sol.ext.pf
    A_packed = _mat_from_fq(A)
    n = len(A)
    order = pfld.order ** ext.d
    if order ** n > 200000:
        raise SearchExhausted("exhaustive count is test-scale only")

    def elem(idx: int) -> Vec:
        out = []
        for _ in range(ext.d):
            out.append(idx % pfld.order)
            idx //= pfld.order
        return tuple(out)

    count = 0
    for code in range(order ** n):
        beta = []
        cc = code
        for _ in range(n):
            beta.append(elem(cc % order))
            cc //= order
        if _check_solution(pfld, ext, A_packed, tuple(beta), q):
            count += 1
    return count


# ---------------------------------------------------------------------------
# conjugation to matrix part I
# ---------------------------------------------------------------------------

def normalize_conjugate(f: DmlMap, R_max: int = 64) -> Tuple[TwistSolution, DmlMap]:
    """Solve B^(q) = A^{-1} B and return (solution, B^{-1} o f o B), whose
    matrix part is exactly the identity."""
    n = f.N + 1
    A0: List[List[FqElem]] = []
    for row in f.A:
        out = []
        for sv in row:
            if any(not c.is_zero() for c in sv.coeffs[1:]):
                raise NonConstantMatrix(
                    "normalize_conjugate requires a residue-constant matrix A")
            out.append(sv.constant_term())
        A0.append(out)
    pf = PackedField(f.field)
    Ainv_packed = _mat_inv(pf, _mat_from_fq(A0))
    if Ainv_packed is None:
        raise NotInvertible("A is singular mod t")
    Ainv = [[f.field.from_int(x) for x in row] for row in Ainv_packed]
    sol = solve_twist(Ainv, f.q, R_max)
    if sol.field is None:
        raise NonFlattenableExtension(
            f"twist solution lives in a degree-{sol.ext.d} tower over "
            f"{f.field!r}; conjugation needs a flattenable field")
    target = sol.field
    prec = f.coefficient_precision()

    if target == f.field:
        femb = f
        B_el = sol.B
    else:
        # base field is F_p; embed constants coefficientwise
        def emb(c: FqElem) -> FqElem:
            return target.el([c.coeffs[0]])

        def emb_series(sv: TruncSeries) -> TruncSeries:
            return TruncSeries(target, sv.prec, [emb(c) for c in sv.coeffs])

        A_emb = [[emb_series(sv) for sv in row] for row in f.A]
        G_emb = [HomogPoly(target, f.N, g.degree,
                           {exp: emb_series(c) for exp, c in g.terms.items()})
                 for g in f.G]
        femb = DmlMap(target, f.p, f.e, A_emb, G_emb, f.e0, f.label)
        B_el = sol.B

    Bconst = [[TruncSeries.from_constant(x, prec) for x in row] for row in B_el]
    Binvconst = dynamics.invert_series_matrix(Bconst, prec)

    def linear_map(M) -> dynamics.GeneralMap:
        coords = []
        for i in range(n):
            terms = {}
            for j in range(n):
                if not M[i][j].is_zero_at_precision():
                    exp = tuple(1 if k == j else 0 for k in range(n))
                    terms[exp] = M[i][j]
            coords.append(HomogPoly(target, f.N, 1, terms))
        return dynamics.GeneralMap(target, coords)

    comp = compose_maps(linear_map(Binvconst),
                        compose_maps(dml_to_general(femb), linear_map(Bconst)))
    rec = recognize_dml_form(comp, f.p, f.e)
    if not isinstance(rec, DmlMap):
        raise AssertionError(f"conjugate failed recognition: {rec}")
    one = target.one()
    for i in range(n):
        for j in range(n):
            sv = rec.A[i][j]
            want_one = (i == j)
            is_one = (sv.constant_term() == one and all(c.is_zero() for c in sv.coeffs[1:]))
            if want_one != is_one or (not want_one and not sv.is_zero_at_precision()):
                raise AssertionError("conjugated matrix part is not the identity")
    return sol, rec
