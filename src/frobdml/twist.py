"""The Frobenius twist equation B^(q) = A B and conjugation to matrix part I.

For A in GL_{N+1} over F_{q^s} the solution set of beta^(q) = A beta in the
algebraic closure is an F_q-vector space of dimension N+1 whose F_q-bases
are automatically linearly independent over the big field, so they assemble
into an invertible B.  All solutions are rational over F_{q^r} exactly when
the twisted norm N_r(A) = A^(q^{r-1}) ... A^(q) A equals the identity, so
the search visits r = s, 2s, ... <= R_max and solves only at qualifying r.

F_{q^r} is represented as a tower Fbase[Y]/(h) with h the first irreducible
monic polynomial of degree r/s in a fixed enumeration (Rabin's sieve in
``poly``), which avoids any root-finding embeddings.  At the first qualifying
r the solver takes the closed-form solutions

    beta(v) = sum_{i<r} N_i(A)^{-1} v^(q^i)      (exact whenever N_r(A) = I)

over an F_q-basis of v.  They always span: by Lang's theorem A = C^(q) C^-1
for an invertible C, which N_r(A) = I puts over E = F_(q^r); then
beta(v) = C * Tr_{E/F_q}(C^-1 v), which maps E^(N+1) onto C * F_q^(N+1)
because the trace of a finite-field extension is onto.  So there is no other
route; a closed form that fails to span is an internal error.  The returned
basis is the reduced row echelon basis (``poly.rref``) of the solutions'
F_q-coordinates, canonical for the solution space and so independent of
search order.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
from .field import FieldSpec, FqElem, _poly_str, p_power_exponent
from .geometry import HomogPoly
from .series import TruncSeries
from . import dynamics
from .dynamics import DmlMap, compose_maps

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
        self.ring = poly.table_ring(self.add, self.mul, self.neg, self.inv)
        self._frob: Dict[int, List[int]] = {}

    def frob_table(self, e: int) -> List[int]:
        key = e % self.field.m
        tab = self._frob.get(key)
        if tab is None:
            tab = [x.frobenius(key).index() for x in self.els]
            self._frob[key] = tab
        return tab


def packed_field(field: FieldSpec) -> PackedField:
    """The PackedField of ``field``, built on first use and kept on the field,
    so every solve and conjugation over one FieldSpec shares its tables."""
    pf = field._tables
    if pf is None:
        pf = field._tables = PackedField(field)
    return pf


_IRR_CACHE: Dict[Tuple[int, int, Tuple[int, ...], int],
                 Tuple[Tuple[int, ...], Optional[FieldSpec]]] = {}


def first_irreducible(pf: PackedField, d: int
                      ) -> Tuple[Tuple[int, ...], Optional[FieldSpec]]:
    """First monic degree-d polynomial h (little-endian coefficient index
    order) that is irreducible over Fbase, and Fbase[Y]/(h) as a FieldSpec
    when the tower flattens: Fbase itself for d = 1, else F_(p^d) over a
    prime Fbase, whose packed indices are the digits of h."""
    if d == 1:
        return (0, 1), pf.field
    f = pf.field
    key = (f.p, f.m, f.modulus, d)
    hit = _IRR_CACHE.get(key)
    if hit is not None:
        return hit
    Q = pf.order
    for idx in range(Q ** d):
        if idx % Q == 0:
            continue  # constant term zero: divisible by Y
        h = poly.digits(idx, Q, d) + [1]  # monic; idx orders the candidates
        if poly.least_factor_degree(pf.ring, h) is None:
            hit = _IRR_CACHE[key] = (tuple(h), FieldSpec(f.p, d, h) if f.m == 1 else None)
            return hit
    raise SearchExhausted(f"no irreducible polynomial of degree {d} found")  # pragma: no cover


class ExtContext:
    """E = Fbase[Y]/(h); elements are coefficient tuples of packed indices."""

    def __init__(self, pf: PackedField, h: Sequence[int]):
        self.pf = pf
        self.h = tuple(h)
        self.d = len(h) - 1
        self.zero: Vec = (0,) * self.d
        self.one: Vec = poly.padded([1], self.d)
        self.gen: Vec = poly.padded(poly.divmod(pf.ring, [0, 1], h)[1], self.d)  # Y mod h
        self.red = poly.reduction_rows(pf.ring, h)  # Y^(d+k) mod h

    def add(self, u: Vec, v: Vec) -> Vec:
        add = self.pf.add
        return tuple(add[a][b] for a, b in zip(u, v))

    def sub(self, u: Vec, v: Vec) -> Vec:
        add, neg = self.pf.add, self.pf.neg
        return tuple(add[a][neg[b]] for a, b in zip(u, v))

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
        """u^n for n >= 1."""
        return poly.power(self.mul, u, n)

    def is_zero(self, u: Vec) -> bool:
        return not any(u)

    def to_str(self, u: Vec) -> str:
        return _poly_str(map(self.pf.els.__getitem__, u), "b")


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
    """Inverse by row reduction of [X | I]; None when X is singular."""
    n = len(X)
    rows = poly.rref(pf.ring, [list(row) + list(e)
                               for row, e in zip(X, _mat_identity(n))])
    if not any(rows[-1][:n]):
        return None
    return tuple(tuple(row[n:]) for row in rows)


# ---------------------------------------------------------------------------
# F_q structure inside Fbase
# ---------------------------------------------------------------------------

class FqStructure:
    """The subfield F_q of Fbase, the F_q-basis of Fbase made of the first
    powers of its generator that are F_q-independent, and a table of the
    F_q-coordinates (as packed indices) of every Fbase element in that basis."""

    def __init__(self, pf: PackedField, e: int):
        field = pf.field
        p, m = field.p, field.m
        if m % e:
            raise DegreeMismatch(
                f"F_q with q = {p}^{e} is not a subfield of F_{{{p}^{m}}}")
        self.e = e
        self.q = p ** e
        self.s = m // e
        tab = pf.frob_table(e)
        fq_indices = [i for i in range(pf.order) if tab[i] == i]
        assert len(fq_indices) == self.q
        add, mul = pf.add, pf.mul
        span: Dict[int, Tuple[int, ...]] = {0: ()}  # F_q-span of the basis so far
        self.basis: List[int] = []
        for w in (p ** j for j in range(m)):  # packed index of a^j
            if w not in span:
                self.basis.append(w)
                span = {add[x][mul[c][w]]: co + (c,)
                        for c in fq_indices for x, co in span.items()}
        assert len(self.basis) == self.s
        self.coords = [span[i] for i in range(pf.order)]
        self.element = {co: i for i, co in span.items()}


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
                 field: Optional[FieldSpec], residue: List[List[Vec]]):
        self.q = q
        self.r = r
        self.base_field = base_field
        self.ext = ext
        self.basis_raw = basis
        self.B_raw = B
        self.field = field  # FieldSpec carrying the entries, when flattenable
        self._residue = residue

    def _to_field_elem(self, u: Vec) -> FqElem:
        assert self.field is not None
        if self.ext.d == 1:
            return self.base_field.from_int(u[0])
        return self.field.el(u)  # base field is F_p here; packed index = digit

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
    e = p_power_exponent(field.p, q)
    if not e:
        raise DegreeMismatch(
            f"q = {q} is not a positive power of the characteristic {field.p}")
    pf = packed_field(field)
    fq = FqStructure(pf, e)
    A_packed = _mat_from_fq(A)
    Ainv = _mat_inv(pf, A_packed)
    if Ainv is None:
        raise NotInvertible("A is singular")
    return _solve(pf, fq, A_packed, Ainv, R_max)


def _solve(pf: PackedField, fq: FqStructure, A: Mat, Ainv: Mat,
           R_max: int) -> TwistSolution:
    """B^(q) = A B for a packed invertible A with its inverse Ainv, at the
    least qualifying r <= R_max."""
    ident = _mat_identity(len(A))
    Ncur = A
    for r in range(1, R_max + 1):
        if r % fq.s == 0 and Ncur == ident:
            return _solve_at(pf, fq, A, Ainv, r)
        Ncur = _mat_mul(pf, _mat_frob(pf, Ncur, fq.e), A)
    raise SearchExhausted(
        f"no full solution space of B^(q) = A B within F_(q^{R_max})")


def _solve_at(pf: PackedField, fq: FqStructure, A: Mat, Ainv: Mat,
              r: int) -> TwistSolution:
    n = len(A)
    s, e, q = fq.s, fq.e, fq.q
    d = r // s
    h, field = first_irreducible(pf, d)
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

    def closed_forms():
        """F_q-coordinates of beta(v) for v = w theta^j e_k, the F_q-basis of
        E^n; entry k's Y^j coefficient has its s coordinates at (k*d + j)*s."""
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
                    yield [x for comp in beta for c in comp for x in fq.coords[c]]

    echelon: List[List[int]] = []
    for row in closed_forms():
        if len(poly.rref(pf.ring, [row], echelon)) == n:
            break
    else:
        raise AssertionError("closed-form solutions do not span the solution space")
    basis = []
    for row in echelon:
        flat = [fq.element[tuple(row[i:i + s])] for i in range(0, len(row), s)]
        basis.append(tuple(tuple(flat[k * d:(k + 1) * d]) for k in range(n)))
    B = [[basis[j][i] for j in range(n)] for i in range(n)]
    if not _ext_nonsingular(ext, B):
        raise AssertionError("echelon basis assembled into a singular B")
    residue = _residue(ext, A, B, q)
    assert all(ext.is_zero(x) for row in residue for x in row)
    return TwistSolution(q, r, pf.field, ext, basis, B, field, residue)


def _residue(ext: ExtContext, A: Mat, B: Sequence[Sequence[Vec]],
             q: int) -> List[List[Vec]]:
    """B^(q) - A B entrywise, for B with n rows and any number of columns."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(len(B[i])):
            rhs = ext.zero
            for k in range(n):
                if A[i][k]:
                    rhs = ext.add(rhs, ext.scalar(A[i][k], B[k][j]))
            row.append(ext.sub(ext.pow(B[i][j], q), rhs))
        out.append(row)
    return out


def _ext_nonsingular(ext: ExtContext, M: List[List[Vec]]) -> bool:
    """Full rank over the tower, by elimination that cross-multiplies rows
    (row_i <- a*row_i - b*row_piv) instead of dividing by the pivot."""
    rows = [list(row) for row in M]
    n = len(rows)
    for col in range(n):
        piv = next((i for i in range(col, n) if not ext.is_zero(rows[i][col])), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        a = rows[col][col]
        for i in range(col + 1, n):
            b = rows[i][col]
            if not ext.is_zero(b):
                rows[i] = [ext.sub(ext.mul(a, x), ext.mul(b, y))
                           for x, y in zip(rows[i], rows[col])]
    return True


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

    count = 0
    for code in range(order ** n):
        beta = [[tuple(poly.digits(c, pfld.order, ext.d))]  # one column
                for c in poly.digits(code, order, n)]
        if all(ext.is_zero(row[0]) for row in _residue(ext, A_packed, beta, q)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# conjugation to matrix part I
# ---------------------------------------------------------------------------

def normalize_conjugate(f: DmlMap, R_max: int = 64) -> Tuple[TwistSolution, DmlMap]:
    """Solve B^(q) = A^{-1} B and return (solution, B^{-1} o f o B).  The
    packed A^{-1} goes to the solver with A as its inverse, so A is inverted
    once.

    Since A B^(q) = B, the conjugate is x^(q) + B^{-1} G(B^(p) y): its matrix
    part is exactly I and only the remainder changes, as maps of degree q/p.
    _solve_at has checked A B^(q) = B as an all-zero residue."""
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
    pf = packed_field(f.field)
    A_packed = _mat_from_fq(A0)
    Ainv = _mat_inv(pf, A_packed)
    if Ainv is None:
        raise NotInvertible("A is singular mod t")
    sol = _solve(pf, FqStructure(pf, f.e), Ainv, A_packed, R_max)
    if sol.field is None:
        raise NonFlattenableExtension(
            f"twist solution lives in a degree-{sol.ext.d} tower over "
            f"{f.field!r}; conjugation needs a flattenable field")
    target = sol.field
    prec = f.coefficient_precision()

    G = f.G
    if target != f.field:
        # base field is F_p; embed coefficients digitwise
        G = [HomogPoly(target, f.N, g.degree,
                       {exp: TruncSeries(target, c.prec,
                                         [target.el(x.coeffs) for x in c.coeffs])
                        for exp, c in g.terms.items()})
             for g in f.G]
    B = sol.B
    # B is constant, so its inverse at precision 1, zero-extended, is exact
    Binv = [[s.zero_extend(prec) for s in row] for row in dynamics.invert_series_matrix(
        [[TruncSeries.from_constant(x, 1) for x in row] for row in B], 1)]

    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]

    def linear_map(M: Sequence[Sequence[TruncSeries]]) -> dynamics.GeneralMap:
        return dynamics.GeneralMap(target, [HomogPoly(target, f.N, 1, dict(zip(units, row)))
                                            for row in M])

    Bp = [[TruncSeries.from_constant(x.frobenius(1), prec) for x in row] for row in B]
    Gp = compose_maps(linear_map(Binv),
                      compose_maps(dynamics.GeneralMap(target, G), linear_map(Bp))).coords
    ident = [[TruncSeries.one(target, prec) if i == j else TruncSeries.zeros(target, prec)
              for j in range(n)] for i in range(n)]
    return sol, DmlMap(target, f.p, f.e, ident, Gp,
                       dynamics.coefficient_field_exponent(ident, Gp), "")
