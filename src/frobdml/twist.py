"""The Frobenius twist equation B^(q) = A B and conjugation to matrix part I.

For A in GL_{N+1} over F_{q^s} the solution set of beta^(q) = A beta in the
algebraic closure is an F_q-vector space of dimension N+1 whose F_q-bases
are automatically linearly independent over the big field, so they assemble
into an invertible B.  Proof: let solutions beta_1..beta_k be F_q-independent
but dependent over a field E, and take a shortest relation
sum c_i beta_i = 0 with c_1 = 1.  Applying ^(q) gives sum c_i^q A beta_i = 0,
and A^{-1} turns it into sum c_i^q beta_i = 0.  The difference
sum (c_i^q - c_i) beta_i = 0 has no beta_1 term, so it is a shorter relation
and all its coefficients vanish: every c_i lies in F_q, a contradiction.
The solver therefore needs no determinant over the tower: A invertible, n
F_q-independent echelon rows and a zero residue B^(q) - A B make B
invertible.  All solutions are rational over F_{q^r} exactly when
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
basis is the reduced row echelon basis of the solutions' F_q-coordinates,
canonical for the solution space and so independent of search order.

Everything is packed in ``field``'s digit layout over Fbase: an element of
E as its d coefficients, a matrix row as its n entries, a vector of E^n as
its n*d coefficients, joined and split by ``field._pack`` and ``_unpack``.
A product is one bignum multiply and ``_reduce``: E
folds the high slots back through the packed rows Y^(d+k) mod h, and row i
of X*Y is the sum over k of X_ik times row k of Y, reduced once.  Row
reduction over F_q is ``field._echelon``, which ``_mat_inv`` and the
solver's basis share with ``dynamics._unit_det``.  Fbase itself is
the field's own packed kernels on one coefficient (``_base_ring``), its
inverse Itoh-Tsujii's, with no tables, so its order is not bounded.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from .field import (FieldSpec, FqElem, FqStructure, _Shape, _add, _echelon, _fit, _galois,
                    _inv, _pack, _poly_str, _reduce, _sub, _unpack, p_power_exponent)
from .geometry import HomogPoly, _powers
from .series import TruncSeries, _new
from . import dynamics
from .dynamics import DmlMap, compose_maps

Vec = int                      # element of E, packed
ExtVec = Tuple[Vec, ...]       # element of E^(N+1)
Mat = Tuple[int, ...]          # Fbase matrix, one packed row per row


def _base_ring(field: FieldSpec) -> poly.Ring:
    """Fbase on its elements' packed slots (``FqElem.packed``): ``field._fp``
    for a prime field, whose slots are their own values, else the field's
    own kernels on one coefficient, the inverse by Itoh-Tsujii."""
    if field.m == 1:
        return field._fp
    L = field._L
    sh = L.single
    return poly.Ring(field.order, lambda a, b: _add(sh, a, b), lambda a, b: _sub(sh, a, b),
                     L.mul, lambda a: _inv(L, a))


def first_irreducible(field: FieldSpec, d: int
                      ) -> Tuple[Tuple[int, ...], Optional[FieldSpec]]:
    """First monic degree-d polynomial h (little-endian coefficient index
    order) that is irreducible over Fbase, and Fbase[Y]/(h) as a FieldSpec
    when the tower flattens: Fbase itself for d = 1, else F_(p^d) over a
    prime Fbase, whose packed indices are the digits of h."""
    if d == 1:
        return (0, 1), field
    R = _base_ring(field)
    Q = field.order
    # the candidates 1..Q-1 are the Y^d + c; one of them is irreducible
    # exactly when every prime factor of d divides Q - 1 (d | (Q-1)^d) and
    # Q = 1 mod 4 if 4 | d (R. Lidl, H. Niederreiter, "Finite Fields",
    # Thm 3.75); else the scan starts past them, at Y^d + Y + 1
    binomials = pow(Q - 1, d, d) == 0 and (d % 4 or Q % 4 == 1)
    for idx in range(1 if binomials else Q + 1, Q ** d):
        if idx % Q == 0:
            continue  # constant term zero: divisible by Y
        h = poly.digits(idx, Q, d) + [1]  # monic; idx orders the candidates
        if poly.least_factor_degree(R, [field.from_int(c).packed for c in h]) is None:
            return tuple(h), FieldSpec(field.p, d, h) if field.m == 1 else None
    raise SearchExhausted(f"no irreducible polynomial of degree {d} found")  # pragma: no cover


class ExtContext:
    """E = Fbase[Y]/(h) for a monic irreducible h of degree d, given by the
    Fbase indices of its coefficients.  An element is the packing of its d
    coefficients as a precision-d series over Fbase, whose digit width also
    holds a product of two elements before reduction."""

    def __init__(self, field: FieldSpec, h: Sequence[int]):
        self.field = field
        self.h = tuple(h)
        self.d = d = len(h) - 1
        self.sh = sh = field._kron[d]
        self.L = L = sh.L
        self.wide = L.shape(2 * d - 1)
        R = _base_ring(field)
        hs = [field.from_int(c).packed for c in h]
        self.zero: Vec = 0
        self.one: Vec = 1
        self.gen: Vec = self.encode(FqElem(field, c)  # Y mod h
                                    for c in poly.divmod(R, [0, 1], hs)[1])
        self.red = [self.encode(FqElem(field, c) for c in row)  # Y^(d+k) mod h
                    for row in poly.reduction_rows(R, hs)]

    def encode(self, coeffs: Iterable[FqElem]) -> Vec:
        """The element sum_j coeffs[j] Y^j, j < d."""
        return _pack(self.field, coeffs, self.d)

    def fit(self, x: FqElem) -> int:
        """The Fbase element x as a packed coefficient of E's layout."""
        return _fit(self.field._kron, x.packed, 1, self.d)

    def coeffs(self, u: Vec) -> Tuple[FqElem, ...]:
        """The d coefficients of u, inverse to ``encode``."""
        return _unpack(self.field, u, self.d)

    def add(self, u: Vec, v: Vec) -> Vec:
        return _add(self.sh, u, v)

    def sub(self, u: Vec, v: Vec) -> Vec:
        return _sub(self.sh, u, v)

    def scalar(self, c: int, u: Vec) -> Vec:
        """u times the Fbase element of index c."""
        return _reduce(self.sh, self.fit(self.field.from_int(c)) * u)

    def mul(self, u: Vec, v: Vec) -> Vec:
        P = _reduce(self.wide, u * v)
        S, slot = self.L.S, self.L.slot
        H = P >> (self.d * S)
        P &= self.sh.mask
        for row in self.red:
            P += (H & slot) * row
            H >>= S
        return _reduce(self.sh, P)

    def pow(self, u: Vec, n: int) -> Vec:
        """u^n for n >= 1."""
        return poly.power(self.mul, u, n)

    def is_zero(self, u: Vec) -> bool:
        return not u

    def to_str(self, u: Vec) -> str:
        return _poly_str(self.coeffs(u), "b")


# (Fbase, d) -> E of degree d and its flattened FieldSpec, built once
_TOWERS: Dict[Tuple[FieldSpec, int], Tuple[ExtContext, Optional[FieldSpec]]] = {}


# ---------------------------------------------------------------------------
# packed Fbase matrices
# ---------------------------------------------------------------------------

def _mat_pack(A: Sequence[Sequence[FqElem]], n: int) -> Mat:
    return tuple(_pack(A[0][0].field, row, n) for row in A)


def _mat_mul(sh: _Shape, X: Mat, Y: Mat) -> Mat:
    """X*Y: row i is the sum over k of X_ik times row k of Y, reduced once."""
    S, slot = sh.L.S, sh.L.slot
    out = []
    for x in X:
        acc = 0
        for y in Y:
            acc += (x & slot) * y
            x >>= S
        out.append(_reduce(sh, acc))
    return tuple(out)


def _mat_frob(field: FieldSpec, sh: _Shape, X: Mat, e: int) -> Mat:
    k = e % field.m
    return tuple(_galois(sh, x, k) for x in X) if k else X


def _mat_inv(A: Sequence[Sequence[FqElem]]) -> Optional[List[List[FqElem]]]:
    """Inverse of a square matrix over Fbase by row reduction of [A | I];
    None when A is singular."""
    field, n = A[0][0].field, len(A)
    sh = field._kron[n]
    S = sh.L.S
    rows = [x | 1 << ((n + i) * S) for i, x in enumerate(_mat_pack(A, n))]
    out = _echelon(FqStructure(field, field.m), sh.L.shape(2 * n), rows, [])
    if out[-1][0][0] >= n:
        return None
    return [list(_unpack(field, v >> (n * S), n)) for _, v in out]


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

    def _entry(self, u: Vec):
        if self.field is None:
            return self.ext.to_str(u)
        if self.ext.d == 1:     # E's layout is Fbase's own
            return FqElem(self.base_field, u)
        return self.field.el([c.packed for c in self.ext.coeffs(u)])  # Fbase = F_p

    @cached_property
    def basis(self) -> List[Tuple]:
        """The basis vectors' entries, decoded on the first access and kept."""
        return [tuple(map(self._entry, vec)) for vec in self.basis_raw]

    @cached_property
    def B(self) -> List[List]:
        """The matrix whose columns are the basis vectors."""
        return [list(row) for row in zip(*self.basis)]

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
    fq = FqStructure(field, e)
    Ainv = _mat_inv(A)
    if Ainv is None:
        raise NotInvertible("A is singular")
    return _solve(fq, A, Ainv, R_max)


def _solve(fq: FqStructure, A: Sequence[Sequence[FqElem]],
           Ainv: Sequence[Sequence[FqElem]], R_max: int) -> TwistSolution:
    """B^(q) = A B for an invertible A over Fbase with its inverse Ainv, at
    the least qualifying r <= R_max.  It walks the twisted norms' inverses
    N_i(A)^{-1} = Ainv * (N_(i-1)(A)^{-1})^(q), N_0(A) = I: N_r(A) = I
    exactly when its inverse is, and the closed forms take N_i(A)^{-1} for
    i < r from the walk."""
    field, n = fq.field, len(A)
    sh = field._kron[n]
    Ainv_p = _mat_pack(Ainv, n)
    ninv = [tuple(1 << (i * sh.L.S) for i in range(n))]
    for r in range(1, R_max + 1):
        X = _mat_mul(sh, Ainv_p, _mat_frob(field, sh, ninv[-1], fq.e))
        if r % fq.s == 0 and X == ninv[0]:
            return _solve_at(fq, A, ninv, r)
        ninv.append(X)
    raise SearchExhausted(
        f"no full solution space of B^(q) = A B within F_(q^{R_max})")


def _solve_at(fq: FqStructure, A: Sequence[Sequence[FqElem]],
              ninv: Sequence[Mat], r: int) -> TwistSolution:
    """The solution space at r, from N_i(A)^{-1} for i = 0..r-1, packed in
    the digit width of n."""
    field, n = fq.field, len(A)
    s, e, q = fq.s, fq.e, fq.q
    d = r // s
    if (field, d) not in _TOWERS:
        h, flat = first_irreducible(field, d)
        _TOWERS[field, d] = ExtContext(field, h), flat
    ext, flat = _TOWERS[field, d]
    # the solve's vectors sum up to max(r, n) products before one reduction,
    # so they take the digit width of that precision
    K = field._kron
    N = max(r, n)
    W = K[N].L
    S, D = W.S, d * W.S
    csh, esh = W.shape(n * n * d), W.shape(n * d)

    # column k of N_i(A)^{-1} at coefficient 0 of the n components of the
    # k-th of n vectors of E^n, so that theta^(j q^i) times it is the i-th
    # term of beta(theta^j e_k) for every k at once; then times w^(q^i) for
    # each w = a^t of the F_q-basis of Fbase
    cols = []
    for X in ninv:
        X = [_fit(K, x, n, N) for x in X]
        M = 0
        for row, x in enumerate(X):
            for k in range(n):
                M |= (x & W.slot) << ((k * n + row) * D)
                x >>= S
        cols.append(M)
    spread = [cols] + [
        [_reduce(csh, _fit(K, (field.gen() ** t).frobenius(e * i).packed, 1, N) * M)
         for i, M in enumerate(cols)] for t in range(1, s)]

    # theta^(q^i)
    u = [ext.gen]
    for _ in range(r - 1):
        u.append(ext.pow(u[-1], q))

    def closed_forms():
        """beta(v) for v = w theta^j e_k, the F_q-basis of E^n, packed."""
        ujpow: List[Vec] = [ext.one] * r
        for j in range(d):
            if j:
                ujpow = [ext.mul(x, y) for x, y in zip(ujpow, u)]
            wide = [_fit(K, x, d, N) for x in ujpow]
            for Ms in spread:
                Z = _reduce(csh, sum(x * M for x, M in zip(wide, Ms)))
                for k in range(n):
                    yield (Z >> (k * n * D)) & esh.mask

    echelon: List[Tuple[Tuple[int, int], int]] = []
    for row in closed_forms():
        if len(_echelon(fq, esh, [row], echelon)) == n:
            break
    else:
        raise AssertionError("closed-form solutions do not span the solution space")
    dmask = (1 << D) - 1
    basis = [tuple(_fit(K, (v >> (k * D)) & dmask, N, d) for k in range(n))
             for _, v in echelon]
    B = [[basis[j][i] for j in range(n)] for i in range(n)]
    # with A invertible and the columns F_q-independent, a zero residue makes
    # B invertible over E (module docstring)
    residue = _residue(ext, [[ext.fit(x) for x in row] for row in A], B, q)
    if not all(ext.is_zero(x) for row in residue for x in row):
        raise AssertionError("echelon basis fails B^(q) = A B")
    return TwistSolution(q, r, field, ext, basis, B, flat, residue)


def _residue(ext: ExtContext, A: Sequence[Sequence[int]], B: Sequence[Sequence[Vec]],
             q: int) -> List[List[Vec]]:
    """B^(q) - A B entrywise, for A over Fbase packed in E's layout and B
    with n rows and any number of columns."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(len(B[i])):
            rhs = ext.zero
            for k in range(n):
                if A[i][k]:
                    rhs = ext.add(rhs, _reduce(ext.sh, A[i][k] * B[k][j]))
            row.append(ext.sub(ext.pow(B[i][j], q), rhs))
        out.append(row)
    return out


def count_solutions_exhaustive(A: Sequence[Sequence[FqElem]], q: int,
                               sol: TwistSolution) -> int:
    """Enumerate all of F_{q^r}^{N+1} and count solutions (test-scale only)."""
    ext, F = sol.ext, sol.ext.field
    Q = F.order
    A_fit = [[ext.fit(x) for x in row] for row in A]
    n = len(A)
    order = Q ** ext.d
    if order ** n > 200000:
        raise SearchExhausted("exhaustive count is test-scale only")

    count = 0
    for code in range(order ** n):
        beta = [[ext.encode([F.from_int(c) for c in poly.digits(x, Q, ext.d)])]
                for x in poly.digits(code, order, n)]  # one column
        if all(ext.is_zero(row[0]) for row in _residue(ext, A_fit, beta, q)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# conjugation to matrix part I
# ---------------------------------------------------------------------------

def normalize_conjugate(f: DmlMap, R_max: int = 64) -> Tuple[TwistSolution, DmlMap]:
    """Solve B^(q) = A^{-1} B and return (solution, B^{-1} o f o B).  A^{-1}
    goes to the solver with A as its inverse, so A is inverted once.

    Since A B^(q) = B, the conjugate is x^(q) + B^{-1} G(B^(p) y): its matrix
    part is exactly I and only the remainder changes, as maps of degree q/p.
    _solve_at has checked A B^(q) = B as an all-zero residue."""
    n = f.N + 1
    A0: List[List[FqElem]] = []
    for row in f.A:
        out = []
        for sv in row:
            if TruncSeries.from_constant(sv.constant_term(), sv.prec) != sv:
                raise NonConstantMatrix(
                    "normalize_conjugate requires a residue-constant matrix A")
            out.append(sv.constant_term())
        A0.append(out)
    Ainv = _mat_inv(A0)
    if Ainv is None:
        raise NotInvertible("A is singular mod t")
    sol = _solve(FqStructure(f.field, f.e), Ainv, A0, R_max)
    if sol.field is None:
        raise NonFlattenableExtension(
            f"twist solution lives in a degree-{sol.ext.d} tower over "
            f"{f.field!r}; conjugation needs a flattenable field")
    target = sol.field
    prec = f.coefficient_precision()

    G = f.G
    if target != f.field:
        # base field is F_p: each packing moves into target's slots
        K, T = f.field._kron, target._kron
        G = [HomogPoly(target, f.N, g.degree,
                       {exp: _new(target, c.prec, _fit(K, c.packed, c.prec, c.prec, into=T))
                        for exp, c in g.terms.items()}, g.prec)
             for g in f.G]
    B = sol.B
    Binv = [[TruncSeries.from_constant(x, prec) for x in row] for row in _mat_inv(B)]

    units = _powers(f.N, 1)

    def linear_map(M: Sequence[Sequence[TruncSeries]]) -> dynamics.GeneralMap:
        return dynamics.GeneralMap(target, [HomogPoly(target, f.N, 1, dict(zip(units, row)))
                                            for row in M])

    Bp = [[TruncSeries.from_constant(x.frobenius(1), prec) for x in row] for row in B]
    Gp = compose_maps(linear_map(Binv),
                      compose_maps(dynamics.GeneralMap(target, G), linear_map(Bp))).coords
    ident = [[TruncSeries.one(target, prec) if i == j else TruncSeries.zeros(target, prec)
              for j in range(n)] for i in range(n)]
    return sol, DmlMap(target, f.p, f.e, ident, Gp, "")
