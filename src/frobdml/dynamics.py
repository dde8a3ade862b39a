"""The map family f_i(x) = sum_j a_ij x_j^q + g_i(x_0^p, ..., x_N^p).

DmlMap is the structured form: an (N+1)x(N+1) matrix A over O_K = k[[t]]
with unit determinant, q = p^e, and remainders G_i of degree q/p in
variables y_j standing for x_j^p, every G coefficient in the maximal ideal
(valuation >= 1).  GeneralMap is a plain tuple of homogeneous coordinates,
used for symbolic composition and for maps that only acquire the structured
form after iteration.

Every monomial of a DmlMap is a p-th power, so apply_map evaluates it
through the p-sections of its coefficients when they are long enough: each
product runs at ceil(n/p) digits, and one interleave and one Frobenius per
coordinate give the image at n digits (see apply_map).
"""
from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    DimensionMismatch,
    FieldMismatch,
    NotInImage,
    NonUnitDivisor,
    ParseError,
    PrecisionExhausted,
    UnsupportedQ,
)
from . import poly
from .field import FieldSpec, FqElem, p_power_exponent
from .geometry import (
    ExpVec,
    HomogPoly,
    ProjPoint,
    eval_hom_coords,
    normalize,
    poly_mul,
)
from .record import Record
from .series import (AtPrecisionZero, TruncSeries, _Shape, _add, _dilate, _fit, _galois,
                     _gather, _new, _reduce, _scatter)

DEFAULT_TERM_BOUND = 10 ** 6
# precisions whose coefficient sections a DmlMap keeps: a lift meets about
# log2(prec) + 1 of them, the ramp and the requested one
SECTIONS_KEPT = 16
# apply_map splits into p-sections only when each holds at least this many
# digits: below it the work per section costs more than the shorter products
# save (measured crossover, p = 2 to 257; see BENCH_16.json)
SECTION_MIN_R = 32


def term_bound() -> int:
    env = os.environ.get("FROBDML_TERM_BOUND")
    if not env:
        return DEFAULT_TERM_BOUND
    try:
        bound = int(env)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ParseError(f"FROBDML_TERM_BOUND={env!r} is not a positive integer")
    return bound


# ---------------------------------------------------------------------------
# validation diagnostics (values, not exceptions)
# ---------------------------------------------------------------------------

class NonUnitDeterminant(Record):
    __slots__ = ("detail",)

    def __str__(self):
        return f"NonUnitDeterminant: {self.detail}"


class CoefficientNotInMaximalIdeal(Record):
    __slots__ = ("coordinate", "exponents")

    def __str__(self):
        return (f"CoefficientNotInMaximalIdeal: G[{self.coordinate}] term "
                f"{list(self.exponents)} has a unit coefficient")


class WrongDegree(Record):
    __slots__ = ("coordinate", "got", "want")

    def __str__(self):
        return (f"WrongDegree: G[{self.coordinate}] has degree {self.got}, "
                f"expected q/p = {self.want}")


class CoefficientFieldTooLarge(Record):
    __slots__ = ("where", "witness")

    def __str__(self):
        return (f"CoefficientFieldTooLarge: {self.where} coefficient {self.witness} "
                f"is not fixed by Frob_q")


Diagnostic = Union[NonUnitDeterminant, CoefficientNotInMaximalIdeal,
                   WrongDegree, CoefficientFieldTooLarge]


class NotInForm(Record):
    # coordinate and exponents are None when no single term is at fault
    __slots__ = ("coordinate", "exponents", "reason")

    def __str__(self):
        where = "" if self.coordinate is None else f" in coordinate {self.coordinate}"
        exps = "" if self.exponents is None else f" at {list(self.exponents)}"
        return f"NotInForm{where}{exps}: {self.reason}"


class ConditionsReport(Record):
    __slots__ = ("zero_differential", "special_fiber_is_frobenius",
                 "frobenius_power")


# ---------------------------------------------------------------------------
# map types
# ---------------------------------------------------------------------------

class DmlMap:
    __slots__ = ("field", "p", "e", "N", "A", "G", "e0", "label", "_secs")

    def __init__(self, field: FieldSpec, p: int, e: int, A: Sequence[Sequence[TruncSeries]],
                 G: Sequence[HomogPoly], e0: int, label: str = ""):
        self.field = field
        self.p = p
        self.e = e
        self.N = len(A) - 1
        self.A = tuple(tuple(row) for row in A)
        self.G = tuple(G)
        self.e0 = e0
        self.label = label
        self._secs: Dict[int, tuple] = {}

    @property
    def q(self) -> int:
        return self.p ** self.e

    def coefficient_precision(self) -> int:
        precs = [s.prec for row in self.A for s in row]
        precs += [c.prec for g in self.G for c in g.terms.values()]
        return min(precs)

    def _sections(self, n: int) -> tuple:
        """The monomials and sections of the coefficients at precision n
        (see _build_sections), built on the first call at n and kept for the
        last SECTIONS_KEPT precisions."""
        secs = self._secs.get(n)
        if secs is None:
            secs = _build_sections(self, n)
            if len(self._secs) >= SECTIONS_KEPT:   # evict the oldest
                del self._secs[next(iter(self._secs))]
            self._secs[n] = secs
        return secs

    def __repr__(self):
        return f"DmlMap(p={self.p}, e={self.e}, N={self.N}, label={self.label!r})"


class GeneralMap:
    __slots__ = ("field", "N", "degree", "coords", "label")

    def __init__(self, field: FieldSpec, coords: Sequence[HomogPoly], label: str = ""):
        coords = tuple(coords)
        if len(coords) < 2:
            raise DimensionMismatch("a map needs at least 2 coordinates")
        N = len(coords) - 1
        deg = coords[0].degree
        for h in coords:
            if h.field != field:
                raise FieldMismatch("coordinate field mismatch")
            if h.N != N:
                raise DimensionMismatch("coordinate variable count mismatch")
            if h.degree != deg:
                raise DegreeMismatch("coordinates of mixed degree")
        self.field = field
        self.N = N
        self.degree = deg
        self.coords = coords
        self.label = label

    def __repr__(self):
        return f"GeneralMap(N={self.N}, degree={self.degree}, label={self.label!r})"


AnyMap = Union[DmlMap, GeneralMap]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def series_det(A: Sequence[Sequence[TruncSeries]]) -> TruncSeries:
    """det(A) at the least precision n of its entries.  The determinant is a
    polynomial in the entries, so det mod t^n depends only on their digits
    below t^n: every completion of the input has these digits, and knowing
    any entry to more digits never lowers n."""
    return _eliminate(A, min(s.prec for row in A for s in row))[0]


def _eliminate(A: Sequence[Sequence[TruncSeries]], prec: int,
               inverse: bool = False
               ) -> Tuple[TruncSeries, Optional[List[List[TruncSeries]]]]:
    """Gaussian elimination over k[[t]] on the exact zero-padded lifts of the
    entries, column by column with the pivot of least valuation in its column
    (precision over a DVR as in X. Caruso, D. Roe, T. Vaccon, "Tracking
    p-adic precision", ANTS XI, 2014).

    Returns (det mod t^prec, inverse mod t^prec or None).  Clearing a column
    under a pivot of valuation v costs the rows below v digits, so the first
    non-unit pivot restarts the work at 2*prec, and once the pivot
    valuations reach prec the determinant is 0 mod t^prec.  With ``inverse``
    every pivot must be a unit: Gauss-Jordan then loses nothing and works at
    prec, and a column without a unit pivot raises NonUnitDivisor."""
    n = len(A)
    field = A[0][0].field
    work = prec
    while True:
        a = [[s if s.prec == work else s.change_precision(work) for s in row] for row in A]
        inv = [[TruncSeries.one(field, work) if i == j else TruncSeries.zeros(field, work)
                for j in range(n)] for i in range(n)] if inverse else None
        det = TruncSeries.one(field, work)
        lost = 0
        for col in range(n):
            # an entry zero at its precision counts as valuation prec
            vals = [x.prec if isinstance(x, AtPrecisionZero) else x
                    for x in (a[r][col].valuation() for r in range(col, n))]
            v = min(vals)
            if v:
                if inverse:
                    raise NonUnitDivisor(
                        f"no unit pivot in column {col}; matrix not invertible over O_K")
                lost += v
                if lost >= prec:
                    return TruncSeries.zeros(field, prec), None
                if work == prec:
                    break
            piv = col + vals.index(v)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
                if inv is not None:
                    inv[col], inv[piv] = inv[piv], inv[col]
            det = det * a[col][col]
            u = a[col][col].shift_down(v).inverse()
            if inv is not None:
                a[col][col + 1:] = [x * u for x in a[col][col + 1:]]
                inv[col] = [x * u for x in inv[col]]
            for r in range(0 if inv is not None else col + 1, n):
                factor = a[r][col]
                if r == col or factor.is_zero_at_precision():
                    continue
                if inv is None:
                    factor = factor.shift_down(v) * u
                a[r][col + 1:] = [x - factor * y
                                  for x, y in zip(a[r][col + 1:], a[col][col + 1:])]
                if inv is not None:
                    inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
        else:
            return det.change_precision(prec), inv
        work = 2 * prec


def _unit_det(A: Sequence[Sequence[TruncSeries]]) -> bool:
    """det(A) is a unit exactly when the residue matrix A mod t is invertible."""
    return _eliminate(A, 1)[0].is_unit()


def _sigma_fixed(s: TruncSeries, e: int) -> Optional[str]:
    """None if every coefficient is Frob_{p^e}-fixed, else a witness string."""
    if s.galois(e) == s:
        return None
    for j, c in enumerate(s.coeffs):
        if c.frobenius(e) != c:
            return f"{c} (of t^{j})"
    return None


def coefficient_field_exponent(f_A, f_G) -> int:
    """lcm of the subfield degrees of every stored coefficient: the least
    d | m whose Galois action Frob_{p^d} fixes every series."""
    series = [s for row in f_A for s in row]
    series += [s for g in f_G for s in g.terms.values()]
    m = series[0].field.m
    return next(d for d in range(1, m + 1)
                if m % d == 0 and all(s.galois(d) == s for s in series))


def validate_map(field: FieldSpec, p: int, e: int,
                 A: Sequence[Sequence[TruncSeries]],
                 G: Sequence[HomogPoly],
                 label: str = "") -> Union[DmlMap, List[Diagnostic]]:
    """Check the structured-form invariants; diagnostics are ordered
    determinant first, then A row-major, then G by coordinate index."""
    if p != field.p:
        raise FieldMismatch(f"map characteristic {p} vs field characteristic {field.p}")
    if e < 1:
        raise DegreeMismatch(f"e = {e} must be >= 1")
    q = p ** e
    n = len(A)
    if n < 2 or any(len(row) != n for row in A):
        raise DimensionMismatch("A must be square of size N+1 >= 2")
    if len(G) != n:
        raise DimensionMismatch(f"G has {len(G)} entries, expected {n}")
    N = n - 1
    diags: List[Diagnostic] = []

    if not _unit_det(A):
        det = series_det(A)
        v = det.valuation()
        diags.append(NonUnitDeterminant(
            f"det(A) = {det} has valuation {v if not isinstance(v, AtPrecisionZero) else f'>= {v.prec}'}"))

    for i, row in enumerate(A):
        for j, s in enumerate(row):
            w = _sigma_fixed(s, e)
            if w is not None:
                diags.append(CoefficientFieldTooLarge(f"A[{i}][{j}]", w))

    want = q // p
    for i, g in enumerate(G):
        if g.N != N:
            raise DimensionMismatch(f"G[{i}] has {g.N + 1} variables, expected {n}")
        if g.degree != want:
            diags.append(WrongDegree(i, g.degree, want))
            continue
        for exps, c in sorted(g.terms.items(), reverse=True):
            vv = c.valuation()
            if not isinstance(vv, AtPrecisionZero) and vv == 0:
                diags.append(CoefficientNotInMaximalIdeal(i, exps))
            w = _sigma_fixed(c, e)
            if w is not None:
                diags.append(CoefficientFieldTooLarge(f"G[{i}] term {list(exps)}", w))

    if diags:
        return diags
    e0 = coefficient_field_exponent(A, G)
    return DmlMap(field, p, e, A, G, e0, label)


# ---------------------------------------------------------------------------
# application and orbits
# ---------------------------------------------------------------------------

def _at_prec(s: TruncSeries, prec: int) -> TruncSeries:
    if s.prec < prec:
        raise PrecisionExhausted(
            f"map coefficient known only to t^{s.prec} < point precision {prec}")
    return s.change_precision(prec) if s.prec > prec else s


def _build_sections(f: DmlMap, n: int) -> tuple:
    """(monos, rows): the exponent vectors of the monomials the F_ik read
    (see apply_map), x_j^(q/p) first, one per variable, then every other
    one of G; and per coordinate i the terms of the F_ik at precision n as
    a list of (k, chunks): each chunk a list of (D, v), D the packing of a
    nonzero section d_k at r = ceil(n/p) slots in the width of n, v the
    index of its monomial in monos.  Coefficients of one monomial are added
    first.  A chunk holds at most as many products as the digit bound of
    the Barrett pass admits unreduced.  When r < SECTION_MIN_R the only k
    is 0 and D is the coefficient itself at n digits.

    Every coefficient must be known to n digits, an entry of A that is
    exactly 0 or 1 included: A row by row, then G, in that order."""
    for row in f.A:
        for s in row:
            if s.prec < n:
                raise PrecisionExhausted(
                    f"map coefficient known only to t^{s.prec} < point precision {n}")
    for g in f.G:
        for c in g.terms.values():
            if c.prec < n:
                raise PrecisionExhausted(
                    f"coefficient known only to t^{c.prec} < evaluation precision {n}")
    field, p, m = f.field, f.p, f.field.m
    K = field._kron
    sh = K[n]
    r = -(-n // p)
    # a sum of c products of r-slot packings has digits below
    # c*r*m*(p-1)^2; the fold in _reduce adds less than m*p^2
    cap = ((1 << (sh.L.w - 1)) - 1 - m * p * p) // (r * m * (p - 1) ** 2)
    d, N = p ** (f.e - 1), f.N
    index = {tuple(d if k == j else 0 for k in range(N + 1)): j for j in range(N + 1)}
    for g in f.G:
        for exps in g.terms:
            index.setdefault(exps, len(index))
    rows = []
    for i in range(N + 1):
        coeffs: Dict[int, int] = {}
        terms = list(enumerate(f.A[i]))
        terms += [(index[exps], c) for exps, c in f.G[i].terms.items()]
        for v, c in terms:
            X = _fit(K, c.packed, c.prec, n)
            coeffs[v] = _add(sh, coeffs[v], X) if v in coeffs else X
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for v, X in coeffs.items():
            if r < SECTION_MIN_R:
                sections = [X]
            else:
                sections = _gather(sh.L, _galois(sh, field, X, -1 % m) if m > 1 else X, n, p)
            for k, D in enumerate(sections):
                if D:
                    groups.setdefault(k, []).append((D, v))
        rows.append([(k, [ts[a:a + cap] for a in range(0, len(ts), cap)])
                     for k, ts in sorted(groups.items())])
    return list(index), rows


def _monomials(f: DmlMap, monos: List[ExpVec], sh: _Shape, X: List[int],
               r: int) -> List[int]:
    """The monomials ``monos`` (see _build_sections) at the coordinates X,
    canonical packings of r slots in the width of sh: x_j^(q/p) by one
    dilation, the others by products masked to r."""
    mask = (1 << (r * sh.L.S)) - 1
    vals = [_dilate(sh, f.field, x, r, f.e - 1) for x in X]
    powers = [[x] for x in X]      # powers[j][k-1] = x_j^k, extended on demand
    for exps in monos[f.N + 1:]:
        mono = None
        for j, k in enumerate(exps):
            if k:
                pw = powers[j]
                while len(pw) < k:
                    pw.append(_reduce(sh, (pw[-1] * pw[0]) & mask))
                mono = pw[k - 1] if mono is None else _reduce(sh, (mono * pw[k - 1]) & mask)
        vals.append(mono)
    return vals


def apply_map(f: AnyMap, P: ProjPoint,
              pivot_inv: Optional[TruncSeries] = None) -> ProjPoint:
    """One application, canonical output at the same absolute precision.

    A DmlMap is evaluated through p-sections when r = ceil(n/p) >=
    SECTION_MIN_R.  Every coefficient splits as
    c = sum_(k<p) t^k * d_k(c)^p (see TruncSeries.frobenius_power), and
    every monomial of f is a p-th power, so

        f_i(x) = sum_(k<p) t^k * F_ik(x)^p,
        F_ik(x) = sum_j d_k(A_ij) * x_j^(q/p) + sum_e d_k(c_ie) * x^e,

    where G_i = sum_e c_ie * y^e.  Slot j of F_ik lands at slot p*j + k of
    f_i(x), so modulo t^n only the slots j < r of F_ik count,
    and those read x and the d_k only mod t^r: a digit of d_k whose slot
    lands at p*j + k >= n never reaches the result.  The F_ik are formed at
    r digits from monomials shared by every row and section (sections that
    are zero are skipped, sections equal to 1 not multiplied), then moved
    into place by one interleave per coordinate, with no additions, and
    Frob_p acts once on the whole packing.

    Sections shorter than SECTION_MIN_R digits cost more per section than
    their shorter products save.  There the same monomials, formed at r
    digits, are dilated to their p-th powers at n digits (one slot move and
    one Frob_p each), and f_i(x) = sum c * monomial^p with every c at n
    digits.  Both routes sum the products of a coordinate unreduced as far
    as the digit bound allows, and give the same packings.

    A map coefficient known below the point precision raises
    PrecisionExhausted (_build_sections gives the order).  ``pivot_inv``
    goes to normalize as a start for the image's pivot inverse."""
    if f.field != P.field:
        raise FieldMismatch("map and point over different fields")
    if f.N != P.N:
        raise DimensionMismatch(f"map on P^{f.N}, point in P^{P.N}")
    if isinstance(f, GeneralMap):
        imgs = [eval_hom_coords(h, P.coords) for h in f.coords]
    else:
        field, n, p = f.field, P.prec, f.p
        monos, rows = f._sections(n)
        sh = field._kron[n]
        r = -(-n // p)
        mask = (1 << (r * sh.L.S)) - 1
        vals = _monomials(f, monos, sh, [c.packed & mask for c in P.coords], r)
        sectioned = r >= SECTION_MIN_R
        if not sectioned:
            mask = sh.mask
            vals = [_dilate(sh, field, v, n, 1) for v in vals]
        imgs = []
        for row in rows:
            parts = []
            for k, chunks in row:
                F = None
                for chunk in chunks:
                    acc = 0
                    for D, v in chunk:
                        acc += vals[v] if D == 1 else D * vals[v]
                    acc &= mask
                    F = acc if F is None else _add(sh, _reduce(sh, F), _reduce(sh, acc))
                parts.append((k, F))
            if not sectioned:
                X = _reduce(sh, parts[0][1]) if parts else 0
            else:
                X = _reduce(sh, _scatter(sh.L, n, p, parts))
                if field.m > 1:
                    X = _galois(sh, field, X, 1)
            imgs.append(_new(field, n, X))
    Q = normalize(imgs, pivot_inv=pivot_inv)
    if Q.consumed:
        raise PrecisionExhausted(
            f"image lies in t^{Q.consumed}*O^(N+1); the map drops precision here")
    return Q


def orbit_cycle(f: AnyMap, P: ProjPoint, H: int,
                visit: Optional[Callable[[ProjPoint], None]] = None
                ) -> Tuple[List[ProjPoint], int]:
    """The distinct iterates f^0(P), .., f^(k-1)(P) within the horizon H and
    the index i that f^k(P) repeats (i = k = H + 1 when none does).

    Exact: apply_map is deterministic on the coordinates and keeps their
    precision, so past a repeat f^n(P) = f^(i + (n - i) mod (k - i))(P)
    (``replay``), and a walk that would raise later cannot repeat.  Points
    are keyed on consumed precision and packings.  ``visit`` sees each
    distinct iterate before the next one is computed, so its errors keep
    their precedence."""
    pts: List[ProjPoint] = []
    seen: Dict[tuple, int] = {}
    cur = P
    for n in range(H + 1):
        key = (cur.consumed, tuple(c.packed for c in cur.coords))
        i = seen.setdefault(key, n)
        if i != n:
            return pts, i
        pts.append(cur)
        if visit is not None:
            visit(cur)
        if n < H:
            cur = apply_map(f, cur)
    return pts, len(pts)


def replay(prefix: Sequence, start: int, H: int) -> list:
    """Entries 0..H of the sequence whose first len(prefix) entries are
    ``prefix`` and which repeats prefix[start:] from there on."""
    k = len(prefix)
    return [prefix[n] if n < k else prefix[start + (n - start) % (k - start)]
            for n in range(H + 1)]


def orbit(f: AnyMap, P: ProjPoint, H: int) -> List[ProjPoint]:
    """f^0(P), .., f^H(P); past the first repeat, the earlier objects."""
    if H < 0:
        raise DegreeMismatch("horizon must be >= 0")
    return replay(*orbit_cycle(f, P, H), H)


# ---------------------------------------------------------------------------
# conditions of the structured form
# ---------------------------------------------------------------------------

def dml_to_general(f: DmlMap) -> GeneralMap:
    q, p, n = f.q, f.p, f.N + 1
    coords = []
    for i in range(n):
        terms: Dict[ExpVec, TruncSeries] = {}
        for j in range(n):
            s = f.A[i][j]
            if not s.is_zero_at_precision():
                e = tuple(q if k == j else 0 for k in range(n))
                terms[e] = terms[e] + s if e in terms else s
        for exps, c in f.G[i].terms.items():
            e = tuple(p * x for x in exps)
            terms[e] = terms[e] + c if e in terms else c
        coords.append(HomogPoly(f.field, f.N, q, terms))
    return GeneralMap(f.field, coords, f.label)


def check_conditions(f: AnyMap) -> ConditionsReport:
    """The two hypotheses: identically zero differential, and special fiber
    equal to Frob_q composed with a unit scalar."""
    F = dml_to_general(f) if isinstance(f, DmlMap) else f
    p = F.field.p
    zero_diff = all(
        all(x % p == 0 for x in exps)
        for h in F.coords for exps in h.terms)

    d = F.degree
    is_ppower = p_power_exponent(p, d) > 0

    scalar: Optional[FqElem] = None
    fiber = True
    n = F.N + 1
    for i, h in enumerate(F.coords):
        res = h.reduce()
        want = tuple(d if j == i else 0 for j in range(n))
        if set(res.keys()) != {want}:
            fiber = False
            break
        c = res[want]
        if scalar is None:
            scalar = c
        elif c != scalar:
            fiber = False
            break
    fiber = fiber and scalar is not None and not scalar.is_zero() and is_ppower
    return ConditionsReport(zero_diff, fiber, d if fiber else None)


# ---------------------------------------------------------------------------
# composition and recognition
# ---------------------------------------------------------------------------

def compose_maps(F: AnyMap, G: AnyMap) -> GeneralMap:
    """(F o G)(x) = F(G(x)) by sparse substitution with like-term collection;
    the powers G_j^k are taken by square-and-multiply, and any product or
    coordinate above term_bound() terms raises DegreeOverflow."""
    Fg = dml_to_general(F) if isinstance(F, DmlMap) else F
    Gg = dml_to_general(G) if isinstance(G, DmlMap) else G
    if Fg.field != Gg.field or Fg.N != Gg.N:
        raise DimensionMismatch("cannot compose maps over different spaces")
    bound = term_bound()
    pow_cache: Dict[Tuple[int, int], HomogPoly] = {}
    mul = partial(poly_mul, max_terms=bound)

    def gpow(j: int, k: int) -> HomogPoly:
        if (j, k) not in pow_cache:
            pow_cache[j, k] = poly.power(mul, Gg.coords[j], k)
        return pow_cache[j, k]

    out = []
    deg = Fg.degree * Gg.degree
    for h in Fg.coords:
        acc = HomogPoly.zero(Fg.field, Fg.N, deg)
        for exps, coeff in h.terms.items():
            mono: Optional[HomogPoly] = None
            for j, k in enumerate(exps):
                if k:
                    part = gpow(j, k)
                    mono = part if mono is None else mul(mono, part)
            term = mono.scale(coeff) if mono is not None else None
            if term is None:
                raise DegreeMismatch("degree-0 coordinate in composition")
            acc = acc + term
            if len(acc.terms) > bound:
                raise DegreeOverflow(
                    f"composed coordinate exceeds the symbolic size bound of {bound} terms")
        out.append(acc)
    return GeneralMap(Fg.field, out, label=f"{Fg.label}o{Gg.label}" if Fg.label else "")


def iterate_map(f: AnyMap, k: int) -> GeneralMap:
    """Symbolic k-fold composition f^k, k >= 1."""
    if k < 1:
        raise DegreeMismatch("iteration count must be >= 1")
    cur = dml_to_general(f) if isinstance(f, DmlMap) else f
    base = cur
    for _ in range(k - 1):
        cur = compose_maps(cur, base)
    return cur


def recognize_dml_form(F: GeneralMap, p: int, e: int) -> Union[DmlMap, NotInForm]:
    """Split each coordinate into sum_j a_ij x_j^q plus a remainder in
    p-th-power variables with maximal-ideal coefficients.

    The split is normalized so that A is residue-constant: only the constant
    term of an x_j^q coefficient goes into A; its valuation >= 1 tail joins
    the remainder at y-exponent (q/p) e_j, which is always admissible.  A
    series presentation (A(t), G) exists iff the constant one does, since
    det A(t) is a unit exactly when det A(0) != 0, so this loses nothing.
    The A that ``compose --recognize`` prints is therefore the constant
    matrix of the x_j^q residues, and every t-dependence is in G.
    """
    q = p ** e
    if F.degree != q:
        raise DegreeMismatch(f"map degree {F.degree} != p^e = {q}")
    n = F.N + 1
    prec = min((c.prec for h in F.coords for c in h.terms.values()), default=1)
    zero = TruncSeries.zeros(F.field, prec)
    A: List[List[TruncSeries]] = [[zero] * n for _ in range(n)]
    G: List[HomogPoly] = []
    for i, h in enumerate(F.coords):
        rem: Dict[ExpVec, TruncSeries] = {}
        for exps, coeff in h.terms.items():
            j = _pure_power_index(exps, q)
            if j is not None:
                c0 = coeff.constant_term()
                if not c0.is_zero():
                    A[i][j] = TruncSeries.from_constant(c0, coeff.prec)
                tail = coeff - A[i][j] if not c0.is_zero() else coeff
                if not tail.is_zero_at_precision():
                    yexp = tuple(q // p if k == j else 0 for k in range(n))
                    rem[yexp] = rem[yexp] + tail if yexp in rem else tail
                continue
            if any(x % p for x in exps):
                return NotInForm(i, exps, "exponent vector is not divisible by p")
            v = coeff.valuation()
            if not isinstance(v, AtPrecisionZero) and v == 0:
                return NotInForm(i, exps, "remainder coefficient is a unit")
            yexp = tuple(x // p for x in exps)
            rem[yexp] = rem[yexp] + coeff if yexp in rem else coeff
        G.append(HomogPoly(F.field, F.N, q // p, rem))
    if not _unit_det(A):
        return NotInForm(None, None,
                         f"extracted matrix determinant {series_det(A)} is not a unit")
    e0 = coefficient_field_exponent(A, G)
    return DmlMap(F.field, p, e, A, G, e0, F.label)


def _pure_power_index(exps: ExpVec, q: int) -> Optional[int]:
    j = None
    for k, x in enumerate(exps):
        if x == q and j is None:
            j = k
        elif x:
            return None
    return j


# ---------------------------------------------------------------------------
# preimages for q = p
# ---------------------------------------------------------------------------

def invert_series_matrix(M: Sequence[Sequence[TruncSeries]],
                         prec: int) -> List[List[TruncSeries]]:
    """Inverse over O_K with entries truncated to prec."""
    return _eliminate([[_at_prec(s, prec) for s in row] for row in M], prec,
                      inverse=True)[1]


def preimage_qp(f: DmlMap, P: ProjPoint) -> ProjPoint:
    """Exact preimage when q = p: f factors as M o Frob_p with
    M = A + Gamma, Gamma the matrix of the linear forms G_i."""
    if f.q != f.p:
        raise UnsupportedQ(f"preimage_qp requires q = p, got q = {f.q}")
    if f.field != P.field or f.N != P.N:
        raise DimensionMismatch("map and point do not match")
    n = f.N + 1
    prec = P.prec
    field = f.field
    zero = TruncSeries.zeros(field, prec)
    M = [[_at_prec(f.A[i][j], prec) for j in range(n)] for i in range(n)]
    e_basis = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            c = f.G[i].terms.get(e_basis[j])
            if c is not None:
                M[i][j] = M[i][j] + _at_prec(c, prec)
    Minv = invert_series_matrix(M, prec)
    R = []
    for i in range(n):
        acc = zero
        for j in range(n):
            if not Minv[i][j].is_zero_at_precision():
                acc = acc + Minv[i][j] * P.coords[j]
        R.append(acc)
    # the stored representative of P differs from M * (preimage)^(p) by a
    # unit series, so membership can only be read off after renormalizing
    # at the first unit coordinate (which the p-power forces to be 1)
    i0 = next((i for i, r in enumerate(R)
               if not r.constant_term().is_zero()), None)
    if i0 is None:
        raise NotInImage("solved vector has no unit coordinate at this precision")
    u = R[i0]
    if not u.is_one():
        R = [r / u for r in R]
    p = f.p
    for i, r in enumerate(R):
        for k, c in enumerate(r.coeffs):
            if k % p and not c.is_zero():
                raise NotInImage(
                    f"coordinate {i}: solved series has a t^{k} term, "
                    f"not a p-th power at this precision")
    cprec = -(-prec // p)
    Q = [TruncSeries(field, cprec, [r.coeffs[p * j].frobenius(-1) for j in range(cprec)])
         for r in R]
    out = normalize(Q)
    if out.consumed:
        raise AssertionError("normalizing the preimage consumed precision")
    return out
