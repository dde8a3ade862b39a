"""The map family f_i(x) = sum_j a_ij x_j^q + g_i(x_0^p, ..., x_N^p).

DmlMap is the structured form: an (N+1)x(N+1) matrix A over O_K = k[[t]]
with unit determinant, q = p^e, and remainders G_i of degree q/p in
variables y_j standing for x_j^p, every G coefficient in the maximal ideal
(valuation >= 1).  GeneralMap is a plain tuple of homogeneous coordinates,
used for symbolic composition and for maps that only acquire the structured
form after iteration.

Every monomial of a DmlMap is a p-th power, f_i(x) = F_i(x_0^p, .., x_N^p)
for the rows F_i through which this module reads A and G, so apply_map
evaluates it through the p-sections of its coefficients when they are long
enough: each product runs at ceil(n/p) digits, and one interleave and one
Frobenius per coordinate give the image at n digits (see apply_map), which
keeps only the x_j^(q/p) dilations, sections, interleave and Frobenius to
itself: the other monomials and the bounded sums are geometry's kernels of
its one evaluator.
"""
from __future__ import annotations

import os
from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    FieldMismatch,
    NotInImage,
    NonUnitDivisor,
    ParseError,
    PrecisionExhausted,
    UnsupportedQ,
)
from . import poly
from .field import (FieldSpec, FqElem, FqStructure, _dilate, _echelon, _fit, _galois,
                    _gather, _reduce, _run_cap, _scatter, p_power_exponent)
from .geometry import (
    ExpVec,
    HomogPoly,
    ProjPoint,
    _monomials,
    _point_galois,
    _powers,
    _sums,
    eval_hom_coords,
    normalize,
    poly_mul,
)
from .record import Record
from .series import AtPrecisionZero, TruncSeries, _new

DEFAULT_TERM_BOUND = 10 ** 6
# precisions whose coefficient sections a DmlMap keeps: a lift meets about
# log_p(prec) + 1 of them, the ramp and the requested one
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
    __slots__ = ("field", "p", "e", "N", "A", "G", "e0", "label", "_secs", "_rows")

    def __init__(self, field: FieldSpec, p: int, e: int, A: Sequence[Sequence[TruncSeries]],
                 G: Sequence[HomogPoly], label: str = ""):
        self.field = field
        self.p = p
        self.e = e
        self.N = len(A) - 1
        self.A = tuple(tuple(row) for row in A)
        self.G = tuple(G)
        # the coefficient field is F_(p^e0)
        self.e0 = coefficient_field_exponent(
            [s for row in self.A for s in row] + [c for g in self.G for c in g.terms.values()])
        self.label = label
        self._secs: Dict[int, tuple] = {}
        self._rows: Optional[tuple] = None

    @property
    def q(self) -> int:
        return self.p ** self.e

    def coefficient_precision(self) -> int:
        return min(F.prec for F in self._coefficient_rows())

    def _coefficient_rows(self) -> Tuple[HomogPoly, ...]:
        """The rows F_i, f_i(x) = F_i(x_0^p, .., x_N^p): A_i at the
        y_j^(q/p) and G_i collected as one form of degree q/p, known to the
        least precision of A_i's entries and of G_i, whose prec counts the
        O(t^k) terms it dropped; built on the first call.  Evaluation,
        preimages, the general form and the precision read f only here."""
        if self._rows is None:
            d = self.p ** (self.e - 1)
            units = _powers(self.N, d)
            self._rows = tuple(HomogPoly(self.field, self.N, d,
                                         chain(zip(units, row), g.terms.items()), g.prec)
                               for row, g in zip(self.A, self.G))
        return self._rows

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
    any entry to more digits never lowers n.

    Gaussian elimination over k[[t]] on the exact zero-padded lifts of the
    entries, column by column with the pivot of least valuation in its column
    (precision over a DVR as in X. Caruso, D. Roe, T. Vaccon, "Tracking
    p-adic precision", ANTS XI, 2014).  Clearing a column under a pivot of
    valuation v costs the rows below v digits, so the first non-unit pivot
    restarts the work at 2n, and once the pivot valuations reach n the
    determinant is 0 mod t^n."""
    prec = min(s.prec for row in A for s in row)
    n = len(A)
    field = A[0][0].field
    work = prec
    while True:
        a = [[s if s.prec == work else s.change_precision(work) for s in row] for row in A]
        det = TruncSeries.one(field, work)
        lost = 0
        for col in range(n):
            # an entry zero at its precision counts as valuation prec
            vals = [x.prec if isinstance(x, AtPrecisionZero) else x
                    for x in (a[r][col].valuation() for r in range(col, n))]
            v = min(vals)
            if v:
                lost += v
                if lost >= prec:
                    return TruncSeries.zeros(field, prec)
                if work == prec:
                    break
            piv = col + vals.index(v)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det = det * a[col][col]
            u = a[col][col].shift_down(v).inverse()
            for r in range(col + 1, n):
                factor = a[r][col]
                if factor.is_zero_at_precision():
                    continue
                factor = factor.shift_down(v) * u
                a[r][col + 1:] = [x - factor * y
                                  for x, y in zip(a[r][col + 1:], a[col][col + 1:])]
        else:
            return det.change_precision(prec)
        work = 2 * prec


def _unit_det(A: Sequence[Sequence[TruncSeries]]) -> bool:
    """det(A) is a unit exactly when the residue matrix A mod t is invertible
    over F_q: its rows, each the constant terms of a row of A packed in the n
    slots of the width of precision n, have rank n under ``field._echelon``
    with F_q the whole residue field."""
    n = len(A)
    field = A[0][0].field
    K = field._kron
    S = K[n].L.S
    rows = [sum(_fit(K, s.packed, s.prec, n, 1) << (j * S) for j, s in enumerate(row))
            for row in A]
    return len(_echelon(FqStructure(field, field.m), K[n], rows, [])) == n


def _sigma_fixed(s: TruncSeries, e: int) -> Optional[str]:
    """None if every coefficient is Frob_{p^e}-fixed, else a witness string."""
    if s.galois(e) == s:
        return None
    for j, c in enumerate(s.coeffs):
        if c.frobenius(e) != c:
            return f"{c} (of t^{j})"
    return None


def coefficient_field_exponent(series: Iterable[TruncSeries]) -> int:
    """lcm of the subfield degrees of the coefficients of the series, at
    least one: the least d | m whose Galois action Frob_{p^d} fixes each.
    Frob_(p^m) fixes all of F_(p^m), so d = m needs no test."""
    series = list(series)
    m = series[0].field.m
    return next((d for d in range(1, m)
                 if m % d == 0 and all(s.galois(d) == s for s in series)), m)


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
    for row in A:
        for s in row:
            if s.field is not field and s.field != field:
                raise FieldMismatch(f"an entry of A is over {s.field}, the map over {field}")
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
    return DmlMap(field, p, e, A, G, label)


# ---------------------------------------------------------------------------
# application and orbits
# ---------------------------------------------------------------------------

def _known_to(f: DmlMap, n: int) -> Tuple[HomogPoly, ...]:
    """f's rows (DmlMap._coefficient_rows) once each is known to n digits;
    the first row known below n raises."""
    rows = f._coefficient_rows()
    for F in rows:
        if F.prec < n:
            raise PrecisionExhausted(
                f"map coefficient known only to t^{F.prec} < point precision {n}")
    return rows


def _build_sections(f: DmlMap, n: int) -> tuple:
    """(monos, rows, sums) at precision n (see apply_map): the rows'
    monomials past the x_j^(q/p), which are monomials 0..N; per coordinate i
    its nonzero sections k; per (i, k) the terms (D, v) of F_ik, D a nonzero
    section d_k at r = ceil(n/p) slots in the width of n (when
    r < SECTION_MIN_R, k = 0 and D the coefficient itself), v its
    monomial's index.  Every row must be known to n digits (_known_to)."""
    forms = _known_to(f, n)
    field, p, m = f.field, f.p, f.field.m
    K = field._kron
    sh = K[n]
    sectioned = -(-n // p) >= SECTION_MIN_R
    index = {exps: v for v, exps in enumerate(dict.fromkeys(
        _powers(f.N, p ** (f.e - 1)) + [exps for F in forms for exps in F.terms]))}
    rows, sums = [], []
    for coeffs in forms:
        groups: Dict[int, List[Tuple[int, int]]] = {} if sectioned else {0: []}
        for exps, c in coeffs.terms.items():
            X = _fit(K, c.packed, c.prec, n)
            sections = _gather(sh.L, _galois(sh, X, -1 % m), n, p) if sectioned else [X]
            for k, D in enumerate(sections):
                if D:
                    groups.setdefault(k, []).append((D, index[exps]))
        rows.append(sorted(groups))
        sums += [groups[k] for k in rows[-1]]
    return list(index)[f.N + 1:], rows, sums


def _raw_image(f: DmlMap, coords: Sequence[TruncSeries]) -> List[TruncSeries]:
    """The image coordinates f_i(x), unnormalized, at the precision n of x.

    They are evaluated through p-sections when r = ceil(n/p) >=
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
    digits.  A dilated monomial has at most r nonzero slots, so both routes
    sum in runs for r-slot products, with one call of geometry._sums.

    The coordinates share one precision n.  A row known below n raises
    PrecisionExhausted (_known_to)."""
    field, n, p = f.field, coords[0].prec, f.p
    monos, rows, sums = f._sections(n)
    sh = field._kron[n]
    r = -(-n // p)
    mask = (1 << (r * sh.L.S)) - 1
    X = [c.packed & mask for c in coords]
    vals = [_dilate(sh, field, x, r, f.e - 1) for x in X] + _monomials(sh, mask, X, monos)
    sectioned = r >= SECTION_MIN_R
    if not sectioned:
        mask = sh.mask
        vals = [_dilate(sh, field, v, n, 1) for v in vals]
    Fs = iter(_sums(sh, mask, _run_cap(field, sh.L.w, r), vals, sums))
    imgs = []
    for ks in rows:
        if sectioned:
            X = _reduce(sh, _scatter(sh.L, n, p, [(k, next(Fs)) for k in ks]))
            X = _galois(sh, X, 1) if field.m > 1 else X
        else:
            X = _reduce(sh, next(Fs))
        imgs.append(_new(field, n, X))
    return imgs


def apply_map(f: AnyMap, P: ProjPoint) -> ProjPoint:
    """One application, canonical output at the same absolute precision:
    the raw image (_raw_image for a DmlMap), normalized.

    A Galois orbit skips the division.  When P was normalized from raw
    coordinates R (P.raw) and the raw image of a DmlMap equals sigma(R)
    coordinate for coordinate, sigma = Frob_(p^e), the image is
    point_galois(P, e), with that raw image as its raw: sigma is a field
    automorphism fixing t, so valuations, units, the pivot index, the shift
    and the quotients commute with it, and normalize(sigma(R)) =
    sigma(normalize(R)) = sigma(P) exactly.  On the forward orbit of a
    sigma-fixed lift, f(P) = sigma(P) up to normalization, so every step
    after the lift's certificate takes it.  The equality is checked, not
    assumed from the map, and the check stops at the first coordinate that
    differs; TruncSeries equality compares precision too, so a point that
    consumed precision never matches.  Otherwise the raw image is
    normalized."""
    if f.field != P.field:
        raise FieldMismatch("map and point over different fields")
    if f.N != P.N:
        raise DimensionMismatch(f"map on P^{f.N}, point in P^{P.N}")
    if isinstance(f, GeneralMap):
        imgs = eval_hom_coords(f.coords, P.coords)
    else:
        imgs = _raw_image(f, P.coords)
        R = P.raw
        if R is not None and all(a == b.galois(f.e) for a, b in zip(imgs, R)):
            return _point_galois(P, f.e, tuple(imgs))
    Q = normalize(imgs)
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
    """f_i(x) = F_i(x^p): the rows with every exponent scaled by p."""
    p = f.p
    return GeneralMap(f.field, [
        HomogPoly(f.field, f.N, f.q, ((tuple(p * x for x in exps), c, None)
                                      for exps, c in F.terms.items()), F.prec, _trusted=True)
        for F in f._coefficient_rows()], f.label)


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
    for h, want in zip(F.coords, _powers(F.N, d)):
        res = h.reduce()
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
    """(F o G)(x) = F(G(x)) by sparse substitution, each coordinate collected
    once from all of its coefficient * monomial products.  For p | k, G_j^k
    is the Frobenius of G_j^(k/p): (sum c_e x^e)^p = sum c_e^p x^(pe), as p
    divides every cross term's multinomial coefficient.  So each c_e^p is
    known to c_e's precision, and the form keeps its prec, which bounds the
    cross terms' zero sums.  Square-and-multiply takes the part of k prime
    to p.  A product of forms, a p-th power or a composed coordinate with
    more distinct exponent vectors than term_bound() raises DegreeOverflow."""
    Fg = dml_to_general(F) if isinstance(F, DmlMap) else F
    Gg = dml_to_general(G) if isinstance(G, DmlMap) else G
    if Fg.field != Gg.field or Fg.N != Gg.N:
        raise DimensionMismatch("cannot compose maps over different spaces")
    field, N, p = Fg.field, Fg.N, Fg.field.p
    bound = term_bound()
    pow_cache: Dict[Tuple[int, int], HomogPoly] = {}
    mul = partial(poly_mul, max_terms=bound)

    def gpow(j: int, k: int) -> HomogPoly:
        if (j, k) not in pow_cache:
            if k % p:
                pow_cache[j, k] = poly.power(mul, Gg.coords[j], k)
            else:
                h = gpow(j, k // p)
                pow_cache[j, k] = HomogPoly(field, N, p * h.degree, (
                    (tuple(p * x for x in e), c.frobenius_power(1), None)
                    for e, c in h.terms.items()), h.prec, bound, _trusted=True)
        return pow_cache[j, k]

    out = []
    deg = Fg.degree * Gg.degree
    for h in Fg.coords:
        entries = []
        prec = h.prec
        for exps, coeff in h.terms.items():
            mono: Optional[HomogPoly] = None
            for j, k in enumerate(exps):
                if k:
                    part = gpow(j, k)
                    mono = part if mono is None else mul(mono, part)
            if mono is None:
                raise DegreeMismatch("degree-0 coordinate in composition")
            prec = min(prec, mono.prec)
            entries += [(e, c, coeff) for e, c in mono.terms.items()]
        out.append(HomogPoly(field, N, deg, entries, prec, bound, _trusted=True))
    return GeneralMap(field, out, label=f"{Fg.label}o{Gg.label}" if Fg.label else "")


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
    A: List[List[TruncSeries]] = [[TruncSeries.zeros(F.field, min(prec, h.prec))] * n
                                  for h in F.coords]
    G: List[HomogPoly] = []
    for i, h in enumerate(F.coords):
        rem = []
        for exps, coeff in h.terms.items():
            j = _pure_power_index(exps, q)
            if j is not None:
                c0 = coeff.constant_term()
                if not c0.is_zero():
                    A[i][j] = TruncSeries.from_constant(c0, coeff.prec)
                    coeff = coeff - A[i][j]
            elif any(x % p for x in exps):
                return NotInForm(i, exps, "exponent vector is not divisible by p")
            else:
                v = coeff.valuation()
                if not isinstance(v, AtPrecisionZero) and v == 0:
                    return NotInForm(i, exps, "remainder coefficient is a unit")
            rem.append((tuple(x // p for x in exps), coeff))
        G.append(HomogPoly(F.field, F.N, q // p, rem, h.prec))
    if not _unit_det(A):
        return NotInForm(None, None,
                         f"extracted matrix determinant {series_det(A)} is not a unit")
    return DmlMap(F.field, p, e, A, G, F.label)


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

def preimage_qp(f: DmlMap, P: ProjPoint) -> ProjPoint:
    """Exact preimage when q = p: f factors as M o Frob_p with
    M = A + Gamma, Gamma the matrix of the linear forms G_i, read off the
    rows F_i (DmlMap._coefficient_rows), so the preimage is Frob_p^-1 of
    the point M^-1 P.  A point is a direction: Cramer's rule gives
    M^-1 P = adj(M) P / det M with det M a unit, and the coordinates
    R_i = det(M with column i replaced by P), one series_det each, name the
    same point with no division."""
    if f.q != f.p:
        raise UnsupportedQ(f"preimage_qp requires q = p, got q = {f.q}")
    if f.field != P.field or f.N != P.N:
        raise DimensionMismatch("map and point do not match")
    n = f.N + 1
    prec = P.prec
    field = f.field
    # the degree-1 rows carry M, a coefficient cancelled to 0 dropped
    zero = TruncSeries.zeros(field, prec)
    M = [[F.terms[u].change_precision(prec) if u in F.terms else zero
          for u in _powers(f.N, 1)] for F in _known_to(f, prec)]
    if not _unit_det(M):
        raise NonUnitDivisor("M = A + Gamma is singular mod t; not invertible over O_K")
    R = [series_det([row[:i] + [x] + row[i + 1:] for row, x in zip(M, P.coords)])
         for i in range(n)]
    # the stored representative of P differs from M * (preimage)^(p) by a
    # unit series, so membership can only be read off after renormalizing
    # at the first unit coordinate (which the p-power forces to be 1).  M
    # is invertible mod t and P is nonzero mod t, so R has a unit coordinate
    # and normalize consumes nothing
    R = normalize(R).coords
    # r = sum_(k<p) t^k * d_k^p (TruncSeries.frobenius_power): r is a p-th
    # power exactly when every section k >= 1 vanishes, and then Q = d_0
    p, K = f.p, field._kron
    sh, cprec = K[prec], -(-prec // p)
    Q = []
    for i, r in enumerate(R):
        sections = _gather(sh.L, r.packed, prec, p)
        bad = [p * (((D & -D).bit_length() - 1) // sh.L.S) + k
               for k, D in enumerate(sections) if k and D]
        if bad:
            raise NotInImage(
                f"coordinate {i}: solved series has a t^{min(bad)} term, "
                f"not a p-th power at this precision")
        D = _galois(sh, sections[0], -1 % field.m)
        Q.append(_new(field, cprec, _fit(K, D, prec, cprec)))
    out = normalize(Q)
    if out.consumed:
        raise AssertionError("normalizing the preimage consumed precision")
    return out
