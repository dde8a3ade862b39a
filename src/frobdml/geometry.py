"""Projective points over truncated series, and sparse homogeneous forms.

A ProjPoint is always stored in canonical form: coordinates share one
absolute precision, the minimum coordinate valuation is 0, and the first
valuation-0 coordinate equals the exact series 1.  Canonicalization divides
by t^v via an index shift, consuming v digits of absolute precision (the
consumed amount is recorded), then divides by the pivot unit, which costs
no precision.  A point keeps the coordinates it was divided from; the
Galois action ``point_galois`` moves them with the point.

Homogeneous polynomials are exponent-vector -> coefficient maps.  One
collector of like terms, ``_collect``, sums checked terms and products of
forms on packed coefficients, and drops zero sums only once every term is
in, keeping their precision in ``prec``, so a term O(t^k) or a cancellation
known to t^k still bounds what the form determines.  A chain of ``+`` can
restart a cancelled coefficient, so package code builds a sum in one call.
The same type serves map remainders G_i (variables y_j standing for x_j^p)
and subvariety generators (variables x_j).

One evaluator, ``eval_hom_coords``, fits coordinates and coefficients to the
least coordinate precision n, builds one table of all the forms' monomials
(``_monomials``), and sums each form's products unreduced in runs as long as
the digit bound allows (``_sums``); apply_map runs on the same two kernels.
"""
from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    DimensionMismatch,
    FieldMismatch,
    IndistinguishableFromZero,
    PrecisionExhausted,
)
from .field import FieldSpec, FqElem, _Shape, _add, _fit, _reduce, _run_cap
from .series import MAX_PREC, AtPrecisionZero, TruncSeries, _new

ExpVec = Tuple[int, ...]
Terms = Union[Mapping[ExpVec, TruncSeries], Iterable[Tuple[ExpVec, TruncSeries]]]


class ProjPoint:
    # raw: set by normalize, the coordinates it divided, so
    # normalize(P.raw) == P in coords and consumed; None on a point built
    # any other way
    __slots__ = ("field", "N", "prec", "coords", "consumed", "raw")

    def __init__(self, field: FieldSpec, coords: Sequence[TruncSeries],
                 consumed: int = 0, _trusted: bool = False):
        if not _trusted:
            canon = normalize(coords)
            coords = canon.coords
            consumed = canon.consumed
        self.field = field
        self.N = len(coords) - 1
        self.coords = tuple(coords)
        self.prec = coords[0].prec
        self.consumed = consumed
        self.raw: Optional[Tuple[TruncSeries, ...]] = None

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coords)
        return f"[{inner}]"


def normalize(raw: Sequence[TruncSeries]) -> ProjPoint:
    """Canonicalize homogeneous coordinates.

    Aligns precisions, shifts out the common t-power (consuming that much
    absolute precision), then scales so the first unit coordinate is
    exactly 1, by one cold inverse of the pivot (TruncSeries.inverse).
    ``raw`` itself is kept on the point as its ``raw``.
    """
    raw = tuple(raw)
    if len(raw) < 2:
        raise DimensionMismatch("a projective point needs at least 2 coordinates")
    field = raw[0].field
    for c in raw[1:]:
        if c.field != field:
            raise FieldMismatch("mixed coordinate fields")
    prec = min(c.prec for c in raw)
    coords = [c.change_precision(prec) for c in raw]
    vals = []
    for c in coords:
        v = c.valuation()
        vals.append(prec if isinstance(v, AtPrecisionZero) else v)
    v = min(vals)
    if all(c.is_zero_at_precision() for c in coords):
        raise IndistinguishableFromZero(
            f"all coordinates vanish below t^{prec}")
    if prec - v < 1:
        raise PrecisionExhausted(
            f"common valuation {v} leaves no precision out of {prec}")
    if v:
        coords = [c.shift_down(v) for c in coords]
        prec -= v
    pivot = next(i for i, c in enumerate(coords) if c.is_unit())
    u_inv = coords[pivot].inverse()
    out = [c * u_inv if i != pivot else TruncSeries.one(field, prec)
           for i, c in enumerate(coords)]
    P = ProjPoint(field, out, consumed=v, _trusted=True)
    P.raw = raw
    return P


def point_galois(P: ProjPoint, e: int, times: int = 1) -> ProjPoint:
    """Coefficientwise Frob_{p^e}^times on every coordinate, e of either
    sign; canonical form is preserved (the pivot 1 is fixed and valuations
    do not move).

    The same action moves P.raw (None stays None).  It is a field
    automorphism fixing t, so valuations, units, the pivot index and the
    quotients commute with it: normalize(sigma(R)) = sigma(normalize(R))
    coordinate for coordinate, consumed precision included, and the moved
    point keeps normalize(Q.raw) == Q."""
    k = e * times
    return _point_galois(P, k, None if P.raw is None else tuple(c.galois(k) for c in P.raw))


def _point_galois(P: ProjPoint, k: int, raw: Optional[Tuple[TruncSeries, ...]]) -> ProjPoint:
    """point_galois by Frob_(p^k), given the moved raw coordinates."""
    Q = ProjPoint(P.field, [c.galois(k) for c in P.coords], P.consumed, _trusted=True)
    Q.raw = raw
    return Q


def reduce_point(P: ProjPoint) -> Tuple[FqElem, ...]:
    """Constant terms; canonical residue point (the pivot entry is 1)."""
    return tuple(c.constant_term() for c in P.coords)


def proj_eq(P: ProjPoint, Q: ProjPoint) -> bool:
    """Equality at precision min(P.prec, Q.prec); inputs are canonical."""
    if P.field != Q.field:
        raise FieldMismatch("points over different fields")
    if P.N != Q.N:
        raise DimensionMismatch(f"ambient dimensions {P.N} != {Q.N}")
    n = min(P.prec, Q.prec)
    return all(a.eq_at_precision(b, n) for a, b in zip(P.coords, Q.coords))


# ---------------------------------------------------------------------------
# homogeneous polynomials
# ---------------------------------------------------------------------------

class HomogPoly:
    """Homogeneous polynomial in N+1 variables with TruncSeries coefficients,
    known to t^prec: the least precision of the sums of its terms and of
    ``prec``, zero sums included, MAX_PREC for none.

    ``terms`` is a mapping or an iterable of (exponents, coefficient) pairs,
    each checked as it is drawn, or with ``_trusted`` the (exponents, a, b)
    of products of valid forms; ``_collect`` sums them.  ``a + b + c``
    collects once per ``+``, so a sum cancelled in a + b restarts at c's
    precision."""

    __slots__ = ("field", "N", "degree", "terms", "prec")

    def __init__(self, field: FieldSpec, N: int, degree: int, terms: Terms, prec: int = MAX_PREC,
                 max_terms: Optional[int] = None, _trusted: bool = False):
        if not _trusted:
            if degree < 0:
                raise DegreeMismatch(f"degree {degree} < 0")
            terms = _checked(field, N, degree, terms)
        self.field, self.N, self.degree = field, N, degree
        self.terms, self.prec = _collect(field, terms, prec, max_terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> List[Tuple[ExpVec, TruncSeries]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def reduce(self) -> Dict[ExpVec, FqElem]:
        """Constant terms of the coefficients (image in the special fiber)."""
        out = {}
        for e, c in self.terms.items():
            c0 = c.constant_term()
            if not c0.is_zero():
                out[e] = c0
        return out

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._compat(other)
        return HomogPoly(self.field, self.N, self.degree,
                         chain(self.terms.items(), other.terms.items()),
                         min(self.prec, other.prec))

    def _compat(self, other: "HomogPoly") -> None:
        if self.field != other.field or self.N != other.N:
            raise DimensionMismatch("polynomials over different spaces")
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"degrees {self.degree} != {other.degree} cannot be added")

    def __eq__(self, other):
        return (isinstance(other, HomogPoly) and self.field == other.field
                and self.N == other.N and self.degree == other.degree
                and self.terms == other.terms)

    def __repr__(self):
        return format_poly(self, "x")

    @staticmethod
    def zero(field: FieldSpec, N: int, degree: int) -> "HomogPoly":
        return HomogPoly(field, N, degree, {})


def _powers(N: int, d: int) -> List[ExpVec]:
    """The exponent vectors of y_0^d, .., y_N^d; for d = 1 the unit vectors."""
    return [tuple(d if k == j else 0 for k in range(N + 1)) for j in range(N + 1)]


def _checked(field: FieldSpec, N: int, degree: int, terms: Terms) -> Iterable[tuple]:
    for exps, coeff in terms.items() if isinstance(terms, Mapping) else terms:
        e = tuple(map(int, exps))
        if len(e) != N + 1:
            raise DimensionMismatch(f"exponent vector {e} has {len(e)} entries, expected {N + 1}")
        if min(e, default=0) < 0:
            raise DegreeMismatch(f"negative exponent in {e}")
        if sum(e) != degree:
            raise DegreeMismatch(f"term {e} has degree {sum(e)}, polynomial declares {degree}")
        if coeff.field is not field and coeff.field != field:
            raise FieldMismatch("coefficient field mismatch")
        yield e, coeff, None


def _collect(field: FieldSpec, entries: Iterable[tuple], prec: int,
             max_terms: Optional[int]) -> Tuple[Dict[ExpVec, TruncSeries], int]:
    """The one collector of like terms: (terms, prec) of the entries
    (exponents, a, b), each a*b or, for b None, a.  A vector sums at the
    least precision n of its products, whose digits mod t^n need only the
    factors cut to n, in runs of ``_run_cap`` products reduced once each
    (``_sums``).  DegreeOverflow is raised at the first distinct vector past
    max_terms; a zero sum is dropped, its n still bounding prec."""
    groups: Dict[ExpVec, list] = {}
    for e, a, b in entries:
        g = groups.get(e)
        if g is not None:
            g += (a, b)
            continue
        groups[e] = [a, b]
        if max_terms is not None and len(groups) > max_terms:
            raise DegreeOverflow(f"product exceeds the symbolic size bound of {max_terms} terms")
    K, terms = field._kron, {}
    for e, g in groups.items():
        c = g[0]    # a lone coefficient is kept as given
        if len(g) > 2 or g[1] is not None:
            n = min(s.prec for s in g if s is not None)
            sh, fit = K[n], lambda s: s.packed if s.prec == n else _fit(K, s.packed, s.prec, n)
            run = [(1 if b is None else fit(b), v) for v, b in enumerate(g[1::2])]
            F = _sums(sh, sh.mask, _run_cap(field, sh.L.w, n), [fit(a) for a in g[::2]], [run])
            c = _new(field, n, _reduce(sh, F[0]))
        prec = min(prec, c.prec)
        if c.packed:
            terms[e] = c
    return terms, prec


def poly_mul(a: HomogPoly, b: HomogPoly,
             max_terms: Optional[int] = None) -> HomogPoly:
    if a.field != b.field or a.N != b.N:
        raise DimensionMismatch("polynomials over different spaces")
    return HomogPoly(a.field, a.N, a.degree + b.degree,
                     ((tuple(map(add, ea, eb)), ca, cb)
                      for ea, ca in a.terms.items() for eb, cb in b.terms.items()),
                     min(a.prec, b.prec), max_terms, _trusted=True)


def eval_hom(h: HomogPoly, P: ProjPoint) -> TruncSeries:
    return eval_hom_coords([h], P.coords)[0]


def eval_hom_coords(forms: Sequence[HomogPoly],
                    coords: Sequence[TruncSeries]) -> List[TruncSeries]:
    """The forms at series coordinates, at their least precision n; the first
    form in order with another number of variables, or known below n, raises."""
    n = min((c.prec for c in coords), default=MAX_PREC)
    index: Dict[ExpVec, int] = {}
    sums = []
    for h in forms:
        if len(coords) != h.N + 1:
            raise DimensionMismatch(
                f"{len(coords)} coordinates for {h.N + 1} variables")
        if h.prec < n:
            raise PrecisionExhausted(
                f"coefficient known only to t^{h.prec} < evaluation precision {n}")
        for c in coords:
            if c.field is not h.field and c.field != h.field:
                raise FieldMismatch(f"{c.field} vs {h.field}")
        K = h.field._kron
        sums.append([(D, index.setdefault(exps, len(index))) for exps, c in h.terms.items()
                     if (D := _fit(K, c.packed, c.prec, n))])
    if not forms:
        return []
    field = forms[0].field      # every form's, and every coordinate's
    sh = K[n]
    vals = _monomials(sh, sh.mask, [_fit(K, c.packed, c.prec, n) for c in coords], index)
    return [_new(field, n, _reduce(sh, F))
            for F in _sums(sh, sh.mask, _run_cap(field, sh.L.w, n), vals, sums)]


def _monomials(sh: _Shape, mask: int, X: Sequence[int], monos: Iterable[ExpVec]) -> List[int]:
    """The x^e for e in monos at the canonical packings X in the width of
    sh, every product cut by mask and reduced, each power x_j^k formed once."""
    powers = [[x] for x in X]      # powers[j][k-1] = x_j^k, extended on demand
    vals = []
    for exps in monos:
        mono = None
        for j, k in enumerate(exps):
            if k:
                pw = powers[j]
                while len(pw) < k:
                    pw.append(_reduce(sh, (pw[-1] * pw[0]) & mask))
                mono = pw[k - 1] if mono is None else _reduce(sh, (mono * pw[k - 1]) & mask)
        vals.append(1 if mono is None else mono)
    return vals


def _sums(sh: _Shape, mask: int, cap: int, vals: Sequence[int],
          sums: Iterable[Sequence[Tuple[int, int]]]) -> List[int]:
    """Per list of terms (D, v), sum D * vals[v]: runs of cap products added
    unreduced and cut by mask, reduced between runs; one _reduce ends each."""
    out = []
    for terms in sums:
        F = None
        for a in range(0, len(terms), cap):
            acc = 0
            for D, v in terms[a:a + cap]:
                acc += vals[v] if D == 1 else D * vals[v]
            acc &= mask
            F = acc if F is None else _add(sh, _reduce(sh, F), _reduce(sh, acc))
        out.append(0 if F is None else F)
    return out


def format_poly(h: HomogPoly, varname: str = "x") -> str:
    if not h.terms:
        return "0"
    parts = []
    for exps, coeff in h.sorted_terms():
        mono = "*".join(
            f"{varname}{j}" if k == 1 else f"{varname}{j}^{k}"
            for j, k in enumerate(exps) if k)
        if coeff.is_one():
            parts.append(mono if mono else "1")
        else:
            cstr = f"({coeff})"
            parts.append(f"{cstr}*{mono}" if mono else cstr)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# subvarieties
# ---------------------------------------------------------------------------

class Subvariety:
    __slots__ = ("field", "N", "generators")

    def __init__(self, field: FieldSpec, N: int, generators: Iterable[HomogPoly]):
        gens = tuple(generators)
        for g in gens:
            if g.field != field:
                raise FieldMismatch("generator field mismatch")
            if g.N != N:
                raise DimensionMismatch(
                    f"generator in {g.N + 1} variables, ambient needs {N + 1}")
            if g.degree < 1:
                raise DegreeMismatch("generators must have degree >= 1")
        self.field = field
        self.N = N
        self.generators = gens

    def __repr__(self):
        gens = "; ".join(format_poly(g, "x") for g in self.generators)
        return f"V({gens})"


def _meets(v: Union[int, AtPrecisionZero], tau: int) -> bool:
    """The one membership rule: a valuation, AtPrecisionZero counting as its
    prec, is at least tau."""
    return (v.prec if isinstance(v, AtPrecisionZero) else v) >= tau


def point_variety(P: ProjPoint) -> Subvariety:
    """The single point P as a subvariety: cross-product equations
    c_j*x_i - c_i*x_j over all i < j."""
    units = _powers(P.N, 1)
    gens = []
    for i, e_i in enumerate(units):
        for j, e_j in enumerate(units[i + 1:], i + 1):
            g = HomogPoly(P.field, P.N, 1,
                          {e_i: P.coords[j], e_j: -P.coords[i]})
            if not g.is_zero():
                gens.append(g)
    return Subvariety(P.field, P.N, gens)
