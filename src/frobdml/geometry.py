"""Projective points over truncated series, and sparse homogeneous forms.

A ProjPoint is always stored in canonical form: coordinates share one
absolute precision, the minimum coordinate valuation is 0, and the first
valuation-0 coordinate equals the exact series 1.  Canonicalization divides
by t^v via an index shift, consuming v digits of absolute precision (the
consumed amount is recorded), then divides by the pivot unit, which costs
no precision.

Homogeneous polynomials are exponent-vector -> coefficient maps; zero
coefficients are never stored.  The same type serves map remainders G_i
(variables y_j standing for x_j^p) and subvariety generators (variables x_j).
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    DimensionMismatch,
    FieldMismatch,
    IndistinguishableFromZero,
    PrecisionExhausted,
)
from .field import FieldSpec, FqElem
from .series import AtPrecisionZero, TruncSeries

ExpVec = Tuple[int, ...]


class ProjPoint:
    # pivot_inv: set by normalize, the inverse of the pivot it divided by
    __slots__ = ("field", "N", "prec", "coords", "consumed", "pivot_inv")

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
        self.pivot_inv: Optional[TruncSeries] = None

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coords)
        return f"[{inner}]"


def normalize(raw: Sequence[TruncSeries],
              pivot_inv: Optional[TruncSeries] = None) -> ProjPoint:
    """Canonicalize homogeneous coordinates.

    Aligns precisions, shifts out the common t-power (consuming that much
    absolute precision), then scales so the first unit coordinate is
    exactly 1.  ``pivot_inv`` is a start for the pivot's inverse (see
    TruncSeries.inverse; a wrong one costs a product, never a digit), and
    the inverse found is kept on the point as its ``pivot_inv``.
    """
    coords = list(raw)
    if len(coords) < 2:
        raise DimensionMismatch("a projective point needs at least 2 coordinates")
    field = coords[0].field
    for c in coords[1:]:
        if c.field != field:
            raise FieldMismatch("mixed coordinate fields")
    prec = min(c.prec for c in coords)
    coords = [c.change_precision(prec) for c in coords]
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
    u_inv = coords[pivot].inverse(pivot_inv)
    out = [c * u_inv if i != pivot else TruncSeries.one(field, prec)
           for i, c in enumerate(coords)]
    P = ProjPoint(field, out, consumed=v, _trusted=True)
    P.pivot_inv = u_inv
    return P


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
    """Homogeneous polynomial in N+1 variables with TruncSeries coefficients."""

    __slots__ = ("field", "N", "degree", "terms")

    def __init__(self, field: FieldSpec, N: int, degree: int,
                 terms: Dict[ExpVec, TruncSeries]):
        if degree < 0:
            raise DegreeMismatch(f"degree {degree} < 0")
        clean: Dict[ExpVec, TruncSeries] = {}
        for exps, coeff in terms.items():
            e = tuple(int(x) for x in exps)
            if len(e) != N + 1:
                raise DimensionMismatch(
                    f"exponent vector {e} has {len(e)} entries, expected {N + 1}")
            if any(x < 0 for x in e):
                raise DegreeMismatch(f"negative exponent in {e}")
            if sum(e) != degree:
                raise DegreeMismatch(
                    f"term {e} has degree {sum(e)}, polynomial declares {degree}")
            if coeff.field != field:
                raise FieldMismatch("coefficient field mismatch")
            if not coeff.is_zero_at_precision():
                clean[e] = coeff
        self.field = field
        self.N = N
        self.degree = degree
        self.terms = clean

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return HomogPoly(self.field, self.N, self.degree, terms)

    def scale(self, c: TruncSeries) -> "HomogPoly":
        return HomogPoly(self.field, self.N, self.degree,
                         {e: coeff * c for e, coeff in self.terms.items()})

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


def poly_mul(a: HomogPoly, b: HomogPoly,
             max_terms: Optional[int] = None) -> HomogPoly:
    if a.field != b.field or a.N != b.N:
        raise DimensionMismatch("polynomials over different spaces")
    terms: Dict[ExpVec, TruncSeries] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod = ca * cb
            terms[e] = terms[e] + prod if e in terms else prod
            if max_terms is not None and len(terms) > max_terms:
                raise DegreeOverflow(
                    f"product exceeds the symbolic size bound of {max_terms} terms")
    return HomogPoly(a.field, a.N, a.degree + b.degree, terms)


def eval_hom(h: HomogPoly, P: ProjPoint) -> TruncSeries:
    return eval_hom_coords(h, P.coords)


def eval_hom_coords(h: HomogPoly, coords: Sequence[TruncSeries]) -> TruncSeries:
    """Evaluate at series coordinates; result at the coordinate precision."""
    if len(coords) != h.N + 1:
        raise DimensionMismatch(
            f"{len(coords)} coordinates for {h.N + 1} variables")
    prec = min(c.prec for c in coords)
    field = h.field
    out = TruncSeries.zeros(field, prec)
    if not h.terms:
        return out
    # powers[j][k-1] = coords[j]^k, up to the top exponent of x_j
    powers: List[List[TruncSeries]] = []
    for j, c in enumerate(coords):
        top = max(exps[j] for exps in h.terms)
        row = [c.change_precision(prec)] if top else []
        for _ in range(top - 1):
            row.append(row[-1] * row[0])
        powers.append(row)

    for exps, coeff in h.terms.items():
        if coeff.prec < prec:
            raise PrecisionExhausted(
                f"coefficient known only to t^{coeff.prec} < evaluation precision {prec}")
        mono: Optional[TruncSeries] = None
        for j, k in enumerate(exps):
            if k:
                part = powers[j][k - 1]
                mono = part if mono is None else mono * part
        term = coeff.change_precision(prec) if mono is None else mono * coeff
        out = out + term
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


def point_variety(P: ProjPoint) -> Subvariety:
    """The single point P as a subvariety: cross-product equations
    c_j*x_i - c_i*x_j over all i < j."""
    n = P.N + 1
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            e_i = tuple(1 if k == i else 0 for k in range(n))
            e_j = tuple(1 if k == j else 0 for k in range(n))
            g = HomogPoly(P.field, P.N, 1,
                          {e_i: P.coords[j], e_j: -P.coords[i]})
            if not g.is_zero():
                gens.append(g)
    return Subvariety(P.field, P.N, gens)
