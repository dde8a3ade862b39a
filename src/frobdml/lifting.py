"""Sigma-fixed lifts of residue points and their orbit periodicity.

For a map f = x^q + G(x^p) whose matrix part is the identity mod t, the
operator sigma^{-1} o f is a strict t-adic contraction on integral lifts of
a fixed residue point.  If two lifts agree mod t^k, their q-th powers agree
mod t^(qk) (char p: x^q - y^q = (x - y)^q), and G, whose coefficients lie in
the maximal ideal, sees their p-th powers, which agree mod t^(pk); so the
images agree mod t^(pk) at least, and sigma^{-1} keeps that.
The unique point P~ over P0 with f(P~) = sigma(P~), where sigma acts
coefficientwise by Frob_q and fixes t, is therefore reached from P0 with the
number of correct digits multiplied by p at every step.

The contraction acts on coordinate vectors, not only on points: the
argument above compares the coordinates of two lifts, not their classes.
So sigma^{-1} o f has a unique fixed vector X~ congruent to P0 mod t, and
P~ = normalize(X~).  No step needs a canonical point.

sigma_fixed_lift spends precision only as it is earned.  It starts from the
constant series of P0, which is already canonical, at precision 1, and
climbs the ladder ceil(top/p^k), k descending, which ends at top =
min(prec, map precision).  Since p*ceil(top/p^(k+1)) >= ceil(top/p^k),
each step goes from n digits to at most p*n, the most one step earns, and a
lift takes about log_p(top) steps.  A step pads the n known digits of the
vector with exact zeros to its target precision (the padded digits are
recomputed by the step), takes the raw image (dynamics._raw_image) and
applies sigma^{-1}: no step divides.  After the last step the vector is X~
mod t^top.  It is padded to prec and normalized once, with one cold
inverse of its pivot, and one apply_map certifies the result: sigma^{-1} of
the image must repeat the point exactly, which fails when the map is known
below prec.  That exact fixed-point test at full precision, not the rate,
certifies the result, which by uniqueness is the same point whatever the
path.  The certificate's raw image is f(X~/u) = u^{-q} sigma(X~) for the
pivot u of X~, so it equals sigma of the point's raw coordinates X~, and
apply_map skips the division, exactly when u = 1; otherwise it normalizes
once more.  A lift therefore divides once or twice.

L.lift is the certificate's last point, sigma^{-1} of the normalized image
f(P~), and point_galois moves that image's raw coordinates with it.
f(L.lift) repeats that raw image bit for bit, so apply_map finds its raw
image equal to sigma of L.lift's raw coordinates and returns sigma(L.lift)
without dividing (see apply_map).  When Frob_q fixes the map's coefficients
the same holds at every step of the forward orbit of a lift or of any of
its Galois conjugates: walks from a lift, for its period, its witnesses and
its return sets, evaluate f at every step and never normalize.

Induction gives f^n(P~) = sigma^n(P~), so the forward orbit of P~ is periodic
with period dividing the degree over F_q of the coefficient field of P~, and
sigma^{-n}(P~) is an exact n-fold preimage of P~ under f.
"""
from __future__ import annotations

from math import gcd
from typing import List, Sequence, Tuple

from .dynamics import (DmlMap, _raw_image, apply_map, coefficient_field_exponent, orbit,
                       orbit_cycle)
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NonCanonicalBasePoint,
    PrecisionTooLow,
    PreconditionMatrixNotIdentityModT,
)
from .field import FqElem
from .geometry import ProjPoint, Subvariety, normalize, point_galois, proj_eq, reduce_point
from .record import MutableRecord
from .series import TruncSeries


class SigmaFixedLift:
    """A point P~ with reduce_point(P~) = P0 and f(P~) = sigma(P~)."""

    def __init__(self, base: Tuple[FqElem, ...], lift: ProjPoint,
                 sigma_exponent: int, residue_degree: int):
        self.base = base
        self.lift = lift
        self.sigma_exponent = sigma_exponent
        self.residue_degree = residue_degree

    def __repr__(self):
        return (f"SigmaFixedLift(prec={self.lift.prec}, "
                f"residue_degree={self.residue_degree})")


def _require_identity_mod_t(f: DmlMap) -> None:
    one, zero = f.field.one(), f.field.zero()
    for i, row in enumerate(f.A):
        for j, s in enumerate(row):
            want = one if i == j else zero
            if s.constant_term() != want:
                raise PreconditionMatrixNotIdentityModT(
                    f"A[{i}][{j}] = {s} mod t; conjugate the map first")


def _canonical_residue(f: DmlMap, P0: Sequence[FqElem]) -> Tuple[FqElem, ...]:
    if len(P0) != f.N + 1:
        raise DimensionMismatch(f"residue point has {len(P0)} coordinates, "
                                f"expected {f.N + 1}")
    for c in P0:
        if c.field != f.field:
            raise FieldMismatch("residue point over a different field")
    pivot = next((i for i, c in enumerate(P0) if not c.is_zero()), None)
    if pivot is None:
        raise NonCanonicalBasePoint("all residue coordinates are zero")
    if P0[pivot] != f.field.one():
        raise NonCanonicalBasePoint(
            f"first nonzero coordinate is {P0[pivot]}, not 1")
    return tuple(P0)


def detect_residue_degree(P: ProjPoint, e: int) -> int:
    """Least k with every stored coefficient fixed by Frob_{q^k}, q = p^e:
    with the coefficients in F_(p^d), d | e*k exactly when d/gcd(d, e) | k."""
    d = coefficient_field_exponent(P.coords)
    return d // gcd(d, e)


def sigma_fixed_lift(f: DmlMap, P0: Sequence[FqElem], prec: int) -> SigmaFixedLift:
    """Iterate sigma^{-1} o f on coordinate vectors from P0, at the precision
    each step has earned, normalize once at the requested precision, and
    certify the fixed point with one application."""
    if prec < 1:
        raise PrecisionTooLow("lift precision must be >= 1")
    _require_identity_mod_t(f)
    base = _canonical_residue(f, P0)
    X = [TruncSeries.from_constant(c, 1) for c in base]
    # n correct digits earn p*n.  A map known below prec climbs only to its
    # own precision, so the certificate at prec reports the shortfall.
    top = min(prec, f.coefficient_precision())
    ladder = []     # ceil(top/p^k), k = 0, 1, .. while above 1
    n = top
    while n > 1:
        ladder.append(n)
        n = -(-n // f.p)
    for n in reversed(ladder):
        X = [c.galois(-f.e) for c in _raw_image(f, [c.change_precision(n) for c in X])]
    cur = normalize([c.change_precision(prec) for c in X])
    img = apply_map(f, cur)
    nxt = point_galois(img, -f.e)
    if nxt.coords != cur.coords:
        raise AssertionError("contraction failed to reach a fixed point")
    cur = nxt   # cur's coordinates, with sigma^{-1} of the raw image f(P~) as raw
    if reduce_point(cur) != base:
        raise AssertionError("lift does not reduce to the base point")
    if not proj_eq(img, point_galois(cur, f.e)):
        raise AssertionError("lift fails f(P~) = sigma(P~)")
    return SigmaFixedLift(base, cur, f.e, detect_residue_degree(cur, f.e))


def critical_witness(f: DmlMap, L: SigmaFixedLift, n: int) -> ProjPoint:
    """Q = sigma^{-n}(P~); then f^n(Q) = P~ exactly, exhibiting P~ as an
    n-fold image."""
    if n < 0:
        raise PrecisionTooLow("witness index must be >= 0")
    if n > L.lift.prec:
        raise PrecisionTooLow(
            f"witness index {n} exceeds lift precision {L.lift.prec}")
    Q = point_galois(L.lift, -L.sigma_exponent, times=n) if n else L.lift
    if not proj_eq(orbit(f, Q, n)[-1], L.lift):
        raise AssertionError("witness fails f^n(Q) = P~")
    return Q


def minimal_period(f: DmlMap, L: SigmaFixedLift) -> int:
    """Least d >= 1 with f^d(P~) = P~, dividing the residue degree; iterates
    are canonical with nothing consumed, so equal packings are proj_eq."""
    m = L.residue_degree
    pts, start = orbit_cycle(f, L.lift, m)
    if start:
        raise AssertionError(f"no period <= residue degree {m}")
    return len(pts)


class InvarianceEntry(MutableRecord):
    # image_on_variety is None when the point is off V
    __slots__ = ("on_variety", "image_on_variety")


class InvarianceReport(MutableRecord):
    """Sampled, precision-qualified evidence that f maps V-points into V.

    Never a proof: only the provided lifts are checked, only to valuation
    threshold tau.  ``checked`` counts the lifts on V, ``stable`` those whose
    image stays on V."""
    __slots__ = ("threshold", "entries", "checked", "stable", "empty_sample")

    @property
    def aggregate(self) -> bool:
        return self.checked > 0 and self.stable == self.checked


def invariance_evidence(f: DmlMap, V: Subvariety,
                        lifts: Sequence[SigmaFixedLift],
                        tau: int) -> InvarianceReport:
    """Each lift P~ and its image f(P~) tested against V by the return set
    of horizon 1: 0 is a hit when P~ is on V, 1 when f(P~) is.  A threshold
    below 1 or above the lift's precision raises PrecisionBelowThreshold."""
    from .returns import return_set
    entries: List[InvarianceEntry] = []
    checked = stable = 0
    for L in lifts:
        hits = return_set(f, L.lift, V, 1, tau).hits
        if 0 not in hits:
            entries.append(InvarianceEntry(False, None))
            continue
        ok = 1 in hits
        entries.append(InvarianceEntry(True, ok))
        checked += 1
        stable += ok
    return InvarianceReport(tau, entries, checked, stable, checked == 0)
