"""Return sets {n <= H : f^n(x) on V at valuation >= tau} and their
splitting into arithmetic progressions plus a finite sporadic set.

Membership is precision-qualified: a generator counts as vanishing when its
value has t-adic valuation at least tau.  Exact vanishing is undecidable
from truncated data, so every report carries the horizon and threshold; an
"exact" decomposition means exact agreement with the computed hits on
[0, H], never a claim about the infinite return set.

The orbit is walked only to its first repeated point, and the rows of
valuations are replayed around the cycle (``dynamics.orbit_cycle``).  For
the sigma-fixed lift P~, f^n(P~) = sigma^n(P~): the cycle is P~'s Galois
orbit, whose length divides the degree of P~'s coefficients over F_q.
"""
from __future__ import annotations

from typing import List, Sequence, Set, Tuple, Union

from .dynamics import AnyMap, orbit_cycle, replay
from .errors import DegreeMismatch, PrecisionBelowThreshold
from .geometry import ProjPoint, Subvariety, _meets, eval_hom_coords
from .record import Record
from .series import AtPrecisionZero

Valuation = Union[int, AtPrecisionZero]


def default_threshold(prec: int) -> int:
    """tau = prec - 4: slack against contaminated final digits."""
    if prec <= 4:
        raise PrecisionBelowThreshold(
            f"precision {prec} leaves no room for the default threshold slack")
    return prec - 4


class ReturnSet(Record):
    # hits strictly increasing; valuations[n][i] for generator i at f^n(x)
    __slots__ = ("horizon", "threshold", "hits", "valuations")

    def __contains__(self, n: int) -> bool:
        return n in set(self.hits)


def return_set(f: AnyMap, x: ProjPoint, V: Subvariety, H: int,
               tau: int) -> ReturnSet:
    """n is a hit iff every generator of V evaluates at f^n(x) to valuation
    >= tau.  V is evaluated only on the distinct iterates up to the first
    repeated point, and its rows are replayed around the cycle from there
    (``dynamics.orbit_cycle``)."""
    if H < 0:
        raise DegreeMismatch("horizon must be >= 0")
    if tau > x.prec:
        raise PrecisionBelowThreshold(
            f"threshold {tau} exceeds point precision {x.prec}")
    if tau < 1:
        raise PrecisionBelowThreshold("threshold must be >= 1")
    rows: List[Tuple[Valuation, ...]] = []
    _, start = orbit_cycle(f, x, H, lambda P: rows.append(
        tuple(s.valuation() for s in eval_hom_coords(V.generators, P.coords))))
    vals = replay(rows, start, H)
    hits = [n for n, row in enumerate(vals) if all(_meets(v, tau) for v in row)]
    return ReturnSet(H, tau, tuple(hits), tuple(vals))


EXACT = "exact_up_to_horizon"
NO_DECOMPOSITION = "no_decomposition_within_bounds"


class APDecomposition(Record):
    # progressions: pairs (l, m) meaning {l + m k}
    __slots__ = ("status", "horizon", "n0", "sporadic", "progressions")

    def expand(self) -> Set[int]:
        out = set(self.sporadic)
        for l, m in self.progressions:
            out.update(range(l, self.horizon + 1, m))
        return out


def _assemble(hits: Set[int], H: int, m: int, n0: int) -> APDecomposition:
    sporadic = tuple(sorted(n for n in hits if n < n0))
    progs = tuple((r, m) for r in range(n0, n0 + m) if r in hits)
    return APDecomposition(EXACT, H, n0, sporadic, progs)


def ap_decompose(rs: ReturnSet, M_max: int) -> APDecomposition:
    """Least period m <= M_max, then least preperiod n0 <= H - 2m, such that
    the hit indicator is m-periodic on [n0, H]; two full periods of window
    are required before claiming exactness.  For each m one backward scan
    finds the last n with hit(n) != hit(n + m); the least n0 is one past it.
    No m > H // 2 leaves room for n0 >= 0, so the scan stops there."""
    if M_max < 1:
        raise DegreeMismatch("M_max must be >= 1")
    H = rs.horizon
    hits = set(rs.hits)
    for m in range(1, min(M_max, H // 2) + 1):
        last = next((n for n in range(H - m, -1, -1)
                     if (n in hits) != (n + m in hits)), -1)
        n0 = last + 1
        if n0 <= H - 2 * m:
            dec = _assemble(hits, H, m, n0)
            if dec.expand() != hits:  # soundness re-expansion check
                raise AssertionError("decomposition fails re-expansion")
            return dec
    return APDecomposition(NO_DECOMPOSITION, H, None, (), ())


def decompose_oracle(hits: Sequence[int], H: int, M_max: int) -> APDecomposition:
    """Independent check: same (m, n0) scan order, but each candidate is
    validated by expanding the residues found in [n0, n0+m) and comparing
    the expansion against hits.  Below n0 the expansion is hits itself, so
    the comparison starts at n0 + m and stops at the first disagreement."""
    hset = set(hits)
    if any(n < 0 or n > H for n in hset):
        raise ValueError("hits must lie in [0, H]")
    for m in range(1, M_max + 1):
        for n0 in range(0, H - 2 * m + 1):
            if all((n in hset) == (n0 + (n - n0) % m in hset)
                   for n in range(n0 + m, H + 1)):
                return _assemble(hset, H, m, n0)
    return APDecomposition(NO_DECOMPOSITION, H, None, (), ())
