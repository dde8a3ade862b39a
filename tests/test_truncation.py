"""Truncation oracle: an answer known to n digits depends only on the digits
of its inputs below t^n.

Each operation runs on inputs known to n digits, then again on the same
inputs known to n + k digits, the k new ones random.  Where the first run
succeeds, the second result must be known to at least the first's
precision and agree with it on the first's digits.  Padding a series with
zero digits would hide a routine that reads digits past the precision it
claims; random digits show it.
"""
import random

from frobdml.dynamics import DmlMap, GeneralMap, apply_map, compose_maps, orbit, series_det
from frobdml.errors import FrobdmlError
from frobdml.geometry import (HomogPoly, ProjPoint, Subvariety, normalize,
                              point_variety)
from frobdml.instances import fixture_path, parse_instance
from frobdml.lifting import point_galois, sigma_fixed_lift
from frobdml.returns import return_set
from frobdml.series import AtPrecisionZero, TruncSeries
from frobdml.twist import normalize_conjugate

from conftest import (field_for, rand_dml, rand_gl, rand_point, rand_residue_point,
                      rand_suite_map)

FIELDS = [field_for(p, m) for p, m in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))]
F1 = parse_instance(fixture_path("f1.json")).map


def rand_series(rng, F, n, v=0):
    """Random digits below t^n, those below t^v zero."""
    return TruncSeries(F, n, [F.zero()] * v + [F.from_int(rng.randrange(F.order))
                                               for _ in range(n - v)])


def extend(rng, s, k):
    """s known to k more digits, the new ones random."""
    return s.change_precision(s.prec + k) + rand_series(rng, s.field, s.prec + k, s.prec)


def form_with(h, fn):
    """The form h with fn applied to every coefficient."""
    return HomogPoly(h.field, h.N, h.degree, {e: fn(c) for e, c in h.terms.items()})


def map_with(f, fn, fn_A=None):
    """f with fn applied to every coefficient (fn_A to the matrix part)."""
    G = [form_with(h, fn) for h in (f.G if isinstance(f, DmlMap) else f.coords)]
    if isinstance(f, GeneralMap):
        return GeneralMap(f.field, G, f.label)
    A = [[(fn_A or fn)(s) for s in row] for row in f.A]
    return DmlMap(f.field, f.p, f.e, A, G, f.label)


def run(fn, *args):
    """fn(*args), or None when it raises a FrobdmlError."""
    try:
        return fn(*args)
    except FrobdmlError:
        return None


def agrees(a, b):
    """b is known to at least a's precision and agrees with a there."""
    return b.prec >= a.prec and b.change_precision(a.prec) == a


def points_agree(P, Q):
    return P.consumed == Q.consumed and all(map(agrees, P.coords, Q.coords))


def forms_agree(g, h, n, k):
    """Coefficientwise agreement; a dropped term is zero at its map's
    precision, n in the first run and n + k in the second."""
    F = g.field
    return all(agrees(g.terms.get(e, TruncSeries.zeros(F, n)),
                      h.terms.get(e, TruncSeries.zeros(F, n + k)))
               for e in g.terms.keys() | h.terms.keys())


def suite_map(rng, n, max_e=2):
    """A suite map (A = I) known to n digits."""
    f = rand_suite_map(rng, prec=max(n, 8), max_e=max_e)
    return map_with(f, lambda c: c.change_precision(n))


def rand_dml_map(rng, n):
    """A random DmlMap known to n digits: A a unit matrix mod t with random
    higher digits, G random of valuation >= 1."""
    f = suite_map(rng, n)
    F = f.field
    A = [[TruncSeries.from_constant(x, n) + rand_series(rng, F, n, 1) for x in row]
         for row in rand_gl(rng, F, f.N + 1)]
    return DmlMap(F, f.p, f.e, A, f.G)


def rand_general_map(rng, F, N, d, n):
    """Random forms of degree d in N + 1 variables with dense coefficients;
    the image loses precision wherever all of them vanish mod t."""
    coords = []
    for _ in range(N + 1):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * (N + 1)
            for _ in range(d):
                exps[rng.randrange(N + 1)] += 1
            terms[tuple(exps)] = rand_series(rng, F, n)
        coords.append(HomogPoly(F, N, d, terms))
    return GeneralMap(F, coords)


def test_truncation_oracle_apply_map_and_orbit():
    rng = random.Random(1301)
    checked = 0
    for _ in range(30):
        n, k = rng.randint(1, 12), rng.randint(1, 6)
        kind = rng.randrange(3)
        if kind == 0:
            f = suite_map(rng, n)   # from a conjugate of the lift: a periodic orbit
            P = point_galois(sigma_fixed_lift(f, rand_residue_point(rng, f), n).lift, f.e)
        elif kind == 1:
            f = rand_dml_map(rng, n)
            P = rand_point(rng, f.field, f.N, n)
        else:
            F = rng.choice(FIELDS)
            f = rand_general_map(rng, F, rng.randint(1, 2), rng.randint(1, 3), n)
            P = rand_point(rng, F, f.N, n)
        fx = map_with(f, lambda c: extend(rng, c, k))
        Px = ProjPoint(P.field, [extend(rng, c, k) for c in P.coords])
        image = run(apply_map, f, P)
        if image is not None:
            assert points_agree(image, apply_map(fx, Px))
        H = rng.randint(0, 8)
        got = run(orbit, f, P, H)
        if got is not None:
            assert all(map(points_agree, got, orbit(fx, Px, H)))
            checked += H > 0
    assert checked >= 12


def test_truncation_oracle_normalize():
    rng = random.Random(1302)
    positive = 0
    for _ in range(200):
        F = rng.choice(FIELDS)
        n, k = rng.randint(1, 10), rng.randint(1, 6)
        lo = rng.choice((0, 1))   # lo = 1: every coordinate has positive valuation
        raw = [rand_series(rng, F, n, rng.randint(lo, n)) for _ in range(rng.randint(2, 4))]
        P = run(normalize, raw)
        if P is None:
            continue
        assert points_agree(P, normalize([extend(rng, c, k) for c in raw]))
        positive += P.consumed > 0
    assert positive >= 20


def rand_entry(rng, F, n):
    """Known to n digits: a unit, a non-unit, or zero at its precision."""
    return rand_series(rng, F, n, rng.choice((0, 0, 1, 2, n)))


def test_truncation_oracle_series_det():
    """series_det on entries of independent precisions, each extended by its
    own k, so low-precision zeros sit beside long entries; then series_det
    on a matrix known to n digits throughout."""
    rng = random.Random(1303)
    for _ in range(200):
        F = rng.choice(FIELDS)
        size = rng.randint(1, 4)
        D = [[rand_entry(rng, F, rng.randint(1, 10)) for _ in range(size)]
             for _ in range(size)]
        Dx = [[extend(rng, s, rng.randint(0, 6)) for s in row] for row in D]
        assert agrees(series_det(D), series_det(Dx))
        n, k = rng.randint(1, 10), rng.randint(1, 6)
        M = [[rand_entry(rng, F, n) for _ in range(size)] for _ in range(size)]
        Mx = [[extend(rng, s, k) for s in row] for row in M]
        assert agrees(series_det(M), series_det(Mx))


def test_truncation_oracle_lift():
    """The fixed point is unique, so the lift of a map known to more digits
    agrees with the shorter lift; f1 also against its own longer digits."""
    rng = random.Random(1304)
    F2 = F1.field
    cases = [(map_with(F1, lambda c: c.change_precision(20)),
              map_with(F1, lambda c: c.change_precision(40)), (F2.one(), F2.zero()))]
    for _ in range(16):
        n, k = rng.randint(1, 40), rng.randint(1, 24)
        f = suite_map(rng, n)
        cases.append((f, map_with(f, lambda c: extend(rng, c, k)), rand_residue_point(rng, f)))
    for f, fx, P0 in cases:
        n = f.coefficient_precision()
        L = sigma_fixed_lift(f, P0, n).lift
        assert points_agree(L, sigma_fixed_lift(fx, P0, fx.coefficient_precision()).lift)


def valuation_agrees(v, w):
    if isinstance(v, AtPrecisionZero):
        return (w.prec if isinstance(w, AtPrecisionZero) else w) >= v.prec
    return w == v


def test_truncation_oracle_return_set():
    rng = random.Random(1305)
    hits = 0
    for _ in range(24):
        n, k = rng.randint(2, 12), rng.randint(1, 6)
        f = suite_map(rng, n)
        L = sigma_fixed_lift(f, rand_residue_point(rng, f), n).lift
        x = point_galois(L, f.e, times=rng.randint(0, 3)) if rng.random() < 0.7 \
            else rand_point(rng, f.field, f.N, n)
        V = point_variety(rng.choice((L, x)))
        fx = map_with(f, lambda c: extend(rng, c, k))
        xx = ProjPoint(x.field, [extend(rng, c, k) for c in x.coords])
        Vx = Subvariety(V.field, V.N, [form_with(g, lambda c: extend(rng, c, k))
                                       for g in V.generators])
        H, tau = rng.randint(0, 10), rng.randint(1, n)
        got = run(return_set, f, x, V, H, tau)
        if got is None:
            continue
        more = return_set(fx, xx, Vx, H, tau)
        assert all(valuation_agrees(v, w) for r, s in zip(got.valuations, more.valuations)
                   for v, w in zip(r, s))
        assert set(got.hits) <= set(more.hits)
        hits += len(got.hits)
    assert hits


def test_truncation_oracle_compose_maps():
    rng = random.Random(1306)
    for _ in range(20):
        n, k = rng.randint(1, 8), rng.randint(1, 4)
        if rng.random() < 0.5:
            f = suite_map(rng, n, max_e=1)
        else:
            f = rand_general_map(rng, rng.choice(FIELDS), rng.randint(1, 2), rng.randint(1, 2), n)
        g = rng.choice((f, rand_general_map(rng, f.field, f.N, rng.randint(1, 2), n)))
        fx = map_with(f, lambda c: extend(rng, c, k))
        gx = fx if g is f else map_with(g, lambda c: extend(rng, c, k))
        got, more = compose_maps(f, g), compose_maps(fx, gx)
        assert all(forms_agree(a, b, n, k) for a, b in zip(got.coords, more.coords))


def test_truncation_oracle_normalize_conjugate():
    """A stays constant, so its new digits are zero; G's are random."""
    rng = random.Random(1307)
    solved = 0
    for _ in range(30):
        F = rng.choice([F for F in FIELDS if F.m == 1])   # G's digits sigma-fixed
        f = rand_dml(rng, F, 1, rand_gl(rng, F, rng.randint(2, 3)), list(F.elements()))
        n, k = f.coefficient_precision(), rng.randint(1, 6)
        f = map_with(f, lambda c: c.change_precision(n))
        fx = map_with(f, lambda c: extend(rng, c, k), lambda s: s.change_precision(n + k))
        got = run(normalize_conjugate, f, 24)
        if got is None:
            continue
        (sol, g), (solx, gx) = got, normalize_conjugate(fx, 24)
        assert (sol.r, sol.basis_raw, g.field) == (solx.r, solx.basis_raw, gx.field)
        assert all(agrees(a, b) for r, s in zip(g.A, gx.A) for a, b in zip(r, s))
        assert all(forms_agree(a, b, n, k) for a, b in zip(g.G, gx.G))
        solved += 1
    assert solved >= 10
