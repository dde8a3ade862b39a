"""Seeded generators shared across test modules.

Nothing here touches global random state; every suite owns a Random with an
explicit seed so failures replay exactly.
"""
import random
from typing import Dict, List, Sequence, Tuple

from frobdml.dynamics import DmlMap, validate_map
from frobdml.field import FieldSpec, FqElem, make_field
from frobdml.geometry import HomogPoly, ProjPoint
from frobdml.series import TruncSeries

MODULI = {
    (2, 1): [0, 1], (2, 2): [1, 1, 1], (2, 3): [1, 1, 0, 1],
    (3, 1): [0, 1], (3, 2): [1, 0, 1], (3, 3): [1, 2, 0, 1],
    (5, 1): [0, 1], (5, 2): [2, 0, 1], (5, 3): [1, 1, 0, 1],
    (257, 1): [0, 1], (257, 2): [3, 0, 1], (257, 3): [1, 1, 0, 1],
    (65537, 1): [0, 1], (65537, 2): [3, 0, 1], (65537, 3): [4, 1, 0, 1],
    (2 ** 31 - 1, 1): [0, 1], (2 ** 31 - 1, 2): [1, 0, 1],
    (2 ** 31 - 1, 3): [4, 1, 0, 1],
}

_FIELDS: Dict[Tuple[int, int], FieldSpec] = {}


def field_for(p: int, m: int) -> FieldSpec:
    key = (p, m)
    if key not in _FIELDS:
        _FIELDS[key] = make_field(p, m, MODULI[key])
    return _FIELDS[key]


def rand_prime_series(rng: random.Random, field: FieldSpec, prec: int,
                      vlo: int = 1, vhi: int = 3) -> TruncSeries:
    """Prime-subfield digits (hence sigma-fixed for every e), valuation >= vlo."""
    cs = [field.zero()] * prec
    v = rng.randint(vlo, vhi)
    cs[v] = field.from_int(rng.randrange(1, field.p))
    for _ in range(rng.randint(0, 3)):
        j = rng.randrange(v + 1, prec)
        cs[j] = field.from_int(rng.randrange(field.p))
    return TruncSeries(field, prec, cs)


def t_power(field: FieldSpec, j: int, prec: int) -> TruncSeries:
    """The series t^j at precision prec (zero when j >= prec)."""
    return TruncSeries(field, prec, [field.zero()] * j + [field.one()])


def frobenius_pow(x: FqElem, e: int) -> FqElem:
    """x^(p^e) for any integer e; e is reduced mod the order m of Frobenius."""
    return x.frobenius(e)


def rand_exponents(rng: random.Random, n: int, degree: int) -> Tuple[int, ...]:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def identity_matrix(field: FieldSpec, n: int, prec: int) -> List[List[TruncSeries]]:
    one = TruncSeries.one(field, prec)
    zero = TruncSeries.zeros(field, prec)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rand_suite_map(rng: random.Random, prec: int = 40,
                   primes: Sequence[int] = (2, 3, 5), max_e: int = 2) -> DmlMap:
    """A = I, random G with valuation 1..3 prime-subfield coefficients.
    G has degree p^(e-1), so a large p needs max_e = 1."""
    p = rng.choice(primes)
    e = rng.randint(1, max_e)
    N = rng.randint(1, 3)
    m = rng.randint(1, 3)
    field = field_for(p, m)
    n = N + 1
    d = p ** (e - 1)
    A = identity_matrix(field, n, prec)
    G = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[rand_exponents(rng, n, d)] = rand_prime_series(rng, field, prec)
        G.append(HomogPoly(field, N, d, terms))
    f = validate_map(field, p, e, A, G, label="suite")
    assert isinstance(f, DmlMap), f
    return f


def rand_dml(rng, F, e, A0, coeffs):
    """DmlMap with constant matrix A0 and random G of degree p^(e-1) whose
    coefficients, drawn from ``coeffs``, multiply series of valuation >= 1;
    A and every G term get their own precision in 4..12."""
    n = len(A0)
    d = F.p ** (e - 1)
    A = [[TruncSeries.from_constant(x, rng.randint(4, 12)) for x in row] for row in A0]
    G = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            s = rand_prime_series(rng, F, rng.randint(4, 12), 1, 2)
            terms[tuple(exps)] = s * TruncSeries.from_constant(rng.choice(coeffs), s.prec)
        G.append(HomogPoly(F, n - 1, d, terms))
    f = validate_map(F, F.p, e, A, G)
    assert isinstance(f, DmlMap), f
    return f


def rand_residue_point(rng: random.Random, f: DmlMap) -> Tuple[FqElem, ...]:
    field = f.field
    return (field.one(),) + tuple(
        field.from_int(rng.randrange(field.order)) for _ in range(f.N))


def rand_point(rng: random.Random, field: FieldSpec, N: int,
               prec: int) -> ProjPoint:
    coords = []
    for _ in range(N + 1):
        cs = [field.from_int(rng.randrange(field.order)) for _ in range(prec)]
        coords.append(TruncSeries(field, prec, cs))
    i = rng.randrange(N + 1)
    if coords[i].constant_term().is_zero():
        cs = list(coords[i].coeffs)
        cs[0] = field.one()
        coords[i] = TruncSeries(field, prec, cs)
    return ProjPoint(field, coords)


def fq_det(A: Sequence[Sequence[FqElem]]) -> FqElem:
    field = A[0][0].field
    n = len(A)
    M = [list(row) for row in A]
    det = field.one()
    for c in range(n):
        piv = next((r for r in range(c, n) if not M[r][c].is_zero()), None)
        if piv is None:
            return field.zero()
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c]
        inv = M[c][c].inv()
        for r in range(c + 1, n):
            if not M[r][c].is_zero():
                factor = M[r][c] * inv
                M[r] = [M[r][k] - factor * M[c][k] for k in range(n)]
    return det


def ext_det(ext, M):
    """Determinant over the twist tower E by first-row cofactor expansion
    (test-scale only: n! products)."""
    if len(M) == 1:
        return M[0][0]
    out = ext.zero
    for j in range(len(M)):
        minor = [[row[k] for k in range(len(M)) if k != j] for row in M[1:]]
        term = ext.mul(M[0][j], ext_det(ext, minor))
        out = ext.add(out, term) if j % 2 == 0 else ext.sub(out, term)
    return out


def rand_gl(rng: random.Random, field: FieldSpec, n: int) -> List[List[FqElem]]:
    while True:
        A = [[field.from_int(rng.randrange(field.order)) for _ in range(n)]
             for _ in range(n)]
        if not fq_det(A).is_zero():
            return A
