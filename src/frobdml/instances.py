"""Instance files: one JSON document bundling a field, a map, named points
and subvarieties, and run parameters, so every command works in a coherent
field context.

``SCHEMA`` lists the keys of every object; ``fixtures/f1.json`` is a full
example.  Series strings missing an O(t^n) marker fall back to
parameters.prec (an error when neither is present).  A map with "A"/"G" is
validated into a DmlMap (diagnostics become ValidationFailure); a map with
"coordinates" is a GeneralMap.
"""
from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from .dynamics import AnyMap, DmlMap, GeneralMap, term_bound, validate_map
from .errors import DegreeOverflow, ParseError, ValidationFailure
from .field import FieldSpec, FqElem, format_element, make_field, parse_element, parse_int
from .geometry import HomogPoly, ProjPoint, Subvariety
from .record import MutableRecord
from .series import format_series, parse_series

ResiduePoint = Tuple[FqElem, ...]
NamedPoint = Union[ProjPoint, ResiduePoint]


class Parameters(MutableRecord):
    __slots__ = ("prec", "H", "tau", "M_max", "R_max")
    _defaults = {"prec": None, "H": None, "tau": None, "M_max": 12, "R_max": 64}


class Instance(MutableRecord):
    # points: Dict[str, NamedPoint], varieties: Dict[str, Subvariety]
    __slots__ = ("label", "field", "map", "points", "varieties", "parameters")


_TYPES = {  # JSON type -> its test; true and false are not integers
    "integer": lambda v: type(v) is int,
    "string": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "integer list": lambda v: isinstance(v, list) and all(type(x) is int for x in v),
    "string list": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "string matrix": lambda v: isinstance(v, list) and all(map(_TYPES["string list"], v)),
}
# kind -> {key: JSON type}, "?" marking a key that may be absent.  "points"
# and "varieties" map names to points and varieties; a polynomial may be its
# bare term list.  "field" sits at top level or in the map, not both, and a
# point holds exactly one of "residue" and "coords".
SCHEMA: Dict[str, Dict[str, str]] = {
    "instance": {"label": "string?", "field": "object?", "map": "object",
                 "points": "object?", "varieties": "object?", "parameters": "object?"},
    "field": {"p": "integer", "m": "integer", "modulus": "integer list"},
    "structured map": {"label": "string?", "field": "object?", "p": "integer",
                       "e": "integer", "N": "integer?", "A": "string matrix", "G": "list"},
    "general map": {"label": "string?", "field": "object?", "coordinates": "list"},
    "polynomial": {"degree": "integer?", "terms": "list"},
    "term": {"exponents": "integer list", "coeff": "string"},
    "point": {"residue": "string list?", "coords": "string list?"},
    "variety": {"generators": "list"},
    "parameters": dict.fromkeys(Parameters.__slots__, "integer?"),
    "matrix file": {"label": "string?", "q": "integer", "field": "object",
                    "A": "string matrix"},
}


def _fields(obj, kind: str, where: str) -> list:
    """obj's values of SCHEMA[kind]'s keys in the table's order, None for an
    absent optional key, once obj is checked against the table."""
    if not _TYPES["object"](obj):
        raise ParseError(f"{where} must be a JSON object")
    spec = SCHEMA[kind]
    for key in obj:
        if key not in spec:
            raise ParseError(f"{where}: unknown key '{key}' in a {kind}")
    for key, typ in spec.items():
        if key in obj:
            if not _TYPES[typ.rstrip("?")](obj[key]):
                raise ParseError(f"{where}: '{key}' must be a JSON {typ.rstrip('?')}")
        elif not typ.endswith("?"):
            raise ParseError(f"{where}: missing required key '{key}'")
    return [obj.get(key) for key in spec]


def _parse_poly(obj, field: FieldSpec, N: int, prec: Optional[int],
                where: str, degree: Optional[int] = None) -> HomogPoly:
    if not isinstance(obj, dict):  # a bare term list
        obj = {"terms": obj}
    given, terms_in = _fields(obj, "polynomial", where)
    degree = degree if given is None else given
    terms = []
    for k, term in enumerate(terms_in):
        exps, coeff = _fields(term, "term", f"{where} term {k}")
        if len(exps) != N + 1 or any(x < 0 for x in exps):
            raise ParseError(
                f"{where} term {k}: exponents must be {N + 1} nonnegative integers")
        terms.append((tuple(exps), parse_series(field, coeff, default_prec=prec)))
        if degree is None:
            degree = sum(exps)
    if degree is None:
        raise ParseError(f"{where}: empty polynomial needs an explicit degree")
    return HomogPoly(field, N, degree, terms)


def _remainder_degree(p: int, e: int) -> int:
    """p^(e-1), the degree of every G_i, multiplied up one factor at a time
    and refused once past the term bound, so a huge e costs a few steps."""
    bound = term_bound()
    degree = 1
    for _ in range(e - 1):
        degree *= p
        if degree > bound:
            raise DegreeOverflow(
                f"map: G degree p^(e-1) = {p}^{e - 1} exceeds the term bound {bound}")
    return degree


def _square(A_in: list, where: str) -> int:  # N, for an (N+1)x(N+1) A
    if len(A_in) < 2 or any(len(row) != len(A_in) for row in A_in):
        raise ParseError(f"{where}: A must be a square matrix of size >= 2")
    return len(A_in) - 1


def _parse_map(values: list, field: FieldSpec, prec: Optional[int],
               label: str) -> AnyMap:
    """The map given by its SCHEMA values that follow "label" and "field"."""
    if len(values) == 1:  # a general map: its coordinates
        coords_in, = values
        if len(coords_in) < 2:
            raise ParseError("map: coordinates must list at least 2 polynomials")
        N = len(coords_in) - 1
        coords = [_parse_poly(c, field, N, prec, f"map coordinate {i}")
                  for i, c in enumerate(coords_in)]
        return GeneralMap(field, coords, label)
    p, e, declared, A_in, G_in = values
    N = _square(A_in, "map")
    if declared is not None and declared != N:
        raise ParseError(f"map: declared N = {declared} but A is {N + 1}x{N + 1}")
    A = [[parse_series(field, s, default_prec=prec) for s in row] for row in A_in]
    if len(G_in) != N + 1:
        raise ParseError(f"map: G must list {N + 1} polynomials")
    if p < 2 or e < 1:
        raise ParseError("map: p must be a prime >= 2 and e an integer >= 1")
    gdeg = _remainder_degree(p, e)
    G = [_parse_poly(g, field, N, prec, f"map G[{i}]", degree=gdeg)
         for i, g in enumerate(G_in)]
    result = validate_map(field, p, e, A, G, label)
    if isinstance(result, list):
        raise ValidationFailure(result)
    return result


def _parse_point(obj, field: FieldSpec, N: int, prec: Optional[int],
                 where: str) -> NamedPoint:
    residue, coords = _fields(obj, "point", where)
    if (residue is None) == (coords is None):
        raise ParseError(f"{where}: point needs exactly one of 'residue' and 'coords'")
    if len(coords if residue is None else residue) != N + 1:
        raise ParseError(f"{where}: point needs {N + 1} coordinates")
    if coords is None:
        return tuple(parse_element(field, s) for s in residue)
    return ProjPoint(field, [parse_series(field, s, default_prec=prec) for s in coords])


def _parse_parameters(obj) -> Parameters:
    params = Parameters()
    for key, v in zip(Parameters.__slots__, _fields(obj, "parameters", "parameters")):
        if v is not None:
            low = 0 if key == "H" else 1  # a horizon of 0 is the point alone
            if v < low:
                raise ParseError(f"parameters: {key} must be an integer >= {low}")
            setattr(params, key, v)
    return params


def _parse_field(obj) -> FieldSpec:
    """The field of a field object, its modulus coefficients in [0, p)."""
    p, m, modulus = _fields(obj, "field", "field")
    field = make_field(p, m, modulus)
    if list(field.modulus) != modulus:
        raise ParseError(f"field: modulus {modulus} has a coefficient outside [0, {p})")
    return field


def parse_instance_dict(doc: dict, where: str = "instance") -> Instance:
    label, field_obj, map_obj, points_in, varieties_in, params_in = _fields(doc, "instance", where)
    kind = "general map" if "coordinates" in map_obj else "structured map"
    map_label, map_field, *map_values = _fields(map_obj, kind, f"{where}: map")
    if (field_obj is None) == (map_field is None):
        raise ParseError(f"{where}: give 'field' once, at top level or in 'map'")
    field = _parse_field(map_field if field_obj is None else field_obj)
    params = _parse_parameters(params_in or {})
    label = label or ""
    fmap = _parse_map(map_values, field, params.prec,
                      label if map_label is None else map_label)
    N = fmap.N
    points = {name: _parse_point(pobj, field, N, params.prec, f"point '{name}'")
              for name, pobj in (points_in or {}).items()}
    varieties: Dict[str, Subvariety] = {}
    for name, vobj in (varieties_in or {}).items():
        gens_in, = _fields(vobj, "variety", f"variety '{name}'")
        if not gens_in:
            raise ParseError(f"variety '{name}': generators must be a nonempty list")
        gens = [_parse_poly(g, field, N, params.prec, f"variety '{name}' generator {i}")
                for i, g in enumerate(gens_in)]
        varieties[name] = Subvariety(field, N, gens)
    return Instance(label, field, fmap, points, varieties, params)


def _unique_keys(pairs: list) -> dict:
    """json's object hook: refuse a key given twice in one object."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"duplicate key '{next(k for k in keys if keys.count(k) > 1)}'")
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int, object_pairs_hook=_unique_keys)
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise ParseError(f"{path}: invalid JSON: {ex}") from ex
    except ParseError as ex:
        raise ParseError(f"{path}: {ex}") from None


def parse_instance(path: str) -> Instance:
    return parse_instance_dict(_load_json(path), where=path)


def parse_twist_file(path: str) -> Tuple[FieldSpec, List[List[FqElem]], int]:
    """Matrix file: {"label": str (optional), "q": int, "field": {...},
    "A": [[element strings]]}."""
    _, q, field_obj, A_in = _fields(_load_json(path), "matrix file", path)
    if q < 2:
        raise ParseError(f"{path}: q must be an integer >= 2")
    field = _parse_field(field_obj)
    _square(A_in, path)
    A = [[parse_element(field, s) for s in row] for row in A_in]
    return field, A, q


def _render_poly(g: HomogPoly) -> dict:
    return {"degree": g.degree,
            "terms": [{"exponents": list(e), "coeff": format_series(c)}
                      for e, c in g.sorted_terms()]}


def render_instance(inst: Instance) -> dict:
    """Inverse of parse_instance_dict up to canonical form: every series is
    printed with its own O(t^n) marker, so the round trip is prec-exact."""
    doc: dict = {"label": inst.label} if inst.label else {}
    doc["field"] = {"p": inst.field.p, "m": inst.field.m,
                    "modulus": list(inst.field.modulus)}
    f = inst.map
    if isinstance(f, DmlMap):
        doc["map"] = {"p": f.p, "e": f.e,
                      "A": [[format_series(s) for s in row] for row in f.A],
                      "G": [_render_poly(g)["terms"] for g in f.G]}
    else:
        doc["map"] = {"coordinates": [_render_poly(h) for h in f.coords]}
    if inst.points:
        doc["points"] = {
            name: {"coords": [format_series(c) for c in P.coords]}
            if isinstance(P, ProjPoint) else {"residue": [format_element(x) for x in P]}
            for name, P in inst.points.items()}
    if inst.varieties:
        doc["varieties"] = {
            name: {"generators": [_render_poly(g) for g in V.generators]}
            for name, V in inst.varieties.items()}
    params = {k: getattr(inst.parameters, k) for k in Parameters.__slots__
              if getattr(inst.parameters, k) is not None}
    if params:
        doc["parameters"] = params
    return doc


def format_instance(inst: Instance) -> str:
    return json.dumps(render_instance(inst), indent=2) + "\n"


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped fixture (f1.json, f3.json, f4.json,
    twist_swap.json)."""
    from importlib import resources
    return str(resources.files("frobdml").joinpath("fixtures", name))
