"""Instance files: one JSON document bundling a field, a map, named points
and subvarieties, and run parameters, so every command works in a coherent
field context.

Schema (all series strings use the canonical grammar; a missing O(t^n)
marker falls back to parameters.prec, and is an error when neither is
present):

    {
      "label": "f1",
      "field": {"p": 2, "m": 1, "modulus": [0, 1]},
      "map": { "p": 2, "e": 1,
               "A": [["1", "0"], ["0", "1"]],
               "G": [[], [{"exponents": [1, 0], "coeff": "t"}]] }
           | { "coordinates": [ {"degree": 2, "terms": [...]}, ... ] },
      "points":    {"name": {"residue": ["1", "a"]} | {"coords": ["...", ...]}},
      "varieties": {"name": {"generators": [{"degree": 1, "terms": [...]}]}},
      "parameters": {"prec": 40, "H": 10, "tau": 30, "M_max": 12, "R_max": 64}
    }

A map with "A"/"G" is validated into a DmlMap (diagnostics become
ValidationFailure); a map with "coordinates" is a GeneralMap.
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


def _is_int(x) -> bool:
    """A JSON integer: bool is a subclass of int in Python, but true and
    false are not integers."""
    return type(x) is int


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    return obj


def _require(obj: dict, key: str, where: str):
    if key not in _object(obj, where):
        raise ParseError(f"{where}: missing required key '{key}'")
    return obj[key]


def _parse_field(obj: dict) -> FieldSpec:
    p = _require(obj, "p", "field")
    m = _require(obj, "m", "field")
    modulus = _require(obj, "modulus", "field")
    if not _is_int(p) or not _is_int(m):
        raise ParseError("field: p and m must be integers")
    if not isinstance(modulus, list) or not all(_is_int(c) for c in modulus):
        raise ParseError("field: modulus must be a list of integers")
    return make_field(p, m, modulus)


def _parse_poly(obj, field: FieldSpec, N: int, prec: Optional[int],
                where: str, degree: Optional[int] = None) -> HomogPoly:
    if isinstance(obj, dict):
        degree = obj.get("degree", degree)
        terms_in = obj.get("terms", [])
    else:
        terms_in = obj
    if not isinstance(terms_in, list):
        raise ParseError(f"{where}: polynomial must be an object or a term list")
    if degree is not None and not _is_int(degree):
        raise ParseError(f"{where}: degree must be an integer")
    terms = []
    for k, term in enumerate(terms_in):
        exps = _require(term, "exponents", f"{where} term {k}")
        if not isinstance(exps, list) or len(exps) != N + 1 \
                or not all(_is_int(x) and x >= 0 for x in exps):
            raise ParseError(
                f"{where} term {k}: exponents must be {N + 1} nonnegative integers")
        coeff = parse_series(field, _require(term, "coeff", f"{where} term {k}"),
                             default_prec=prec)
        terms.append((tuple(exps), coeff))
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


def _parse_map(obj: dict, field: FieldSpec, prec: Optional[int],
               label: str) -> AnyMap:
    if "coordinates" in obj:
        coords_in = obj["coordinates"]
        if not isinstance(coords_in, list) or len(coords_in) < 2:
            raise ParseError("map: coordinates must list at least 2 polynomials")
        N = len(coords_in) - 1
        coords = [_parse_poly(c, field, N, prec, f"map coordinate {i}")
                  for i, c in enumerate(coords_in)]
        return GeneralMap(field, coords, label)
    p = _require(obj, "p", "map")
    e = _require(obj, "e", "map")
    A_in = _require(obj, "A", "map")
    if not isinstance(A_in, list) or len(A_in) < 2 \
            or any(not isinstance(r, list) or len(r) != len(A_in) for r in A_in):
        raise ParseError("map: A must be a square matrix of size >= 2")
    N = len(A_in) - 1
    if "N" in obj and (not _is_int(obj["N"]) or obj["N"] != N):
        raise ParseError(f"map: declared N = {obj['N']} but A is {N + 1}x{N + 1}")
    A = [[parse_series(field, s, default_prec=prec) for s in row] for row in A_in]
    G_in = _require(obj, "G", "map")
    if not isinstance(G_in, list) or len(G_in) != N + 1:
        raise ParseError(f"map: G must list {N + 1} polynomials")
    if not _is_int(p) or not _is_int(e) or p < 2 or e < 1:
        raise ParseError("map: p must be a prime >= 2 and e an integer >= 1")
    gdeg = _remainder_degree(p, e)
    G = [_parse_poly(g, field, N, prec, f"map G[{i}]", degree=gdeg)
         for i, g in enumerate(G_in)]
    result = validate_map(field, p, e, A, G, label)
    if isinstance(result, list):
        raise ValidationFailure(result)
    return result


def _parse_point(obj: dict, field: FieldSpec, N: int, prec: Optional[int],
                 where: str) -> NamedPoint:
    if "residue" in _object(obj, where):
        vals = obj["residue"]
        if not isinstance(vals, list) or len(vals) != N + 1:
            raise ParseError(f"{where}: residue needs {N + 1} element strings")
        return tuple(parse_element(field, s) for s in vals)
    if "coords" in obj:
        vals = obj["coords"]
        if not isinstance(vals, list) or len(vals) != N + 1:
            raise ParseError(f"{where}: coords needs {N + 1} series strings")
        return ProjPoint(field, [parse_series(field, s, default_prec=prec)
                                 for s in vals])
    raise ParseError(f"{where}: point needs 'residue' or 'coords'")


def _parse_parameters(obj: dict) -> Parameters:
    params = Parameters()
    for key in ("prec", "H", "tau", "M_max", "R_max"):
        if key in obj:
            v = obj[key]
            if not _is_int(v) or v < 1:
                raise ParseError(f"parameters: {key} must be a positive integer")
            setattr(params, key, v)
    return params


def parse_instance_dict(doc: dict, where: str = "instance") -> Instance:
    label = _object(doc, f"{where}: top level").get("label", "")
    map_obj = _object(_require(doc, "map", where), f"{where}: map")
    # the field block may live at top level or inside the map object
    field_obj = doc.get("field", map_obj.get("field"))
    if field_obj is None:
        raise ParseError(f"{where}: missing required key 'field'")
    field = _parse_field(field_obj)
    params = _parse_parameters(_object(doc.get("parameters", {}), "parameters"))
    fmap = _parse_map(map_obj, field, params.prec, map_obj.get("label", label))
    N = fmap.N
    points: Dict[str, NamedPoint] = {}
    for name, pobj in _object(doc.get("points", {}), "points").items():
        points[name] = _parse_point(pobj, field, N, params.prec, f"point '{name}'")
    varieties: Dict[str, Subvariety] = {}
    for name, vobj in _object(doc.get("varieties", {}), "varieties").items():
        gens_in = _require(vobj, "generators", f"variety '{name}'")
        if not isinstance(gens_in, list) or not gens_in:
            raise ParseError(f"variety '{name}': generators must be a nonempty list")
        gens = [_parse_poly(g, field, N, params.prec, f"variety '{name}' generator {i}")
                for i, g in enumerate(gens_in)]
        varieties[name] = Subvariety(field, N, gens)
    return Instance(label, field, fmap, points, varieties, params)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise ParseError(f"{path}: invalid JSON: {ex}") from ex
    except ParseError as ex:
        raise ParseError(f"{path}: {ex}") from None


def parse_instance(path: str) -> Instance:
    return parse_instance_dict(_load_json(path), where=path)


def parse_twist_file(path: str) -> Tuple[FieldSpec, List[List[FqElem]], int]:
    """Matrix file: {"q": int, "field": {...}, "A": [[element strings]]}."""
    doc = _load_json(path)
    q = _require(_object(doc, f"{path}: top level"), "q", path)
    if not _is_int(q) or q < 2:
        raise ParseError(f"{path}: q must be an integer >= 2")
    field = _parse_field(_require(doc, "field", path))
    A_in = _require(doc, "A", path)
    if not isinstance(A_in, list) or len(A_in) < 2 \
            or any(not isinstance(r, list) or len(r) != len(A_in) for r in A_in):
        raise ParseError(f"{path}: A must be a square matrix of size >= 2")
    A = [[parse_element(field, s) for s in row] for row in A_in]
    return field, A, q


def _render_poly(g: HomogPoly) -> dict:
    return {"degree": g.degree,
            "terms": [{"exponents": list(e), "coeff": format_series(c)}
                      for e, c in g.sorted_terms()]}


def render_instance(inst: Instance) -> dict:
    """Inverse of parse_instance_dict up to canonical form: every series is
    printed with its own O(t^n) marker, so the round trip is prec-exact."""
    doc: dict = {}
    if inst.label:
        doc["label"] = inst.label
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
        pts = {}
        for name, P in inst.points.items():
            if isinstance(P, ProjPoint):
                pts[name] = {"coords": [format_series(c) for c in P.coords]}
            else:
                pts[name] = {"residue": [format_element(x) for x in P]}
        doc["points"] = pts
    if inst.varieties:
        doc["varieties"] = {
            name: {"generators": [_render_poly(g) for g in V.generators]}
            for name, V in inst.varieties.items()}
    params = {k: getattr(inst.parameters, k)
              for k in ("prec", "H", "tau", "M_max", "R_max")
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
