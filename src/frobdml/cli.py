"""Command-line surface.

One command per invocation; instance files supply the field context and named
objects, flags select what to do with them.  Exit codes: 0 success, 1
mathematical negative (the computation ran and the answer is "no"), 2
validation or parse failure, 3 a configured resource bound was hit, 4 an
internal error (a fault of the program, reported in one line).

All output is deterministic: identical inputs produce byte-identical stdout.
The symbolic term bound for compositions can be overridden with
FROBDML_TERM_BOUND.  COMMANDS declares each command and FLAGS each of its
arguments, once; a flag that names a Parameters field overrides the
instance's value of it.  A command imports twist, lifting or returns itself,
so a process loads (and compiles) only the modules its command runs.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .dynamics import (DmlMap, NotInForm, check_conditions, iterate_map, orbit,
                       recognize_dml_form)
from .errors import FrobdmlError, ParseError, ValidationFailure
from .field import p_power_exponent, parse_element
from .geometry import ProjPoint, Subvariety, format_poly, reduce_point
from .instances import Instance, Parameters, parse_instance, parse_twist_file
from .record import Record
from .series import AtPrecisionZero, TruncSeries, format_series, parse_series

RETURNS_NOTE = ("membership is precision-qualified (generator valuation >= "
                "threshold) and horizon-qualified (n <= horizon); nothing is "
                "claimed beyond the horizon")


# ---------------------------------------------------------------------------
# report plumbing: every command returns one Report, which main emits once
# ---------------------------------------------------------------------------

class Report(Record):
    """One command's answer: text lines, JSON object, CSV rows, exit code."""
    __slots__ = ("text", "obj", "csv", "code")
    _defaults = {"csv": None, "code": 0}

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.obj, indent=2) + "\n"
        if fmt == "csv":
            rows = self.csv if self.csv is not None else _kv_rows(self.obj)
            return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)
        return "".join(line + "\n" for line in self.text)


def _csv_field(x: str) -> str:
    """x as one RFC 4180 field: quoted, its quotes doubled, when it holds a
    comma, a quote, CR or LF."""
    if any(c in x for c in ',"\r\n'):
        return '"' + x.replace('"', '""') + '"'
    return x


def _kv_rows(obj: dict) -> List[List[str]]:
    return [["key", "value"]] + [
        [k, _scalar(v) if isinstance(v, (str, int, bool)) or v is None else json.dumps(v)]
        for k, v in obj.items()]


def _scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _point_strs(P: ProjPoint) -> List[str]:
    return [format_series(c) for c in P.coords]


def _fmt_row(row: Sequence[TruncSeries]) -> str:
    return "[" + ", ".join(format_series(s) for s in row) + "]"


def _val_str(v) -> str:
    return f">={v.prec}" if isinstance(v, AtPrecisionZero) else str(v)


# ---------------------------------------------------------------------------
# name / literal resolution against an instance
# ---------------------------------------------------------------------------

def _split_tuple(text: str) -> List[str]:
    s = text.strip()
    if len(s) >= 2 and s[0] in "([" and s[-1] in ")]":
        s = s[1:-1]
    parts = [x.strip() for x in s.split(",")]
    if len(parts) < 2 or any(not x for x in parts):
        raise ParseError(f"cannot read {text!r} as a coordinate tuple")
    return parts


def _unknown_point(inst: Instance, text: str) -> ParseError:
    known = ", ".join(inst.points) or "(none)"
    return ParseError(f"unknown point {text!r}; instance defines: {known}")


def _residue_point(inst: Instance, text: str) -> Tuple:
    if text in inst.points:
        P = inst.points[text]
        return reduce_point(P) if isinstance(P, ProjPoint) else P
    if "," not in text:
        raise _unknown_point(inst, text)
    return tuple(parse_element(inst.field, s) for s in _split_tuple(text))


def _proj_point(inst: Instance, text: str, prec: Optional[int]) -> ProjPoint:
    if text in inst.points:
        P = inst.points[text]
        if isinstance(P, ProjPoint):
            return P
        if prec is None:
            raise ParseError(
                f"point {text!r} is a residue point; a working precision is "
                f"needed (--prec or parameters.prec)")
        return ProjPoint(inst.field,
                         [TruncSeries.from_constant(c, prec) for c in P])
    if "," not in text:
        raise _unknown_point(inst, text)
    return ProjPoint(inst.field,
                     [parse_series(inst.field, s, default_prec=prec)
                      for s in _split_tuple(text)])


def _named_variety(inst: Instance, name: str) -> Subvariety:
    if name not in inst.varieties:
        known = ", ".join(inst.varieties) or "(none)"
        raise ParseError(f"unknown variety {name!r}; instance defines: {known}")
    return inst.varieties[name]


def _param(args, inst: Optional[Instance], flag: str, required: bool = False):
    """The run parameter that flag overrides: the flag's value when the
    command has it and it is given, else the instance's (the defaults of
    Parameters without an instance); a ParseError if required and neither."""
    field = FLAGS[flag][0]
    value = getattr(args, flag[2:].replace("-", "_"), None)
    if value is None:
        value = getattr(inst.parameters if inst else Parameters(), field)
    if value is None and required:
        raise ParseError(f"missing {flag} (no {field} in the instance parameters)")
    return value


def _rmax(args, inst: Optional[Instance]) -> int:
    rmax = _param(args, inst, "--rmax")
    if rmax < 1:
        raise ParseError("--rmax must be >= 1")
    return rmax


def _dml_only(f, command: str) -> DmlMap:
    if not isinstance(f, DmlMap):
        raise ParseError(f"{command} needs a structured map (A and G blocks), "
                         f"not general coordinates")
    return f


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _conditions(f) -> Tuple[List[str], dict]:
    """The three structural conditions of f as text lines and JSON keys."""
    rep = check_conditions(f)
    obj = {k: getattr(rep, k) for k in
           ("zero_differential", "special_fiber_is_frobenius", "frobenius_power")}
    return [f"{k}: {_scalar(v)}" for k, v in obj.items()], obj


def cmd_validate(args) -> Report:
    try:
        inst = parse_instance(args.instance)
    except ValidationFailure as ex:
        lines = ["invalid"] + [str(d) for d in ex.diagnostics]
        obj = {"valid": False, "diagnostics": [str(d) for d in ex.diagnostics]}
        return Report(lines, obj, code=2)
    text, conditions = _conditions(inst.map)
    label = inst.label or "(unlabeled)"
    lines = [f"valid: {label}", f"map: {inst.map!r}"] + text
    obj = {"valid": True, "label": inst.label, "map": repr(inst.map), **conditions}
    return Report(lines, obj)


def cmd_check_conditions(args) -> Report:
    return Report(*_conditions(parse_instance(args.instance).map))


def cmd_orbit(args) -> Report:
    inst = parse_instance(args.instance)
    P = _proj_point(inst, args.point, _param(args, inst, "--prec"))
    H = _param(args, inst, "--horizon", required=True)
    pts = orbit(inst.map, P, H)
    lines = [f"{n}: {_fmt_row(Q.coords)}" for n, Q in enumerate(pts)]
    obj = {"horizon": H, "orbit": [_point_strs(Q) for Q in pts]}
    csv = [["n"] + [f"x{i}" for i in range(P.N + 1)]]
    csv += [[str(n)] + _point_strs(Q) for n, Q in enumerate(pts)]
    return Report(lines, obj, csv)


def _lift(args, command: str):
    """(f, prec, the sigma-fixed lift of --point0 to prec) for lift, witness and
    period, which check the instance, the map, the point and prec in this order."""
    from .lifting import sigma_fixed_lift
    inst = parse_instance(args.instance)
    f = _dml_only(inst.map, command)
    P0 = _residue_point(inst, args.point0)
    prec = _param(args, inst, "--prec", required=True)
    return f, prec, sigma_fixed_lift(f, P0, prec)


def cmd_lift(args) -> Report:
    _, prec, L = _lift(args, "lift")
    verification = f"f(P~) - σ(P~) = 0 mod t^{prec}"
    lines = [f"P~ = {_fmt_row(L.lift.coords)}",
             verification,
             f"residue_degree: {_scalar(L.residue_degree)}"]
    obj = {"lift": _point_strs(L.lift), "prec": prec, "verification": verification,
           "residue_degree": L.residue_degree}
    return Report(lines, obj)


def _twist_matrix_strs(rows) -> List[List[str]]:
    # FqElem entries print as format_element; tower entries are strings
    return [[str(x) for x in row] for row in rows]


def cmd_twist(args) -> Report:
    from .twist import solve_twist
    field, A, q = parse_twist_file(args.matrix)
    sol = solve_twist(A, q, _rmax(args, None))
    basis, B = _twist_matrix_strs(sol.basis), _twist_matrix_strs(sol.B)
    residue = [[sol.entry_str(x) for x in row] for row in sol.residue()]
    lines = [f"r = {sol.r}"]
    lines += [f"basis[{i}] = [{', '.join(v)}]" for i, v in enumerate(basis)]
    lines += [f"B[{i}] = [{', '.join(row)}]" for i, row in enumerate(B)]
    lines += [f"residue[{i}] = [{', '.join(row)}]" for i, row in enumerate(residue)]
    obj = {"q": q, "r": sol.r, "basis": basis, "B": B, "residue": residue}
    return Report(lines, obj)


def cmd_normalize(args) -> Report:
    from .twist import normalize_conjugate
    inst = parse_instance(args.instance)
    f = _dml_only(inst.map, "normalize")
    sol, fprime = normalize_conjugate(f, _rmax(args, inst))
    B = _twist_matrix_strs(sol.B)
    lines = [f"r = {sol.r}"]
    lines += [f"B[{i}] = [{', '.join(row)}]" for i, row in enumerate(B)]
    lines.append("conjugated matrix part: identity")
    gstrs = [format_poly(g, "y") for g in fprime.G]
    lines += [f"G'[{i}] = {s}" for i, s in enumerate(gstrs)]
    obj = {"r": sol.r, "B": B, "A_prime": "identity", "G_prime": gstrs}
    return Report(lines, obj)


def cmd_returns(args) -> Report:
    from .returns import NO_DECOMPOSITION, ap_decompose, default_threshold, return_set
    inst = parse_instance(args.instance)
    P = _proj_point(inst, args.point, _param(args, inst, "--prec"))
    V = _named_variety(inst, args.variety)
    H = _param(args, inst, "--horizon", required=True)
    tau = _param(args, inst, "--threshold")
    if tau is None:
        tau = default_threshold(P.prec)
    rs = return_set(inst.map, P, V, H, tau)
    dec = ap_decompose(rs, _param(args, inst, "--max-period"))
    prog_strs = [f"{r} mod {m}" for r, m in dec.progressions]
    lines = [f"horizon: {H}",
             f"threshold: {tau}",
             "hits: " + (" ".join(str(n) for n in rs.hits) if rs.hits else "(none)"),
             f"status: {dec.status}",
             f"n0: {_scalar(dec.n0)}",
             "sporadic: " + (" ".join(str(n) for n in dec.sporadic)
                             if dec.sporadic else "(none)"),
             "progressions: " + ("; ".join(prog_strs) if prog_strs else "(none)"),
             f"note: {RETURNS_NOTE}"]
    obj = {"horizon": H, "threshold": tau, "hits": list(rs.hits),
           "valuations": [[_val_str(v) for v in vals] for vals in rs.valuations],
           "decomposition": {"status": dec.status, "n0": dec.n0,
                             "sporadic": list(dec.sporadic),
                             "progressions": [list(pr) for pr in dec.progressions]},
           "note": RETURNS_NOTE}
    csv = [["n", "member"] + [f"val{i}" for i in range(len(V.generators))]]
    hitset = set(rs.hits)
    for n, vals in enumerate(rs.valuations):
        csv.append([str(n), "1" if n in hitset else "0"]
                   + [_val_str(v) for v in vals])
    return Report(lines, obj, csv, code=int(dec.status == NO_DECOMPOSITION))


def cmd_compose(args) -> Report:
    inst = parse_instance(args.instance)
    if args.times < 1:
        raise ParseError("--times must be >= 1")
    fk = iterate_map(inst.map, args.times)
    lines = [f"f^{args.times}[{i}] = {format_poly(h, 'x')}"
             for i, h in enumerate(fk.coords)]
    obj: Dict[str, object] = {
        "times": args.times,
        "coordinates": [format_poly(h, "x") for h in fk.coords]}
    code = 0
    if args.recognize is not None:
        p = inst.field.p
        e = p_power_exponent(p, args.recognize)
        if not e:
            raise ParseError(
                f"--recognize value {args.recognize} is not a positive power "
                f"of the characteristic {p}")
        rec = recognize_dml_form(fk, p, e)
        if isinstance(rec, NotInForm):
            lines.append(f"not in form: {rec}")
            obj["recognized"] = None
            obj["not_in_form"] = str(rec)
            code = 1
        else:
            lines.append(f"recognized: q = {rec.q}")
            lines += [f"A[{i}] = {_fmt_row(row)}" for i, row in enumerate(rec.A)]
            gstrs = [format_poly(g, "y") for g in rec.G]
            lines += [f"G[{i}] = {s}" for i, s in enumerate(gstrs)]
            obj["recognized"] = {
                "q": rec.q,
                "A": [[format_series(s) for s in row] for row in rec.A],
                "G": gstrs}
    return Report(lines, obj, code=code)


def cmd_witness(args) -> Report:
    from .lifting import critical_witness
    f, _, L = _lift(args, "witness")
    Q = critical_witness(f, L, args.index)
    lines = [f"Q = σ^(-{args.index})(P~) = {_fmt_row(Q.coords)}",
             f"f^{args.index}(Q) = P~ (verified exactly)"]
    obj = {"index": args.index, "witness": _point_strs(Q),
           "lift": _point_strs(L.lift), "verified": True}
    return Report(lines, obj)


def cmd_period(args) -> Report:
    from .lifting import minimal_period
    f, _, L = _lift(args, "period")
    d = minimal_period(f, L)
    lines = [f"residue_degree: {_scalar(L.residue_degree)}",
             f"minimal_period: {d}"]
    obj = {"residue_degree": L.residue_degree, "minimal_period": d}
    return Report(lines, obj)


# ---------------------------------------------------------------------------
# parser: one table of arguments, one of commands
# ---------------------------------------------------------------------------

# argument -> (the Parameters field it overrides, or None; its add_argument
# keywords).  "instance" and "matrix" are the commands' positional files.
FLAGS: Dict[str, Tuple[Optional[str], dict]] = {
    "instance": (None, {"help": "instance file (JSON)"}),
    "matrix": (None, {"help": "matrix file (JSON: q, field, A)"}),
    "--point": (None, {"required": True, "help": "point name or coordinate tuple"}),
    "--point0": (None, {"required": True, "help": "residue point name or tuple, e.g. '(1,a)'"}),
    "--variety": (None, {"required": True, "help": "variety name"}),
    "--times": (None, {"type": int, "required": True, "help": "iteration count"}),
    "--index": (None, {"type": int, "required": True, "help": "iterate index n"}),
    "--recognize": (None, {"type": int, "metavar": "Q", "help": "recognize f^k at degree Q"}),
    "--prec": ("prec", {"type": int, "help": "working precision"}),
    "--horizon": ("H", {"type": int, "help": "largest iterate"}),
    "--threshold": ("tau", {"type": int, "help": "valuation threshold"}),
    "--max-period": ("M_max", {"type": int, "help": "largest progression modulus tried"}),
    "--rmax": ("R_max", {"type": int, "help": "largest extension degree searched"}),
}

# command -> (function, help, positional argument, flags), all keys of FLAGS
COMMANDS = {
    "validate": (cmd_validate, "parse an instance, run structural validation, report "
                 "conditions", "instance", ()),
    "check-conditions": (cmd_check_conditions, "report the structural conditions of "
                         "the map", "instance", ()),
    "orbit": (cmd_orbit, "print the orbit of a point", "instance",
              ("--point", "--horizon", "--prec")),
    "lift": (cmd_lift, "compute the sigma-fixed lift of a residue point", "instance",
             ("--point0", "--prec")),
    "twist": (cmd_twist, "solve B^(q) = A*B for a matrix file", "matrix", ("--rmax",)),
    "normalize": (cmd_normalize, "conjugate the map so its matrix part becomes the "
                  "identity", "instance", ("--rmax",)),
    "returns": (cmd_returns, "compute a return set and decompose it into progressions",
                "instance", ("--point", "--variety", "--horizon", "--threshold", "--max-period")),
    "compose": (cmd_compose, "iterate the map symbolically", "instance",
                ("--times", "--recognize")),
    "witness": (cmd_witness, "produce the n-fold preimage witness sigma^(-n)(P~)",
                "instance", ("--point0", "--index", "--prec")),
    "period": (cmd_period, "residue degree and minimal period of the sigma-fixed lift",
               "instance", ("--point0", "--prec")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are ParseErrors, reported by main
    in one line like any other; its subparsers are _Parsers too."""

    def error(self, message: str):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"),
                        default="text", help="output format (default text)")
    parser = _Parser(
        prog="frobdml",
        description="Exact arithmetic for Frobenius-lifting self-maps of "
                    "projective space over F_q[[t]]: structural validation, "
                    "sigma-fixed lifts, twist normalization, and return-set "
                    "decompositions.",
        epilog="Set FROBDML_TERM_BOUND to override the symbolic term bound "
               "used by compose/recognize.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, helptext, positional, flags) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=helptext)
        for arg in (positional,) + flags:
            sp.add_argument(arg, **FLAGS[arg][1])
        sp.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.fn(args)
        sys.stdout.write(report.render(args.format))
        return report.code
    except FrobdmlError as ex:
        sys.stderr.write(f"error: {type(ex).__name__}: {ex}\n")
        return ex.exit_code
    except Exception as ex:
        # a fault of the program, never a mathematical "no" (exit 1)
        sys.stderr.write(f"internal error: {type(ex).__name__}: {ex}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
