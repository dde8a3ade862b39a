import contextlib
import io
import json
import time

import pytest

from frobdml.cli import RETURNS_NOTE, main
from frobdml.field import PRIME_BOUND
from frobdml.instances import fixture_path, parse_instance, render_instance

F1 = fixture_path("f1.json")
F3 = fixture_path("f3.json")
F4 = fixture_path("f4.json")
TWIST = fixture_path("twist_swap.json")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_validate_text_golden():
    code, out, err = run(["validate", F1])
    assert code == 0 and err == ""
    assert out == ("valid: f1\n"
                   "map: DmlMap(p=2, e=1, N=1, label='f1')\n"
                   "zero_differential: true\n"
                   "special_fiber_is_frobenius: true\n"
                   "frobenius_power: 2\n")


def test_check_conditions_general_map():
    code, out, _ = run(["check-conditions", F3])
    assert code == 0
    assert out == ("zero_differential: false\n"
                   "special_fiber_is_frobenius: true\n"
                   "frobenius_power: 2\n")


def test_orbit_text_golden():
    code, out, _ = run(["orbit", F1, "--point", "P", "--horizon", "3"])
    assert code == 0
    assert out == ("0: [1 + O(t^8), t + O(t^8)]\n"
                   "1: [1 + O(t^8), t + t^2 + O(t^8)]\n"
                   "2: [1 + O(t^8), t + t^2 + t^4 + O(t^8)]\n"
                   "3: [1 + O(t^8), t + t^2 + t^4 + O(t^8)]\n")


def test_orbit_literal_point_and_csv():
    code, out, _ = run(["orbit", F1, "--point", "1,t", "--horizon", "1",
                        "--prec", "4", "--format", "csv"])
    assert code == 0
    assert out == ("n,x0,x1\n"
                   "0,1 + O(t^4),t + O(t^4)\n"
                   "1,1 + O(t^4),t + t^2 + O(t^4)\n")


def test_lift_text_golden():
    code, out, _ = run(["lift", F4, "--point0", "P0", "--prec", "8"])
    assert code == 0
    assert out == ("P~ = [1 + O(t^8), a + t + t^2 + t^4 + O(t^8)]\n"
                   "f(P~) - σ(P~) = 0 mod t^8\n"
                   "residue_degree: 2\n")


def test_lift_json_format():
    code, out, _ = run(["lift", F4, "--point0", "P0", "--prec", "8",
                        "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["lift"] == ["1 + O(t^8)", "a + t + t^2 + t^4 + O(t^8)"]
    assert obj["residue_degree"] == 2 and obj["prec"] == 8


def test_twist_text_golden():
    code, out, _ = run(["twist", TWIST])
    assert code == 0
    assert out == ("r = 2\n"
                   "basis[0] = [1, 1]\n"
                   "basis[1] = [a, 1+a]\n"
                   "B[0] = [1, a]\n"
                   "B[1] = [1, 1+a]\n"
                   "residue[0] = [0, 0]\n"
                   "residue[1] = [0, 0]\n")


def test_normalize_text_golden():
    code, out, _ = run(["normalize", F1])
    assert code == 0
    assert out == ("r = 1\n"
                   "B[0] = [1, 0]\n"
                   "B[1] = [0, 1]\n"
                   "conjugated matrix part: identity\n"
                   "G'[0] = 0\n"
                   "G'[1] = (t + O(t^65))*y0\n")


def test_returns_empty_set_golden():
    code, out, _ = run(["returns", F1, "--point", "P", "--variety", "axis"])
    assert code == 0
    assert out == ("horizon: 10\n"
                   "threshold: 8\n"
                   "hits: (none)\n"
                   "status: exact_up_to_horizon\n"
                   "n0: 0\n"
                   "sporadic: (none)\n"
                   "progressions: (none)\n"
                   f"note: {RETURNS_NOTE}\n")


def test_returns_odd_hits_golden():
    code, out, _ = run(["returns", F4, "--point", "Ptilde",
                        "--variety", "orbitpt", "--horizon", "10"])
    assert code == 0
    lines = out.splitlines()
    assert "hits: 1 3 5 7 9" in lines
    assert "progressions: 1 mod 2" in lines
    assert "n0: 0" in lines


def test_returns_csv_has_qualified_valuations():
    code, out, _ = run(["returns", F4, "--point", "Ptilde",
                        "--variety", "orbitpt", "--horizon", "10",
                        "--format", "csv"])
    assert code == 0
    rows = [r.split(",") for r in out.splitlines()]
    assert rows[0] == ["n", "member", "val0"]
    assert rows[1] == ["0", "0", "0"]
    assert rows[2] == ["1", "1", ">=40"]
    assert len(rows) == 12


def test_returns_json_decomposition():
    code, out, _ = run(["returns", F4, "--point", "Ptilde",
                        "--variety", "orbitpt", "--horizon", "10",
                        "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["hits"] == [1, 3, 5, 7, 9]
    assert obj["decomposition"] == {"status": "exact_up_to_horizon",
                                    "n0": 0, "sporadic": [],
                                    "progressions": [[1, 2]]}


def test_compose_recognize_golden():
    code, out, _ = run(["compose", F3, "--times", "2", "--recognize", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f^2[0] = x0^4"
    assert lines[2] == "f^2[2] = (t + t^2 + O(t^8))*x0^2*x1^2 + x2^4"
    assert lines[3] == "recognized: q = 4"
    assert lines[-1] == "G[2] = (t + t^2 + O(t^8))*y0*y1"


def test_compose_recognize_failure_is_exit_1():
    code, out, _ = run(["compose", F3, "--times", "1", "--recognize", "2"])
    assert code == 1
    assert "not in form:" in out and "not divisible by p" in out


def test_witness_and_period_goldens():
    code, out, _ = run(["witness", F4, "--point0", "P0", "--index", "2",
                        "--prec", "8"])
    assert code == 0
    assert out == ("Q = σ^(-2)(P~) = [1 + O(t^8), a + t + t^2 + t^4 + O(t^8)]\n"
                   "f^2(Q) = P~ (verified exactly)\n")
    code, out, _ = run(["period", F4, "--point0", "P0", "--prec", "8"])
    assert code == 0
    assert out == "residue_degree: 2\nminimal_period: 2\n"


def test_scalar_csv_falls_back_to_key_value():
    code, out, _ = run(["period", F4, "--point0", "P0", "--prec", "8",
                        "--format", "csv"])
    assert code == 0
    assert out == "key,value\nresidue_degree,2\nminimal_period,2\n"


def test_map_flag_is_alias_for_positional():
    _, out_pos, _ = run(["validate", F1])
    _, out_flag, _ = run(["validate", "--map", F1])
    assert out_pos == out_flag


def test_seed_flag_accepted_and_inert():
    _, out0, _ = run(["lift", F4, "--point0", "P0", "--prec", "8"])
    _, out7, _ = run(["lift", F4, "--point0", "P0", "--prec", "8",
                      "--seed", "7"])
    assert out0 == out7


def test_unknown_point_is_exit_2():
    code, out, err = run(["orbit", F1, "--point", "nosuch", "--horizon", "2"])
    assert code == 2 and out == ""
    assert "unknown point 'nosuch'" in err and "P0, P1, P" in err


def test_unknown_variety_is_exit_2():
    code, _, err = run(["returns", F1, "--point", "P", "--variety", "nope"])
    assert code == 2 and "unknown variety" in err


def test_validate_reports_diagnostics_on_stdout(tmp_path):
    doc = render_instance(parse_instance(F1))
    doc["map"]["G"][1] = [{"exponents": [1, 0], "coeff": "1 + t + O(t^65)"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["validate", str(bad)])
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert lines[0] == "invalid"
    assert "unit coefficient" in lines[1]
    # any other command routes the same diagnostics to stderr
    code, out, err = run(["orbit", str(bad), "--point", "P", "--horizon", "1"])
    assert code == 2 and out == "" and "unit coefficient" in err


def test_non_unit_determinant_states_only_known_digits(tmp_path):
    # completing both O(t^2) entries as t^2 gives det t^2 + t^4, as 0 gives
    # t^2: only the digits below t^2 are determined
    doc = {"label": "det2", "field": {"p": 2, "m": 1, "modulus": [0, 1]},
           "map": {"p": 2, "e": 1, "A": [["t + O(t^8)", "O(t^2)"], ["O(t^2)", "t + O(t^8)"]],
                   "G": [[], []]}}
    bad = tmp_path / "det2.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["validate", str(bad)])
    assert code == 2 and err == ""
    assert out == "invalid\nNonUnitDeterminant: det(A) = O(t^2) has valuation >= 2\n"


def test_orbit_refuses_a_map_known_below_the_point(tmp_path):
    # A = I known to t^4 cannot give an image known to t^16, although its
    # entries are exactly 0 and 1; with A[0][0] = 1 + t the same holds
    P = ["1 + O(t^16)", "t + t^3 + t^9 + O(t^16)"]
    for a00 in ("1 + O(t^4)", "1 + t + O(t^4)"):
        doc = {"label": "short", "field": {"p": 2, "m": 1, "modulus": [0, 1]},
               "map": {"p": 2, "e": 1, "A": [[a00, "O(t^4)"], ["O(t^4)", "1 + O(t^4)"]],
                       "G": [[], []]},
               "points": {"P": {"coords": P}}}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(["orbit", str(path), "--point", "P", "--horizon", "2"])
        assert (code, out) == (2, "")
        assert err == ("error: PrecisionExhausted: map coefficient known only to "
                       "t^4 < point precision 16\n")


def test_every_diagnostic_in_one_stderr_line(tmp_path):
    doc = render_instance(parse_instance(F1))
    doc["map"]["A"] = [["1", "1"], ["1", "1"]]
    doc["map"]["G"][1] = [{"exponents": [1, 0], "coeff": "1 + O(t^65)"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["orbit", str(bad), "--point", "P", "--horizon", "1"])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ValidationFailure: ")
    assert "NonUnitDeterminant" in err and "CoefficientNotInMaximalIdeal" in err
    # validate still reports them on stdout, one line each
    code, out, err = run(["validate", str(bad)])
    assert code == 2 and err == ""
    assert [ln.split(":")[0] for ln in out.splitlines()] == [
        "invalid", "NonUnitDeterminant", "CoefficientNotInMaximalIdeal"]


def test_twist_search_bound_is_exit_3():
    code, out, err = run(["twist", TWIST, "--rmax", "1"])
    assert code == 3 and out == ""
    assert "SearchExhausted" in err


@pytest.mark.parametrize("command,fixture", [("twist", TWIST), ("normalize", F1)],
                         ids=["twist", "normalize"])
@pytest.mark.parametrize("rmax", ["0", "-5"])
def test_rmax_below_one_is_exit_2(command, fixture, rmax):
    code, out, err = run([command, fixture, "--rmax", rmax])
    assert code == 2 and out == ""
    assert err == "error: ParseError: --rmax must be >= 1\n"


def test_twist_singular_matrix_is_exit_2(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({
        "label": "singular", "q": 2,
        "field": {"p": 2, "m": 1, "modulus": [0, 1]},
        "A": [["1", "1"], ["1", "1"]]}))
    code, out, err = run(["twist", str(path)])
    assert code == 2 and out == ""
    assert err == "error: NotInvertible: A is singular\n"


def test_twist_over_f2048_is_exit_0(tmp_path):
    path = tmp_path / "f2048.json"
    path.write_text(json.dumps({
        "label": "f2048", "q": 2,
        "field": {"p": 2, "m": 11, "modulus": [1, 0, 1] + [0] * 8 + [1]},
        "A": [["a", "0"], ["0", "1"]]}))
    code, out, err = run(["twist", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["r = 11", "basis[0] = [a, 0]", "basis[1] = [0, 1]",
                                "B[0] = [a, 0]", "B[1] = [0, 1]",
                                "residue[0] = [0, 0]", "residue[1] = [0, 0]"]


def test_missing_horizon_is_exit_2():
    code, _, err = run(["orbit", F3, "--point", "1,0,1", "--prec", "4"])
    assert code == 2 and "--horizon" in err


def test_structured_command_rejects_general_map():
    code, _, err = run(["lift", F3, "--point0", "1,0,1"])
    assert code == 2 and "structured map" in err


def test_repeat_runs_are_byte_identical():
    argv = ["returns", F4, "--point", "Ptilde", "--variety", "orbitpt",
            "--horizon", "10", "--format", "json"]
    runs = [run(argv) for _ in range(3)]
    assert all(r == runs[0] for r in runs)


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_term_bound_is_exit_2(monkeypatch, value):
    monkeypatch.setenv("FROBDML_TERM_BOUND", value)
    code, out, err = run(["compose", F3, "--times", "2"])
    assert code == 2 and out == ""
    assert err == (f"error: ParseError: FROBDML_TERM_BOUND={value!r} "
                   "is not a positive integer\n")


def test_term_bound_is_exit_3(monkeypatch):
    monkeypatch.setenv("FROBDML_TERM_BOUND", "1")
    code, out, err = run(["compose", F3, "--times", "2"])
    assert code == 3 and out == ""
    assert err == "error: DegreeOverflow: product exceeds the symbolic size bound of 1 terms\n"


def test_deep_compose_is_exit_0():
    """f^11 has coordinate powers of exponent 1024, which must not cost one
    product (or one stack frame) per unit of exponent."""
    code, out, err = run(["compose", F3, "--times", "11"])
    assert code == 0 and err == ""
    assert out.splitlines()[2] == \
        "f^11[2] = (t + t^2 + t^4 + O(t^8))*x0^1024*x1^1024 + x2^2048"


@pytest.mark.parametrize("flags,message", [
    (["--horizon", "-1"], "horizon must be >= 0"),
    (["--max-period", "0"], "M_max must be >= 1"),
    (["--max-period", "-3"], "M_max must be >= 1")], ids=["horizon-1", "period0", "period-3"])
def test_returns_bounds_are_exit_2(flags, message):
    code, out, err = run(["returns", F4, "--point", "Ptilde", "--variety", "orbitpt",
                          "--horizon", "10"] + flags)
    assert code == 2 and out == ""
    assert err == f"error: DegreeMismatch: {message}\n"


@pytest.mark.parametrize("e", [21, 10 ** 6, 10 ** 100], ids=["21", "1e6", "1e100"])
def test_huge_map_e_is_exit_3(tmp_path, e):
    with open(F1, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["map"]["e"] = e
    path = tmp_path / "huge_e.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(path)])
    assert code == 3 and out == ""
    assert err == (f"error: DegreeOverflow: map: G degree p^(e-1) = 2^{e - 1} "
                   f"exceeds the term bound 1000000\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("p,code", [(2 ** 64 - 59, 0), (PRIME_BOUND, 3), (10 ** 4000 + 1, 3)],
                         ids=["2^64-59", "bound", "4001-digits"])
def test_large_p_validates_fast_or_exits_3(tmp_path, p, code):
    with open(F1, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["field"]["p"] = doc["map"]["p"] = p
    path = tmp_path / "large_p.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    got, out, err = run(["validate", str(path)])
    assert got == code and time.perf_counter() - t0 < 0.1
    if code:
        assert out == "" and err == (f"error: DegreeOverflow: p is not below {PRIME_BOUND}, "
                                     "the bound of the primality test\n")
    else:
        assert err == "" and out.startswith("valid: f1\n")


def test_reducible_modulus_at_large_p_is_exit_2(tmp_path):
    # (a^2 - 3)(a^2 - 5): naming the least-index factor splits the gcd of
    # both quadratics instead of dividing by p^2 candidates
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({
        "label": "reducible", "q": 2 ** 31 - 1,
        "field": {"p": 2 ** 31 - 1, "m": 4, "modulus": [15, 0, 2 ** 31 - 9, 0, 1]},
        "A": [["1", "0"], ["0", "1"]]}))
    t0 = time.perf_counter()
    code, out, err = run(["twist", str(path)])
    assert code == 2 and time.perf_counter() - t0 < 1.0 and out == ""
    assert err == ("error: ReducibleModulus: modulus 15+2147483639*a^2+a^4 "
                   "is divisible by 2147483642+a^2\n")


def test_p257_lift_exits_0(tmp_path):
    path = tmp_path / "p257.json"
    path.write_text(json.dumps({
        "label": "p257", "field": {"p": 257, "m": 1, "modulus": [0, 1]},
        "map": {"p": 257, "e": 1, "A": [["1", "0"], ["0", "1"]],
                "G": [[], [{"exponents": [1, 0], "coeff": "256*t"}]]},
        "points": {"P0": {"residue": ["1", "5"]}},
        "parameters": {"prec": 64}}))
    code, out, err = run(["lift", str(path), "--point0", "P0", "--prec", "16"])
    assert code == 0 and err == ""
    # x1^257 is constant below t^257, so x1 = 5 - t solves x1 = x1^257 - t
    assert out == ("P~ = [1 + O(t^16), 5 + 256*t + O(t^16)]\n"
                   "f(P~) - σ(P~) = 0 mod t^16\n"
                   "residue_degree: 1\n")


def test_internal_error_is_exit_4(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr("frobdml.lifting.sigma_fixed_lift", broken)
    code, out, err = run(["lift", F4, "--point0", "P0", "--prec", "8"])
    assert code == 4 and out == ""
    assert err == "internal error: ValueError: broken invariant\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command,fixture,key", [
    ("validate", F1, ("parameters", "prec")),
    ("twist", TWIST, ("q",))], ids=["instance", "twist"])
def test_over_long_json_integer_is_exit_2(tmp_path, command, fixture, key):
    # json.load turns a literal past CPython's 4,300-digit limit into a
    # plain ValueError; the parser's integer hook names it as a parse error
    with open(fixture, encoding="utf-8") as fh:
        doc = json.load(fh)
    *outer, last = key
    target = doc
    for k in outer:
        target = target[k]
    target[last] = 0
    path = tmp_path / "long_int.json"
    path.write_text(json.dumps(doc).replace('": 0', '": ' + "9" * 5000, 1))
    code, out, err = run([command, str(path)])
    assert code == 2 and out == ""
    assert err == (f"error: ParseError: {path}: integer literal of 5000 digits "
                   "exceeds the 4300-digit limit\n")
