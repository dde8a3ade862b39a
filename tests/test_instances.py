import json
import os

import pytest

from frobdml.dynamics import DmlMap, GeneralMap
from frobdml.errors import ParseError, ValidationFailure
from frobdml.geometry import ProjPoint
from frobdml.instances import (Parameters, fixture_path,
                               format_instance, parse_instance,
                               parse_instance_dict, parse_twist_file,
                               render_instance)
from frobdml.series import format_series


def load(name):
    return parse_instance(fixture_path(name))


def test_fixture_paths_exist():
    for name in ("f1.json", "f3.json", "f4.json", "twist_swap.json"):
        assert os.path.isfile(fixture_path(name))


def test_f1_fixture_contents():
    inst = load("f1.json")
    assert inst.label == "f1"
    assert inst.field.p == 2 and inst.field.m == 1
    assert isinstance(inst.map, DmlMap)
    assert inst.map.q == 2 and inst.map.N == 1
    assert inst.parameters.prec == 65 and inst.parameters.H == 10
    assert inst.parameters.tau == 8
    assert set(inst.points) == {"P0", "P1", "P"}
    assert set(inst.varieties) == {"axis"}
    # residue points stay as element tuples, coords become ProjPoint
    assert isinstance(inst.points["P0"], tuple)
    assert isinstance(inst.points["P"], ProjPoint)
    assert inst.points["P"].coords[0].prec == 8


def test_f3_fixture_is_general_map():
    inst = load("f3.json")
    assert isinstance(inst.map, GeneralMap)
    assert inst.map.N == 2 and inst.map.label == "f3"
    assert all(h.degree == 2 for h in inst.map.coords)
    assert inst.parameters.prec == 8 and inst.parameters.H is None


def test_f4_fixture_contents():
    inst = load("f4.json")
    assert inst.field.m == 2
    assert isinstance(inst.map, DmlMap) and inst.map.q == 2
    assert inst.parameters == Parameters(prec=40, H=200, tau=30,
                                         M_max=12, R_max=64)
    Pt = inst.points["Ptilde"]
    assert isinstance(Pt, ProjPoint) and Pt.coords[1].prec == 40


def test_twist_file_parses():
    field, A, q = parse_twist_file(fixture_path("twist_swap.json"))
    assert q == 2 and field.p == 2 and field.m == 1
    assert len(A) == 2 and len(A[0]) == 2
    assert A[0][0].is_zero() and not A[0][1].is_zero()


@pytest.mark.parametrize("name", ["f1.json", "f3.json", "f4.json"])
def test_render_parse_round_trip_is_fixpoint(name):
    inst = load(name)
    doc1 = render_instance(inst)
    doc2 = render_instance(parse_instance_dict(doc1))
    assert doc1 == doc2
    # and the serialized form agrees too
    assert format_instance(parse_instance_dict(doc2)) == format_instance(inst)


def test_rendered_series_carry_precision_markers():
    doc = render_instance(load("f4.json"))
    for row in doc["map"]["A"]:
        for s in row:
            assert s.endswith("O(t^40)")


def test_field_block_inside_map_is_accepted():
    doc = render_instance(load("f1.json"))
    doc["map"]["field"] = doc.pop("field")
    inst = parse_instance_dict(doc)
    assert inst.field.p == 2 and isinstance(inst.map, DmlMap)


def test_missing_field_block_rejected():
    doc = render_instance(load("f1.json"))
    del doc["field"]
    with pytest.raises(ParseError, match="field"):
        parse_instance_dict(doc)


def test_missing_prec_with_unmarked_series_rejected():
    doc = render_instance(load("f1.json"))
    del doc["parameters"]["prec"]
    doc["map"]["A"][0][0] = "1"  # no O(t^n) marker and no fallback
    with pytest.raises(ParseError, match="precision"):
        parse_instance_dict(doc)


def test_unit_g_coefficient_fails_validation():
    doc = render_instance(load("f1.json"))
    doc["map"]["G"][1] = [{"exponents": [1, 0], "coeff": "1 + t + O(t^65)"}]
    with pytest.raises(ValidationFailure) as exc:
        parse_instance_dict(doc)
    assert any("unit coefficient" in str(d) for d in exc.value.diagnostics)


def test_wrong_exponent_count_rejected():
    doc = render_instance(load("f1.json"))
    doc["map"]["G"][1] = [{"exponents": [1, 0, 0], "coeff": "t + O(t^65)"}]
    with pytest.raises(ParseError, match="exponents"):
        parse_instance_dict(doc)


def test_non_square_a_rejected():
    doc = render_instance(load("f1.json"))
    doc["map"]["A"] = [["1 + O(t^8)", "O(t^8)"]]
    with pytest.raises(ParseError, match="square"):
        parse_instance_dict(doc)


def test_declared_n_mismatch_rejected():
    doc = render_instance(load("f1.json"))
    doc["map"]["N"] = 2
    with pytest.raises(ParseError, match="N = 2"):
        parse_instance_dict(doc)


def test_point_with_wrong_length_rejected():
    doc = render_instance(load("f1.json"))
    doc["points"]["P0"] = {"residue": ["1", "0", "1"]}
    with pytest.raises(ParseError, match="P0"):
        parse_instance_dict(doc)


def test_empty_polynomial_needs_degree():
    doc = render_instance(load("f3.json"))
    doc["map"]["coordinates"][0] = {"terms": []}
    with pytest.raises(ParseError, match="degree"):
        parse_instance_dict(doc)


def test_duplicate_term_exponents_accumulate():
    doc = render_instance(load("f3.json"))
    terms = doc["map"]["coordinates"][2]["terms"]
    # t*x0*x1 split as (t + t^2) + t^2 over F_2: the t^2 parts cancel
    terms[:] = [{"exponents": [1, 1, 0], "coeff": "t + t^2 + O(t^8)"},
                {"exponents": [1, 1, 0], "coeff": "t^2 + O(t^8)"},
                {"exponents": [0, 0, 2], "coeff": "1 + O(t^8)"}]
    inst = parse_instance_dict(doc)
    h = inst.map.coords[2]
    assert format_series(h.terms[(1, 1, 0)]) == "t + O(t^8)"


def test_bad_parameter_values_rejected():
    doc = render_instance(load("f1.json"))
    doc["parameters"]["prec"] = 0
    with pytest.raises(ParseError, match="prec"):
        parse_instance_dict(doc)
    doc["parameters"]["prec"] = "65"
    with pytest.raises(ParseError, match="prec"):
        parse_instance_dict(doc)


def test_invalid_json_file_raises_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_instance(str(bad))
    with pytest.raises(ParseError, match="cannot read"):
        parse_instance(str(tmp_path / "missing.json"))


def test_format_instance_is_stable_json():
    inst = load("f1.json")
    text = format_instance(inst)
    assert text.endswith("\n")
    assert json.loads(text)["label"] == "f1"
    assert format_instance(inst) == text


def _f1_doc():
    with open(fixture_path("f1.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _misspelled_terms(doc):
    gen = doc["varieties"]["axis"]["generators"][0]
    gen["trems"] = gen.pop("terms")


def _g_as_term_object(doc):
    doc["map"]["G"][1] = {"term": doc["map"]["G"][1]}


def _residue_and_coords(doc):
    doc["points"]["P0"]["coords"] = ["1 + O(t^8)", "O(t^8)"]


def _field_twice(doc):
    doc["map"]["field"] = dict(doc["field"])


def _list_label(doc):
    doc["label"] = [1, 2]


def _map_object_label(doc):
    doc["map"]["label"] = {"a": 1}


def _null_degree(doc):
    doc["varieties"]["axis"]["generators"][0]["degree"] = None


@pytest.mark.parametrize("edit,message", [
    (_misspelled_terms, "variety 'axis' generator 0: unknown key 'trems' in a polynomial"),
    (_g_as_term_object, "map G[1]: unknown key 'term' in a polynomial"),
    (_residue_and_coords, "point 'P0': point needs exactly one of 'residue' and 'coords'"),
    (_field_twice, "instance: give 'field' once, at top level or in 'map'"),
    (_list_label, "instance: 'label' must be a JSON string"),
    (_map_object_label, "instance: map: 'label' must be a JSON string"),
    (_null_degree, "variety 'axis' generator 0: 'degree' must be a JSON integer")],
    ids=["trems", "term", "residue-and-coords", "field-twice", "list-label",
         "map-label", "null-degree"])
def test_schema_refuses_what_was_read_as_absent(edit, message):
    # each of these once parsed, as another document than the one written
    doc = _f1_doc()
    edit(doc)
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert str(exc.value) == message


def test_duplicate_keys_are_refused(tmp_path):
    # json.load keeps the last of two equal keys; a second "map" was parsed
    # and the first one ignored
    with open(fixture_path("f1.json"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"map": {', '"map": {"p": 2, "e": 1, "A": [], "G": []},\n'
                                 '  "map": {', 1), encoding="utf-8")
    with pytest.raises(ParseError, match="duplicate key 'map'"):
        parse_instance(str(path))
    path.write_text('{"q": 2, "q": 3, "field": {"p": 2, "m": 1, "modulus": [0, 1]},'
                    ' "A": [["0", "1"], ["1", "0"]]}', encoding="utf-8")
    with pytest.raises(ParseError, match="duplicate key 'q'"):
        parse_twist_file(str(path))


def test_readme_instance_example_parses():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Instance files"):]
    example = section[section.index("```json") + len("```json"):section.index("```\n\n")]
    inst = parse_instance_dict(json.loads(example))
    assert inst.label == "f1" and isinstance(inst.map, DmlMap)
    assert set(inst.points) == {"P0", "P"} and set(inst.varieties) == {"axis"}
