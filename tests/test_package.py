"""The package surface: what ``import frobdml`` and each CLI command load,
the lazily resolved exports, and the value records that replaced the
dataclasses."""
import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import frobdml
from frobdml.dynamics import (CoefficientFieldTooLarge,
                              CoefficientNotInMaximalIdeal, ConditionsReport,
                              NonUnitDeterminant, NotInForm, WrongDegree)
from frobdml.instances import Instance, Parameters
from frobdml.lifting import InvarianceEntry, InvarianceReport
from frobdml.returns import APDecomposition, ReturnSet
from frobdml.series import AtPrecisionZero

ROOT = Path(__file__).resolve().parent.parent
FIX = "src/frobdml/fixtures"


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def loaded_after(code):
    res = python("-c", code + "\nimport sys; print(' '.join(sys.modules))")
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def imported_by_command(*argv):
    """Modules a ``python -m frobdml.cli`` run imports, read off -X importtime."""
    res = python("-X", "importtime", "-m", "frobdml.cli", *argv)
    assert res.returncode == 0, res.stderr
    return {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:")}


# ---------------------------------------------------------------------------
# import budget
# ---------------------------------------------------------------------------

def test_import_frobdml_loads_no_submodule():
    assert not {m for m in loaded_after("import frobdml") if m.startswith("frobdml.")}


def test_import_cli_leaves_heavy_modules_unloaded():
    loaded = loaded_after("import frobdml.cli")
    assert "frobdml.dynamics" in loaded
    heavy = {"frobdml.twist", "frobdml.lifting", "frobdml.returns", "dataclasses",
             "inspect"}
    assert not heavy & loaded


def test_twist_command_loads_neither_lifting_nor_returns():
    loaded = imported_by_command("twist", f"{FIX}/twist_swap.json")
    assert "frobdml.twist" in loaded
    assert not {"frobdml.lifting", "frobdml.returns"} & loaded


@pytest.mark.parametrize("argv", [
    ("validate", f"{FIX}/f1.json"),
    ("compose", f"{FIX}/f3.json", "--times", "2", "--recognize", "4"),
])
def test_unit_determinant_commands_load_no_twist(argv):
    # both run dynamics._unit_det, whose row reduction lives in field
    assert "frobdml.twist" not in imported_by_command(*argv)


@pytest.mark.parametrize("argv", [
    ("lift", f"{FIX}/f4.json", "--point0", "P0", "--prec", "40"),
    ("witness", f"{FIX}/f4.json", "--point0", "P0", "--index", "2", "--prec", "40"),
    ("period", f"{FIX}/f4.json", "--point0", "P0", "--prec", "40"),
])
def test_lift_commands_load_no_returns(argv):
    # lifting imports returns only inside invariance_evidence
    loaded = imported_by_command(*argv)
    assert "frobdml.lifting" in loaded and "frobdml.returns" not in loaded


def test_module_run_writes_nothing_to_stderr():
    # runpy warns on stderr when the package has already imported frobdml.cli
    res = python("-m", "frobdml.cli", "validate", f"{FIX}/f1.json")
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout.startswith("valid: f1\n")


def test_import_check_ignores_docstrings_and_honours_noqa(tmp_path):
    # a name a docstring mentions is not used; one in any other string is,
    # and an import marked noqa is kept for its side effect
    doc, kept = tmp_path / "doc.py", tmp_path / "kept.py"
    doc.write_text('"""The masks and digit struct."""\nimport struct\n\n\n'
                   'class C:\n    """A struct."""\n')
    kept.write_text('import os  # noqa: F401\nimport struct\nNAME = "struct"\n')
    res = python("tools/check_imports.py", str(tmp_path))
    assert (res.returncode, res.stdout) == (1, f"{doc}:2: struct imported but unused\n")


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so internal checks raise explicitly
    paths = sorted((ROOT / "src" / "frobdml").glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert paths and found == []


def test_only_field_marshals_packings():
    # field is the one codec of the packed layout: no other module turns a
    # packing into bytes or back, or moves its slots through a buffer
    marshal = re.compile(r"\b(?:to_bytes|from_bytes|memoryview|bytearray)\b")
    paths = sorted((ROOT / "src" / "frobdml").glob("*.py"))
    found = [f"{path.name}:{i}" for path in paths
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if marshal.search(line)]
    assert any(at.startswith("field.py:") for at in found)
    assert [at for at in found if not at.startswith("field.py:")] == []


def test_every_module_imports_only_layers_below_it():
    # the order of __init__'s layer table is the import order: a module
    # imports, at top level or inside a function, only modules listed above
    # it, and errors and record, which import no module of the package
    pkg = ROOT / "src" / "frobdml"
    layers = [m.group(1) for m in re.finditer(r"^    ([a-z]+) ", frobdml.__doc__, re.M)]
    assert layers[:4] == ["poly", "field", "series", "geometry"] and layers[-1] == "cli"
    leaves = {"errors", "record"}
    rank = {name: i for i, name in enumerate(layers)}
    bad, seen = [], set()
    for path in sorted(pkg.glob("*.py")):
        importer = path.stem
        if importer == "__init__":
            continue
        assert importer in rank or importer in leaves, importer
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            names = [a.name for a in node.names] if node.module is None else [node.module]
            for name in names:
                seen.add((importer, name))
                if importer in leaves or name not in leaves and not rank[name] < rank[importer]:
                    bad.append(f"{path.name}:{node.lineno}: {name}")
    assert bad == []
    assert ("lifting", "dynamics") in seen and ("cli", "lifting") in seen
    assert ("dynamics", "lifting") not in seen


def private_names(path):
    """(name, line) for each top-level _name a module defines: functions,
    classes and assigned names, dunders excluded."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_name_is_used():
    # a top-level _name of the package is named somewhere in src, tests,
    # bench or tools besides its definition; one that is not is dead code
    words = Counter(word for top in ("src", "tests", "bench", "tools")
                    for path in (ROOT / top).rglob("*.py")
                    for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    paths = sorted((ROOT / "src" / "frobdml").glob("*.py"))
    found = [(path.name, line, name) for path in paths
             for name, line in private_names(path)]
    assert len(found) > 50
    assert [f"{name}:{line}: {word}" for name, line, word in found if words[word] < 2] == []


# ---------------------------------------------------------------------------
# lazy exports
# ---------------------------------------------------------------------------

def test_every_export_is_the_submodules_own_object():
    assert len(frobdml.__all__) == len(set(frobdml.__all__)) == 75
    for name in frobdml.__all__:
        owner = importlib.import_module(f"frobdml.{frobdml._MODULE_OF[name]}")
        assert getattr(frobdml, name) is getattr(owner, name)


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        frobdml.no_such_name
    assert not hasattr(frobdml, "dataclass")


def test_star_import_binds_every_export():
    ns = {}
    exec("from frobdml import *", ns)
    assert set(frobdml.__all__) <= set(ns)
    assert ns["solve_twist"] is frobdml.twist.solve_twist


def test_version_and_dir():
    assert frobdml.__version__ == "0.1.0"
    assert set(frobdml.__all__) <= set(dir(frobdml))


# ---------------------------------------------------------------------------
# value records
# ---------------------------------------------------------------------------

FROZEN = [
    (AtPrecisionZero, {"prec": 5}),
    (NonUnitDeterminant, {"detail": "det = t"}),
    (CoefficientNotInMaximalIdeal, {"coordinate": 1, "exponents": (2, 0)}),
    (WrongDegree, {"coordinate": 0, "got": 3, "want": 2}),
    (CoefficientFieldTooLarge, {"where": "A", "witness": "a"}),
    (NotInForm, {"coordinate": None, "exponents": None, "reason": "no"}),
    (ConditionsReport, {"zero_differential": True,
                        "special_fiber_is_frobenius": False,
                        "frobenius_power": None}),
    (ReturnSet, {"horizon": 4, "threshold": 2, "hits": (0, 2),
                 "valuations": ((3,), (1,), (AtPrecisionZero(8),))}),
    (APDecomposition, {"status": "exact_up_to_horizon", "horizon": 4, "n0": 0,
                       "sporadic": (), "progressions": ((0, 2),)}),
]
MUTABLE = [
    (Parameters, {"prec": 40, "H": 200, "tau": 30, "M_max": 12, "R_max": 64}),
    (Instance, {"label": "x", "field": None, "map": None, "points": {},
                "varieties": {}, "parameters": Parameters()}),
    (InvarianceEntry, {"on_variety": True, "image_on_variety": None}),
    (InvarianceReport, {"threshold": 3, "entries": [], "checked": 0,
                        "stable": 0, "empty_sample": True}),
]


def ids(cases):
    return [cls.__name__ for cls, _ in cases]


@pytest.mark.parametrize("cls,fields", FROZEN + MUTABLE, ids=ids(FROZEN + MUTABLE))
def test_record_construction_equality_and_repr(cls, fields):
    rec = cls(*fields.values())
    assert rec == cls(**fields)
    assert not isinstance(rec, tuple)
    assert [getattr(rec, k) for k in fields] == list(fields.values())
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    first = next(iter(fields))
    assert rec != cls(**dict(fields, **{first: "other"}))
    assert rec != tuple(fields.values())
    with pytest.raises(TypeError):
        cls(*fields.values(), "extra")
    with pytest.raises(TypeError):
        cls(**dict(fields, nonsense=1))


@pytest.mark.parametrize("cls,fields", FROZEN, ids=ids(FROZEN))
def test_frozen_records_hash_and_refuse_assignment(cls, fields):
    rec = cls(**fields)
    assert hash(rec) == hash(cls(**fields))
    assert len({rec, cls(**fields)}) == 1
    with pytest.raises(AttributeError):
        setattr(rec, next(iter(fields)), "other")
    with pytest.raises(AttributeError):
        rec.undeclared = 1


@pytest.mark.parametrize("cls,fields", MUTABLE, ids=ids(MUTABLE))
def test_mutable_records_assign_and_are_unhashable(cls, fields):
    rec = cls(**fields)
    first = next(iter(fields))
    setattr(rec, first, "other")
    assert getattr(rec, first) == "other" and rec != cls(**fields)
    with pytest.raises(TypeError):
        hash(rec)


def test_parameters_defaults():
    assert Parameters() == Parameters(None, None, None, 12, 64)
    assert Parameters(prec=40, H=200, tau=30) == Parameters(40, 200, 30, 12, 64)
    with pytest.raises(TypeError):
        Instance("label-only")
