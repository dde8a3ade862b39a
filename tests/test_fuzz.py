"""Mutated-fixture fuzz of the CLI's exit-code contract.

Every input ends with exit 0, 1, 2 or 3 and at most one line on stderr,
never a traceback (exit 4 is a fault of the program).  The mutations are
seeded and cycle through their kinds, so every fixture meets each kind.
A second test puts digits that int() cannot read into every string of
every fixture, one string at a time.

The replacement values are small or malformed on purpose: a large bound
such as R_max lets a search run for minutes, which a unit test cannot wait
for.  Large p, reducible moduli included, has its own tests in test_field
and test_cli.
"""
import contextlib
import io
import json
import random
import re

import pytest

from frobdml.cli import main
from frobdml.instances import fixture_path

# stands for an integer literal of 5,000 digits, which json.dumps cannot write
LONG = "__long_int__"
VALUES = (-1, 0, 1, 2, 3, 4, 64, 1.5, True, None, "x", "", [], {}, [1], LONG)
CASES_PER_FILE = 100


def _nodes(doc, path=()):
    """Paths of every value below the root, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield path + (k,)
        if isinstance(v, (dict, list)) and v:
            yield from _nodes(v, path + (k,))


def _parent(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


def _mutate(rng, doc, kind):
    """(text of the mutated file, what was done)."""
    nodes = list(_nodes(doc))
    if kind == "truncate":
        text = json.dumps(doc)
        cut = rng.randrange(1, len(text))
        return text[:cut], f"cut at {cut}"
    if kind == "huge_e":
        e = rng.choice((10 ** 6, 10 ** 100))
        if "map" in doc and "e" in doc["map"]:
            doc["map"]["e"] = e
        else:
            doc["q"] = e
        return json.dumps(doc), f"e = {e}"
    if kind == "long_int":
        ints = [p for p in nodes if type(_parent(doc, p)[p[-1]]) is int]
        path = rng.choice(ints)
        value = LONG
    elif kind == "delete":
        path = rng.choice(nodes)
        value = None
        del _parent(doc, path)[path[-1]]
    else:
        path = rng.choice(nodes)
        value = rng.choice(VALUES)
    if kind != "delete":
        _parent(doc, path)[path[-1]] = value
    return (json.dumps(doc).replace(json.dumps(LONG), "9" * 5000),
            f"{kind} at {list(path)}: {value!r}")


KINDS = ("long_int", "huge_e", "replace", "delete", "truncate", "replace")
# Every other case of an instance file runs orbit from a literal point
# instead of validate, so that its failures reach main's one-line report
# rather than validate's diagnostics on stdout.
FILES = [("f1.json", "validate", "1,t"), ("f3.json", "validate", "1,t,t"),
         ("f4.json", "validate", "1,t"), ("twist_swap.json", "twist", None)]


@pytest.mark.parametrize("name,command,point", FILES, ids=[n for n, _, _ in FILES])
def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path, name, command, point):
    with open(fixture_path(name), encoding="utf-8") as fh:
        original = fh.read()
    rng = random.Random(f"fuzz-{name}")
    path = tmp_path / name
    for case in range(CASES_PER_FILE):
        text, what = _mutate(rng, json.loads(original), KINDS[case % len(KINDS)])
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)] if point is None or case % 2 == 0 else
                        ["orbit", str(path), "--point", point, "--horizon", "2"])
        err = err.getvalue()
        assert code in (0, 1, 2, 3), (what, code, err)
        # a failure says why in one line: on stderr, or validate's
        # diagnostics on stdout
        assert len(err.splitlines()) == (code != 0) \
            or (not err and out.getvalue().startswith("invalid")), (what, code, err)
        assert "Traceback" not in err, (what, err)


def _string_leaves(doc, path=()):
    """Paths of every string value below the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(v, str):
            yield path + (k,)
        elif isinstance(v, (dict, list)):
            yield from _string_leaves(v, path + (k,))


def _literal_variants(text):
    """text with its first digit string, or else a new exponent, made a
    superscript digit and a 5,000-digit literal: int() reads neither."""
    out = []
    for digits in ("²", "9" * 5000):
        out.append(re.sub(r"\d+", digits, text, count=1) if re.search(r"\d", text)
                   else text + "^" + digits)
    return out


@pytest.mark.parametrize("name,command", [f[:2] for f in FILES], ids=[n for n, _, _ in FILES])
def test_text_literals_keep_the_exit_code_contract(tmp_path, name, command):
    with open(fixture_path(name), encoding="utf-8") as fh:
        original = fh.read()
    path = tmp_path / name
    runs = 0
    for leaf in _string_leaves(json.loads(original)):
        for variant in _literal_variants(_parent(json.loads(original), leaf)[leaf[-1]]):
            doc = json.loads(original)
            _parent(doc, leaf)[leaf[-1]] = variant
            path.write_text(json.dumps(doc), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            err = err.getvalue()
            what = (list(leaf), variant[:40])
            assert code in (0, 1, 2, 3), (what, code, err)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err, (what, err)
            runs += 1
    assert runs >= 8
