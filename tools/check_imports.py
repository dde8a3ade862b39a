"""Fail on imported names that their own file never uses.

    python3 tools/check_imports.py [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files; the
default is ``src``, ``tests``, ``bench`` and ``tools``.  A name bound by an
``import`` or ``from ... import`` counts as used when the same file reads
it as a ``Name`` (the base of an attribute is one), has an argument of that
name, or mentions it inside a string (``__all__``, annotations written as
strings, lazy-import tables) other than a docstring, the leading string of
a module, class or function, whose words are prose.  An import whose lines
carry ``# noqa: F401`` is kept for its side effect.  ``__init__.py`` files
are skipped, since their imports are the package's exports; so is
``from __future__``.  Prints
one ``path:line: name`` per unused import and exits 1 when there is any.
Uses only the standard library.
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "bench", "tools")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


NOQA = "# noqa: F401"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def imported(tree: ast.AST, lines: List[str]) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every name an import statement binds, except
    those of a statement marked NOQA."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                NOQA in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def docstrings(tree: ast.AST) -> set:
    """The ids of the docstring nodes: the leading string of every scope."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def used(tree: ast.AST) -> set:
    """Every name the file reads, names its arguments, or writes in a string
    that is not a docstring."""
    names, skip = set(), docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            names.update(WORD.findall(node.value))
    return names


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    seen = used(tree)
    return sorted((line, name) for name, line in imported(tree, text.splitlines())
                  if name not in seen)


def python_files(paths) -> Iterator[Path]:
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        yield from (f for f in files if f.name != "__init__.py")


def main(argv: List[str]) -> int:
    paths = argv or [ROOT / d for d in DEFAULT_PATHS if (ROOT / d).exists()]
    bad = 0
    for f in python_files(paths):
        for line, name in unused_imports(f):
            print(f"{f}:{line}: {name} imported but unused")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
