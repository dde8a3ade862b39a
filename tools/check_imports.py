"""Fail on imported names that their own file never uses.

    python3 tools/check_imports.py [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files; the
default is ``src``, ``tests``, ``bench`` and ``tools``.  A name bound by an
``import`` or ``from ... import`` counts as used when the same file reads
it as a ``Name`` (the base of an attribute is one), has an argument of that
name, or mentions it inside a string (``__all__``, annotations written as
strings, lazy-import tables).  ``__init__.py`` files are skipped, since
their imports are the package's exports; so is ``from __future__``.  Prints
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


def imported(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def used(tree: ast.AST) -> set:
    """Every name the file reads, names its arguments, or writes in a string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(WORD.findall(node.value))
    return names


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    seen = used(tree)
    return sorted((line, name) for name, line in imported(tree) if name not in seen)


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
