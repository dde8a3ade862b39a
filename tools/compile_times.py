"""The compile() time of every module of the package, best of N.

    python3 tools/compile_times.py [--repeat N]

Every ``src/frobdml/*.py`` source is read once, then compiled N times, in
rounds over all the files, so drift in machine speed falls on every file
alike.  Prints one ``module ms`` line per file, its best round in
milliseconds, and the total of those bests.  compile() writes nothing, so
no bytecode is left behind.  This is what a command pays for each module it
imports when no bytecode is cached (PYTHONDONTWRITEBYTECODE=1, as the
benchmark's cli children run).  Uses only the standard library.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = ROOT / "src" / "frobdml"


def compile_times(files: Sequence[Path], repeat: int) -> Dict[Path, float]:
    """Best-of-repeat compile() seconds per file."""
    texts = {f: f.read_text(encoding="utf-8") for f in files}
    best = dict.fromkeys(files, float("inf"))
    for _ in range(repeat):
        for f, text in texts.items():
            t0 = perf_counter()
            compile(text, str(f), "exec", dont_inherit=True)
            best[f] = min(best[f], perf_counter() - t0)
    return best


def main(argv: Sequence[str] = ()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=15, help="rounds; the best is kept")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    best = compile_times(sorted(DEFAULT_PATH.glob("*.py")), args.repeat)
    width = max((len(f.name) for f in best), default=0) + 2
    for f, s in best.items():
        print(f"{f.name:<{width}}{s * 1e3:8.2f} ms")
    print(f"{'total':<{width}}{sum(best.values()) * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
