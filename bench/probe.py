"""Set-up probe: a fresh interpreter does one workload's set-up, then says so.

    python3 bench/probe.py cli            import frobdml.cli
    python3 bench/probe.py files <dir>    import frobdml, parse every input file in <dir>

It writes "ready" on stdout when the first op could run; the parent times
the interval from spawning it to that line.  PYTHONPATH must name src/.
"""
import sys
from pathlib import Path

if sys.argv[1] == "cli":
    import frobdml.cli  # noqa: F401
else:
    from frobdml.instances import parse_instance, parse_twist_file
    for path in sorted(Path(sys.argv[2]).glob("*.json")):
        if path.name.startswith("twist-"):
            parse_twist_file(str(path))
        else:
            parse_instance(str(path))
sys.stdout.write("ready\n")
sys.stdout.flush()
