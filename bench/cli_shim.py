"""Runs one frobdml command with the benchmark's tracer installed.

    BENCH_SPAWN_T=<parent perf_counter> python3 bench/cli_shim.py <frobdml args...>

stdout and the exit code are the command's own.  At exit one line
"BENCH_TRACE <json>" goes to stderr: the span summary of the process, plus
interpreter start time (spawn to the first line of this file, on the
system-wide monotonic clock that perf_counter reads on Linux) and the time
of ``import frobdml.cli``.  PYTHONPATH must name src/.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

t0 = time.perf_counter()
import frobdml.cli  # noqa: E402
t1 = time.perf_counter()

tracer = tracing.Tracer()
tracer.install()
tracer.op = 1
try:
    code = frobdml.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    summary = tracing.summarize(tracer.spans, lambda op: True)
    summary["field.ops"] = tracer.counts.get("field.ops", [0, 0])
    summary["interp_s"] = T_START - float(os.environ.get("BENCH_SPAWN_T", T_START))
    summary["import_s"] = t1 - t0
    sys.stderr.write("BENCH_TRACE " + json.dumps(summary) + "\n")
sys.exit(code)
