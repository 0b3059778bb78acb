"""`ocnsim` command line under the span tracer, for traced cli-check runs.

Usage: python3 bench/cli_child.py check --json A.ocn B.ocn p:0 q:0
with BENCH_TRACE_OUT naming the file that receives the tracer state and
BENCH_INSTANCE the instance id the spans carry.  The exit code and output
are the CLI's own.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()

from ocnsim import cli  # noqa: E402  (imported after install: it binds decide_weak by name)

tracer.wrap(cli, "main", "cli.main")
tracer.begin_instance(int(os.environ["BENCH_INSTANCE"]))
try:
    cli.main()
finally:
    tracer.end_instance()
    with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(tracer.state(), fh)
