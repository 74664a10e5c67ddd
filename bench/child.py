"""One measured pass: run a workload's CLI commands in this fresh process.

Usage: python3 bench/child.py SPEC.json

SPEC names the package source directory, the argv list of each command,
whether to trace, and where to write the report. Commands run one after
another through ``latentsafe.cli.main``, as a user would run them, each
starting when the previous one has returned. Import time is not part of
``run_s``; it is measured on its own as ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import latentsafe.cli as cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    commands = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for run_id, argv in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.run_id = run_id
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the pass
            traceback.print_exc()
            code = None
        commands.append({"command": argv[0], "exit": code, "s": time.perf_counter() - start})
    run_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    report = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
