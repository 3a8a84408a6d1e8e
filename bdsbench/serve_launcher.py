"""Start ``repro serve`` with the benchmark's hooks installed.

Usage::

    python3 bdsbench/serve_launcher.py --flow-cpu-log FILE \\
        [--inject POINT:SECONDS ...] -- serve --socket PATH ...

Before handing the arguments after ``--`` to the program's own CLI entry
point, the launcher wraps ``repro.bds.flow.bds_optimize`` so that every
call appends its CPU seconds to ``FILE``.  The scheduler's job workers
are forked from this process and resolve ``bds_optimize`` at call time,
so the record is taken inside the worker that runs the flow.
``--inject`` adds the self-test's fixed costs (see
``benchlib.INJECTION_POINTS``), e.g. ``cache_lookup:0.005``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List


def _record_cpu(log_path: str) -> Callable[[Callable], Callable]:
    from benchlib import cpu_now

    def make(fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            c0 = cpu_now()
            try:
                return fn(*args, **kwargs)
            finally:
                line = "%r\n" % (cpu_now() - c0)
                fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                             0o644)
                try:
                    os.write(fd, line.encode("ascii"))
                finally:
                    os.close(fd)

        return timed

    return make


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print("usage: serve_launcher.py --flow-cpu-log FILE [--inject P:S] "
              "-- serve ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--flow-cpu-log", required=True)
    parser.add_argument("--inject", action="append", default=[])
    args = parser.parse_args(argv[:split])

    from benchlib import inject, parse_injections, patch, require_program

    require_program()
    patch("repro.bds.flow", "bds_optimize", _record_cpu(args.flow_cpu_log))
    for point, cost in parse_injections(args.inject):
        inject(point, cost)
    from repro.cli import main as repro_main

    return repro_main(argv[split + 1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
