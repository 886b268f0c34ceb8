"""Traced cold start of ``repro run``: time from interpreter launch to
the first ``WorkerPool.map`` (imports and spec validation) and the
duration of that map (spawning the workers and running two tiny cells).

Usage: ``python3 perfbench/setup_probe.py LAUNCHED SPEC`` with the
checkout's ``src`` on ``PYTHONPATH``; ``LAUNCHED`` is the parent's
``time.time()`` just before the launch.  Prints one
``PERFBENCH_SETUP {json}`` line after the run's own output.
"""

import json
import sys
import time


def main() -> int:
    launched, spec = float(sys.argv[1]), sys.argv[2]
    from repro.simulator.pool import WorkerPool

    marks = {}
    original = WorkerPool.map

    def timed_map(self, func, tasks):
        marks.setdefault("enter", time.time())
        try:
            return original(self, func, tasks)
        finally:
            marks.setdefault("exit", time.time())

    WorkerPool.map = timed_map
    from repro.cli import main as cli_main

    rc = cli_main(["run", spec, "--workers", "2"])
    print("PERFBENCH_SETUP " + json.dumps({
        "rc": rc,
        "import_s": marks["enter"] - launched,
        "pool_spawn_s": marks["exit"] - marks["enter"],
    }))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
