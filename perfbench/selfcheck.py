"""Self-check of the benchmark.

* A tiny-size pass of every workload, untraced and traced, must exit 0,
  pass its output check and emit exactly the metrics ``BENCHMARK.json``
  names for that mode, each with its unit.
* The same untraced pass with one simulated stat perturbed must fail
  the output check: ``correct`` false, ``failed`` >= 1, nonzero exit.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark must exit nonzero without printing a result.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench.common import HERE, OUT_DIR, ROOT  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, *, perturb: bool = False,
          root: str = ROOT) -> tuple[int, dict | None, str]:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_normal(workload: str, trace: int, specs: list[dict]) -> list[str]:
    rc, result, log = bench(workload, trace)
    if rc != 0 or result is None:
        return [f"exit {rc}, result {result!r}:\n{log[-3000:]}"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"output check failed: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')!r}")
    units = {m["name"]: m["unit"] for m in specs}
    got = result.get("metrics") or {}
    if set(got) != set(units):
        errors.append(f"metrics missing {sorted(set(units) - set(got))}, "
                      f"extra {sorted(set(got) - set(units))}")
    for name, entry in got.items():
        if entry.get("unit") != units.get(name) or \
                not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{name}: {entry}")
    return errors


def check_perturbed(workload: str) -> list[str]:
    rc, result, log = bench(workload, 0, perturb=True)
    if rc == 0 or result is None or result.get("correct") is not False \
            or result.get("failed", 0) < 1:
        return [f"perturbed stat not caught: exit {rc}, result {result!r}"]
    return []


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: no program, so no result."""
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, result, log = bench("stream", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result is not None:
        return [f"bare directory: exit {rc}, result {result!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    checks = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            checks.append((f"{workload} trace={trace}", check_normal,
                           (workload, trace, spec[key])))
        checks.append((f"{workload} perturbed", check_perturbed, (workload,)))
    checks.append(("bare directory", check_bare_directory, ()))
    failures = 0
    for label, fn, fn_args in checks:
        errors = fn(*fn_args)
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {label}", flush=True)
        for e in errors:
            print(f"     {e}")
    print(f"{len(checks) - failures} of {len(checks)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
