"""Helpers shared by the benchmark modules: checkout paths, quantiles,
``/proc`` and ``/dev/shm`` readings, and the output digest."""

from __future__ import annotations

import hashlib
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
#: Where a run writes its trace; listed in the root ``.gitignore``.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: The tail percentile reported for job latency and queue waits.  It is
#: the highest percentile with at least ten samples beyond it once a
#: run holds 100 samples, which the service workload guarantees.
TAIL_PCT = 90


def src_env() -> dict:
    """Environment for a child interpreter that imports the checkout's
    ``src/repro`` and nothing else of the same name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: int) -> float:
    """``pct``-th percentile by linear interpolation between order
    statistics (``statistics.quantiles`` inclusive method); a single
    sample is its own percentile."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[pct - 1])


# ---------------------------------------------------------------------------
# /proc and /dev/shm
# ---------------------------------------------------------------------------

def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process in MB; 0.0
    when the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # the command name sits in parentheses and may contain spaces
    return text[text.rindex(")") + 2:].split()


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (scan of ``/proc/*/stat``)."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None and int(fields[1]) == pid:
            out.append(int(name))
    return out


def pid_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def shm_entries() -> set[str]:
    """Names currently in ``/dev/shm`` (empty where it does not exist)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------

def strip_seconds(row: dict) -> dict:
    """A result row without its wall-clock field."""
    return {k: v for k, v in row.items() if k != "seconds"}


def digest(obj) -> str:
    """SHA-256 over the canonical (sorted-keys) JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
