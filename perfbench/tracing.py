"""Spans recorded from outside the program, around calls into each
layer's public functions.

:func:`install` swaps span wrappers onto the public entry points listed
in :func:`_targets`; :func:`uninstall` puts the originals back.  Pool
workers forked while the wrappers are installed inherit them, and
:class:`TracedTask` — handed to the pool by :class:`TracedDriver`
through ``run_grid(driver=...)`` — returns each task's spans with its
result.  Spans stay in memory as ``[name, start, end, parent, attrs]``
lists and are written out once, by :func:`write_chrome_trace`, when
the run ends.

A span's self time is its duration minus the part its child spans
cover.  :func:`attribute` splits a pass's wall clock over the layers:
at each instant every busy lane (the benchmark process or a worker)
gets an equal share, a lane's share goes to its innermost span, the
benchmark's wait inside ``pool.map`` counts only while no worker is busy,
and time no span covers is ``unattributed``.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from weakref import WeakKeyDictionary

#: This process's recorder while the wrappers are installed.  Patched
#: methods are process-wide, so the recorder they write to is as well.
_ACTIVE = None

#: Span name -> the layer its self time is charged to.
LAYER = {
    "experiments.expand": "experiments",
    "experiments.run": "experiments",
    "experiments.traffic": "experiments",
    "experiments.realize_replica": "experiments",
    "faults.realize": "faults",
    "faults.controller_build": "faults",
    "faults.drive": "faults",
    "routing.compile": "routing.compile",
    "routing.compile_hit": "routing.compile",
    "routing.lift": "routing.lift",
    "routing.extract": "routing.extract",
    "engine.inject": "engine.inject",
    "engine.step": "engine.step",
    "engine.run": "engine.step",
    "streaming.run": "streaming",
    "sources.schedule": "sources",
    "metrics.reduce": "metrics",
    "pool.run_grid": "pool",
    "pool.map": "pool",
    "pool.task": "pool",
    "service.submit": "service.submit",
    "service.queue_wait": "service.queue_wait",
    "service.run": "service.run",
    "service.stream_lag": "service.stream_lag",
}
LAYERS = tuple(dict.fromkeys(LAYER.values()))

#: Spans that wait for other lanes rather than work themselves.
WAITS = frozenset({"pool.map"})


class Recorder:
    """In-memory spans of one process: ``[name, start, end, parent,
    attrs]`` with ``parent`` an index into the same list (-1 = root)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.steps = 0                          # BatchEngine.step calls
        self.tables = WeakKeyDictionary()       # controller -> last table

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        span = self.open(name, attrs)
        try:
            yield span
        finally:
            self.close(span)

    def take(self, start: int) -> list[list]:
        """Remove the spans recorded since index ``start`` and return
        them with parents re-based onto the returned list."""
        out = self.spans[start:]
        del self.spans[start:]
        for span in out:
            span[3] = span[3] - start if span[3] >= start else -1
        return out


# ---------------------------------------------------------------------------
# the wrapped entry points
# ---------------------------------------------------------------------------

def _ctrl_kind(ctrl) -> str:
    return "reconfig" if hasattr(ctrl, "physical_routes_batch") else "detour"


def _pre_ctrl(rec, args, kwargs):
    return {"ctrl": _ctrl_kind(args[0])}


def _pre_pairs(rec, args, kwargs):
    return {"pairs": len(args[1])}


def _post_compile(rec, span, args, out):
    # a cached table comes back as the identical object
    ctrl = args[0]
    if rec.tables.get(ctrl) is out:
        span[0] = "routing.compile_hit"
    rec.tables[ctrl] = out


def _pre_inject(rec, args, kwargs):
    offsets = kwargs["offsets"] if "offsets" in kwargs else args[2]
    return {"packets": len(offsets) - 1}


def _pre_step(rec, args, kwargs):
    rec.steps += 1
    return None


def _pre_run(rec, args, kwargs):
    return {"cycle0": args[0].cycle, "steps0": rec.steps}


def _post_run(rec, span, args, out):
    # cycles the run advanced beyond its nested step() calls
    attrs = span[4]
    nested = rec.steps - attrs.pop("steps0")
    attrs["cycles"] = args[0].cycle - attrs.pop("cycle0") - nested


def _targets() -> list[tuple]:
    """``(owner, attribute, span name, pre, post)`` per wrapped entry
    point.  ``pre(rec, args, kwargs)`` returns the span's attrs;
    ``post(rec, span, args, result)`` completes them."""
    from repro.experiments.spec import ExperimentSpec
    from repro.simulator import streaming
    from repro.simulator.batch_engine import BatchEngine
    from repro.simulator.faults import (
        DetourController,
        ReconfigurationController,
    )
    from repro.simulator.shard_driver import ShardStats
    from repro.simulator.sources import TrafficSource

    return [
        (ExperimentSpec, "run", "experiments.run", None, None),
        (ExperimentSpec, "traffic", "experiments.traffic", None, None),
        (ExperimentSpec, "realize_replica", "experiments.realize_replica",
         None, None),
        (ExperimentSpec, "realize_faults", "faults.realize", None, None),
        (ExperimentSpec, "build_controller", "faults.controller_build",
         None, None),
        (ReconfigurationController, "run_workload", "faults.drive",
         _pre_ctrl, None),
        (DetourController, "run_workload", "faults.drive", _pre_ctrl, None),
        (ReconfigurationController, "physical_routes_batch", "routing.lift",
         _pre_pairs, None),
        (DetourController, "detour_routes_batch", "routing.extract",
         _pre_pairs, None),
        (DetourController, "survivor_table", "routing.compile",
         None, _post_compile),
        (BatchEngine, "inject_routes", "engine.inject", _pre_inject, None),
        (BatchEngine, "step", "engine.step", _pre_step, None),
        (BatchEngine, "run", "engine.run", _pre_run, _post_run),
        (streaming, "run_stream", "streaming.run", _pre_ctrl, None),
        (streaming, "stream_summary", "metrics.reduce", None, None),
        (TrafficSource, "schedule", "sources.schedule", None, None),
        (ShardStats, "from_arrays", "metrics.reduce", None, None),
        (ShardStats, "merge", "metrics.reduce", None, None),
    ]


def _wrap(fn, name, pre, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _ACTIVE
        span = rec.open(name, pre(rec, args, kwargs) if pre else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if post:
            post(rec, span, args, out)
        return out

    return wrapper


def install() -> tuple[Recorder, list]:
    """Wrap every target; returns the recorder and the saved originals
    for :func:`uninstall`."""
    global _ACTIVE
    _ACTIVE = Recorder()
    saved = []
    for owner, attr, name, pre, post in _targets():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(raw.__func__, name, pre, post))
        else:
            new = _wrap(raw, name, pre, post)
        saved.append((owner, attr, raw))
        setattr(owner, attr, new)
    return _ACTIVE, saved


def uninstall(saved: list) -> None:
    global _ACTIVE
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)
    _ACTIVE = None


# ---------------------------------------------------------------------------
# the pool seen from outside: run_grid(driver=TracedDriver(...))
# ---------------------------------------------------------------------------

class TracedTask:
    """Runs one pool task inside a ``pool.task`` span and returns
    ``(result, info)``: the worker pid, the task's spans and the
    pickled size of its result (computed after the span closes)."""

    def __init__(self, func):
        self.func = func

    def __call__(self, item):
        index, task = item
        rec = _ACTIVE
        start = len(rec.spans)
        with rec.span("pool.task", {"index": index}):
            result = self.func(task)
        return result, {
            "pid": os.getpid(),
            "spans": rec.take(start),
            "bytes": len(pickle.dumps(result)),
        }


class TracedDriver:
    """The ``run_grid(driver=...)`` facade over a warm pool: every
    ``map`` runs inside a ``pool.map`` span and keeps each task's
    worker-side record in :attr:`tasks`, stamped with its submit time."""

    def __init__(self, pool, rec: Recorder):
        self.pool = pool
        self.rec = rec
        self.tasks: list[dict] = []
        self.maps: list[tuple[float, float, int]] = []

    def resolve_workers(self, n_tasks: int) -> int:
        return self.pool.resolve_workers(n_tasks)

    def map(self, func, tasks):
        tasks = list(tasks)
        with self.rec.span("pool.map") as span:
            raw = self.pool.map(TracedTask(func), list(enumerate(tasks)))
        self.maps.append(
            (span[1], span[2], self.pool.resolve_workers(len(tasks)))
        )
        results = []
        for result, info in raw:
            info["submitted"] = span[1]
            self.tasks.append(info)
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_segments(spans: list[list]) -> list[tuple[float, float, str]]:
    """``(start, end, name)`` pieces of each span its children do not
    cover (children are recorded in start order)."""
    kids = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    segs = []
    for i, (name, a, b, _, _) in enumerate(spans):
        t = a
        for c in kids.get(i, ()):
            ca, cb = spans[c][1], spans[c][2]
            if ca > t:
                segs.append((t, ca, name))
            t = max(t, cb)
        if b > t:
            segs.append((t, b, name))
    return segs


def attribute(lanes: dict, w0: float, w1: float) -> dict[str, float]:
    """Split the window ``[w0, w1]`` over layers; ``lanes`` maps a lane
    to its non-overlapping self segments.  The result sums to
    ``w1 - w0`` and includes ``unattributed``."""
    events = []
    for lane, segs in lanes.items():
        for a, b, name in segs:
            a, b = max(a, w0), min(b, w1)
            if b > a:
                events.append((a, 1, lane, name))
                events.append((b, 0, lane, name))
    events.sort(key=lambda e: (e[0], e[1]))
    busy: dict = {}
    waiting: dict = {}
    out: dict[str, float] = defaultdict(float)
    t = w0
    for when, starts, lane, name in events:
        if when > t:
            active = busy or waiting
            if active:
                share = (when - t) / len(active)
                for nm in active.values():
                    out[LAYER[nm]] += share
            else:
                out["unattributed"] += when - t
            t = when
        side = waiting if name in WAITS else busy
        if starts:
            side[lane] = name
        else:
            side.pop(lane, None)
    if w1 > t:
        out["unattributed"] += w1 - t
    return dict(out)


def write_chrome_trace(path: str, lanes: list[tuple]) -> None:
    """Write spans as Chrome trace-event JSON (Perfetto and
    chrome://tracing open it).  ``lanes`` holds ``(pid, tid, trace id,
    spans)`` tuples; times are relative to the earliest span."""
    starts = [s[1] for _, _, _, spans in lanes for s in spans]
    origin = min(starts) if starts else 0.0
    events = []
    for pid, tid, trace_id, spans in lanes:
        for name, a, b, parent, attrs in spans:
            args = {"trace": trace_id,
                    "parent": spans[parent][0] if parent >= 0 else None}
            if attrs:
                args.update(attrs)
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": round((a - origin) * 1e6, 3),
                "dur": round((b - a) * 1e6, 3), "args": args,
            })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events}, fh)
