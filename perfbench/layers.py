"""Per-layer metrics from traced passes.

Times and counts are per pass (totals over the traced passes divided by
their number); self times are summed over every process, so on a pool
they can exceed the pass's wall clock.  ``wall.<layer>_s`` is the
layer's share of the pass wall clock (see :func:`tracing.attribute`),
and those shares plus ``trace.unattributed_s`` add up to
``trace.wall_s``.  A layer a workload never calls reads 0; inside
``repro serve`` only the service layer is observable, so the other
layers read 0 on the service workload.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from perfbench.common import TAIL_PCT, median, percentile
from perfbench.tracing import LAYERS, attribute, self_segments

_LAYER_NAMES = [
    "experiments.expand_s", "experiments.specs", "experiments.self_s",
    "faults.realize_s", "faults.realize_n", "faults.controller_build_s",
    "faults.controller_build_n", "faults.drive_s",
    "routing.compile_s", "routing.compile_n", "routing.compile_hit_ratio",
    "routing.lift_s", "routing.lift_pairs", "routing.relift_ratio",
    "routing.extract_s",
    "engine.inject_s", "engine.inject_n", "engine.step_s", "engine.steps",
    "engine.hops", "engine.step_ns_per_hop",
    "streaming.self_s", "streaming.epochs", "sources.schedule_s",
    "metrics.reduce_s",
    "pool.tasks", "pool.busy_s", "pool.utilization",
    "pool.queue_wait_p50_s", f"pool.queue_wait_p{TAIL_PCT}_s",
    "pool.result_bytes",
    "service.submit_s", "service.queue_wait_p50_s", "service.run_p50_s",
    "service.stream_lag_s", "service.retries",
]


def _zeros() -> dict[str, float]:
    out = {name: 0.0 for name in _LAYER_NAMES}
    out.update({f"wall.{layer}_s": 0.0 for layer in LAYERS})
    return out


def _walls(shares: list[dict], passes: int) -> dict[str, float]:
    """Mean per-pass wall shares plus the trace.* coverage figures."""
    total: dict[str, float] = defaultdict(float)
    for share in shares:
        for layer, seconds in share.items():
            total[layer] += seconds
    out = {f"wall.{layer}_s": total[layer] / passes for layer in LAYERS}
    wall = sum(total.values()) / passes
    out["trace.unattributed_s"] = total["unattributed"] / passes
    out["trace.attributed_ratio"] = (
        1.0 - out["trace.unattributed_s"] / wall if wall else 0.0
    )
    return out


def grid_layers(passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of traced grid passes.  Each pass holds its
    window ``t0``/``t1``, ``driver_spans``, the worker ``tasks`` and
    ``maps`` records of :class:`tracing.TracedDriver`, ``hops`` and
    ``specs``."""
    n = len(passes)
    selfs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    lift_pairs = admitted_lifted = epochs = steps = 0
    waits, busy, result_bytes = [], 0.0, 0
    map_capacity = 0.0
    shares = []
    for p in passes:
        lanes: dict = defaultdict(list)
        span_lists = [("driver", p["driver_spans"])]
        for task in p["tasks"]:
            spans = task["spans"]
            span_lists.append((task["pid"], spans))
            root = spans[0]
            waits.append(root[1] - task["submitted"])
            busy += root[2] - root[1]
            result_bytes += task["bytes"]
        for a, b, workers in p["maps"]:
            map_capacity += (b - a) * workers
        for lane, spans in span_lists:
            segs = self_segments(spans)
            lanes[lane].extend(segs)
            for a, b, name in segs:
                selfs[name] += b - a
            for name, _, _, parent, attrs in spans:
                calls[name] += 1
                parent_name = spans[parent][0] if parent >= 0 else None
                parent_attrs = spans[parent][4] if parent >= 0 else None
                if name == "routing.lift":
                    lift_pairs += attrs["pairs"]
                if name in ("routing.lift", "routing.extract") and \
                        parent_name == "streaming.run":
                    epochs += 1
                if name == "engine.inject" and parent_attrs and \
                        parent_attrs.get("ctrl") == "reconfig":
                    admitted_lifted += attrs["packets"]
                if name == "engine.step":
                    steps += 1
                elif name == "engine.run":
                    steps += attrs["cycles"]
        shares.append(attribute(lanes, p["t0"], p["t1"]))
    hops = sum(p["hops"] for p in passes)
    step_s = selfs["engine.step"] + selfs["engine.run"]
    compile_calls = calls["routing.compile"] + calls["routing.compile_hit"]
    out = _zeros()
    out.update({
        "experiments.expand_s": selfs["experiments.expand"] / n,
        "experiments.specs": sum(p["specs"] for p in passes) / n,
        "experiments.self_s": (
            selfs["experiments.run"] + selfs["experiments.traffic"]
            + selfs["experiments.realize_replica"]
        ) / n,
        "faults.realize_s": selfs["faults.realize"] / n,
        "faults.realize_n": calls["faults.realize"] / n,
        "faults.controller_build_s": selfs["faults.controller_build"] / n,
        "faults.controller_build_n": calls["faults.controller_build"] / n,
        "faults.drive_s": selfs["faults.drive"] / n,
        "routing.compile_s": selfs["routing.compile"] / n,
        "routing.compile_n": calls["routing.compile"] / n,
        "routing.compile_hit_ratio": (
            calls["routing.compile_hit"] / compile_calls if compile_calls
            else 0.0
        ),
        "routing.lift_s": selfs["routing.lift"] / n,
        "routing.lift_pairs": lift_pairs / n,
        "routing.relift_ratio": (
            lift_pairs / admitted_lifted if admitted_lifted else 0.0
        ),
        "routing.extract_s": selfs["routing.extract"] / n,
        "engine.inject_s": selfs["engine.inject"] / n,
        "engine.inject_n": calls["engine.inject"] / n,
        "engine.step_s": step_s / n,
        "engine.steps": steps / n,
        "engine.hops": hops / n,
        "engine.step_ns_per_hop": step_s / hops * 1e9 if hops else 0.0,
        "streaming.self_s": selfs["streaming.run"] / n,
        "streaming.epochs": epochs / n,
        "sources.schedule_s": selfs["sources.schedule"] / n,
        "metrics.reduce_s": selfs["metrics.reduce"] / n,
        "pool.tasks": len(waits) / n,
        "pool.busy_s": busy / n,
        "pool.utilization": busy / map_capacity if map_capacity else 0.0,
        "pool.queue_wait_p50_s": median(waits),
        f"pool.queue_wait_p{TAIL_PCT}_s": percentile(waits, TAIL_PCT),
        "pool.result_bytes": result_bytes / n,
    })
    out.update(_walls(shares, n))
    return out


def job_lane_segments(job: dict) -> list[tuple[float, float, str]]:
    """A job's client-side timeline as consecutive phases: POST, queue
    wait, run, and the lag until the terminal stream line arrived."""
    s = job["summary"]
    a = job["t_posted"]
    b = max(a, s["started_at"])
    c = max(b, s["finished_at"])
    return [
        (job["t_post"], a, "service.submit"),
        (a, b, "service.queue_wait"),
        (b, c, "service.run"),
        (c, max(c, job["t_done"]), "service.stream_lag"),
    ]


def service_layers(batches: list[dict], hops_per_batch: list[int]) -> dict:
    """Per-layer metrics of the service workload from HTTP timings and
    job summaries.  Each batch holds ``t0``, ``t1`` and ``jobs``."""
    n = len(batches)
    jobs = [j for b in batches for j in b["jobs"]]
    shares = []
    for b in batches:
        lanes: dict = defaultdict(list)
        for j in b["jobs"]:
            lanes[j["lane"]].extend(job_lane_segments(j))
        shares.append(attribute(lanes, b["t0"], b["t1"]))
    out = _zeros()
    out.update({
        "engine.hops": sum(hops_per_batch) / n,
        "service.submit_s": median(j["t_posted"] - j["t_post"] for j in jobs),
        "service.queue_wait_p50_s": median(
            j["summary"]["started_at"] - j["summary"]["submitted_at"]
            for j in jobs
        ),
        "service.run_p50_s": median(
            j["summary"]["finished_at"] - j["summary"]["started_at"]
            for j in jobs
        ),
        "service.stream_lag_s": median(
            j["t_done"] - j["summary"]["finished_at"] for j in jobs
        ),
        "service.retries": float(sum(j["summary"]["retries"] for j in jobs)),
    })
    out.update(_walls(shares, n))
    return out
