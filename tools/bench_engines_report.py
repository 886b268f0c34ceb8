#!/usr/bin/env python
"""Engine performance tracker: race ``NetworkSimulator`` vs ``BatchEngine``
on a suite of workloads and write ``BENCH_engines.json`` at the repo root,
so the perf trajectory is tracked from PR to PR.

Two row kinds:

* ``driver="engine"`` — each engine runs its *native pipeline*, exactly
  as a caller would drive it: the object engine routes per pair (scalar
  ``shift_route`` lifted through φ, the pre-batch-engine workflow) and
  injects packet by packet; the batch engine routes, lifts, and injects
  whole arrays.  Static faults are applied before routing.  This is the
  acceptance gate: the ≥ 100k-packet uniform row on ``B^1_{2,10}`` must
  clear 10x with bit-identical stats and per-packet delivery cycles.
* ``driver="controller"`` — both engines behind the same
  ``ReconfigurationController`` with a mid-run fault schedule (routing
  is shared and vectorized for both, so the ratio isolates pure
  simulation speed under honest fault timing).
* ``driver="sweep"`` — a multi-scenario grid through the sharded
  multi-process driver vs the same grid single-process: records the
  wall-clock speedup of ``repro.simulator.shard_driver.run_grid`` and
  checks the merged aggregate is bit-identical.  The speedup scales with
  physical cores; single-core machines report ~1x or below (the workers
  column records what ran).
* ``driver="pool"`` — the same scenario grid dispatched repeatedly,
  cold vs warm: the cold side builds an ephemeral worker pool per
  ``run_grid`` call (the historical spawn-per-sweep behavior), the warm
  side rides one persistent
  :class:`~repro.simulator.pool.WorkerPool` across every repeat.  The
  generic columns hold (cold, warm) seconds summed over the repeats;
  ``identical_stats`` is bit-equality of every repeat's per-scenario
  and aggregate statistics across both sides, and ``spawned_warm``
  records how many processes the warm pool ever forked (the reuse
  proof).
* ``driver="shm"`` — the sharded engine's two graph payloads raced on
  one workload: ``payload="pickle"`` ships the graph by value with
  every shard, ``payload="shm"`` exports its CSR arrays once into a
  shared-memory segment and ships a zero-copy handle.  The generic
  columns hold (pickle, shm) seconds; ``identical_stats`` is bit-equal
  ``RunStats`` *and* merged ``ShardStats``.  On platforms without
  POSIX shared memory both sides run pickled and the row says so.
* ``driver="montecarlo"`` — one declarative Monte-Carlo cell (an
  ``ExperimentSpec`` with an ``iid`` fault universe and ``replicas``
  seeded realizations) executed twice: sequentially inline
  (``workers=0``) vs fanned replica-per-task across a warm
  :class:`~repro.simulator.pool.WorkerPool`.  The generic columns hold
  (sequential, pool) seconds; ``identical_stats`` is bit-equality of
  the merged per-cell statistics *and* the exact aggregate — the proof
  that replica realization happens in the submitting process and is
  independent of where each task runs.
* ``driver="csr"`` — the CSR core's frontier-expansion primitive raced
  against its own dict-view fallback: BFS distance sweeps from a fixed
  source sample, once walking the lazily-built ``adjacency_dict()``
  compatibility view in python, once through the canonical-array path
  (``StaticGraph.neighbors_batch``).  The generic columns hold (dict,
  csr) seconds; ``identical_stats`` is bit-equal distance vectors, and
  the extra ``compile_seconds`` records one full bitset table compile
  on the same machine for the trajectory.

The report exits nonzero — naming each offending workload on stderr —
whenever any row disagrees across engines, so CI can use it as a
cross-engine regression gate.

Usage::

    PYTHONPATH=src python tools/bench_engines_report.py [--quick] [--out PATH]
        [--workers N]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import ft_debruijn  # noqa: E402
from repro.core.reconfiguration import Reconfigurator  # noqa: E402
from repro.routing import lifted_routes_batch, shift_route  # noqa: E402
from repro.simulator import (  # noqa: E402
    BatchEngine,
    FaultScenario,
    NetworkSimulator,
    ReconfigurationController,
    make_pattern,
)

# (driver, pattern, m, h, k, packets, faults)
#   engine rows:     faults = static dead physical nodes
#   controller rows: faults = (cycle, node) mid-run schedule
#   sweep rows:      faults = per-scenario (cycle, node) schedule; the grid
#                    spans sizes x patterns x fault sets x seeds (see
#                    run_sweep_row) and `packets` is the per-scenario load
FULL_SUITE = [
    ("engine", "uniform", 2, 10, 1, 100_000, []),
    ("engine", "uniform", 2, 8, 2, 20_000, [40]),
    ("engine", "transpose", 2, 8, 1, 20_000, []),
    ("engine", "hotspot", 2, 8, 1, 20_000, []),
    ("engine", "descend", 2, 9, 1, 50_000, []),
    ("controller", "uniform", 2, 8, 2, 20_000, [(5, 40)]),
    ("sweep", "uniform", 2, 9, 1, 40_000, [(0, 40)]),
    ("pool", "uniform", 2, 8, 1, 2_000, [(0, 40)]),
    ("shm", "uniform", 2, 9, 1, 40_000, [(0, 40)]),
    ("montecarlo", "uniform", 2, 9, 1, 10_000, []),
    ("csr", "uniform", 2, 14, 1, 0, []),
]
QUICK_SUITE = [
    ("engine", "uniform", 2, 7, 1, 5_000, []),
    ("controller", "uniform", 2, 6, 1, 4_000, [(3, 9)]),
    ("sweep", "uniform", 2, 7, 1, 4_000, [(0, 9)]),
    ("pool", "uniform", 2, 6, 1, 600, [(0, 9)]),
    ("shm", "uniform", 2, 7, 1, 4_000, [(0, 9)]),
    ("montecarlo", "uniform", 2, 6, 1, 2_000, []),
    ("csr", "uniform", 2, 7, 1, 0, []),
]


def run_engine_row(pattern, m, h, k, packets, fault_nodes, seed=0):
    """Race the two engines through their native pipelines."""
    n = m ** h
    pairs = make_pattern(n, pattern, packets, np.random.default_rng(seed))
    ft = ft_debruijn(m, h, k)
    rec = Reconfigurator(ft.node_count, n)
    for node in fault_nodes:
        rec.fail_node(int(node))
    phi = rec.phi()

    t0 = time.perf_counter()
    sim = NetworkSimulator(ft)
    for node in fault_nodes:
        sim.disable_node(int(node))
    for s, d in pairs:
        logical = shift_route(int(s), int(d), m, h)
        sim.inject_route([int(phi[v]) for v in logical])
    s_obj = sim.run()
    t_obj = time.perf_counter() - t0

    t0 = time.perf_counter()
    be = BatchEngine(ft)
    for node in fault_nodes:
        be.disable_node(int(node))
    flat, offsets = lifted_routes_batch(m, h, phi, pairs[:, 0], pairs[:, 1])
    be.inject_routes(flat, offsets)
    s_bat = be.run()
    t_bat = time.perf_counter() - t0

    obj_delivered = np.array(
        [-1 if p.delivered_at is None else p.delivered_at for p in sim.packets],
        dtype=np.int64,
    )
    identical = (
        s_obj == s_bat
        and np.array_equal(obj_delivered, be.delivered_at)
        and np.array_equal(
            np.array([p.dropped for p in sim.packets]), be.dropped_mask
        )
    )
    return t_obj, t_bat, s_bat, identical, int(pairs.shape[0])


def run_controller_row(pattern, m, h, k, packets, faults, seed=0):
    """Race the two engines behind the same mid-run fault controller."""
    n = m ** h
    pairs = make_pattern(n, pattern, packets, np.random.default_rng(seed))
    times, stats = {}, {}
    for engine in ("object", "batch"):
        ctrl = ReconfigurationController(m, h, k, engine=engine)
        ctrl.schedule(FaultScenario([tuple(f) for f in faults]))
        t0 = time.perf_counter()
        stats[engine] = ctrl.run_workload([pairs.copy()])
        times[engine] = time.perf_counter() - t0
    identical = stats["object"] == stats["batch"]
    return times["object"], times["batch"], stats["batch"], identical, int(pairs.shape[0])


def run_sweep_row(pattern, m, h, k, packets, faults, seed=0, workers=None):
    """Race the sharded multi-process driver against a single-process run
    of the same scenario grid; the merged aggregates must be bit-identical."""
    from repro.experiments import ExperimentGrid, run_grid

    grid = ExperimentGrid(
        mhk=[(m, h, k), (m, h - 1, k)],
        patterns=[pattern, "hotspot"],
        loads=[packets],
        fault_sets=[(), tuple(tuple(f) for f in faults)],
        seeds=[seed],
    )
    sharded = run_grid(grid, workers=workers)
    single = run_grid(grid, workers=0)
    identical = (
        sharded.aggregate_stats == single.aggregate_stats
        and all(
            a.run_stats == b.run_stats
            for a, b in zip(sharded.results, single.results)
        )
    )
    agg = sharded.aggregate_stats
    # the generic (object, batch) columns hold (single-process, sharded)
    # for sweep rows; the explicit aliases keep the JSON self-describing
    return single.seconds, sharded.seconds, agg, identical, agg.injected, {
        "scenarios": len(grid),
        "workers": sharded.workers,
        "single_seconds": round(single.seconds, 4),
        "sharded_seconds": round(sharded.seconds, 4),
    }


def run_pool_row(pattern, m, h, k, packets, faults, seed=0, workers=None,
                 repeats=3):
    """Dispatch the same grid ``repeats`` times, cold (fresh ephemeral
    pool per ``run_grid``) vs warm (one persistent pool for the lot);
    every repeat's statistics must be bit-identical across both sides."""
    from repro.simulator import WorkerPool
    from repro.experiments import ExperimentGrid, run_grid

    # force real processes: the row measures spawn amortization, which
    # an inline (workers<=1) dispatch would silently skip on 1-CPU boxes
    workers = 2 if workers is None else max(2, workers)
    grid = ExperimentGrid(
        mhk=[(m, h, k)],
        patterns=[pattern],
        loads=[packets],
        fault_sets=[(), tuple(tuple(f) for f in faults)],
        seeds=[seed, seed + 1],
    )

    t0 = time.perf_counter()
    cold = [run_grid(grid, workers=workers) for _ in range(repeats)]
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    with WorkerPool(workers=workers) as pool:
        warm = [run_grid(grid, pool=pool) for _ in range(repeats)]
        spawned = pool.spawned
    t_warm = time.perf_counter() - t0

    identical = all(
        c.aggregate_stats == w.aggregate_stats
        and all(
            a.run_stats == b.run_stats for a, b in zip(c.results, w.results)
        )
        for c, w in zip(cold, warm)
    )
    agg = warm[0].aggregate_stats
    return t_cold, t_warm, agg, identical, agg.injected * repeats, {
        "scenarios": len(grid),
        "repeats": repeats,
        "workers": workers,
        "spawned_warm": spawned,
        "cold_seconds": round(t_cold, 4),
        "warm_seconds": round(t_warm, 4),
    }


def run_shm_row(pattern, m, h, k, packets, faults, seed=0, workers=None):
    """Race the sharded engine's pickled graph payload against the
    zero-copy shared-memory handle on one mid-run-fault workload; the
    statistics must be bit-identical both as ``RunStats`` and as merged
    ``ShardStats``."""
    from repro.shm import shm_available
    from repro.simulator.shard_driver import ShardStats  # noqa: F401

    workers = 2 if workers is None else max(2, workers)
    n = m ** h
    pairs = make_pattern(n, pattern, packets, np.random.default_rng(seed))
    batches = np.array_split(pairs, 4)
    payloads = ("pickle", "shm") if shm_available() else ("pickle", "pickle")
    times, stats, shard = {}, {}, {}
    for side, payload in zip(("pickle", "shm"), payloads):
        ctrl = ReconfigurationController(m, h, k, engine="sharded",
                                         workers=workers)
        ctrl.sim.payload = payload
        ctrl.schedule(FaultScenario([tuple(f) for f in faults]))
        t0 = time.perf_counter()
        stats[side] = ctrl.run_workload([b.copy() for b in batches])
        times[side] = time.perf_counter() - t0
        shard[side] = ctrl.sim.shard_stats()
        ctrl.sim.close()
    identical = (
        stats["pickle"] == stats["shm"] and shard["pickle"] == shard["shm"]
    )
    return times["pickle"], times["shm"], stats["shm"], identical, int(
        pairs.shape[0]
    ), {
        "payloads": list(payloads),
        "workers": workers,
        "batches": len(batches),
        "pickle_seconds": round(times["pickle"], 4),
        "shm_seconds": round(times["shm"], 4),
    }


def run_montecarlo_row(pattern, m, h, k, packets, faults, seed=0,
                       workers=None, replicas=16):
    """Run one declarative Monte-Carlo cell — an ``iid`` fault universe
    with ``replicas`` seeded realizations — sequentially inline vs
    fanned replica-per-task across a warm pool; the merged per-cell
    statistics and the exact aggregate must be bit-identical."""
    from repro.experiments import ExperimentSpec
    from repro.simulator import WorkerPool
    from repro.simulator.shard_driver import run_grid

    # force real processes, as in the pool row: replica fan-out on an
    # inline dispatch would not exercise cross-process determinism
    workers = 2 if workers is None else max(2, workers)
    fault_model = {"name": "iid", "p": 0.9}
    spec = ExperimentSpec(
        m=m, h=h, k=k, pattern=pattern, packets=packets, seed=seed,
        controller="detour", engine="batch",
        fault_model=fault_model, replicas=replicas,
    )

    t0 = time.perf_counter()
    seq = run_grid([spec], workers=0)
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    with WorkerPool(workers=workers) as pool:
        par = run_grid([spec], pool=pool)
    t_pool = time.perf_counter() - t0

    identical = (
        seq.aggregate_stats == par.aggregate_stats
        and all(
            a.run_stats == b.run_stats
            for a, b in zip(seq.results, par.results)
        )
    )
    agg = par.aggregate_stats
    return t_seq, t_pool, agg, identical, agg.injected, {
        "fault_model": fault_model,
        "replicas": replicas,
        "workers": workers,
        "sequential_seconds": round(t_seq, 4),
        "pool_seconds": round(t_pool, 4),
    }


def run_csr_row(pattern, m, h, k, packets, fault_nodes, seed=0, sources=32):
    """Race the dict-view fallback against the canonical CSR array path
    on the frontier-expansion primitive: BFS distance sweeps from a
    fixed source sample, python-walking ``adjacency_dict()`` vs the
    vectorized ``neighbors_batch`` gather.  Distances must be bit-equal;
    ``compile_seconds`` additionally records one full bitset table
    compile on the same machine."""
    from types import SimpleNamespace

    from repro.core.debruijn import debruijn
    from repro.graphs.properties import bfs_distances
    from repro.routing.tables import compile_routing_table

    g = debruijn(m, h)
    n = g.node_count
    rng = np.random.default_rng(seed)
    srcs = rng.choice(n, size=min(sources, n), replace=False)

    def dict_bfs(adj, source):
        dist = [-1] * n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    t0 = time.perf_counter()
    adj = g.adjacency_dict()  # the fallback pays its own view build
    dict_dists = [dict_bfs(adj, int(s)) for s in srcs]
    t_dict = time.perf_counter() - t0

    t0 = time.perf_counter()
    csr_dists = [bfs_distances(g, int(s)) for s in srcs]
    t_csr = time.perf_counter() - t0

    identical = all(
        d.tolist() == ref for d, ref in zip(csr_dists, dict_dists)
    )
    t0 = time.perf_counter()
    compile_routing_table(g)
    t_compile = time.perf_counter() - t0
    st = SimpleNamespace(cycles=0, delivered=0, dropped=0)
    return t_dict, t_csr, st, identical, int(srcs.size) * n, {
        "nodes": n,
        "sources": int(srcs.size),
        "dict_seconds": round(t_dict, 4),
        "csr_seconds": round(t_csr, 4),
        "compile_seconds": round(t_compile, 4),
    }


def run_config(driver, pattern, m, h, k, packets, faults, seed=0, workers=None):
    extra = {}
    if driver == "engine":
        t_obj, t_bat, st, identical, count = run_engine_row(
            pattern, m, h, k, packets, faults, seed
        )
    elif driver == "controller":
        t_obj, t_bat, st, identical, count = run_controller_row(
            pattern, m, h, k, packets, faults, seed
        )
    elif driver == "sweep":
        t_obj, t_bat, st, identical, count, extra = run_sweep_row(
            pattern, m, h, k, packets, faults, seed, workers
        )
    elif driver == "pool":
        t_obj, t_bat, st, identical, count, extra = run_pool_row(
            pattern, m, h, k, packets, faults, seed, workers
        )
    elif driver == "shm":
        t_obj, t_bat, st, identical, count, extra = run_shm_row(
            pattern, m, h, k, packets, faults, seed, workers
        )
    elif driver == "montecarlo":
        t_obj, t_bat, st, identical, count, extra = run_montecarlo_row(
            pattern, m, h, k, packets, faults, seed, workers
        )
    elif driver == "csr":
        t_obj, t_bat, st, identical, count, extra = run_csr_row(
            pattern, m, h, k, packets, faults, seed
        )
    else:
        raise ValueError(f"unknown driver {driver!r}")
    return {
        "driver": driver, "pattern": pattern, "m": m, "h": h, "k": k,
        "packets": count,
        "faults": [list(f) if isinstance(f, tuple) else int(f) for f in faults],
        "object_seconds": round(t_obj, 4),
        "batch_seconds": round(t_bat, 4),
        "cycles": st.cycles,
        "delivered": st.delivered,
        "dropped": st.dropped,
        "speedup": round(t_obj / t_bat, 2),
        "identical_stats": identical,
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small configs only (seconds, for smoke-testing)")
    ap.add_argument("--out", default=None, help="output path for the JSON report")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker processes for sweep rows "
                    "(default: one per CPU core)")
    args = ap.parse_args(argv)

    suite = QUICK_SUITE if args.quick else FULL_SUITE
    rows = []
    for cfg in suite:
        row = run_config(*cfg, workers=args.workers)
        rows.append(row)
        sides = {"sweep": ("single", "sharded"), "pool": ("cold", "warm"),
                 "shm": ("pickle", "shm"),
                 "montecarlo": ("sequential", "pool"),
                 "csr": ("dict", "csr")}
        left, right = sides.get(row["driver"], ("object", "batch"))
        print(
            f"{row['driver']:>10} {row['pattern']:>10} "
            f"B^{row['k']}_{{{row['m']},{row['h']}}} {row['packets']:>7} pkts  "
            f"{left} {row['object_seconds']:8.3f}s  "
            f"{right} {row['batch_seconds']:7.3f}s  {row['speedup']:6.1f}x  "
            f"identical={row['identical_stats']}"
        )

    # no wall-clock stamp in the payload: the report is committed, and a
    # regen should diff only when the numbers themselves move
    report = {
        "suite": "quick" if args.quick else "full",
        "results": rows,
    }
    print(f"generated {time.strftime('%Y-%m-%d %H:%M:%S')} (not in payload)")
    out_path = pathlib.Path(
        args.out
        or pathlib.Path(__file__).resolve().parent.parent / "BENCH_engines.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    bad = [r for r in rows if not r["identical_stats"]]
    for r in bad:
        print(
            f"ENGINE DISAGREEMENT: driver={r['driver']} pattern={r['pattern']} "
            f"B^{r['k']}_{{{r['m']},{r['h']}}} packets={r['packets']} "
            f"faults={r['faults']}",
            file=sys.stderr,
        )
    if bad:
        print(f"{len(bad)} workload(s) disagree across engines", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
