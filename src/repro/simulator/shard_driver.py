"""Sharded multi-process simulation driver on top of :class:`BatchEngine`.

The reliability claims of the paper only become measurable at scale —
millions of packets across many fault scenarios — and a single process
is the wall right after vectorization.  This module partitions
*independent* workloads across a pool of worker processes:

* **per experiment** — every cell of an
  :class:`~repro.experiments.ExperimentGrid` (a declarative sweep over
  ``(m, h, k)``, fault sets, traffic patterns, loads *or* offered rates,
  and seed replicas) is an independent simulation — closed-loop drains
  and open-loop streams alike, so a saturation surface (rate x size x
  faults) runs as one sweep;
* **per seed** — replicas are just another grid axis;
* **per batch** — one closed-loop experiment's injection batches are
  independent too, because the engines fully drain between batches:
  batch ``i + 1`` starts on an empty network, so simulating each batch
  in a fresh engine and merging the records is *bit-identical* to
  draining them sequentially in one engine (see :class:`ShardStats` for
  why the merge is exact).

Results come back as :class:`ShardStats` — a mergeable, pickle-friendly
twin of :class:`RunStats` that carries exact counts plus latency/hop
histograms, so N shards reduce to the same ``RunStats`` a single-process
run would have produced (bit-identical floats included; the property
tests in ``tests/test_shard_driver.py`` enforce this).

Dispatch is *chunked work stealing*: tasks sit on one shared queue and
idle workers pull the next chunk, so a skewed scenario (a hotspot drain
that runs 10x longer than its neighbors) never staggers the pool the way
a static pre-partition would.  ``chunk_size=1`` (the default for small
grids) is pure dynamic balancing; larger chunks amortize IPC when
scenarios are tiny and plentiful.

Entry points
------------
:func:`run_grid`           sweep specs/grids across workers (accepts
                           :class:`~repro.experiments.ExperimentGrid` or
                           :class:`~repro.experiments.ExperimentSpec`
                           lists; pass ``pool=`` to reuse warm workers)
:class:`ShardDriver`       the dispatch facade: borrows a warm
                           :class:`~repro.simulator.pool.WorkerPool` or
                           manages an ephemeral one per ``map`` call
:class:`WorkerPool`        the persistent chunked work-stealing pool
                           (re-exported from
                           :mod:`repro.simulator.pool`)
:class:`ShardedEngine`     ``engine="sharded"`` for the fault controllers
:class:`ShardStats`        the mergeable statistics record
:class:`ExperimentResult`  one executed spec's outcome

Picking a worker count
----------------------
``workers=None`` uses ``os.cpu_count()`` capped by the task count.
Workers are full processes (the GIL never shares NumPy-heavy drains), so
more workers than physical cores buys nothing; fewer leaves hardware
idle.  ``workers<=1`` runs inline in-process — same code path, no pool —
which is also the reference the equivalence tests compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ParameterError, SimulationError
from repro.graphs.static_graph import StaticGraph
from repro.shm import shm_available
from repro.simulator.batch_engine import BatchEngine, validate_injection
from repro.simulator.metrics import PacketArrays, RunStats
from repro.simulator.pool import (
    GraphHandle,
    WorkerPool,
    _map_inline,
    _resolve_workers,
    resolve_graph,
)

__all__ = [
    "ShardStats",
    "ExperimentResult",
    "GridResult",
    "ShardDriver",
    "ShardedEngine",
    "WorkerPool",
    "run_grid",
]

_I64 = np.int64


# ---------------------------------------------------------------------------
# mergeable statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShardStats:
    """Mergeable simulation statistics: the associative half of
    :class:`RunStats`.

    ``RunStats`` itself cannot be merged (means and percentiles are not
    associative), so shards return *exact sufficient statistics* instead:
    plain counters plus latency and hop histograms over the delivered
    packets.  Merging is exact, and :meth:`to_run_stats` reproduces the
    single-process ``RunStats`` bit-for-bit:

    * integer counters add;
    * histograms add (``np.unique`` values with int64 counts);
    * ``mean`` — ``np.mean`` over int64 latencies performs pairwise
      float64 summation whose partial sums are all integers; every one is
      exact below 2**53, so ``float(sum) / n`` lands on the identical
      float regardless of packet order;
    * ``p95`` — the histogram *is* the sorted multiset, so expanding it
      with ``np.repeat`` and calling ``np.percentile`` replays the exact
      computation;
    * ``max`` — the last histogram bin.

    All fields are plain ints and small int64 arrays, so the record
    pickles compactly across process boundaries.
    """

    cycles: int
    injected: int
    delivered: int
    dropped: int
    lat_values: np.ndarray    # unique latencies of delivered packets, sorted
    lat_counts: np.ndarray    # multiplicity per latency value
    hop_values: np.ndarray    # unique hop counts of delivered packets, sorted
    hop_counts: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardStats):
            return NotImplemented
        return (
            (self.cycles, self.injected, self.delivered, self.dropped)
            == (other.cycles, other.injected, other.delivered, other.dropped)
            and np.array_equal(self.lat_values, other.lat_values)
            and np.array_equal(self.lat_counts, other.lat_counts)
            and np.array_equal(self.hop_values, other.hop_values)
            and np.array_equal(self.hop_counts, other.hop_counts)
        )

    @classmethod
    def from_arrays(cls, records: PacketArrays, cycles: int) -> "ShardStats":
        """Reduce one shard's :class:`PacketArrays` to mergeable form."""
        ok = records.delivered_at >= 0
        lat = (records.delivered_at[ok] - records.injected_at[ok]).astype(_I64)
        hops = records.hops[ok].astype(_I64)
        lat_values, lat_counts = np.unique(lat, return_counts=True)
        hop_values, hop_counts = np.unique(hops, return_counts=True)
        return cls(
            cycles=int(cycles),
            injected=int(records.injected_at.shape[0]),
            delivered=int(lat.size),
            dropped=int(np.count_nonzero(records.dropped)),
            lat_values=lat_values,
            lat_counts=lat_counts.astype(_I64),
            hop_values=hop_values,
            hop_counts=hop_counts.astype(_I64),
        )

    @classmethod
    def empty(cls) -> "ShardStats":
        z = np.zeros(0, dtype=_I64)
        return cls(0, 0, 0, 0, z, z, z, z)

    @staticmethod
    def _merge_hist(
        values: Sequence[np.ndarray], counts: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        v = np.concatenate(values)
        c = np.concatenate(counts)
        uv, inv = np.unique(v, return_inverse=True)
        uc = np.zeros(uv.size, dtype=_I64)
        np.add.at(uc, inv, c)
        return uv, uc

    @classmethod
    def merge(cls, shards: Iterable["ShardStats"]) -> "ShardStats":
        """Exact vectorized reduction of any number of shards.

        Cycle counts *add*: shard ``i + 1`` logically starts on the cycle
        shard ``i`` drained (the sequential-drain timeline), which is what
        a single engine draining the concatenated workload reports.
        """
        shards = list(shards)
        if not shards:
            return cls.empty()
        lat_values, lat_counts = cls._merge_hist(
            [s.lat_values for s in shards], [s.lat_counts for s in shards]
        )
        hop_values, hop_counts = cls._merge_hist(
            [s.hop_values for s in shards], [s.hop_counts for s in shards]
        )
        return cls(
            cycles=sum(s.cycles for s in shards),
            injected=sum(s.injected for s in shards),
            delivered=sum(s.delivered for s in shards),
            dropped=sum(s.dropped for s in shards),
            lat_values=lat_values,
            lat_counts=lat_counts,
            hop_values=hop_values,
            hop_counts=hop_counts,
        )

    def to_dict(self) -> dict:
        """JSON-friendly form of the exact sufficient statistics: plain
        ints plus histogram lists.  :meth:`from_dict` round-trips
        bit-for-bit, so a merged record served over HTTP reconstructs
        the identical :class:`RunStats` on the client side."""
        return {
            "cycles": self.cycles,
            "injected": self.injected,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "lat_values": self.lat_values.tolist(),
            "lat_counts": self.lat_counts.tolist(),
            "hop_values": self.hop_values.tolist(),
            "hop_counts": self.hop_counts.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardStats":
        """Inverse of :meth:`to_dict` (exact)."""
        return cls(
            cycles=int(payload["cycles"]),
            injected=int(payload["injected"]),
            delivered=int(payload["delivered"]),
            dropped=int(payload["dropped"]),
            lat_values=np.asarray(payload["lat_values"], dtype=_I64),
            lat_counts=np.asarray(payload["lat_counts"], dtype=_I64),
            hop_values=np.asarray(payload["hop_values"], dtype=_I64),
            hop_counts=np.asarray(payload["hop_counts"], dtype=_I64),
        )

    def to_run_stats(self, cycles: int | None = None) -> RunStats:
        """The :class:`RunStats` a single-process run would have produced
        (``cycles`` overrides the summed drain timeline when the caller
        tracked idle cycles separately)."""
        cycles = self.cycles if cycles is None else int(cycles)
        delivered = self.delivered
        if delivered:
            lat_sum = int(np.dot(self.lat_values, self.lat_counts))
            hop_sum = int(np.dot(self.hop_values, self.hop_counts))
            # the sorted multiset replayed: identical partition + lerp
            lat = np.repeat(self.lat_values, self.lat_counts)
            p95 = float(np.percentile(lat, 95))
            mean_latency = lat_sum / delivered
            mean_hops = hop_sum / delivered
            max_latency = int(self.lat_values[-1])
        else:
            p95 = mean_latency = mean_hops = 0.0
            max_latency = 0
        return RunStats(
            cycles=cycles,
            injected=self.injected,
            delivered=delivered,
            dropped=self.dropped,
            mean_latency=mean_latency,
            p95_latency=p95,
            max_latency=max_latency,
            mean_hops=mean_hops,
            throughput=delivered / cycles if cycles else 0.0,
        )


def _records_of(sim) -> PacketArrays:
    """Structure-of-arrays packet records from either in-process engine."""
    if hasattr(sim, "packet_records"):
        return sim.packet_records()
    return PacketArrays.from_packets(sim.packets)


# ---------------------------------------------------------------------------
# experiment results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    """One executed :class:`~repro.experiments.ExperimentSpec`'s outcome
    (or one closed-loop batch-shard of it).

    ``stats`` is loop-shaped: closed-loop runs carry mergeable
    :class:`ShardStats` (so shards of one spec reduce exactly — see
    :meth:`merged_with`), stream runs carry
    :class:`~repro.simulator.metrics.StreamStats`.
    """

    spec: "object"          # ExperimentSpec (kept untyped: layering)
    stats: "ShardStats | object"
    seconds: float
    lost_to_faults: int = 0
    unreachable_pairs: int = 0

    @property
    def run_stats(self) -> RunStats:
        """Closed-loop :class:`~repro.simulator.metrics.RunStats` (the
        single-process numbers, bit-identical by the :class:`ShardStats`
        contract)."""
        if not isinstance(self.stats, ShardStats):
            raise ParameterError(
                "run_stats applies to closed-loop results; stream results "
                "carry StreamStats in .stats"
            )
        return self.stats.to_run_stats()

    def stable(self, threshold: float) -> bool:
        """Stream loop: is the point below saturation? — delivered keeps
        up with offered (``delivery_ratio >= threshold``)."""
        return self.stats.delivery_ratio >= threshold

    def merged_with(self, others: Sequence["ExperimentResult"]) -> "ExperimentResult":
        """Fold closed-loop shard results of the *same* spec into one
        record (exact — see :class:`ShardStats`).  With nothing to fold
        the record passes through unchanged (stream results are never
        sharded, so they only ever take this path)."""
        if not others:
            return self
        parts = [self, *others]
        return ExperimentResult(
            spec=self.spec,
            stats=ShardStats.merge(p.stats for p in parts),
            seconds=sum(p.seconds for p in parts),
            lost_to_faults=sum(p.lost_to_faults for p in parts),
            unreachable_pairs=sum(p.unreachable_pairs for p in parts),
        )

    def row(self) -> dict:
        """JSON-friendly summary row, loop-shaped: sweep columns for
        closed loops, saturation-curve columns for stream points.  Cells
        with a ``fault_model`` add that column (and ``replicas`` when
        > 1); literal-``faults`` cells do not."""
        if isinstance(self.stats, ShardStats):
            sc, st = self.spec, self.run_stats
            return {
                "scenario": sc.label,
                "m": sc.m, "h": sc.h, "k": sc.k,
                "pattern": sc.pattern, "packets": sc.packets,
                "faults": [list(f) for f in sc.faults],
                # fault-model columns appear only on declarative cells, so
                # literal-fault rows keep their published bytes
                **_fault_model_columns(sc),
                "seed": sc.seed,
                "controller": sc.controller,
                "engine": sc.engine,
                "route_mode": sc.route_mode,
                "cycles": st.cycles,
                "delivered": st.delivered,
                "dropped": st.dropped,
                "mean_latency": round(st.mean_latency, 4),
                "p95_latency": round(st.p95_latency, 4),
                "throughput": round(st.throughput, 4),
                "seconds": round(self.seconds, 4),
            }
        s = self.stats
        return {
            "rate": self.spec.rate,
            "offered_rate": round(s.offered_rate, 4),
            "delivered_rate": round(s.delivered_rate, 4),
            "delivery_ratio": round(s.delivery_ratio, 4),
            "mean_latency": round(s.mean_latency, 4),
            "p95_latency": round(s.p95_latency, 4),
            "backlog": s.final_occupancy,
            "dropped": s.dropped,
            "unadmitted": s.unadmitted,
            "seconds": round(self.seconds, 4),
        }


def _fault_model_columns(spec) -> dict:
    """Extra row columns for declarative fault universes — empty for
    literal-fault specs, keeping their published rows stable."""
    out: dict = {}
    if spec.fault_model is not None:
        out["fault_model"] = dict(spec.fault_model)
    if spec.replicas > 1:
        out["replicas"] = spec.replicas
    return out


# ---------------------------------------------------------------------------
# the driver facade over the persistent pool
# ---------------------------------------------------------------------------

class ShardDriver:
    """Dispatch facade for independent simulation tasks.

    The actual chunked work-stealing process pool lives in
    :class:`~repro.simulator.pool.WorkerPool`; a driver either *borrows*
    a caller-supplied persistent pool (``pool=``) — the warm path, where
    one set of workers serves a whole grid or saturation ladder — or
    manages an ephemeral one per :meth:`map` call, which reproduces the
    historical spawn-per-call behavior bit-for-bit (same chunking, same
    result ordering, same failure contract).

    Why not ``concurrent.futures.ProcessPoolExecutor``: the bespoke pool
    keeps chunk granularity, result ordering, the inline ``workers<=1``
    reference path and the failure contract (a :class:`SimulationError`
    naming the failed task, dead workers detected by claim/finish
    accounting) in explicit lines that the tests pin down.  The trade is
    that rarer hazards the stdlib hardens against (a worker dying *while
    holding* the task-queue lock) are accepted as out of scope.

    Parameters
    ----------
    workers:
        Process count.  ``None`` = ``os.cpu_count()`` capped by the task
        count; ``0``/``1`` = run inline in this process (identical code
        path, no pool — the reference the equivalence tests use).
        Ignored when ``pool`` is given (the pool sizes itself).
    chunk_size:
        Tasks per steal.  ``None`` picks ``ceil(n / (workers * 4))`` —
        four steals per worker on average, amortizing queue IPC while
        keeping the straggler bound tight.
    start_method:
        ``multiprocessing`` start method; ``None`` prefers ``fork``
        (cheap, Linux) and falls back to ``spawn``.
    pool:
        A warm :class:`~repro.simulator.pool.WorkerPool` to borrow.  The
        driver never closes a borrowed pool — lifecycle stays with the
        caller (use the pool as a context manager around the sweep).
    """

    def __init__(self, workers: int | None = None, *,
                 chunk_size: int | None = None,
                 start_method: str | None = None,
                 pool: WorkerPool | None = None):
        self.workers = workers
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.pool = pool

    def resolve_workers(self, n_tasks: int) -> int:
        """The process count :meth:`map` would use for ``n_tasks`` tasks
        (``None`` resolves to ``os.cpu_count()`` capped by the task
        count; ``<= 1`` means inline).  Callers publishing results
        record this so curves carry their provenance."""
        if self.pool is not None:
            return self.pool.resolve_workers(n_tasks)
        return _resolve_workers(self.workers, n_tasks)

    def map(self, func: Callable, tasks: Sequence) -> list:
        """Run ``func`` over every task, preserving input order in the
        result list.  Exceptions — in a worker or inline — re-raise as
        :class:`SimulationError` naming the failed task; a worker process
        dying without reporting (OOM kill, segfault) is detected and
        raised instead of hanging."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self.pool is not None:
            return self.pool.map(func, tasks)
        workers = _resolve_workers(self.workers, len(tasks))
        if workers <= 1:
            return _map_inline(func, tasks)
        with WorkerPool(
            workers=workers, chunk_size=self.chunk_size,
            start_method=self.start_method,
        ) as ephemeral:
            return ephemeral.map(func, tasks)


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SpecTask:
    """One unit of pool work: an experiment spec, or one closed-loop
    batch-shard of it."""

    spec: "object"          # ExperimentSpec
    batch_slice: tuple[int, int] | None = None

    def run(self) -> ExperimentResult:
        sl = slice(*self.batch_slice) if self.batch_slice else None
        return self.spec.run(batch_slice=sl)


def _run_spec_task(task: _SpecTask) -> ExperimentResult:
    return task.run()


def _as_specs(grid) -> list:
    """An :class:`~repro.experiments.ExperimentGrid` or a sequence of
    :class:`~repro.experiments.ExperimentSpec` cells as a flat spec list."""
    from repro.experiments.spec import ExperimentGrid, ExperimentSpec

    if isinstance(grid, ExperimentGrid):
        return grid.expand()
    specs = list(grid)
    for cell in specs:
        if not isinstance(cell, ExperimentSpec):
            raise ParameterError(
                f"run_grid expects an ExperimentGrid or ExperimentSpec "
                f"cells, got {cell!r}"
            )
    return specs


def _expand_tasks(specs: Sequence) -> tuple[list[_SpecTask], list[int]]:
    """Flatten specs into pool tasks; ``owner[i]`` maps task ``i`` back
    to its spec index (batch-shards and Monte-Carlo replicas of one spec
    share an owner).  Replicated cells are realized *here*, in the
    submitting process, so each replica's fault schedule is drawn once
    from ``rng([seed, replica])`` and every worker runs a frozen
    ``fixed`` schedule — pool and sequential execution see bit-identical
    realizations."""
    tasks: list[_SpecTask] = []
    owners: list[int] = []
    for si, sp in enumerate(specs):
        if sp.replicas > 1:
            for i in range(sp.replicas):
                tasks.append(_SpecTask(sp.realize_replica(i)))
                owners.append(si)
            continue
        if sp.loop != "closed" or sp.shards <= 1:
            tasks.append(_SpecTask(sp))
            owners.append(si)
            continue
        bounds = np.linspace(0, sp.batches, sp.shards + 1).astype(int)
        for a, b in zip(bounds[:-1], bounds[1:]):
            if a == b:
                continue
            tasks.append(_SpecTask(sp, (int(a), int(b))))
            owners.append(si)
    return tasks, owners


@dataclass(frozen=True)
class GridResult:
    """Everything a sweep produced: per-spec results (grid order) and
    the exact cross-spec aggregate."""

    results: tuple[ExperimentResult, ...]
    seconds: float                      # wall clock of the whole sweep
    workers: int

    @property
    def aggregate(self) -> ShardStats:
        """Exact cross-spec reduction (mergeable form) over the grid's
        *closed-loop* results — stream points carry
        :class:`~repro.simulator.metrics.StreamStats`, whose open-loop
        rates do not reduce across different offered loads, so they are
        reported per point in :meth:`rows` instead."""
        return ShardStats.merge(
            r.stats for r in self.results if isinstance(r.stats, ShardStats)
        )

    @property
    def aggregate_stats(self) -> RunStats:
        """The :class:`RunStats` a single process running the whole grid
        sequentially would have produced — bit-identical by the
        :class:`ShardStats` contract."""
        return self.aggregate.to_run_stats()

    def rows(self) -> list[dict]:
        """JSON-friendly per-spec rows (reporting/CI artifacts).
        Closed-loop rows carry the sweep columns; stream rows prepend
        the cell identity to the saturation-curve columns."""
        out = []
        for r in self.results:
            row = r.row()
            if not isinstance(r.stats, ShardStats):
                sc = r.spec
                row = {
                    "scenario": sc.label,
                    "m": sc.m, "h": sc.h, "k": sc.k,
                    "pattern": sc.pattern, "source": sc.source,
                    "faults": [list(f) for f in sc.faults],
                    **_fault_model_columns(sc),
                    "seed": sc.seed,
                    "controller": sc.controller,
                    "engine": sc.engine,
                    "route_mode": sc.route_mode,
                    **row,
                }
            out.append(row)
        return out


def run_grid(
    grid,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    driver: ShardDriver | None = None,
    pool: WorkerPool | None = None,
) -> GridResult:
    """Sweep an experiment grid across a worker pool and reduce the
    shards.

    ``grid`` is an :class:`~repro.experiments.ExperimentGrid` or any
    sequence of :class:`~repro.experiments.ExperimentSpec` cells.
    Closed-loop and stream cells mix freely — a stream grid over rates x
    sizes x fault sets *is* a saturation surface executed as one sharded
    sweep.

    The per-spec results come back in grid order regardless of which
    worker finished first, and the merged closed-loop aggregate is
    bit-identical to running every cell inline (``workers=0``) — the
    reducer is exact.

    ``pool`` borrows a warm :class:`~repro.simulator.pool.WorkerPool`
    for the sweep (the caller keeps lifecycle); ``driver`` overrides the
    whole dispatch facade and wins over ``pool``/``workers``.
    """
    specs = _as_specs(grid)
    tasks, owners = _expand_tasks(specs)
    drv = driver or ShardDriver(workers=workers, chunk_size=chunk_size, pool=pool)
    t0 = time.perf_counter()
    raw = drv.map(_run_spec_task, tasks)
    seconds = time.perf_counter() - t0

    by_owner: dict[int, list[ExperimentResult]] = {}
    for owner, res in zip(owners, raw):
        by_owner.setdefault(owner, []).append(res)
    merged = tuple(
        # a replicated cell's parts carry realized single-replica specs;
        # the merged record reports as the declarative spec the caller
        # wrote, mirroring ExperimentSpec.run
        replace(by_owner[i][0].merged_with(by_owner[i][1:]), spec=specs[i])
        for i in range(len(specs))
    )
    return GridResult(
        results=merged,
        seconds=seconds,
        workers=drv.resolve_workers(len(tasks)),
    )


# ---------------------------------------------------------------------------
# engine="sharded": drop-in engine for the fault controllers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RouteShard:
    """A pre-routed injection batch, frozen with the fault state it was
    validated against — everything a worker needs to drain it.

    ``graph`` is either the graph itself (pickled across the process
    boundary) or a :class:`~repro.simulator.pool.GraphHandle` naming a
    shared-memory segment the worker attaches to zero-copy."""

    graph: "StaticGraph | GraphHandle"
    link_capacity: int
    flat: np.ndarray
    offsets: np.ndarray
    dead_nodes: tuple[int, ...]
    dead_links: tuple[tuple[int, int], ...]
    validate: bool
    max_cycles: int = 1_000_000


def _run_route_shard(shard: _RouteShard) -> ShardStats:
    """Drain one route shard in a fresh :class:`BatchEngine` (worker side)."""
    be = BatchEngine(resolve_graph(shard.graph), shard.link_capacity)
    for v in shard.dead_nodes:
        be.disable_node(v)
    for u, v in shard.dead_links:
        be.disable_link(u, v)
    be.inject_routes(shard.flat, shard.offsets, validate=shard.validate)
    if be.in_flight:
        be.run(max_cycles=shard.max_cycles)
    return ShardStats.from_arrays(be.packet_records(), be.cycle)


class ShardedEngine:
    """The ``engine="sharded"`` backend for the fault controllers.

    Each :meth:`inject_routes` call records one *shard* — an injection
    batch frozen with the current fault state — instead of simulating it.
    :meth:`drain` (or :meth:`run`/:meth:`step`) then drains every pending
    shard in a fresh :class:`BatchEngine` across the worker pool and
    merges the :class:`ShardStats`.

    Equivalence contract: because the controllers fully drain between
    batches, the merged statistics are bit-identical to ``engine="batch"``
    on the same workload *as long as no fault fires mid-drain*.  A fault
    scheduled mid-drain is deferred to the end of the draining batch
    (batch-boundary granularity) and drops nothing in flight — the
    controllers go batch-at-a-time while events are pending precisely to
    bound that skew.  Use ``engine="batch"`` when exact mid-drain fault
    timing is the point of the experiment.

    ``payload`` picks how shards carry the graph to the workers:
    ``"shm"`` exports the CSR arrays once into a shared-memory segment
    and ships a :class:`~repro.simulator.pool.GraphHandle` (zero-copy
    attach per worker process); ``"pickle"`` ships the graph by value,
    the historical behavior; ``"auto"`` (default) uses shared memory
    when the platform supports it *and* the driver would actually cross
    a process boundary, pickle otherwise.  Both payloads produce
    bit-identical statistics — the property tests enforce it.  Close the
    engine (or let it be garbage collected) to unlink the segment.
    """

    def __init__(self, graph: StaticGraph, link_capacity: int = 1, *,
                 workers: int | None = None,
                 driver: ShardDriver | None = None,
                 payload: str = "auto"):
        if link_capacity < 1:
            raise SimulationError("link_capacity must be >= 1")
        if payload not in ("auto", "shm", "pickle"):
            raise ParameterError(
                f"payload must be 'auto', 'shm' or 'pickle', got {payload!r}"
            )
        self.graph = graph
        self.link_capacity = int(link_capacity)
        self.payload = payload
        self.cycle = 0
        self.driver = driver or ShardDriver(workers=workers)
        self._n = graph.node_count
        self._dead = np.zeros(self._n, dtype=bool)
        self._dead_link_keys = np.zeros(0, dtype=_I64)  # sorted u * n + v
        self._pending: list[_RouteShard] = []
        self._pending_packets = 0
        self._done: list[ShardStats] = []
        self._injected = 0
        self._graph_export = None       # owning ShmBlock once exported
        self._graph_handle: GraphHandle | None = None

    # -- graph payload ------------------------------------------------------

    def _use_shm(self) -> bool:
        if self.payload == "shm":
            return True
        if self.payload == "pickle":
            return False
        # "auto": zero-copy only pays when a process boundary exists —
        # resolve_workers(2) > 1 means the driver would parallelize given
        # enough shards (inline runs read self.graph directly anyway)
        return shm_available() and self.driver.resolve_workers(2) > 1

    def _graph_payload(self) -> "StaticGraph | GraphHandle":
        """What a freshly recorded shard carries as its graph: a shm
        handle (exported lazily, once) or the graph itself."""
        if not self._use_shm():
            return self.graph
        if self._graph_handle is None:
            # forced payload="shm" raises ShmError here when unavailable
            self._graph_handle, self._graph_export = GraphHandle.export(self.graph)
        return self._graph_handle

    def close(self) -> None:
        """Unlink the exported graph segment, if any (idempotent).  The
        owning block's GC finalizer is the backstop, but sweeps should
        close explicitly — shared-memory segments outlive processes."""
        if self._graph_export is not None:
            self._graph_export.unlink()
            self._graph_export = None
            self._graph_handle = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fault state --------------------------------------------------------

    @property
    def dead_nodes(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self._dead))

    def _dead_link_pairs(self) -> tuple[tuple[int, int], ...]:
        """The dead directed links as plain pairs (shard snapshots)."""
        return tuple(
            (int(k) // self._n, int(k) % self._n) for k in self._dead_link_keys
        )

    def disable_node(self, v: int) -> int:
        """Mark a node dead for everything injected from now on.  Pending
        shards were injected before the fault, so they drain first (the
        batch-boundary timing contract); nothing is ever dropped mid-queue
        here, hence the constant 0."""
        v = int(v)
        if not 0 <= v < self._n:
            raise SimulationError(
                f"cannot disable node {v}: not a node of the graph [0, {self._n})"
            )
        if self._pending:
            self.drain()
        self._dead[v] = True
        return 0

    def enable_node(self, v: int) -> None:
        """Return a disabled node to service for everything injected from
        now on (pending shards drain first, mirroring the batch-boundary
        timing of :meth:`disable_node`)."""
        v = int(v)
        if not 0 <= v < self._n:
            raise SimulationError(
                f"cannot enable node {v}: not a node of the graph [0, {self._n})"
            )
        if not self._dead[v]:
            raise SimulationError(f"cannot enable node {v}: it is not disabled")
        if self._pending:
            self.drain()
        self._dead[v] = False

    def disable_link(self, u: int, v: int) -> int:
        """Fail the undirected link ``{u, v}`` for future injections."""
        u, v = int(u), int(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): endpoint out of range "
                f"[0, {self._n})"
            )
        if not self.graph.has_edge(u, v):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): not an edge of the graph"
            )
        if self._pending:
            self.drain()
        keys = np.array([u * self._n + v, v * self._n + u], dtype=_I64)
        self._dead_link_keys = np.unique(
            np.concatenate([self._dead_link_keys, keys])
        )
        return 0

    # -- injection ----------------------------------------------------------

    def inject_route(self, route: Sequence[int], *, validate: bool = True) -> int:
        arr = np.array([int(v) for v in route], dtype=_I64)
        if arr.size < 1:
            raise SimulationError("route must contain at least the source")
        pids = self.inject_routes(
            arr, np.array([0, arr.size], dtype=_I64), validate=validate
        )
        return int(pids[0])

    def inject_routes(
        self, flat: np.ndarray, offsets: np.ndarray, *, validate: bool = True
    ) -> np.ndarray:
        """Record one shard.  Validation runs *now*, against the current
        fault state, through the engines' shared
        :func:`repro.simulator.batch_engine.validate_injection` — so a bad
        route raises at the same program point as the other engines."""
        flat, offsets, _, _, lens = validate_injection(
            self.graph, flat, offsets, validate=validate,
            dead_mask=self._dead, dead_link_keys=self._dead_link_keys,
        )
        if lens.size == 0:
            return np.zeros(0, dtype=_I64)

        self._pending.append(
            _RouteShard(
                graph=self._graph_payload(),
                link_capacity=self.link_capacity,
                flat=flat.copy(),
                offsets=offsets.copy(),
                dead_nodes=tuple(
                    int(v) for v in np.flatnonzero(self._dead)
                ),
                dead_links=self._dead_link_pairs(),
                validate=False,  # validated above; workers skip the re-check
            )
        )
        count = int(lens.size)
        pids = np.arange(self._injected, self._injected + count, dtype=_I64)
        self._injected += count
        self._pending_packets += count
        return pids

    # -- execution ----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Packets injected but not yet drained."""
        return self._pending_packets

    @property
    def injected(self) -> int:
        """Total packets recorded so far (pending shards included)."""
        return self._injected

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Drain every pending shard across the pool; advances the cycle
        clock by the summed drain durations (the sequential timeline) and
        returns the number of packets delivered in the wave."""
        if not self._pending:
            return 0
        shards = [replace(s, max_cycles=max_cycles) for s in self._pending]
        self._pending = []
        self._pending_packets = 0
        stats = self.driver.map(_run_route_shard, shards)
        self._done.extend(stats)
        self.cycle += sum(s.cycles for s in stats)
        return sum(s.delivered for s in stats)

    def step(self) -> int:
        """One controller-visible step: drain the pending wave if there is
        one, else spend an idle cycle."""
        if self._pending:
            return self.drain()
        self.cycle += 1
        return 0

    def run(self, max_cycles: int = 1_000_000) -> RunStats:
        """Drain everything pending and return the aggregate statistics
        (the other engines' ``run`` contract)."""
        self.drain(max_cycles=max_cycles)
        return self.stats()

    # -- records ------------------------------------------------------------

    def shard_stats(self) -> ShardStats:
        """Merged mergeable statistics over every drained shard."""
        return ShardStats.merge(self._done)

    def stats(self) -> RunStats:
        """Aggregate statistics (drains pending shards first, so the
        numbers always cover everything injected)."""
        if self._pending:
            self.drain()
        return self.shard_stats().to_run_stats(cycles=self.cycle)
