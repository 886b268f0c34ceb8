"""Tests for the sharded multi-process simulation driver.

The load-bearing property: merged ``ShardStats`` from N shards is
*bit-identical* to a single-process ``BatchEngine`` run draining the
concatenated workload batch by batch — across traffic patterns, fault
scenarios, link capacities and arbitrary shard splits (hypothesis
explores the split space).  Everything else (grid expansion, the pool,
the sharded engine, error propagation) builds on that.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import debruijn, ft_debruijn
from repro.errors import ParameterError, SimulationError
from repro.experiments import ExperimentGrid, ExperimentSpec
from repro.routing import lifted_routes_batch
from repro.simulator import (
    BatchEngine,
    DetourController,
    FaultScenario,
    ReconfigurationController,
    ShardDriver,
    ShardStats,
    ShardedEngine,
    make_pattern,
    pack_routes,
    run_grid,
)
from repro.simulator.shard_driver import _RouteShard, _run_route_shard
from repro.simulator.traffic import PATTERN_NAMES


def _identity_phi(n_physical: int) -> np.ndarray:
    return np.arange(n_physical, dtype=np.int64)


def _route_batches(m, h, k, pairs, splits):
    """Shift-register routes for ``pairs`` lifted through the identity,
    split into ``len(splits)`` injection batches."""
    ft = ft_debruijn(m, h, k)
    phi = _identity_phi(ft.node_count)
    batches = []
    for part in np.array_split(pairs, splits):
        flat, off = lifted_routes_batch(m, h, phi, part[:, 0], part[:, 1])
        batches.append((flat, off))
    return ft, batches


def _sequential_reference(graph, batches, capacity=1):
    """One engine, inject + drain per batch — the single-process truth."""
    be = BatchEngine(graph, capacity)
    for flat, off in batches:
        be.inject_routes(flat, off)
        if be.in_flight:
            be.run()
    return be


def _merged_shards(graph, batches, capacity=1):
    """Each batch in a fresh engine, reduced through ShardStats.merge."""
    shards = []
    for flat, off in batches:
        be = BatchEngine(graph, capacity)
        be.inject_routes(flat, off)
        if be.in_flight:
            be.run()
        shards.append(ShardStats.from_arrays(be.packet_records(), be.cycle))
    return ShardStats.merge(shards)


class TestShardStatsMerge:
    """The reducer is exact: merge(N shards) == sequential single engine."""

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_merge_matches_sequential_all_patterns(self, pattern):
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, pattern, 120, np.random.default_rng(3))
        ft, batches = _route_batches(m, h, k, pairs, 3)
        ref = _sequential_reference(ft, batches)
        merged = _merged_shards(ft, batches)
        assert merged.to_run_stats() == ref.stats()

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_merge_matches_sequential_capacities(self, capacity):
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, "hotspot", 150, np.random.default_rng(8))
        ft, batches = _route_batches(m, h, k, pairs, 4)
        ref = _sequential_reference(ft, batches, capacity)
        merged = _merged_shards(ft, batches, capacity)
        assert merged.to_run_stats() == ref.stats()

    def test_merge_matches_sequential_with_fault_drops(self):
        """A fault firing after shard 1's injection drops its queued
        packets; later shards inherit the dead node.  The sequential
        single-engine run sees exactly the same timeline, so the merge
        stays bit-identical — drops included."""
        m, h, k = 2, 4, 1
        ft = ft_debruijn(m, h, k)
        dead = 5
        pairs = make_pattern(m ** h, "uniform", 200, np.random.default_rng(4))
        phi = _identity_phi(ft.node_count)
        first, rest = pairs[:80], pairs[80:]
        b0 = lifted_routes_batch(m, h, phi, first[:, 0], first[:, 1])
        safe_batches = []
        for part in np.array_split(rest, 3):
            flat, off = lifted_routes_batch(m, h, phi, part[:, 0], part[:, 1])
            keep = [
                i for i in range(off.size - 1)
                if dead not in flat[off[i]: off[i + 1]]
            ]
            routes = [flat[off[i]: off[i + 1]].tolist() for i in keep]
            safe_batches.append(pack_routes(routes))

        # sequential reference: fault fires right after batch 0 injects
        ref = BatchEngine(ft)
        ref.inject_routes(*b0)
        ref_dropped = ref.disable_node(dead)
        ref.run()
        for flat, off in safe_batches:
            ref.inject_routes(flat, off)
            if ref.in_flight:
                ref.run()

        # shard 0 replays the mid-injection fault; later shards start with
        # the node already dead
        shards = []
        be = BatchEngine(ft)
        be.inject_routes(*b0)
        assert be.disable_node(dead) == ref_dropped
        be.run()
        shards.append(ShardStats.from_arrays(be.packet_records(), be.cycle))
        for flat, off in safe_batches:
            be = BatchEngine(ft)
            be.disable_node(dead)
            be.inject_routes(flat, off)
            if be.in_flight:
                be.run()
            shards.append(ShardStats.from_arrays(be.packet_records(), be.cycle))

        merged = ShardStats.merge(shards)
        assert merged.to_run_stats() == ref.stats()
        # the fault actually bit: queue drops plus en-route arrivals at the
        # dead node
        assert merged.dropped >= ref_dropped > 0

    @settings(max_examples=25, deadline=None)
    @given(
        n_shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        capacity=st.integers(min_value=1, max_value=3),
    )
    def test_merge_property_random_splits(self, n_shards, seed, capacity):
        """Hypothesis: any shard count, any seed, any capacity — the merge
        reproduces the sequential run bit-for-bit."""
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, "uniform", 90, np.random.default_rng(seed))
        ft, batches = _route_batches(m, h, k, pairs, n_shards)
        ref = _sequential_reference(ft, batches, capacity)
        merged = _merged_shards(ft, batches, capacity)
        assert merged.to_run_stats() == ref.stats()

    def test_merge_empty_and_identities(self):
        empty = ShardStats.empty()
        assert ShardStats.merge([]) == empty
        assert empty.to_run_stats().injected == 0
        assert empty.to_run_stats().mean_latency == 0.0
        one = ShardStats(
            cycles=5, injected=2, delivered=1, dropped=1,
            lat_values=np.array([3], dtype=np.int64),
            lat_counts=np.array([1], dtype=np.int64),
            hop_values=np.array([2], dtype=np.int64),
            hop_counts=np.array([1], dtype=np.int64),
        )
        merged = ShardStats.merge([one])
        assert merged.to_run_stats() == one.to_run_stats()

    def test_merge_all_dropped(self):
        g = debruijn(2, 3)
        be = BatchEngine(g)
        be.disable_node(2)
        with pytest.raises(SimulationError):
            be.inject_route([0, 2])  # routes through a dead node refuse
        s = ShardStats.from_arrays(be.packet_records(), be.cycle)
        assert s.injected == s.delivered == 0
        assert ShardStats.merge([s, s]).to_run_stats().throughput == 0.0


class TestRouteShardWorker:
    def test_route_shard_runs_and_pickles(self):
        import pickle

        g = debruijn(2, 4)
        pairs = make_pattern(16, "uniform", 50, np.random.default_rng(1))
        flat, off = lifted_routes_batch(2, 4, _identity_phi(16), pairs[:, 0],
                                        pairs[:, 1])
        shard = _RouteShard(
            graph=g, link_capacity=1, flat=flat, offsets=off,
            dead_nodes=(), dead_links=(), validate=True,
        )
        stats = _run_route_shard(pickle.loads(pickle.dumps(shard)))
        assert stats.delivered == 50


class TestScenarioGrid:
    """The grid of scenarios ``run_grid`` consumes: an
    ``ExperimentGrid`` expanding to validated ``ExperimentSpec`` cells."""

    def test_expansion_order_and_size(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 1)],
            patterns=["uniform", "hotspot"],
            loads=[10, 20],
            fault_sets=[(), ((0, 1),)],
            seeds=[0, 1, 2],
        )
        cells = grid.expand()
        assert len(cells) == len(grid) == 2 * 2 * 2 * 2 * 3
        # seeds vary fastest, mhk slowest (documented product order)
        assert [c.seed for c in cells[:3]] == [0, 1, 2]
        assert cells[0].m == cells[len(cells) // 2 - 1].m == 2
        assert cells[0].h == 4 and cells[-1].h == 5

    def test_dict_round_trip(self):
        grid = ExperimentGrid(mhk=[(2, 4, 1)], fault_sets=[((3, 7),)],
                              seeds=[5], batches=2)
        assert ExperimentGrid.from_dict(grid.to_dict()) == grid

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError):
            ExperimentGrid.from_dict({"mhk": [[2, 4, 1]], "nope": 1})

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentGrid(mhk=[])

    def test_scenario_validation(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(m=2, h=4, pattern="nope")
        with pytest.raises(ParameterError):
            ExperimentSpec(m=2, h=4, controller="nope")
        with pytest.raises(ParameterError):
            ExperimentSpec(m=2, h=4, shards=3, batches=2)
        with pytest.raises(ParameterError):
            ExperimentSpec(m=2, h=4, shards=2, batches=2, cycles_per_batch=5)
        with pytest.raises(ParameterError):
            ExperimentSpec(m=2, h=4, shards=2, batches=2, faults=((4, 1),))
        with pytest.raises(ParameterError, match="spares"):
            ExperimentSpec(m=2, h=4, k=1, faults=((0, 1), (0, 2)))
        with pytest.raises(ParameterError, match="'object' or 'batch'"):
            ExperimentSpec(m=2, h=4, engine="sharded")
        with pytest.raises(ParameterError, match="detour"):
            ExperimentSpec(m=2, h=4, controller="detour", cycles_per_batch=3)


class TestShardDriver:
    def test_inline_map_preserves_order(self):
        drv = ShardDriver(workers=0)
        assert drv.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_pool_map_matches_inline(self):
        tasks = list(range(23))
        inline = ShardDriver(workers=0).map(_square, tasks)
        pooled = ShardDriver(workers=2, chunk_size=3).map(_square, tasks)
        assert pooled == inline

    def test_pool_propagates_worker_errors(self):
        with pytest.raises(SimulationError, match="boom"):
            ShardDriver(workers=2).map(_explode, [1, 2, 3])

    def test_inline_errors_use_the_same_contract(self):
        """workers<=1 wraps failures exactly like the pool does."""
        with pytest.raises(SimulationError, match="boom"):
            ShardDriver(workers=0).map(_explode, [1])

    def test_dead_worker_detected_not_hung(self):
        """A worker killed without reporting (simulated os._exit) raises
        instead of blocking forever."""
        with pytest.raises(SimulationError, match="died without reporting"):
            ShardDriver(workers=2, chunk_size=1).map(_die_hard, [1, 2, 3, 4])

    def test_empty_task_list(self):
        assert ShardDriver(workers=2).map(_square, []) == []


def _square(x):
    return x * x


def _explode(x):
    raise ValueError("boom")


def _die_hard(x):
    os._exit(13)  # no exception, no result message — a hard crash


class TestRunGrid:
    def test_multiprocess_matches_inline(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 1)],
            patterns=["uniform"],
            loads=[150],
            fault_sets=[(), ((0, 4),)],
            seeds=[0, 1],
        )
        inline = run_grid(grid, workers=0)
        pooled = run_grid(grid, workers=2)
        assert inline.aggregate_stats == pooled.aggregate_stats
        for a, b in zip(inline.results, pooled.results):
            assert a.run_stats == b.run_stats
            assert a.spec == b.spec

    def test_per_batch_shards_match_single_process(self):
        sc = ExperimentSpec(m=2, h=5, k=1, pattern="uniform", packets=600,
                            batches=4, shards=4, seed=2)
        sharded = run_grid([sc], workers=2).results[0].run_stats
        ctrl = ReconfigurationController(2, 5, 1, engine="batch")
        pairs = make_pattern(32, "uniform", 600, np.random.default_rng(2))
        single = ctrl.run_workload(np.array_split(pairs, 4))
        assert sharded == single

    def test_detour_scenarios(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], loads=[100], fault_sets=[((0, 3),)],
            controller="detour", seeds=[0],
        )
        res = run_grid(grid, workers=0)
        st_ = res.results[0].run_stats
        assert st_.delivered + st_.dropped == st_.injected
        assert st_.injected + res.results[0].unreachable_pairs == 100

    def test_mid_run_faults_run_on_honest_timeline(self):
        """Grid cells run engine='batch' inside the worker, so mid-run
        faults keep exact timing — equal to a direct controller run."""
        sc = ExperimentSpec(m=2, h=4, k=2, pattern="uniform", packets=300,
                            faults=((2, 5), (6, 11)), seed=9)
        via_grid = run_grid([sc], workers=2).results[0].run_stats
        ctrl = ReconfigurationController(2, 4, 2, engine="batch")
        ctrl.schedule(FaultScenario([(2, 5), (6, 11)]))
        pairs = make_pattern(16, "uniform", 300, np.random.default_rng(9))
        assert via_grid == ctrl.run_workload([pairs])

    def test_rows_are_json_friendly(self):
        import json

        res = run_grid(ExperimentGrid(mhk=[(2, 4, 1)], loads=[50]), workers=0)
        text = json.dumps(res.rows())
        assert "B^1_{2,4}" in text
        assert res.workers == 0

    def test_rejects_non_scenarios(self):
        with pytest.raises(ParameterError):
            run_grid([object()], workers=0)


class TestShardedEngine:
    def test_matches_batch_engine_multi_batch(self):
        pairs = make_pattern(64, "uniform", 900, np.random.default_rng(5))
        batches = np.array_split(pairs, 3)
        a = ReconfigurationController(2, 6, 1, engine="batch")
        sa = a.run_workload([b.copy() for b in batches])
        b = ReconfigurationController(2, 6, 1, engine="sharded", workers=2)
        sb = b.run_workload([x.copy() for x in batches])
        assert sa == sb

    def test_matches_batch_engine_with_idle_gaps(self):
        pairs = make_pattern(64, "uniform", 400, np.random.default_rng(6))
        batches = np.array_split(pairs, 4)
        a = ReconfigurationController(2, 6, 1, engine="batch")
        sa = a.run_workload([b.copy() for b in batches], cycles_per_batch=9)
        b = ReconfigurationController(2, 6, 1, engine="sharded", workers=0)
        sb = b.run_workload([x.copy() for x in batches], cycles_per_batch=9)
        assert sa == sb

    def test_matches_batch_engine_boundary_faults(self):
        """Faults at cycle 0 fire before any injection in both engines."""
        pairs = make_pattern(64, "uniform", 500, np.random.default_rng(7))
        batches = np.array_split(pairs, 2)
        scenario = FaultScenario([(0, 5), (0, 30)])
        a = ReconfigurationController(2, 6, 2, engine="batch")
        a.schedule(scenario)
        sa = a.run_workload([b.copy() for b in batches])
        b = ReconfigurationController(2, 6, 2, engine="sharded", workers=0)
        b.schedule(FaultScenario([(0, 5), (0, 30)]))
        sb = b.run_workload([x.copy() for x in batches])
        assert sa == sb
        assert [n for _, n in a.fault_log] == [n for _, n in b.fault_log]

    def test_mid_drain_fault_defers_to_boundary(self):
        """The documented divergence: a mid-drain fault drops packets in
        the batch engine but defers (dropping none) in the sharded one —
        conservation still holds."""
        pairs = make_pattern(32, "uniform", 400, np.random.default_rng(8))
        ctrl = ReconfigurationController(2, 5, 1, engine="sharded", workers=0)
        ctrl.schedule(FaultScenario([(3, 7)]))
        stats = ctrl.run_workload([pairs[:200], pairs[200:]])
        assert ctrl.lost_to_faults == 0
        assert stats.delivered + stats.dropped == stats.injected
        assert ctrl.fault_log and ctrl.fault_log[0][1] == 7

    def test_detour_controller_sharded(self):
        pairs = make_pattern(16, "uniform", 300, np.random.default_rng(2))
        batches = np.array_split(pairs, 3)
        a = DetourController(2, 4, engine="batch")
        a.fail_node(3)
        sa = a.run_workload([b.copy() for b in batches])
        b = DetourController(2, 4, engine="sharded", workers=2)
        b.fail_node(3)
        sb = b.run_workload([x.copy() for x in batches])
        assert sa == sb
        assert a.unreachable_pairs == b.unreachable_pairs

    def test_validation_matches_batch_engine(self):
        g = debruijn(2, 4)
        eng = ShardedEngine(g)
        with pytest.raises(SimulationError):
            eng.inject_route([])
        with pytest.raises(SimulationError):
            eng.inject_route([0, 9])  # not an edge
        eng.disable_node(3)
        with pytest.raises(SimulationError):
            eng.inject_route([1, 3])  # dead node
        with pytest.raises(SimulationError):
            eng.disable_node(99)
        with pytest.raises(SimulationError):
            eng.disable_link(0, 9)
        eng.disable_link(0, 1)
        with pytest.raises(SimulationError):
            eng.inject_route([0, 1])  # dead link
        # a clean route still works end to end
        pid = eng.inject_route([1, 2, 4])
        assert pid == 0
        assert eng.in_flight == 1
        stats = eng.stats()
        assert stats.delivered == 1
        assert eng.in_flight == 0

    def test_stats_drains_pending(self):
        g = debruijn(2, 4)
        eng = ShardedEngine(g, workers=0)
        eng.inject_route([0, 1, 2])
        assert eng.injected == 1
        st_ = eng.stats()
        assert st_.delivered == 1 and st_.cycles == 2

    def test_self_delivery(self):
        g = debruijn(2, 3)
        eng = ShardedEngine(g, workers=0)
        eng.inject_route([4])
        assert eng.stats().delivered == 1
        assert eng.stats().mean_latency == 0.0

    def test_unknown_engine_rejected(self):
        # registry lookups raise a ValueError subclass naming the choices
        with pytest.raises(ParameterError, match="engine.*object.*batch"):
            ReconfigurationController(2, 4, 1, engine="warp")
