"""Cross-backend statistics equivalence: the compiled survivor table is
exchangeable with the BFS oracle for every count- and hop-derived
statistic.

What *is* guaranteed (and asserted here): identical admission decisions,
identical delivered/dropped/injected counts, identical hop histograms —
on every engine, closed-loop and streaming.

What is deliberately **not** guaranteed: per-packet latencies and cycle
counts.  The two backends may pick different equal-length paths, which
contend for links differently; latency-bearing statistics are pinned
per-mode by the goldens instead (``test_goldens.py``).  The one latency
statement that *does* survive tie-breaking is asserted here: under
``link_capacity`` high enough that no link ever queues, the latency
multisets coincide too (latency == hops on an uncontended network).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator import (
    FaultScenario,
    PacketArrays,
    PoissonSource,
    ShardStats,
    make_pattern,
    run_stream,
)
from tests.conformance.harness import DETOUR_BACKENDS

M, H, N = 2, 5, 32
FAULTS = [3, 20]


def _controller(mode, engine, capacity=1):
    ctrl = DETOUR_BACKENDS[mode](
        M, H, engine=engine, link_capacity=capacity,
        workers=0 if engine == "sharded" else None,
    )
    for v in FAULTS:
        ctrl.fail_node(v)
    return ctrl


def _batches(packets=400, pattern="uniform", seed=5):
    pairs = make_pattern(N, pattern, packets, np.random.default_rng(seed))
    return np.array_split(pairs, 4)


def _shard_stats(ctrl) -> ShardStats:
    sim = ctrl.sim
    if hasattr(sim, "shard_stats"):
        return sim.shard_stats()
    if hasattr(sim, "packet_records"):
        rec = sim.packet_records()
    else:
        rec = PacketArrays.from_packets(sim.packets)
    return ShardStats.from_arrays(rec, sim.cycle)


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("engine", ["object", "batch", "sharded"])
    @pytest.mark.parametrize("pattern", ["uniform", "hotspot", "descend"])
    def test_counts_and_hop_histograms_match(self, engine, pattern):
        results = {}
        for mode in ("bfs", "table"):
            ctrl = _controller(mode, engine)
            stats = ctrl.run_workload(
                [b.copy() for b in _batches(pattern=pattern)]
            )
            results[mode] = (ctrl, stats, _shard_stats(ctrl))
        (cb, sb, hb), (ct, st_, ht) = results["bfs"], results["table"]
        assert cb.unreachable_pairs == ct.unreachable_pairs
        assert sb.injected == st_.injected
        assert sb.delivered == st_.delivered
        assert sb.dropped == st_.dropped
        assert sb.mean_hops == st_.mean_hops
        # the full delivered-hop multiset, not just its mean
        assert np.array_equal(hb.hop_values, ht.hop_values)
        assert np.array_equal(hb.hop_counts, ht.hop_counts)

    def test_uncontended_latency_multisets_match(self):
        """With capacity ample enough that no link queues, latency is
        pure path length — so even the latency histograms coincide."""
        results = {}
        for mode in ("bfs", "table"):
            ctrl = _controller(mode, "batch", capacity=400)
            ctrl.run_workload([b.copy() for b in _batches()])
            results[mode] = _shard_stats(ctrl)
        hb, ht = results["bfs"], results["table"]
        assert np.array_equal(hb.lat_values, ht.lat_values)
        assert np.array_equal(hb.lat_counts, ht.lat_counts)

    def test_fault_free_modes_coincide_on_counts(self):
        for engine in ("object", "batch"):
            stats = {}
            for mode in ("bfs", "table"):
                ctrl = DETOUR_BACKENDS[mode](M, H, engine=engine)
                stats[mode] = ctrl.run_workload(
                    [b.copy() for b in _batches(packets=200)]
                )
            assert stats["bfs"].delivered == stats["table"].delivered == 200
            assert stats["bfs"].mean_hops == stats["table"].mean_hops


class TestStreamingEquivalence:
    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_offered_and_refusals_match(self, engine):
        """Open-loop: admission is a pure function of the fault epoch, so
        offered load and refusal accounting match across modes even
        though in-flight contention may differ at the horizon."""
        results = {}
        for mode in ("bfs", "table"):
            ctrl = DETOUR_BACKENDS[mode](M, H, engine=engine)
            ctrl.schedule(FaultScenario([(0, 3), (80, 9)]))
            stats = run_stream(
                ctrl, PoissonSource(N, 3.0, seed=7), cycles=300, warmup=50
            )
            results[mode] = (ctrl, stats)
        (cb, sb), (ct, st_) = results["bfs"], results["table"]
        assert cb.unreachable_pairs == ct.unreachable_pairs > 0
        assert sb.offered == st_.offered
        assert sb.unadmitted == st_.unadmitted
        assert sb.totals.injected == st_.totals.injected
        assert [n for _, n in cb.fault_log] == [n for _, n in ct.fault_log]
