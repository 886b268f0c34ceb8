"""Regenerate every table and figure of the paper.

Each ``exp_*`` function reproduces one artifact (see DESIGN.md §3 for the
index) and returns a :class:`Report` carrying a human-readable body plus a
``metrics`` dict that tests and EXPERIMENTS.md assert against.

Command line::

    python -m repro.analysis.reporting            # everything
    python -m repro.analysis.reporting FIG1 TAB1  # a selection
    python -m repro.analysis.reporting --list     # ids only
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.comparison import comparison_base2, comparison_basem, se_comparison
from repro.analysis.reliability import reliability_table
from repro.analysis.spares import extra_spare_search, window_necessity
from repro.core import (
    bus_degree_bound,
    bus_ft_debruijn,
    debruijn,
    embed_se_in_debruijn,
    exhaustive_tolerance_check,
    ft_debruijn,
    ft_degree_bound,
    psi_map,
    rank_remap,
    reconfigure_with_bus_faults,
    shuffle_exchange,
    verify_bus_embedding,
)
from repro.core.debruijn import debruijn_directed_successors
from repro.reports.tables import format_table
from repro.viz.ascii_art import adjacency_listing, bus_listing, relabeled_listing

__all__ = ["Report", "all_experiment_ids", "run_experiment", "main"]


@dataclass
class Report:
    """One regenerated artifact."""

    exp_id: str
    title: str
    body: str
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        bar = "=" * 72
        lines = [bar, f"{self.exp_id}: {self.title}", bar, self.body.rstrip()]
        if self.metrics:
            lines.append("-" * 72)
            lines.append("metrics: " + ", ".join(f"{k}={v}" for k, v in self.metrics.items()))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def exp_fig1() -> Report:
    """Fig. 1: the base-2 four-digit de Bruijn graph B_{2,4}."""
    g = debruijn(2, 4)
    body = adjacency_listing(g, 2, 4)
    return Report(
        "FIG1",
        "B_{2,4} (paper Fig. 1)",
        body,
        metrics={"nodes": g.node_count, "edges": g.edge_count, "max_degree": g.max_degree()},
    )


def exp_fig2() -> Report:
    """Fig. 2: the fault-tolerant graph B^1_{2,4}."""
    g = ft_debruijn(2, 4, 1)
    body = adjacency_listing(g, 2, 4)
    return Report(
        "FIG2",
        "B^1_{2,4} (paper Fig. 2): 17 nodes, degree <= 8",
        body,
        metrics={
            "nodes": g.node_count,
            "max_degree": g.max_degree(),
            "degree_bound": ft_degree_bound(2, 1),
        },
    )


def exp_fig3() -> Report:
    """Fig. 3: new labels of B^1_{2,4} after one fault."""
    h, k, fault = 4, 1, 4
    ft = ft_debruijn(2, h, k)
    target = debruijn(2, h)
    phi = rank_remap(ft.node_count, [fault], target.node_count)
    listing = relabeled_listing(ft.node_count, phi, [fault], 2, h)
    # verify all 17 single faults
    ok = 0
    for f in range(ft.node_count):
        p = rank_remap(ft.node_count, [f], target.node_count)
        e = target.edges()
        if bool(ft.has_edges(p[e[:, 0]], p[e[:, 1]]).all()):
            ok += 1
    body = (
        f"fault at physical node {fault}; solid edges = embedded B_{{2,4}}\n\n"
        + listing
        + f"\n\nall {ft.node_count} single-fault reconfigurations verified: {ok}/{ft.node_count}"
    )
    return Report(
        "FIG3",
        "Reconfiguration of B^1_{2,4} after one fault (paper Fig. 3)",
        body,
        metrics={"verified_single_faults": ok, "total": ft.node_count},
    )


def exp_fig4() -> Report:
    """Fig. 4: bus implementation of B^1_{2,3}."""
    bg = bus_ft_debruijn(3, 1)
    return Report(
        "FIG4",
        "Bus implementation of B^1_{2,3} (paper Fig. 4)",
        bus_listing(bg),
        metrics={
            "nodes": bg.node_count,
            "buses": bg.bus_count,
            "max_bus_degree": bg.max_bus_degree(),
            "bound_2k+3": bus_degree_bound(1),
        },
    )


def exp_fig5() -> Report:
    """Fig. 5: reconfiguration after one fault, bus implementation."""
    h, k, fault = 3, 1, 4
    bg = bus_ft_debruijn(h, k)
    target = debruijn(2, h)
    succ = debruijn_directed_successors(2, h)
    phi, eff = reconfigure_with_bus_faults(h, k, node_faults=[fault])
    listing = relabeled_listing(bg.node_count, phi, eff, 2, h)
    ok = 0
    for f in range(bg.node_count):
        p, e = reconfigure_with_bus_faults(h, k, node_faults=[f])
        healthy = [b for b in range(bg.bus_count) if b != f]
        if verify_bus_embedding(bg, target, p, healthy_buses=healthy, directed_successors=succ):
            ok += 1
    bus_ok = 0
    for b in range(bg.bus_count):
        p, e = reconfigure_with_bus_faults(h, k, bus_faults=[b])
        healthy = [x for x in range(bg.bus_count) if x != b]
        if verify_bus_embedding(bg, target, p, healthy_buses=healthy, directed_successors=succ):
            bus_ok += 1
    body = (
        f"fault at node {fault}:\n\n{listing}\n\n"
        f"single node faults drivable over healthy buses: {ok}/{bg.node_count}\n"
        f"single BUS faults (owner rule) drivable:        {bus_ok}/{bg.bus_count}"
    )
    return Report(
        "FIG5",
        "Bus reconfiguration of B^1_{2,3} after one fault (paper Fig. 5)",
        body,
        metrics={"node_fault_ok": ok, "bus_fault_ok": bus_ok, "total": bg.node_count},
    )


# ---------------------------------------------------------------------------
# Comparison tables (paper §I prose)
# ---------------------------------------------------------------------------

def exp_tab1() -> Report:
    rows = [r.as_dict() for r in comparison_base2()]
    worst = max(r["node_ratio"] for r in rows)
    return Report(
        "TAB1",
        "Base-2 comparison: ours (N+k, 4k+4) vs Samatham-Pradhan ((2k+2)^h, 4k+2)",
        format_table(rows),
        metrics={"max_node_ratio": worst, "rows": len(rows)},
    )


def exp_tab2() -> Report:
    rows = [r.as_dict() for r in comparison_basem()]
    worst = max(r["node_ratio"] for r in rows)
    return Report(
        "TAB2",
        "Base-m comparison: ours (N+k, 4(m-1)k+2m) vs S-P ((m(k+1))^h, 2mk+2)",
        format_table(rows),
        metrics={"max_node_ratio": worst, "rows": len(rows)},
    )


# ---------------------------------------------------------------------------
# Theorems and corollaries
# ---------------------------------------------------------------------------

def exp_thm1() -> Report:
    rows = []
    for h, k in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        rep = exhaustive_tolerance_check(ft_debruijn(2, h, k), debruijn(2, h), k)
        rows.append({"h": h, "k": k, "fault_sets": rep.total, "result": "OK" if rep.ok else "FAIL"})
    return Report(
        "THM1",
        "Theorem 1: B^k_{2,h} is (k, B_{2,h})-tolerant (exhaustive)",
        format_table(rows),
        metrics={"all_ok": all(r["result"] == "OK" for r in rows)},
    )


def exp_thm2() -> Report:
    rows = []
    for m, h, k in [(3, 3, 1), (3, 3, 2), (4, 3, 1), (5, 3, 1)]:
        rep = exhaustive_tolerance_check(ft_debruijn(m, h, k), debruijn(m, h), k)
        rows.append({"m": m, "h": h, "k": k, "fault_sets": rep.total,
                     "result": "OK" if rep.ok else "FAIL"})
    return Report(
        "THM2",
        "Theorem 2: B^k_{m,h} is (k, B_{m,h})-tolerant (exhaustive)",
        format_table(rows),
        metrics={"all_ok": all(r["result"] == "OK" for r in rows)},
    )


def exp_cor14() -> Report:
    rows = []
    for m, h, k in [(2, 3, 0), (2, 3, 1), (2, 4, 1), (2, 4, 2), (2, 4, 3),
                    (3, 3, 1), (3, 3, 2), (4, 3, 1)]:
        g = ft_debruijn(m, h, k)
        rows.append({
            "m": m, "h": h, "k": k,
            "nodes": g.node_count, "nodes_formula": m ** h + k,
            "deg=": g.max_degree(), "deg<=": ft_degree_bound(m, k),
            "tight": "yes" if g.max_degree() == ft_degree_bound(m, k) else "no",
        })
    return Report(
        "COR14",
        "Corollaries 1-4: node counts and degree bounds, measured",
        format_table(rows),
        metrics={"violations": sum(1 for r in rows if r["deg="] > r["deg<="])},
    )


# ---------------------------------------------------------------------------
# Shuffle-exchange
# ---------------------------------------------------------------------------

def exp_seemb() -> Report:
    rows = []
    for h in range(3, 11):
        emb = embed_se_in_debruijn(h)  # raises if invalid
        rows.append({
            "h": h,
            "nodes": 1 << h,
            "se_edges": emb.pattern.edge_count,
            "host_edge_fraction": round(emb.used_host_edge_fraction(), 3),
            "valid": "yes",
        })
    # FT-SE tolerance through psi at small scale
    tol = []
    for h, k in [(3, 1), (3, 2), (4, 1)]:
        rep = exhaustive_tolerance_check(
            ft_debruijn(2, h, k), shuffle_exchange(h), k, logical_map=psi_map(h)
        )
        tol.append({"h": h, "k": k, "fault_sets": rep.total, "result": "OK" if rep.ok else "FAIL"})
    body = (
        "psi(u) = u (even weight) | rot^-1(u) (odd weight) embeds SE_h into B_{2,h}:\n\n"
        + format_table(rows)
        + "\n\n(k, SE_h)-tolerance of B^k_{2,h} via phi∘psi (exhaustive):\n\n"
        + format_table(tol)
    )
    return Report(
        "SEEMB",
        "SE_h ⊆ B_{2,h} (ref [7], constructed) and FT-SE at degree 4k+4",
        body,
        metrics={"h_verified_max": 10, "tolerance_ok": all(t["result"] == "OK" for t in tol)},
    )


def exp_senat() -> Report:
    rows = se_comparison()
    return Report(
        "SENAT",
        "FT shuffle-exchange: de Bruijn relabeling (4k+4) vs natural labeling "
        "(ours 6k+6; paper remark 6k+4) vs buses (2k+3)",
        format_table(rows),
        metrics={
            "psi_always_leq_natural": all(r["psi_deg="] <= r["natural_deg="] for r in rows),
        },
    )


# ---------------------------------------------------------------------------
# Buses
# ---------------------------------------------------------------------------

def exp_busdeg() -> Report:
    from repro.core.buses import bus_degree_bound_basem, bus_ft_debruijn_basem
    from repro.core.fault_tolerant import ft_degree_bound

    rows = []
    for h in (3, 4, 5, 6):
        for k in (1, 2, 3, 4):
            bg = bus_ft_debruijn(h, k)
            rows.append({
                "m": 2, "h": h, "k": k,
                "bus_deg=": bg.max_bus_degree(),
                "bound": bus_degree_bound(k),
                "p2p_deg": 4 * k + 4,
                "ratio": round((4 * k + 4) / bg.max_bus_degree(), 2),
            })
    # the base-m generalization §V leaves implicit
    basem_rows = []
    for m in (3, 4):
        for k in (1, 2):
            bg = bus_ft_debruijn_basem(m, 3, k)
            basem_rows.append({
                "m": m, "h": 3, "k": k,
                "bus_deg=": bg.max_bus_degree(),
                "bound": bus_degree_bound_basem(m, k),
                "p2p_deg": ft_degree_bound(m, k),
                "ratio": round(ft_degree_bound(m, k) / bg.max_bus_degree(), 2),
            })
    body = (
        format_table(rows)
        + "\n\nbase-m generalization ((m-1)(2k+1)+2 ports):\n\n"
        + format_table(basem_rows)
    )
    return Report(
        "BUSDEG",
        "§V: bus-port degree 2k+3 vs point-to-point 4k+4 (factor ≈ 2), "
        "plus the base-m generalization",
        body,
        metrics={
            "all_match": all(r["bus_deg="] == r["bound"] for r in rows),
            "basem_all_match": all(r["bus_deg="] == r["bound"] for r in basem_rows),
        },
    )


def exp_busslow() -> Report:
    """§V slowdown: ≈2x when nodes send two distinct values per cycle,
    ≈1x when they send one value (bus broadcast)."""
    from repro.core.buses import bus_debruijn
    from repro.simulator import BusNetworkSimulator, NetworkSimulator

    h = 6
    n = 1 << h
    g = debruijn(2, h)
    bg = bus_debruijn(h)

    # workload A: every node sends TWO DISTINCT values to its successors
    pairs = []
    for x in range(n):
        for r in (0, 1):
            y = (2 * x + r) % n
            if y != x:
                pairs.append((x, y))
    p2p = NetworkSimulator(g)
    for s, d in pairs:
        p2p.inject_route([s, d])
    a_p2p = p2p.run()
    bus = BusNetworkSimulator(bg)
    for i, (s, d) in enumerate(pairs):
        bus.inject_route([s, d], word=None)  # distinct words: no combining
    a_bus = bus.run()

    # workload B: every node BROADCASTS one value to both successors
    p2p2 = NetworkSimulator(g)
    for s, d in pairs:
        p2p2.inject_route([s, d])
    b_p2p = p2p2.run()
    bus2 = BusNetworkSimulator(bg)
    for s, d in pairs:
        bus2.inject_route([s, d], word=s)  # same word per source: combines
    b_bus = bus2.run()

    rows = [
        {"workload": "two distinct values/node", "p2p_cycles": a_p2p.cycles,
         "bus_cycles": a_bus.cycles, "slowdown": round(a_bus.cycles / a_p2p.cycles, 2)},
        {"workload": "one broadcast value/node", "p2p_cycles": b_p2p.cycles,
         "bus_cycles": b_bus.cycles, "slowdown": round(b_bus.cycles / b_p2p.cycles, 2)},
    ]
    return Report(
        "BUSSLOW",
        "§V: bus slowdown is ≈2x for two-value sends, ≈1x for single-value sends",
        format_table(rows),
        metrics={
            "two_value_slowdown": rows[0]["slowdown"],
            "broadcast_slowdown": rows[1]["slowdown"],
        },
    )


# ---------------------------------------------------------------------------
# Motivation & algorithms on the simulator
# ---------------------------------------------------------------------------

def exp_motiv() -> Report:
    """§I motivation: spare-less machines degrade under faults; the FT
    construction restores full service after reconfiguration."""
    from repro.simulator import (
        DetourController,
        FaultScenario,
        ReconfigurationController,
        uniform_traffic,
    )

    m, h, k = 2, 5, 2
    n = 1 << h
    rng = np.random.default_rng(2024)
    batches = [uniform_traffic(n, 300, rng) for _ in range(3)]

    # the vectorized engine is a golden-tested twin of the object engine,
    # so experiments run on it without changing any reported number
    base = ReconfigurationController(m, h, k, engine="batch")
    s_base = base.run_workload([b.copy() for b in batches])

    ft = ReconfigurationController(m, h, k, engine="batch")
    ft.schedule(FaultScenario([(0, 7), (0, 19)]))
    s_ft = ft.run_workload([b.copy() for b in batches])

    det = DetourController(m, h, engine="batch")
    det.fail_node(7)
    det.fail_node(19)
    s_det = det.run_workload([b.copy() for b in batches])

    rows = [
        {"machine": "FT, no faults", "delivered": s_base.delivered,
         "unreachable": 0, "mean_latency": round(s_base.mean_latency, 2),
         "mean_hops": round(s_base.mean_hops, 2)},
        {"machine": f"FT, {k} faults + reconfig", "delivered": s_ft.delivered,
         "unreachable": 0, "mean_latency": round(s_ft.mean_latency, 2),
         "mean_hops": round(s_ft.mean_hops, 2)},
        {"machine": "bare dB, 2 faults, detours", "delivered": s_det.delivered,
         "unreachable": det.unreachable_pairs,
         "mean_latency": round(s_det.mean_latency, 2),
         "mean_hops": round(s_det.mean_hops, 2)},
    ]
    return Report(
        "MOTIV",
        "§I motivation: FT machine keeps full service under faults; "
        "spare-less machine loses nodes",
        format_table(rows),
        metrics={
            "ft_delivers_all": s_ft.delivered == sum(len(b) for b in batches),
            "bare_unreachable": det.unreachable_pairs,
        },
    )


def exp_algs() -> Report:
    """Ascend/Descend workloads on hypercube vs de Bruijn vs reconfigured
    FT machine: correct everywhere, constant-factor rounds."""
    from repro.algorithms import (
        FaultTolerantMachine,
        bitonic_sort_on_debruijn,
        bitonic_sort_on_hypercube,
        exclusive_prefix,
        fft,
    )

    h = 5
    n = 1 << h
    rng = np.random.default_rng(11)
    keys = list(rng.integers(0, 1000, size=n))
    x = rng.random(n) + 1j * rng.random(n)

    hyp_vals, hyp_tr = bitonic_sort_on_hypercube(keys)
    db_vals, db_tr = bitonic_sort_on_debruijn(keys)
    mach = FaultTolerantMachine(h, 2)
    mach.fail_node(3)
    mach.fail_node(20)
    ft_vals, ft_tr = bitonic_sort_on_debruijn(keys, node_map=mach.rec.phi())

    X, fft_tr = fft(x, backend="debruijn")
    fft_ok = bool(np.allclose(X, np.fft.fft(x)))
    pre, pre_tr = exclusive_prefix(list(range(n)))

    rows = [
        {"workload": "bitonic sort", "machine": "hypercube (deg h)",
         "rounds": hyp_tr.round_count, "correct": hyp_vals == sorted(keys)},
        {"workload": "bitonic sort", "machine": "de Bruijn (deg 4)",
         "rounds": db_tr.round_count, "correct": db_vals == sorted(keys)},
        {"workload": "bitonic sort", "machine": "B^2 + 2 faults (deg 12)",
         "rounds": ft_tr.round_count, "correct": ft_vals == sorted(keys)},
        {"workload": "FFT (vs numpy)", "machine": "de Bruijn",
         "rounds": fft_tr.round_count, "correct": fft_ok},
        {"workload": "exclusive prefix", "machine": "de Bruijn",
         "rounds": pre_tr.round_count,
         "correct": pre == [sum(range(i)) for i in range(n)]},
    ]
    slow = db_tr.round_count / hyp_tr.round_count
    return Report(
        "ALGS",
        "Normal algorithms: constant-factor slowdown on de Bruijn, unchanged "
        "after faults + reconfiguration",
        format_table(rows),
        metrics={"debruijn_round_factor": round(slow, 2),
                 "all_correct": all(r["correct"] for r in rows)},
    )


# ---------------------------------------------------------------------------
# Ablations & reliability
# ---------------------------------------------------------------------------

def exp_abl_window() -> Report:
    rows = []
    for h, k in [(3, 1), (3, 2), (4, 1)]:
        for res in window_necessity(h, k):
            rows.append({
                "h": h, "k": k, "removed_r": res.removed_offset,
                "still_tolerant": res.still_tolerant,
                "counterexample": res.counterexample or "",
            })
    all_necessary = all(not r["still_tolerant"] for r in rows)
    return Report(
        "ABL-WIN",
        "Window tightness: removing any offset from {-k..k+1} breaks tolerance",
        format_table(rows),
        metrics={"every_offset_necessary": all_necessary},
    )


def exp_abl_spares() -> Report:
    rows = []
    for h, k in [(3, 1), (3, 2), (4, 1)]:
        for res in extra_spare_search(h, k, max_extra=3):
            rows.append({
                "h": h, "k": k, "spares": res.spares,
                "min_window": res.window_size,
                "canonical": res.canonical_window_size,
                "offsets": res.offsets,
                "degree": res.degree_measured,
                "improves": res.improves_on_canonical,
            })
    return Report(
        "ABL-SPARE",
        "§VI future work: can > k spares reduce the window/degree? "
        "(empirical, monotone-remap family)",
        format_table(rows),
        metrics={"any_improvement": any(r["improves"] for r in rows)},
    )


def exp_dil() -> Report:
    """DIL: zero dilation after reconfiguration vs stretch/disconnection
    under detours — all ordered pairs measured."""
    from repro.analysis.dilation import dilation_profile

    rows = []
    worst_unreachable = 0
    for h, k, faults in [(4, 1, [5]), (4, 2, [5, 11]), (5, 2, [3, 17])]:
        rec, det = dilation_profile(h, k, faults)
        rows.append({"h": h, "faults": tuple(faults), **rec.row()})
        rows.append({"h": h, "faults": tuple(faults), **det.row()})
        worst_unreachable = max(worst_unreachable, det.unreachable)
    zero_dilation = all(
        r["mean_dilation"] == 0 and r["max_dilation"] == 0
        for r in rows if r["machine"] == "reconfigured B^k"
    )
    return Report(
        "DIL",
        "Route dilation: reconfigured FT machine (zero) vs bare-graph detours",
        format_table(rows),
        metrics={"reconfig_zero_dilation": zero_dilation,
                 "worst_bare_unreachable": worst_unreachable},
    )


def exp_sealg() -> Report:
    """SEALG: normal algorithms on the shuffle-exchange machine — 2-round
    per-bit cost (vs 1 on dB), still fault-transparent through φ∘ψ."""
    from repro.algorithms import (
        FaultTolerantSEMachine,
        bitonic_sort_on_shuffle_exchange,
        fft,
    )

    h = 5
    n = 1 << h
    rng = np.random.default_rng(23)
    keys = list(map(int, rng.integers(0, 10**6, size=n)))
    x = rng.random(n) + 1j * rng.random(n)

    se_vals, se_tr = bitonic_sort_on_shuffle_exchange(keys)
    se_ok = se_vals == sorted(keys) and se_tr.verify_against(shuffle_exchange(h))

    mach = FaultTolerantSEMachine(h, 2)
    mach.fail_node(4)
    mach.fail_node(21)
    ft_vals, ft_tr = bitonic_sort_on_shuffle_exchange(keys, node_map=mach.node_map())
    ft_ok = ft_vals == sorted(keys) and ft_tr.verify_against(mach.healthy_graph())

    X, fft_tr = fft(x, backend="shuffle-exchange")
    fft_ok = bool(np.allclose(X, np.fft.fft(x)))

    rows = [
        {"workload": "bitonic sort", "machine": "SE_5 (deg 3)",
         "rounds": se_tr.round_count, "correct": se_ok},
        {"workload": "bitonic sort", "machine": "FT-SE via φ∘ψ, 2 faults",
         "rounds": ft_tr.round_count, "correct": ft_ok},
        {"workload": "FFT (vs numpy)", "machine": "SE_5",
         "rounds": fft_tr.round_count, "correct": fft_ok},
    ]
    return Report(
        "SEALG",
        "Normal algorithms on shuffle-exchange: degree-3 execution, "
        "fault-transparent through the ψ relabeling",
        format_table(rows),
        metrics={"all_correct": all(r["correct"] for r in rows),
                 "se_round_count": se_tr.round_count},
    )


def exp_sweep() -> Report:
    """SWEEP: a reliability-sweep slice on the sharded scenario driver —
    sizes x fault sets x seeds reduced through the exact shard merger."""
    from repro.experiments import ExperimentGrid
    from repro.simulator.shard_driver import run_grid

    grid = ExperimentGrid(
        mhk=[(2, 5, 2), (2, 6, 2)],  # k = 2 spares cover the 2-fault cells
        patterns=["uniform"],
        loads=[300],
        fault_sets=[(), ((0, 3),), ((0, 3), (5, 11))],
        seeds=[0, 1],
    )
    # inline (workers=0) keeps the report deterministic and test-fast; the
    # merged aggregate is bit-identical at any worker count
    res = run_grid(grid, workers=0)
    rows = [
        {k: r[k] for k in ("scenario", "engine", "cycles", "delivered",
                           "dropped", "mean_latency", "p95_latency")}
        for r in res.rows()
    ]
    agg = res.aggregate_stats
    body = (
        format_table(rows)
        + f"\n\naggregate: {agg}"
        + f"\n(engine={grid.engine}, workers={res.workers} — recorded so the "
        f"published numbers are reproducible)"
    )
    conserved = agg.delivered + agg.dropped == agg.injected
    return Report(
        "SWEEP",
        "Scenario sweep on the sharded driver: sizes x fault sets x seeds, "
        "exact shard-merged aggregate",
        body,
        metrics={
            "scenarios": len(grid),
            "delivered": agg.delivered,
            "dropped": agg.dropped,
            "conservation_holds": conserved,
            "engine": grid.engine,
            "workers": res.workers,
        },
    )


def exp_sat() -> Report:
    """SAT: open-loop saturation-throughput curves — the FT machine keeps
    its fault-free saturation point after k faults (zero dilation under
    sustained load); the spare-less detour baseline degrades."""
    from repro.experiments import ExperimentSpec
    from repro.simulator.streaming import find_saturation

    rates = [4, 8, 12, 14]
    common = dict(m=2, h=5, k=1, loop="stream", cycles=500, warmup=100, seed=0)
    machines = [
        ("FT, no faults", ExperimentSpec(**common)),
        ("FT, 1 fault + reconfig",
         ExperimentSpec(**common, faults=((0, 9),))),
        ("bare dB, 1 fault, detours",
         ExperimentSpec(**common, faults=((0, 9),), controller="detour")),
    ]
    rows, sat = [], {}
    for label, base in machines:
        res = find_saturation(base, rates, bisect=3, workers=0)
        sat[label] = res
        for p in res.points:
            rows.append({"machine": label, **{
                k: p.row()[k] for k in ("rate", "offered_rate",
                                        "delivered_rate", "delivery_ratio",
                                        "backlog")
            }})
    summary = [
        {"machine": label, "saturation_rate": round(res.saturation_rate, 3),
         "bracketed": res.bracketed}
        for label, res in sat.items()
    ]
    body = (
        format_table(rows)
        + "\n\ndetected saturation points (delivered/offered >= 0.95):\n\n"
        + format_table(summary)
        + "\n(engine=batch, workers=0 — inline keeps the report "
        "deterministic; the curves are engine-independent by the golden "
        "equivalence contract)"
    )
    s_free = sat["FT, no faults"].saturation_rate
    s_fault = sat["FT, 1 fault + reconfig"].saturation_rate
    s_detour = sat["bare dB, 1 fault, detours"].saturation_rate
    return Report(
        "SAT",
        "Saturation throughput under sustained open-loop load: "
        "reconfiguration preserves it, detours lose it",
        body,
        metrics={
            "saturation_fault_free": round(s_free, 3),
            "saturation_k_fault": round(s_fault, 3),
            "saturation_detour": round(s_detour, 3),
            "reconfig_preserves_throughput": bool(
                abs(s_fault - s_free) <= 0.1 * s_free
            ),
            "detour_degrades": bool(s_detour < s_fault),
        },
    )


def exp_rel() -> Report:
    rows = reliability_table(n_target=1 << 6)
    fmt = [{k: (f"{v:.4g}" if isinstance(v, float) else v) for k, v in r.items()} for r in rows]
    return Report(
        "REL",
        "Survival probability, 64-processor machine: bare vs k spares "
        "(i.i.d. node failure prob q)",
        format_table(fmt),
        metrics={"rows": len(rows)},
    )


# ---------------------------------------------------------------------------
# registry / CLI
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], Report]] = {
    "FIG1": exp_fig1,
    "FIG2": exp_fig2,
    "FIG3": exp_fig3,
    "FIG4": exp_fig4,
    "FIG5": exp_fig5,
    "TAB1": exp_tab1,
    "TAB2": exp_tab2,
    "THM1": exp_thm1,
    "THM2": exp_thm2,
    "COR14": exp_cor14,
    "SEEMB": exp_seemb,
    "SENAT": exp_senat,
    "BUSDEG": exp_busdeg,
    "BUSSLOW": exp_busslow,
    "MOTIV": exp_motiv,
    "ALGS": exp_algs,
    "ABL-WIN": exp_abl_window,
    "ABL-SPARE": exp_abl_spares,
    "DIL": exp_dil,
    "SEALG": exp_sealg,
    "REL": exp_rel,
    "SWEEP": exp_sweep,
    "SAT": exp_sat,
}


def all_experiment_ids() -> list[str]:
    """Stable list of experiment ids."""
    return list(_REGISTRY.keys())


def run_experiment(exp_id: str) -> Report:
    """Run one experiment by id (raises KeyError for unknown ids)."""
    return _REGISTRY[exp_id]()


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--list" in args:
        print("\n".join(all_experiment_ids()))
        return 0
    ids = [a for a in args if not a.startswith("-")] or all_experiment_ids()
    for i in ids:
        if i not in _REGISTRY:
            print(f"unknown experiment id: {i}", file=sys.stderr)
            return 2
        print(run_experiment(i).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
