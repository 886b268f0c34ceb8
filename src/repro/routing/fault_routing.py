"""Routing on faulty machines: the reconfigured lift vs. naive detours.

Two strategies are implemented, matching the paper's motivation (§I: in a
constant-degree network "a single processor or link failure can severely
degrade the performance"):

* :class:`ReconfiguredRouter` — the paper's answer.  Logical traffic is
  routed on the *intact* target ``B_{m,h}`` (shift-register or table
  routes) and the path is lifted through the reconfiguration map φ; every
  lifted hop is a physical edge of ``B^k_{m,h}`` by Theorem 1/2, so path
  lengths are *identical* to the fault-free machine.
* :func:`detour_route` — the spare-less baseline: route around faults
  inside the surviving subgraph of the bare target graph.  Paths stretch,
  and with enough faults the survivor graph disconnects (Esfahanian–Hakimi
  territory); the MOTIV bench quantifies the gap.
"""

from __future__ import annotations

import numpy as np

from repro.core.debruijn import debruijn
from repro.core.fault_tolerant import ft_debruijn
from repro.core.reconfiguration import Reconfigurator
from repro.errors import RoutingError
from repro.graphs.static_graph import StaticGraph
from repro.routing.shift_register import (
    route_hop_pairs,
    shift_route,
    shift_route_batch,
)
from repro.routing.shortest_path import bfs_parents, extract_path

__all__ = [
    "ReconfiguredRouter",
    "detour_route",
    "lifted_routes_batch",
    "survivor_graph",
    "survivor_route_table",
]


def lifted_routes_batch(
    m: int, h: int, phi: np.ndarray, srcs: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shift-register routes for a batch of logical pairs, lifted through
    the reconfiguration map ``φ``: ``(flat, offsets)`` arrays in the
    :func:`repro.routing.shift_register.shift_route_batch` layout, ready
    for ``inject_routes`` on either simulation engine."""
    flat, offsets = shift_route_batch(srcs, dsts, m, h)
    return phi[flat], offsets


class ReconfiguredRouter:
    """Routes on a reconfigured fault-tolerant de Bruijn machine.

    Parameters
    ----------
    m, h, k:
        Construction parameters of the underlying ``B^k_{m,h}``.

    Logical endpoints are target-graph nodes ``0..m^h - 1``; physical
    routes are returned in fault-tolerant-graph coordinates.
    """

    def __init__(self, m: int, h: int, k: int):
        self.m, self.h, self.k = int(m), int(h), int(k)
        self.target = debruijn(m, h)
        self.ft = ft_debruijn(m, h, k)
        self.reconfigurator = Reconfigurator(self.ft.node_count, self.target.node_count)

    def fail_node(self, physical: int) -> None:
        """Report a physical node failure; the remap updates immediately."""
        self.reconfigurator.fail_node(physical)

    def repair_node(self, physical: int) -> None:
        """Return a physical node to service."""
        self.reconfigurator.repair_node(physical)

    def logical_route(self, src: int, dst: int) -> list[int]:
        """Shift-register route in target coordinates (<= h hops)."""
        return shift_route(src, dst, self.m, self.h)

    def physical_route(self, src: int, dst: int) -> list[int]:
        """The lifted route ``[φ(v) for v in logical_route]``.

        Raises :class:`RoutingError` if any lifted hop is missing from the
        fault-tolerant graph — which Theorems 1/2 guarantee cannot happen
        (the check is kept as a runtime invariant).
        """
        phi = self.reconfigurator.phi()
        route = [int(phi[v]) for v in self.logical_route(src, dst)]
        for a, b in zip(route, route[1:]):
            if a != b and not self.ft.has_edge(a, b):
                raise RoutingError(
                    f"lifted hop ({a}, {b}) missing — invariant violated"
                )
        return route

    def physical_routes_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, *, validate: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lifted routes for a whole batch of logical pairs at once.

        Returns ``(flat, offsets)`` arrays in the
        :func:`repro.routing.shift_register.shift_route_batch` layout, with
        every node already pushed through φ — ready for
        :meth:`repro.simulator.batch_engine.BatchEngine.inject_routes`.
        ``validate=True`` re-checks the Theorem 1/2 invariant (every lifted
        hop is a physical edge) with one vectorized ``has_edges`` call.
        """
        flat, offsets = lifted_routes_batch(
            self.m, self.h, self.reconfigurator.phi(), srcs, dsts
        )
        if validate and flat.size > 1:
            a, b = route_hop_pairs(flat, offsets)
            ok = self.ft.has_edges(a, b)
            if not ok.all():
                i = int(np.flatnonzero(~ok)[0])
                raise RoutingError(
                    f"lifted hop ({a[i]}, {b[i]}) missing — invariant violated"
                )
        return flat, offsets

    def route_length(self, src: int, dst: int) -> int:
        """Hops of the reconfigured route — equal to the fault-free length
        (reconfiguration costs zero dilation; contrast with detours)."""
        return len(self.physical_route(src, dst)) - 1


def survivor_graph(g: StaticGraph, faults) -> tuple[StaticGraph, np.ndarray]:
    """The induced subgraph on non-faulty nodes plus the kept-id array."""
    return g.without_nodes(np.asarray(list(faults), dtype=np.int64))


def survivor_route_table(g: StaticGraph, faults) -> "RouteTable":
    """Compile a detour :class:`~repro.routing.tables.RouteTable` for the
    survivor graph of ``g`` under ``faults``, in *original* node ids.

    The table keeps all ``n`` rows/columns (so batch extraction needs no
    id remapping) but is compiled on the graph with every fault-incident
    edge removed: a faulty or disconnected endpoint simply yields the
    :data:`~repro.routing.tables.UNREACHABLE` sentinel — including a
    faulty node's *diagonal*, so ``table_reachable`` refuses even the
    trivial self-route to a dead endpoint.  Routes are
    hop-optimal in the survivor graph — the same lengths
    :func:`detour_route`'s per-pair BFS produces, though tie-breaking
    between equal-length paths may differ (the conformance suite pins
    hop-count + validity equivalence, not path equality).

    This is the compile-once artifact
    :class:`repro.simulator.faults.DetourController` caches per fault
    epoch — the cache keys on the frozen
    fault set, so both fault *and* repair events (churn universes)
    invalidate it and the next routed batch recompiles against the
    current survivors.

    The masking happens as array slicing on the canonical CSR planes
    inside :func:`~repro.routing.tables.compile_routing_table` — no
    survivor :class:`StaticGraph` is ever materialized.
    """
    from repro.routing.tables import RouteTable, compile_routing_table

    return RouteTable(compile_routing_table(g, faulty=faults))


def detour_route(g: StaticGraph, faults, src: int, dst: int) -> list[int]:
    """Hop-optimal route between two healthy nodes avoiding ``faults``
    inside the bare graph ``g`` (original node ids).

    Raises :class:`RoutingError` when an endpoint is faulty or the
    survivors disconnect the pair — the failure mode spare-less machines
    are exposed to.
    """
    fset = {int(v) for v in faults}
    if src in fset or dst in fset:
        raise RoutingError("endpoint is faulty")
    sub, kept = survivor_graph(g, sorted(fset))
    pos = {int(old): i for i, old in enumerate(kept)}
    s, d = pos[int(src)], pos[int(dst)]
    if s == d:
        return [int(src)]
    parent = bfs_parents(sub, s)
    sub_path = extract_path(parent, s, d)
    return [int(kept[v]) for v in sub_path]
