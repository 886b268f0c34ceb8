"""Shared machinery for the routing conformance suite.

The conformance regime (see ``tests/conformance/``) is how routing
changes become landable in this repo: a candidate backend does **not**
have to reproduce the reference's exact paths (BFS tie-breaking is an
implementation detail), it has to prove

1. **validity** — every emitted route is a real survivor-graph path:
   endpoints match the requested pair, every hop is an edge, no faulty
   node appears, no node repeats;
2. **hop-optimality** — every route's length equals the survivor-graph
   BFS distance, so the two backends are exchangeable for every
   hop-derived statistic;
3. **admission equivalence** — both backends admit exactly the same
   pairs and charge the same ``unreachable_pairs``;
4. **pinned outputs** — the candidate's own results are frozen in golden
   files across every engine, so refactors cannot silently move it.

This module holds the checkers the suite's test files share, and the
reference implementations they measure the shipped code against: the
pure-dict :class:`DictGraph`, the per-destination frontier compiler
(:func:`compile_routing_table_frontier`) and the per-pair BFS detour
backend (:class:`BfsDetourController`).  It is
imported as ``tests.conformance.harness`` (namespace package rooted at
the repo checkout, the same idiom as ``tests.conftest``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.graphs.properties import bfs_distances
from repro.graphs.static_graph import StaticGraph
from repro.routing.fault_routing import detour_route
from repro.routing.tables import UNREACHABLE
from repro.simulator import DetourController, pack_routes

__all__ = [
    "DictGraph",
    "compile_routing_table_frontier",
    "BfsDetourController",
    "DETOUR_BACKENDS",
    "survivor_on_full_node_set",
    "iter_routes",
    "assert_valid_survivor_routes",
    "hop_histogram",
]


class DictGraph:
    """The retained pure-dict reference the CSR core is measured against.

    A deliberately naive re-implementation of the :class:`StaticGraph`
    contract on python dicts/sets — no NumPy in any derived answer — so
    the differential suite (``test_csr_differential.py``) can assert the
    CSR planes and the bit-parallel routing compiler agree with an
    implementation too simple to share bugs with them.

    Semantics mirrored: self-loops dropped, duplicate edges merged,
    neighbor lists sorted ascending, undirected edge ids = rank of the
    ``(min, max)`` endpoint pair in lexicographic order, and routing
    parents tie-broken to the *smallest hop-optimal neighbor id* — the
    contract rule all compilers implement (see
    :func:`repro.routing.tables.compile_routing_table`).
    """

    def __init__(self, num_nodes: int, edges=()):
        self.n = int(num_nodes)
        self.adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            lo, hi = (u, v) if u < v else (v, u)
            seen.add((lo, hi))
        for lo, hi in seen:
            self.adj[lo].append(hi)
            self.adj[hi].append(lo)
        for v in self.adj:
            self.adj[v].sort()
        self.edge_list = sorted(seen)
        self.edge_rank = {e: i for i, e in enumerate(self.edge_list)}

    # -- the planes the CSR core must reproduce ------------------------

    def degrees(self) -> list[int]:
        return [len(self.adj[v]) for v in range(self.n)]

    def row_offsets(self) -> list[int]:
        out = [0]
        for v in range(self.n):
            out.append(out[-1] + len(self.adj[v]))
        return out

    def col_indices(self) -> list[int]:
        return [w for v in range(self.n) for w in self.adj[v]]

    def edge_ids(self) -> list[int]:
        return [
            self.edge_rank[(v, w) if v < w else (w, v)]
            for v in range(self.n)
            for w in self.adj[v]
        ]

    # -- the routing answers the bitset compiler must reproduce --------

    def bfs_dist(self, source: int, dead: frozenset[int] = frozenset()) -> list[int]:
        """Plain FIFO BFS distances (``-1`` unreachable), ``dead`` nodes
        contribute no edges."""
        dist = [-1] * self.n
        if source in dead:
            return dist
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.adj[v]:
                    if dist[w] == -1 and w not in dead:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def compile_table(self, faulty=()) -> list[list[int]]:
        """Reference next-hop table: ``table[v][d]`` is the smallest
        neighbor of ``v`` one hop closer to ``d`` (``-1`` unreachable,
        ``table[d][d] == d``; faulty diagonals forced to ``-1``).  Must
        be bit-identical to
        :func:`repro.routing.tables.compile_routing_table`.
        """
        dead = frozenset(int(v) for v in faulty)
        table = [[-1] * self.n for _ in range(self.n)]
        for d in range(self.n):
            if d in dead:
                continue
            dist = self.bfs_dist(d, dead)
            for v in range(self.n):
                if dist[v] <= 0:
                    continue
                for w in self.adj[v]:  # sorted: first match = smallest
                    if w not in dead and dist[w] == dist[v] - 1:
                        table[v][d] = w
                        break
        for d in range(self.n):
            if d not in dead:
                table[d][d] = d
        return table


def compile_routing_table_frontier(g: StaticGraph) -> np.ndarray:
    """Next-hop table via one frontier-at-a-time reverse BFS per destination.

    The per-destination reference compiler: each BFS level is one
    vectorized gather over the CSR arrays (the
    :meth:`~repro.graphs.static_graph.StaticGraph.neighbors_batch`
    idiom), with the first occurrence in gather order claiming the
    parent — the frontier is sorted ascending, so that is the smallest
    hop-optimal neighbor id, the *same* tie-break as the bitset kernel.
    An independently-derived second witness the differential suite
    checks bit-for-bit against
    :func:`repro.routing.tables.compile_routing_table`.
    """
    n = g.node_count
    table = np.full((n, n), UNREACHABLE, dtype=np.int64)
    indptr, indices = g.indptr, g.indices
    deg = np.diff(indptr)
    for d in range(n):
        parent = np.full(n, -1, dtype=np.int64)
        parent[d] = d
        frontier = np.array([d], dtype=np.int64)
        while frontier.size:
            counts = deg[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            # gather every frontier node's neighbor slice in one shot:
            # base[i] repeats the slice start, inner[i] counts 0..c-1
            # within each slice
            starts = indptr[frontier]
            base = np.repeat(starts, counts)
            ends = np.cumsum(counts)
            inner = np.arange(total, dtype=np.int64) - np.repeat(
                ends - counts, counts
            )
            nbrs = indices[base + inner]
            owners = np.repeat(frontier, counts)
            fresh = parent[nbrs] == -1
            if not fresh.any():
                break
            nbrs, owners = nbrs[fresh], owners[fresh]
            # first occurrence in gather order claims the parent
            frontier, first = np.unique(nbrs, return_index=True)
            parent[frontier] = owners[first]
        reachable = parent >= 0
        table[reachable, d] = parent[reachable]
        table[d, d] = d
    return table


class BfsDetourController(DetourController):
    """The per-pair BFS detour backend, kept as the reference the
    compiled survivor table is measured against: one Python BFS per
    (src, dst) pair in the survivor graph
    (:func:`repro.routing.fault_routing.detour_route`).  Admission and
    hop counts must match :class:`~repro.simulator.DetourController`
    exactly; equal-length paths may differ by tie-breaking."""

    def _route_pairs(self, pairs: np.ndarray):
        faults = sorted(self.faults)
        routes: list[list[int]] = []
        kept: list[int] = []
        for i, (s, d) in enumerate(pairs):
            try:
                routes.append(detour_route(self.target, faults, int(s), int(d)))
                kept.append(i)
            except RoutingError:
                pass
        flat, offsets = pack_routes(routes)
        return flat, offsets, np.asarray(kept, dtype=np.int64)


#: The two detour backends the differential tests race, by name: the
#: BFS oracle and the shipped compiled-table controller.
DETOUR_BACKENDS = {"bfs": BfsDetourController, "table": DetourController}


def survivor_on_full_node_set(g: StaticGraph, faults) -> StaticGraph:
    """The survivor graph with original node ids: all ``n`` nodes kept,
    every fault-incident edge removed (faulty nodes become isolated)."""
    fset = sorted({int(v) for v in faults})
    if not fset:
        return g
    e = g.edges()
    alive = np.ones(g.node_count, dtype=bool)
    alive[fset] = False
    sel = alive[e[:, 0]] & alive[e[:, 1]] if e.shape[0] else np.zeros(0, bool)
    return StaticGraph(g.node_count, e[sel])


def iter_routes(flat: np.ndarray, offsets: np.ndarray):
    """Yield each route of a flattened ``(flat, offsets)`` batch."""
    for i in range(offsets.size - 1):
        yield flat[int(offsets[i]): int(offsets[i + 1])]


def assert_valid_survivor_routes(
    flat: np.ndarray,
    offsets: np.ndarray,
    pairs: np.ndarray,
    target: StaticGraph,
    faults,
) -> None:
    """The conformance validity + hop-optimality oracle.

    ``pairs`` are the (src, dst) rows the routes were emitted for (the
    *kept* rows, in order).  Every route must start at its src, end at
    its dst, avoid ``faults``, repeat no node, traverse only
    survivor-graph edges, and be exactly as long as the survivor-graph
    BFS distance.  Distances come from an independent implementation
    (:func:`repro.graphs.properties.bfs_distances`), not from either
    routing backend under test.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    assert offsets.size - 1 == pairs.shape[0], "route count != kept pairs"
    fset = {int(v) for v in faults}
    survivor = survivor_on_full_node_set(target, fset)
    dist_from: dict[int, np.ndarray] = {}
    for route, (src, dst) in zip(iter_routes(flat, offsets), pairs):
        src, dst = int(src), int(dst)
        assert route.size >= 1
        assert int(route[0]) == src, f"route starts at {route[0]}, not {src}"
        assert int(route[-1]) == dst, f"route ends at {route[-1]}, not {dst}"
        assert not (set(route.tolist()) & fset), (
            f"route {route.tolist()} passes through a faulty node"
        )
        assert len(set(route.tolist())) == route.size, (
            f"route {route.tolist()} repeats a node"
        )
        if route.size > 1:
            ok = survivor.has_edges(route[:-1], route[1:])
            assert bool(ok.all()), (
                f"route {route.tolist()} uses a non-survivor edge"
            )
        if src not in dist_from:
            dist_from[src] = bfs_distances(survivor, src)
        d = int(dist_from[src][dst])
        assert d >= 0, f"pair ({src}, {dst}) admitted but disconnected"
        assert route.size - 1 == d, (
            f"route {route.tolist()} has {route.size - 1} hops, "
            f"survivor BFS distance is {d}"
        )


def hop_histogram(offsets: np.ndarray) -> dict[int, int]:
    """Multiset of per-route hop counts, as a plain dict."""
    lens = np.diff(np.asarray(offsets, dtype=np.int64)) - 1
    values, counts = np.unique(lens, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
