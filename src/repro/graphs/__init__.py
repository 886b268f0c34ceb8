"""Graph substrate: CSR kernel, builders, properties, embeddings, buses."""

from repro.graphs.static_graph import StaticGraph
from repro.graphs.hypergraph import BusHypergraph
from repro.graphs.builders import (
    butterfly,
    complete,
    cube_connected_cycles,
    cycle,
    grid2d,
    hypercube,
    kautz,
    path,
    star,
)
from repro.graphs.properties import (
    DegreeStats,
    average_distance,
    bfs_distances,
    connected_components,
    degree_stats,
    diameter,
    distance_matrix,
    is_connected,
    node_connectivity_lower_bound,
)
from repro.graphs.isomorphism import (
    find_embedding,
    is_subgraph_embeddable,
    verify_embedding,
)

#: The networkx bridge exists to cross-validate against networkx, which
#: is a test-only extra: its names load on first access (PEP 562), so
#: ``import repro`` never imports networkx.
_NX_BRIDGE = frozenset({
    "from_networkx",
    "nx_is_subgraph_isomorphic",
    "nx_node_connectivity",
    "to_networkx",
})


def __getattr__(name: str):
    if name in _NX_BRIDGE:
        from repro.graphs import nx_bridge

        return getattr(nx_bridge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "StaticGraph",
    "BusHypergraph",
    "hypercube",
    "cycle",
    "path",
    "complete",
    "star",
    "grid2d",
    "cube_connected_cycles",
    "butterfly",
    "kautz",
    "DegreeStats",
    "average_distance",
    "bfs_distances",
    "connected_components",
    "degree_stats",
    "diameter",
    "distance_matrix",
    "is_connected",
    "node_connectivity_lower_bound",
    "find_embedding",
    "is_subgraph_embeddable",
    "verify_embedding",
    "to_networkx",
    "from_networkx",
    "nx_node_connectivity",
    "nx_is_subgraph_isomorphic",
]
