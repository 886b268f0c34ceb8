"""repro — Fault-Tolerant de Bruijn and Shuffle-Exchange Networks.

A complete reproduction of J. Bruck, R. Cypher, C.-T. Ho,
*"Fault-Tolerant de Bruijn and Shuffle-Exchange Networks"* (ICPP 1992 /
IEEE TPDS 5(5), 1994): the ``N + k``-node, degree-``O(k)`` fault-tolerant
graph constructions, the monotone reconfiguration algorithm, the
shuffle-exchange embedding, the Section-V bus architectures, baselines
(Samatham–Pradhan, natural labelings), plus the substrates needed to
exercise them — a CSR graph kernel, routing, a cycle-accurate interconnect
simulator, and an Ascend/Descend algorithm layer.

Quickstart
----------
>>> from repro import ft_debruijn, debruijn, embed_after_faults
>>> ft = ft_debruijn(2, 4, 1)             # 17 nodes, tolerates any 1 fault
>>> target = debruijn(2, 4)               # the 16-node machine we want
>>> phi = embed_after_faults(ft, target, faults=[5])
>>> int(phi[5])                           # logical node 5 now lives at 6
6
"""

from repro.core import *  # noqa: F401,F403 - curated re-export
from repro.core import __all__ as _core_all
from repro.graphs import StaticGraph, BusHypergraph  # noqa: F401
from repro.errors import (  # noqa: F401
    EmbeddingError,
    FaultSetError,
    GraphFormatError,
    ParameterError,
    ReproError,
    RoutingError,
    SimulationError,
    ToleranceViolation,
    WorkerDiedError,
)

__version__ = "3.0.0"

__all__ = list(_core_all) + [
    "StaticGraph",
    "BusHypergraph",
    "ReproError",
    "ParameterError",
    "GraphFormatError",
    "EmbeddingError",
    "FaultSetError",
    "ToleranceViolation",
    "RoutingError",
    "SimulationError",
    "WorkerDiedError",
    "__version__",
]
