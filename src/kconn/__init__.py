"""kconn: k-edge and k-vertex strongly connected components of directed
graphs, via hierarchical sparsification and depth-bounded local search."""

from .errors import BenchMismatch, GraphError, InvariantViolation, ParseError
from .graph import (
    Graph,
    VertexMapping,
    WorkGraph,
    build_graph,
    constant_degree_transform,
    degree_gamma,
    induced_subgraph,
    project_components,
    reverse,
)
from .hierarchy import (
    Component,
    ComponentSet,
    Counters,
    IsolationResult,
    check_isolation,
    k_isolated_set,
    k_isolated_set_level,
    kscc,
)
from .local2e import bounded_reverse_bfs, two_escc_sparse, two_isolated_set_local
from .oracle import brute_force_kscc, naive_kscc
from .primitives import (
    Separator,
    SccPartition,
    bounded_min_separator,
    k_separator,
    pairwise_k_connected_impl as pairwise_k_connected,
    scc,
    strong_articulation_points,
    strong_bridges,
    top_scc_excluding,
)

__version__ = "0.1.0"

__all__ = [
    "BenchMismatch",
    "Component",
    "ComponentSet",
    "Counters",
    "Graph",
    "GraphError",
    "InvariantViolation",
    "IsolationResult",
    "ParseError",
    "SccPartition",
    "Separator",
    "VertexMapping",
    "WorkGraph",
    "bounded_min_separator",
    "bounded_reverse_bfs",
    "brute_force_kscc",
    "build_graph",
    "check_isolation",
    "constant_degree_transform",
    "degree_gamma",
    "induced_subgraph",
    "k_isolated_set",
    "k_isolated_set_level",
    "k_separator",
    "kscc",
    "naive_kscc",
    "pairwise_k_connected",
    "project_components",
    "reverse",
    "scc",
    "strong_articulation_points",
    "strong_bridges",
    "top_scc_excluding",
    "two_escc_sparse",
    "two_isolated_set_local",
]
