"""Baselines for cross-checking kscc inside the package: the whole-graph
search loop (``naive_kscc``) and exhaustive subset enumeration
(``brute_force_kscc``).

Both share code with kscc: ``naive_kscc`` is the same driver without the
level search, and ``brute_force_kscc`` decides each pair with the flow query
that validates kscc's splits.  The oracles that share no code with kconn
are tests-only (``tests/oracles.py``): networkx's ``k_edge_subgraphs`` for
edge mode and a recursive split on a Menger flow of their own for vertex
mode.
"""

from itertools import combinations

from .errors import GraphError
from .graph import induced_subgraph
from .hierarchy import Component, ComponentSet, decompose
from .primitives import pairwise_k_connected_impl

__all__ = ["naive_kscc", "brute_force_kscc"]


def naive_kscc(g, k, mode, validate=True, counters=None, trace=None):
    """The O(mn)-style baseline: split on whole-graph searches only."""
    return decompose(
        g, k, mode, use_levels=False, validate=validate, trace=trace, counters=counters
    )


def _qualifies(g, subset, k, mode):
    sub, _ = induced_subgraph(g, subset)
    nets = {}  # one flow network of the subset for all its pairs
    for a, b in combinations(range(sub.n), 2):
        if not pairwise_k_connected_impl(sub, a, b, k, mode, nets=nets):
            return False
    return True


def brute_force_kscc(g, k, mode):
    """Maximal subsets whose induced subgraphs are pairwise k-connected.

    Enumerates vertex subsets in decreasing size, skipping subsets of already
    accepted components, so the output is exactly the maximal qualifying
    family.  Feasible only for tiny graphs.
    """
    if k < 2:
        raise GraphError("k must be >= 2")
    limit = 12 if mode == "edge" else 10
    if g.n > limit:
        raise GraphError(f"brute force limited to n <= {limit} for mode {mode}")
    kept = []
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            sset = frozenset(subset)
            if any(sset <= q for q in kept):
                continue
            if _qualifies(g, subset, k, mode):
                kept.append(sset)
    if mode == "edge":
        comps = sorted(tuple(sorted(p)) for p in kept)
        seen = set()
        for c in comps:
            if seen & set(c):
                raise GraphError("edge-mode brute force produced overlapping sets")
            seen.update(c)
        return ComponentSet(
            mode="edge", k=k, components=[Component(vertices=c) for c in comps]
        )
    comps = []
    for p in kept:
        vs = tuple(sorted(p))
        es = tuple(sorted((u, v) for (u, v) in g.edge_list if u in p and v in p))
        comps.append(Component(vertices=vs, edges=es, degenerate=len(vs) < 3))
    comps.sort(key=lambda c: c.vertices)
    return ComponentSet(mode="vertex", k=k, components=comps)
