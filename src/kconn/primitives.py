"""SCC machinery, flow-graph dominators, strong bridges/articulation points,
and bounded max-flow separator and dominator search."""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import GraphError
from .kernels import build_csr, build_csr_with_eids

__all__ = [
    "SccPartition",
    "Separator",
    "scc",
    "top_scc_excluding",
    "dominator_vertices",
    "edge_dominator",
    "strong_articulation_points",
    "strong_bridges",
    "bounded_min_separator",
    "k_separator",
    "k_dominator",
    "pairwise_k_connected_impl",
]

_I = np.int64


# --- SCCs -------------------------------------------------------------------


def scc_raw(n, verts, us, vs):
    """Canonical SCC partition of the subgraph on ``verts`` with edges us->vs.

    Returns (comp_of, comps, has_in, has_out): components are sorted vertex
    tuples, ordered (and numbered) by smallest member; has_in/has_out mark
    components with incoming/outgoing cross edges.
    """
    verts = sorted(map(int, verts))
    indptr, indices = build_csr(n, us, vs)
    labels, _ = kernels.tarjan_scc(n, verts, indptr, indices)
    labels = labels.tolist()
    # verts is ascending, so the first member seen of each component is its
    # smallest and numbering on first sight orders components by it
    rank = {}
    members = []
    comp_of = [-1] * n
    for v in verts:
        c = rank.get(labels[v])
        if c is None:
            c = rank[labels[v]] = len(members)
            members.append([])
        members[c].append(v)
        comp_of[v] = c
    comps = [tuple(m) for m in members]
    has_in = [False] * len(comps)
    has_out = [False] * len(comps)
    for u, v in zip(_ints(us), _ints(vs)):
        cu = comp_of[u]
        cv = comp_of[v]
        if cu != cv:
            has_in[cv] = True
            has_out[cu] = True
    return np.array(comp_of, dtype=_I), comps, has_in, has_out


def _ints(a):
    """``a`` as a list of Python ints (numpy arrays are copied with tolist)."""
    return a.tolist() if isinstance(a, np.ndarray) else a


def top_scc_of(n, verts, us, vs, exclude=()):
    """Smallest-id top SCC disjoint from ``exclude``, or None."""
    if not verts:
        return None
    _, comps, has_in, _ = scc_raw(n, verts, us, vs)
    ex = set(exclude)
    for i, comp in enumerate(comps):
        if has_in[i]:
            continue
        if ex and not ex.isdisjoint(comp):
            continue
        return list(comp)
    return None


def is_strongly_connected(n, verts, us, vs):
    if len(verts) <= 1:
        return True
    _, comps, _, _ = scc_raw(n, verts, us, vs)
    return len(comps) == 1


@dataclass
class SccPartition:
    comp_of: dict
    components: tuple
    is_top: tuple
    is_bottom: tuple


def scc(g):
    """Strongly connected components with top/bottom flags.

    Components are ordered by smallest member, so the output is deterministic
    for a given graph.
    """
    us, vs = g.edge_arrays()
    comp_of, comps, has_in, has_out = scc_raw(g.n, range(g.n), us, vs)
    return SccPartition(
        comp_of={v: int(comp_of[v]) for v in range(g.n)},
        components=tuple(comps),
        is_top=tuple(not b for b in has_in),
        is_bottom=tuple(not b for b in has_out),
    )


def top_scc_excluding(g, b):
    """Vertex set of a top SCC of g avoiding ``b``; empty set if none exists."""
    us, vs = g.edge_arrays()
    res = top_scc_of(g.n, range(g.n), us, vs, b)
    return set(res) if res is not None else set()


# --- dominators --------------------------------------------------------------


def idoms_raw(n, root, us, vs):
    """Immediate-dominator array for the flow graph rooted at ``root``."""
    out_indptr, out_indices = build_csr(n, us, vs)
    pred_indptr, pred_indices = build_csr(n, vs, us)
    return kernels.idom_lt(n, root, out_indptr, out_indices, pred_indptr, pred_indices)


def _compact(n, root, us, vs):
    """Renumber root and the edge endpoints 0..k-1, keeping their order.

    Returns (ids, root, us, vs) in local numbers, with ids[local] the
    original id.  Callers search a small subgraph of a large id space, so
    this keeps their kernel calls proportional to the subgraph.
    """
    us = np.asarray(us, dtype=_I)
    vs = np.asarray(vs, dtype=_I)
    used = np.zeros(n, dtype=bool)
    used[us] = True
    used[vs] = True
    used[root] = True
    local = np.cumsum(used) - 1
    return np.flatnonzero(used).tolist(), int(local[root]), local[us], local[vs]


def dominator_set_raw(n, root, us, vs):
    """All vertex-dominators of the flow graph, as {dominator: smallest child}."""
    ids, root, us, vs = _compact(n, root, us, vs)
    idom = idoms_raw(len(ids), root, us, vs).tolist()
    witness = {}
    for v, p in enumerate(idom):
        if v == root or p < 0 or p == root:
            continue
        if ids[p] not in witness:
            witness[ids[p]] = ids[v]
    return witness


def edge_dominators_raw(n, root, us, vs):
    """Indices of edge-dominators: edges e=(u,v) on every root->v path.

    Italiano, Laura and Santaroni (2012): e=(u,v) dominates its head v iff
    u = idom(v), e is the only u->v edge, and v dominates every other
    predecessor of v that root reaches.  Dominance is read off pre/post
    numbers of the dominator tree.  Indices are returned sorted by head;
    each vertex has at most one edge-dominator ending at it.
    """
    if len(us) == 0:
        return []
    ids, root, us, vs = _compact(n, root, us, vs)
    n = len(ids)
    idom = idoms_raw(n, root, us, vs).tolist()
    children = [[] for _ in range(n)]
    for v, p in enumerate(idom):
        if p >= 0 and v != root:
            children[p].append(v)
    pre = [0] * n
    post = [0] * n
    clock = 0
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        clock += 1
        if done:
            post[v] = clock
            continue
        pre[v] = clock
        stack.append((v, True))
        stack.extend((c, False) for c in children[v])
    # per head v: the index of an idom(v)->v edge (-1: none, -2: several)
    # and whether some other reachable predecessor escapes v's subtree
    cand = [-1] * n
    ok = [True] * n
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        if v == root or idom[u] < 0:
            continue
        if u == idom[v]:
            cand[v] = i if cand[v] == -1 else -2
        elif pre[u] < pre[v] or post[u] > post[v]:
            ok[v] = False
    return [c for c, good in zip(cand, ok) if c >= 0 and good]


def dominator_vertices(fg):
    """(dominator, witness) pairs for a rooted flow graph, in fg-local ids."""
    us, vs = fg.graph.edge_arrays()
    witness = dominator_set_raw(fg.graph.n, fg.root, us, vs)
    return sorted((v, w) for v, w in witness.items())


def edge_dominator(fg):
    """Lexicographically smallest edge-dominator of fg, or None."""
    us, vs = fg.graph.edge_arrays()
    idxs = edge_dominators_raw(fg.graph.n, fg.root, us, vs)
    if not idxs:
        return None
    return min(fg.graph.edge_list[i] for i in idxs)


# --- strong bridges / articulation points ------------------------------------


def _per_scc_edges(g):
    us, vs = g.edge_arrays()
    comp_of, comps, _, _ = scc_raw(g.n, range(g.n), us, vs)
    grouped = [[] for _ in comps]
    for u, v in zip(us, vs):
        cu = comp_of[u]
        if cu == comp_of[v]:
            grouped[cu].append((int(u), int(v)))
    return comps, grouped


def strong_articulation_points(g):
    """Vertices whose removal increases the number of SCCs.

    Each SCC is handled independently: dominators of the component's flow
    graph from an arbitrary root, dominators in the reverse, plus an explicit
    split test for the root itself.
    """
    comps, grouped = _per_scc_edges(g)
    out = set()
    for comp, edges in zip(comps, grouped):
        if len(comp) < 3:
            continue
        r = comp[0]
        us = [e[0] for e in edges]
        vs = [e[1] for e in edges]
        out.update(dominator_set_raw(g.n, r, us, vs).keys())
        out.update(dominator_set_raw(g.n, r, vs, us).keys())
        rest = [v for v in comp if v != r]
        rest_edges = [(u, v) for (u, v) in edges if u != r and v != r]
        if not is_strongly_connected(g.n, rest, [e[0] for e in rest_edges], [e[1] for e in rest_edges]):
            out.add(r)
    return sorted(out)


def strong_bridges(g):
    """Edges whose removal increases the number of SCCs."""
    comps, grouped = _per_scc_edges(g)
    out = set()
    for comp, edges in zip(comps, grouped):
        if len(comp) < 2:
            continue
        r = comp[0]
        us = [e[0] for e in edges]
        vs = [e[1] for e in edges]
        for i in edge_dominators_raw(g.n, r, us, vs):
            out.add(edges[i])
        for i in edge_dominators_raw(g.n, r, vs, us):
            u, v = edges[i]
            out.add((u, v))
    return sorted(out)


# --- bounded max-flow ---------------------------------------------------------


class FlowNet:
    """Residual network with paired arcs (arc a and a^1 are reverses).

    ``freeze`` builds the list form once: CSR pointers over arc ids
    (``ptr``, ``arcs``), arc heads and base capacities.  Every query starts
    from zero flow by copying ``cap`` into the residual list ``res``, which
    the cut readers then inspect.

    From zero flow, a query's first augmenting path is the path to t in the
    BFS tree from s over the positive arcs.  The second time s is a source
    that tree is built, and it then supplies the first path of every later
    query from s.
    """

    def __init__(self, n_nodes):
        self.n = n_nodes
        self._tails = []
        self.head = []
        self.cap = []

    def add_arc(self, u, v, c):
        a = len(self._tails)
        self._tails += [u, v]
        self.head += [v, u]
        self.cap += [c, 0]
        return a

    def freeze(self):
        indptr, arcs = build_csr(self.n, self._tails, np.arange(len(self.head), dtype=_I))
        self.ptr = indptr.tolist()
        self.arcs = arcs.tolist()
        self.res = self.cap[:]
        self._trees = {}  # source -> its zero-flow BFS tree, None if queried once

    def _tree(self, s):
        if s not in self._trees:
            self._trees[s] = None
            return None
        tree = self._trees[s]
        if tree is None:
            tree = self._trees[s] = kernels.residual_tree(
                self.n, s, -1, self.ptr, self.arcs, self.head, self.cap
            )
        return tree

    def maxflow(self, s, t, k):
        """Flow value capped at k and augmentation count, from zero flow."""
        self.res = self.cap[:]
        return kernels.maxflow_upto_k(
            self.n, s, t, k, self.ptr, self.arcs, self.head, self.res, self._tree(s)
        )

    def residual_visited(self, s):
        return kernels.residual_reach(self.n, s, self.ptr, self.arcs, self.head, self.res)


class EdgeFlowNet:
    """Unit-capacity network over the graph's edges (parallel edges add up)."""

    def __init__(self, n, edges):
        self.net = FlowNet(n)
        self.arcs = [self.net.add_arc(u, v, 1) for (u, v) in edges]
        self.edges = list(edges)
        self.net.freeze()

    def query(self, s, t, k):
        return self.net.maxflow(s, t, k)

    def mincut_edges(self, s):
        vis = self.net.residual_visited(s)
        res = self.net.res
        out = []
        for i, a in enumerate(self.arcs):
            u, v = self.edges[i]
            if vis[u] and not vis[v] and res[a] == 0:
                out.append(i)
        return out


class VertexFlowNet:
    """Vertex-capacity network: v splits into 2v (in) -> 2v+1 (out), cap 1.

    Graph edges get capacity ``cap_edges`` so only the unit internal arcs can
    be cut.  A query runs from s's out-node to t's in-node, so no path
    crosses an endpoint's internal arc and the endpoints are never cut.
    """

    def __init__(self, n, edges, cap_edges):
        self.n = n
        self.net = FlowNet(2 * n)
        for v in range(n):
            self.net.add_arc(2 * v, 2 * v + 1, 1)
        for (u, v) in edges:
            self.net.add_arc(2 * u + 1, 2 * v, cap_edges)
        self.net.freeze()

    def query(self, s, t, k):
        self._last_s = s
        return self.net.maxflow(2 * s + 1, 2 * t, k)

    def mincut_vertices(self):
        vis = self.net.residual_visited(2 * self._last_s + 1)
        out = []
        for v in range(self.n):
            if vis[2 * v] and not vis[2 * v + 1]:
                out.append(v)
        return out


@dataclass(frozen=True)
class Separator:
    """A set of fewer than k edges (edge mode) or vertices (vertex mode)."""

    mode: str
    members: tuple
    role: str

    def __len__(self):
        return len(self.members)


def bounded_min_separator(g, s, t, k, mode, counters=None):
    """Minimal s->t separator of size < k, or None if k disjoint paths exist.

    Vertex mode treats adjacent pairs (edge s->t present) as inseparable and
    returns None, matching the pairwise connectivity definition.
    """
    if s == t:
        raise GraphError("s and t must differ")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise GraphError(f"vertex ({s}, {t}) out of range")
    if mode == "edge":
        net = EdgeFlowNet(g.n, g.edge_list)
        value, augs = net.query(s, t, k)
        if counters is not None:
            counters.flow(augs)
        if value >= k:
            return None
        cut = sorted(g.edge_list[i] for i in net.mincut_edges(s))
        return Separator("edge", tuple(cut), "k-separator")
    if mode == "vertex":
        if g.has_edge(s, t):
            return None
        net = VertexFlowNet(g.n, g.edge_list, k)
        value, augs = net.query(s, t, k)
        if counters is not None:
            counters.flow(augs)
        if value >= k:
            return None
        return Separator("vertex", tuple(sorted(net.mincut_vertices())), "k-separator")
    raise GraphError(f"bad mode {mode!r}")


# --- k-separators -------------------------------------------------------------


def _minimalize(members, still_works):
    """Greedy inclusion-minimal subset of ``members`` keeping the predicate true."""
    cur = list(members)
    for x in sorted(members):
        if x not in cur:
            continue
        trial = [y for y in cur if y != x]
        if still_works(trial):
            cur = trial
    return cur


def increases_scc_count(n, verts, edges, members, mode):
    """Does removing ``members`` raise the SCC count of the (sub)graph?"""
    _, before, _, _ = scc_raw(n, verts, [e[0] for e in edges], [e[1] for e in edges])
    if mode == "vertex":
        drop = set(members)
        verts2 = [v for v in verts if v not in drop]
        edges2 = [(u, v) for (u, v) in edges if u not in drop and v not in drop]
    else:
        drop = set(members)
        verts2 = list(verts)
        edges2 = [e for e in edges if e not in drop]
    if not verts2:
        return False
    _, after, _, _ = scc_raw(n, verts2, [e[0] for e in edges2], [e[1] for e in edges2])
    return len(after) > len(before)


def k_separator_raw(n, verts, edges, k, mode, counters=None):
    """Some minimal k-separator of a strongly connected (sub)graph, or None.

    k == 2 uses the dominator-based strong bridge / articulation point
    search; k > 2 runs bounded max-flow between a small set of anchor
    vertices (any k anchors suffice: a cut of size < k misses at least one)
    and every other vertex, in both directions.
    """
    verts = sorted(verts)
    if len(verts) <= 1:
        return None
    us = [e[0] for e in edges]
    vs = [e[1] for e in edges]
    if k == 2:
        r = verts[0]
        if mode == "edge":
            found = [edges[i] for i in edge_dominators_raw(n, r, us, vs)]
            found += [edges[i] for i in edge_dominators_raw(n, r, vs, us)]
            if not found:
                return None
            return Separator("edge", (min(found),), "k-separator")
        cands = set(dominator_set_raw(n, r, us, vs))
        cands.update(dominator_set_raw(n, r, vs, us))
        rest = [v for v in verts if v != r]
        rest_e = [(a, b) for (a, b) in edges if a != r and b != r]
        if len(rest) >= 2 and not is_strongly_connected(
            n, rest, [e[0] for e in rest_e], [e[1] for e in rest_e]
        ):
            cands.add(r)
        if not cands:
            return None
        return Separator("vertex", (min(cands),), "k-separator")

    if mode == "edge":
        net = EdgeFlowNet(n, edges)
        sources = verts[:1]
    else:
        net = VertexFlowNet(n, edges, k)
        sources = verts[: min(k, len(verts))]
    edge_set = set(edges)
    for s in sources:
        for t in verts:
            if t == s:
                continue
            for a, b in ((s, t), (t, s)):
                if mode == "vertex" and (a, b) in edge_set:
                    continue
                value, augs = net.query(a, b, k)
                if counters is not None:
                    counters.flow(augs)
                if value < k:
                    if mode == "edge":
                        cut = [edges[i] for i in net.mincut_edges(a)]
                    else:
                        cut = net.mincut_vertices()
                    cut = _minimalize(
                        cut,
                        lambda mem: increases_scc_count(n, verts, edges, mem, mode),
                    )
                    return Separator(mode, tuple(sorted(cut)), "k-separator")
    return None


def k_separator(g, k, mode, counters=None):
    """Minimal k-separator of a strongly connected graph, or None."""
    if k < 2:
        raise GraphError("k must be >= 2")
    us, vs = g.edge_arrays()
    if not is_strongly_connected(g.n, range(g.n), us, vs):
        raise GraphError("k_separator requires a strongly connected graph")
    return k_separator_raw(g.n, range(g.n), g.edge_list, k, mode, counters)


# --- k-dominators ---------------------------------------------------------------


def dominates_something(n, root, edges, members, mode, reach_full=None):
    """Is some reachable non-root vertex cut off from root by ``members``?

    Edge mode takes ``members`` as edge indices so parallel edges (which a
    contracted flow graph may contain) keep their individual identity.
    """
    us = np.asarray([e[0] for e in edges], dtype=_I)
    vs = np.asarray([e[1] for e in edges], dtype=_I)
    indptr, indices, eids = build_csr_with_eids(n, us, vs)
    if reach_full is None:
        reach_full = kernels.reach(n, root, indptr, indices)
    if mode == "vertex":
        blocked = np.zeros(n, dtype=np.uint8)
        for v in members:
            blocked[v] = 1
        vis = kernels.reach_skip_vertices(n, root, indptr, indices, blocked)
        for v in range(n):
            if v != root and reach_full[v] and not vis[v] and not blocked[v]:
                return True
        return False
    blocked_e = np.zeros(max(len(edges), 1), dtype=np.uint8)
    for i in members:
        blocked_e[i] = 1
    vis = kernels.reach_skip_edges(n, root, indptr, indices, eids, blocked_e)
    for v in range(n):
        if v != root and reach_full[v] and not vis[v]:
            return True
    return False


def k_dominator_raw(n, root, edges, k, mode, counters=None):
    """Minimal k-dominator of the flow graph (root, edges), or None.

    Returns a sorted list of vertices (vertex mode) or edge indices (edge
    mode).  k == 2 degenerates to the dominator-tree searches; k > 2 runs a
    bounded max-flow from the root to each reachable vertex, extracting and
    minimalizing the first short cut.
    """
    us = [e[0] for e in edges]
    vs = [e[1] for e in edges]
    if k == 2:
        if mode == "vertex":
            doms = dominator_set_raw(n, root, us, vs)
            if not doms:
                return None
            return [min(doms)]
        idxs = edge_dominators_raw(n, root, us, vs)
        if not idxs:
            return None
        return [min(idxs, key=lambda i: edges[i])]

    indptr, indices = build_csr(n, us, vs)
    reach_full = kernels.reach(n, root, indptr, indices)
    if mode == "vertex":
        net = VertexFlowNet(n, edges, k)
    else:
        net = EdgeFlowNet(n, edges)
    for t in range(n):
        if t == root or not reach_full[t]:
            continue
        value, augs = net.query(root, t, k)
        if counters is not None:
            counters.flow(augs)
        if value >= k:
            continue
        if mode == "vertex":
            cut = net.mincut_vertices()
        else:
            cut = net.mincut_edges(root)
        cut = _minimalize(
            cut,
            lambda mem: dominates_something(n, root, edges, mem, mode, reach_full),
        )
        return sorted(cut)
    return None


def k_dominator(fg, k, mode, counters=None):
    """Minimal k-dominator of a rooted flow graph, or None.

    Vertex members are fg-local vertex ids; edge members are reported as the
    originating edges when the flow graph carries an origin map (contracted
    graphs), else as fg-local edge pairs.
    """
    if k < 2:
        raise GraphError("k must be >= 2")
    raw = k_dominator_raw(fg.graph.n, fg.root, fg.graph.edge_list, k, mode, counters)
    if raw is None:
        return None
    if mode == "vertex":
        return Separator("vertex", tuple(raw), "k-dominator")
    if fg.edge_origin is not None:
        members = sorted(fg.edge_origin[i] for i in raw)
    else:
        members = sorted(fg.graph.edge_list[i] for i in raw)
    return Separator("edge", tuple(members), "k-dominator")


# --- pairwise k-connectivity (Menger queries) -----------------------------------


def pairwise_k_connected_impl(g, u, v, k, mode, enumeration_limit=13):
    """Are u and v k-connected in g?

    Both directions must carry k disjoint paths (edge-disjoint, or internally
    vertex-disjoint).  Vertex-mode adjacent pairs on small graphs fall back to
    removal enumeration, which follows the definition verbatim; larger graphs
    use flow with edge capacities that make direct edges uncuttable.
    """
    if u == v:
        raise GraphError("u and v must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertex ({u}, {v}) out of range")
    if mode == "edge":
        net = EdgeFlowNet(g.n, g.edge_list)
        f1, _ = net.query(u, v, k)
        if f1 < k:
            return False
        f2, _ = net.query(v, u, k)
        return f2 >= k
    adjacent = g.has_edge(u, v) or g.has_edge(v, u)
    if adjacent and g.n <= enumeration_limit:
        from itertools import combinations

        others = [x for x in range(g.n) if x != u and x != v]
        us, vs = g.edge_arrays()
        indptr, indices = build_csr(g.n, us, vs)
        rindptr, rindices = build_csr(g.n, vs, us)
        for size in range(0, k):
            for drop in combinations(others, size):
                blocked = np.zeros(g.n, dtype=np.uint8)
                for x in drop:
                    blocked[x] = 1
                fwd = kernels.reach_skip_vertices(g.n, u, indptr, indices, blocked)
                if not fwd[v]:
                    return False
                bwd = kernels.reach_skip_vertices(g.n, u, rindptr, rindices, blocked)
                if not bwd[v]:
                    return False
        return True
    net = VertexFlowNet(g.n, g.edge_list, k)
    f1, _ = net.query(u, v, k)
    if f1 < k:
        return False
    f2, _ = net.query(v, u, k)
    return f2 >= k
