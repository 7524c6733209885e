"""SCC machinery, flow-graph dominators, strong bridges/articulation points,
and bounded max-flow separator and dominator search."""

from dataclasses import dataclass

from . import kernels
from .errors import GraphError
from .kernels import build_csr, build_csr_with_eids

__all__ = [
    "SccPartition",
    "Separator",
    "scc",
    "top_scc_excluding",
    "strong_articulation_points",
    "strong_bridges",
    "bounded_min_separator",
    "k_separator",
    "pairwise_k_connected_impl",
]


# --- SCCs -------------------------------------------------------------------


def scc_raw(n, verts, us, vs):
    """Canonical SCC partition of the subgraph on ``verts`` with edges us->vs.

    Returns (comp_of, comps, has_in, has_out): components are sorted vertex
    tuples, ordered (and numbered) by smallest member; has_in/has_out mark
    components with incoming/outgoing cross edges.
    """
    verts = sorted(verts)
    indptr, indices = build_csr(n, us, vs)
    labels, _ = kernels.tarjan_scc(n, verts, indptr, indices)
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
    for u, v in zip(us, vs):
        cu = comp_of[u]
        cv = comp_of[v]
        if cu != cv:
            has_in[cv] = True
            has_out[cu] = True
    return comp_of, comps, has_in, has_out


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


def edges_within(us, vs, verts):
    """The edges us->vs with both endpoints in ``verts``, as (us, vs) lists
    in input order."""
    inside = set(verts)
    out_u, out_v = [], []
    for u, v in zip(us, vs):
        if u in inside and v in inside:
            out_u.append(u)
            out_v.append(v)
    return out_u, out_v


def edges_minus(us, vs, drop):
    """The edges us->vs whose pair (u, v) is not in ``drop``, as (us, vs)
    lists in input order; every parallel copy of a dropped pair goes."""
    drop = set(drop)
    out_u, out_v = [], []
    for u, v in zip(us, vs):
        if (u, v) not in drop:
            out_u.append(u)
            out_v.append(v)
    return out_u, out_v


def subgraph_without(verts, us, vs, z, mode):
    """(verts, us, vs) of the subgraph on ``verts`` with edges us->vs once
    ``z`` is removed: vertices in vertex mode, (u, v) edge pairs in edge
    mode."""
    if mode == "vertex":
        drop = set(z)
        verts = [v for v in verts if v not in drop]
        return (verts, *edges_within(us, vs, verts))
    return (verts, *edges_minus(us, vs, z))


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
        comp_of=dict(enumerate(comp_of)),
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
    """Immediate-dominator list for the flow graph rooted at ``root``."""
    indptr, indices = build_csr(n, us, vs)
    return kernels.idom_lt(n, root, indptr, indices)


def _compact(n, root, us, vs):
    """Renumber root and the edge endpoints 0..k-1, keeping their order.

    Returns (ids, root, us, vs) in local numbers, with ids[local] the
    original id.  Callers search a small subgraph of a large id space, so
    this keeps their kernel calls proportional to the subgraph.
    """
    ids = sorted({root, *us, *vs})
    if ids[-1] == len(ids) - 1:  # already numbered 0..k-1
        return ids, root, us, vs
    local = dict(zip(ids, range(len(ids))))
    to_local = local.__getitem__
    return ids, local[root], list(map(to_local, us)), list(map(to_local, vs))


def _dominator_tree(n, root, us, vs):
    """Dominator tree of the flow graph, in the local ids of :func:`_compact`.

    Returns (ids, root, us, vs, idom, children): the local root and edge
    arrays, idom as a list (-1 for vertices root does not reach) and each
    vertex's children in the tree.
    """
    ids, root, us, vs = _compact(n, root, us, vs)
    idom = idoms_raw(len(ids), root, us, vs)
    children = [[] for _ in ids]
    for v, p in enumerate(idom):
        if p >= 0 and v != root:
            children[p].append(v)
    return ids, root, us, vs, idom, children


def dominator_set_raw(n, root, us, vs):
    """All vertex-dominators of the flow graph, as {dominator: smallest child}.

    A dominator is a vertex other than root with a child in the dominator
    tree; children are listed in ascending local (so original) ids.
    """
    ids, root, _, _, _, children = _dominator_tree(n, root, us, vs)
    return {ids[p]: ids[c[0]] for p, c in enumerate(children) if c and p != root}


def _subtree(children, v):
    """v and its descendants in a tree given by child lists."""
    out = [v]
    for x in out:
        out.extend(children[x])
    return out


def edge_dominators_raw(n, root, us, vs):
    """Indices of edge-dominators: edges e=(u,v) on every root->v path.

    Italiano, Laura and Santaroni (2012): e=(u,v) dominates its head v iff
    u = idom(v), e is the only u->v edge, and v dominates every other
    predecessor of v that root reaches.  Dominance is read off subtree
    intervals of the dominator tree: v dominates u iff u's preorder number
    lies in [pre[v], pre[v] + size[v]).  Indices are returned sorted by
    head; each vertex has at most one edge-dominator ending at it.
    """
    if len(us) == 0:
        return []
    return _tree_edge_dominators(_dominator_tree(n, root, us, vs))


def _tree_edge_dominators(tree):
    """:func:`edge_dominators_raw` read off a :func:`_dominator_tree`."""
    ids, root, us, vs, idom, children = tree
    n = len(ids)
    # BFS order of the tree, subtree sizes bottom-up, preorder starts top-down
    order = [root]
    for v in order:
        order.extend(children[v])
    size = [1] * n
    for v in order[:0:-1]:
        size[idom[v]] += size[v]
    pre = [0] * n
    for v in order:
        nxt = pre[v] + 1
        for c in children[v]:
            pre[c] = nxt
            nxt += size[c]
    # per head v: the index of an idom(v)->v edge (-1: none, -2: several)
    # and whether some other reachable predecessor escapes v's subtree
    cand = [-1] * n
    ok = [True] * n
    for i, (u, v) in enumerate(zip(us, vs)):
        if v == root or idom[u] < 0:
            continue
        if u == idom[v]:
            cand[v] = i if cand[v] == -1 else -2
        elif not pre[v] <= pre[u] < pre[v] + size[v]:
            ok[v] = False
    return [c for c, good in zip(cand, ok) if c >= 0 and good]


# --- strong bridges / articulation points ------------------------------------


def _scc_edges(n, verts, us, vs):
    """SCCs of the subgraph on ``verts`` with edges us->vs, and their edges.

    Returns (comps, grouped, cross): the components as :func:`scc_raw`
    orders them, ``grouped[i]`` the (us, vs) lists of the edges inside
    ``comps[i]`` and ``cross`` the (u, v) pairs of the edges between
    components, both in input order.
    """
    comp_of, comps, _, _ = scc_raw(n, verts, us, vs)
    grouped = [([], []) for _ in comps]
    cross = []
    for u, v in zip(us, vs):
        cu = comp_of[u]
        if cu == comp_of[v]:
            gu, gv = grouped[cu]
            gu.append(u)
            gv.append(v)
        else:
            cross.append((u, v))
    return comps, grouped, cross


def _sub_bridges(n, verts, us, vs):
    """All strong bridges of a strongly connected subgraph, as sorted (u, v)
    pairs.

    A strong bridge is an edge-dominator of the flow graph from any root,
    or of its reverse (Italiano, Laura and Santaroni 2012); the root is
    the smallest vertex.  :func:`strong_bridges`, the k == 2 edge case of
    :func:`k_separator_raw` and the outer loop of the local-search 2eSCC
    algorithm all use this routine.
    """
    if len(verts) < 2:
        return []
    r = min(verts)
    out = set()
    for i in edge_dominators_raw(n, r, us, vs):
        out.add((us[i], vs[i]))
    for i in edge_dominators_raw(n, r, vs, us):
        out.add((us[i], vs[i]))
    return sorted(out)


def _articulation_points(n, verts, us, vs):
    """All strong articulation points of a strongly connected subgraph, sorted.

    The dominators of the flow graph from the smallest vertex r and of its
    reverse, plus r itself when the subgraph without r is not strongly
    connected.
    """
    r = min(verts)
    out = set(dominator_set_raw(n, r, us, vs))
    out.update(dominator_set_raw(n, r, vs, us))
    rest = [v for v in verts if v != r]
    if not is_strongly_connected(n, rest, *edges_within(us, vs, rest)):
        out.add(r)
    return sorted(out)


def strong_articulation_points(g):
    """Vertices whose removal increases the number of SCCs.

    Each SCC of at least 3 vertices is searched on its own by
    :func:`_articulation_points`.
    """
    us, vs = g.edge_arrays()
    comps, grouped, _ = _scc_edges(g.n, range(g.n), us, vs)
    out = []
    for comp, (cus, cvs) in zip(comps, grouped):
        if len(comp) >= 3:
            out += _articulation_points(g.n, comp, cus, cvs)
    return sorted(out)


def strong_bridges(g):
    """Edges whose removal increases the number of SCCs (:func:`_sub_bridges`
    of each SCC)."""
    us, vs = g.edge_arrays()
    comps, grouped, _ = _scc_edges(g.n, range(g.n), us, vs)
    out = []
    for comp, (cus, cvs) in zip(comps, grouped):
        out += _sub_bridges(g.n, comp, cus, cvs)
    return sorted(out)


# --- bounded max-flow ---------------------------------------------------------


class FlowNet:
    """Residual network with paired arcs: arc 2i runs tails[i] -> heads[i]
    with capacity caps[i], and arc 2i+1 is its reverse (so arc a^1 reverses
    arc a).

    Construction builds the list form once: CSR pointers over arc ids
    (``ptr``, ``arcs``), arc heads and base capacities.  Every query starts
    from zero flow by copying ``cap`` into the residual list ``res``, which
    the cut readers then inspect.

    From zero flow, a query's first augmenting path is the path to t in the
    BFS tree from s over the positive arcs.  The second time s is a source
    that tree is built, and it then supplies the first path of every later
    query from s.
    """

    def __init__(self, n_nodes, tails, heads, caps):
        self.n = n_nodes
        arc_tails = [0] * (2 * len(tails))
        arc_tails[::2] = tails
        arc_tails[1::2] = heads
        self.head = [0] * len(arc_tails)
        self.head[::2] = heads
        self.head[1::2] = tails
        self.cap = [0] * len(arc_tails)
        self.cap[::2] = caps
        self.ptr, self.arcs = build_csr(n_nodes, arc_tails, range(len(arc_tails)))
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
    """Unit-capacity network over the edges us->vs (parallel edges add up).

    Edge i is arc 2i, so arc 2i+1 leads back from its head to its tail.
    """

    def __init__(self, n, us, vs):
        self.net = FlowNet(n, us, vs, [1] * len(us))

    def query(self, s, t, k):
        return self.net.maxflow(s, t, k)

    def cut(self, s):
        """Indices of the edges a minimum cut of the last query from s crosses."""
        vis = self.net.residual_visited(s)
        head = self.net.head
        res = self.net.res
        return [a >> 1 for a in range(0, len(head), 2)
                if vis[head[a + 1]] and not vis[head[a]] and res[a] == 0]


class VertexFlowNet:
    """Vertex-capacity network: v splits into 2v (in) -> 2v+1 (out), cap 1.

    Graph edges get capacity ``cap_edges`` so only the unit internal arcs can
    be cut.  A query runs from s's out-node to t's in-node, so no path
    crosses an endpoint's internal arc and the endpoints are never cut.
    """

    def __init__(self, n, us, vs, cap_edges):
        self.n = n
        tails = list(range(0, 2 * n, 2)) + [2 * u + 1 for u in us]
        heads = list(range(1, 2 * n, 2)) + [2 * v for v in vs]
        self.net = FlowNet(2 * n, tails, heads, [1] * n + [cap_edges] * len(us))

    def query(self, s, t, k):
        return self.net.maxflow(2 * s + 1, 2 * t, k)

    def cut(self, s):
        """Vertices a minimum cut of the last query from s crosses."""
        vis = self.net.residual_visited(2 * s + 1)
        out = []
        for v in range(self.n):
            if vis[2 * v] and not vis[2 * v + 1]:
                out.append(v)
        return out


def _flow_net(n, us, vs, k, mode):
    """The flow network of the graph (n, us->vs) for queries of size k: unit
    edges in edge mode; unit vertices and uncuttable (capacity k) edges in
    vertex mode."""
    return EdgeFlowNet(n, us, vs) if mode == "edge" else VertexFlowNet(n, us, vs, k)


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
    if mode not in ("edge", "vertex"):
        raise GraphError(f"bad mode {mode!r}")
    if mode == "vertex" and g.has_edge(s, t):
        return None
    net = _flow_net(g.n, *g.edge_arrays(), k, mode)
    value, augs = net.query(s, t, k)
    if counters is not None:
        counters.flow(augs)
    if value >= k:
        return None
    cut = net.cut(s)
    if mode == "edge":
        cut = [g.edge_list[i] for i in cut]
    return Separator(mode, tuple(sorted(cut)), "k-separator")


# --- greedy arborescence packing ---------------------------------------------


def _tree_cover(n, root, indptr, indices, k):
    """How many of k greedy arc-disjoint arborescences from root reach each node.

    The graph is a CSR (``indptr``, ``indices``) from :func:`build_csr` or
    :func:`build_csr_with_eids`, one slot per edge.  Tree i is a depth-first
    search from root over the edges that no earlier tree took as a tree
    edge, each vertex's edges in CSR (so input) order; parallel edges count
    separately.  A node t with ``cover[t] >= k`` has k arc-disjoint root->t
    tree paths, so k edge-disjoint paths.  The converse needs an optimal
    packing (Edmonds' branching theorem: k arc-disjoint spanning trees exist
    when the root reaches every node by k edge-disjoint paths); a greedy one
    may fall short, so ``cover[t] < k`` proves nothing.  Tree 1 searches every edge,
    so ``cover[t] > 0`` exactly when root reaches t.
    """
    used = [False] * len(indices)
    cover = [0] * n
    for _ in range(k):
        seen = [False] * n
        seen[root] = True
        pos = indptr[:-1]
        stack = [root]
        grew = False
        while stack:
            u = stack[-1]
            i = pos[u]
            end = indptr[u + 1]
            while i < end and (used[i] or seen[indices[i]]):
                i += 1
            if i == end:
                stack.pop()
                continue
            pos[u] = i + 1
            v = indices[i]
            used[i] = True
            seen[v] = True
            cover[v] += 1
            stack.append(v)
            grew = True
        if not grew:
            break
    return cover


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


def increases_scc_count(n, verts, us, vs, members, mode):
    """Does removing ``members`` (vertices, or (u, v) edge pairs) raise the
    SCC count of the subgraph on ``verts`` with edges us->vs?"""
    _, before, _, _ = scc_raw(n, verts, us, vs)
    verts2, us2, vs2 = subgraph_without(verts, us, vs, members, mode)
    if not verts2:
        return False
    _, after, _, _ = scc_raw(n, verts2, us2, vs2)
    return len(after) > len(before)


def k_separator_raw(n, verts, us, vs, k, mode, counters=None):
    """Some minimal k-separator of the strongly connected subgraph on
    ``verts`` with edges us->vs, or None.  Edge-mode members are (u, v)
    pairs.

    k == 2 takes the smallest strong bridge (:func:`_sub_bridges`) or
    strong articulation point (:func:`_articulation_points`).  k > 2 runs
    bounded max-flow between a small set of anchor vertices (any k anchors
    suffice: a cut of size < k misses at least one) and every other
    vertex, in both directions.  Edge mode needs one anchor s and first
    packs greedy arc-disjoint trees from s in the graph and in its reverse:
    a pair that k trees reach carries k edge-disjoint paths, so flow runs
    only on the pairs the packing leaves uncertified.
    """
    verts = sorted(verts)
    # removing one vertex of a strongly connected pair leaves one vertex, so
    # a vertex separator needs at least 3
    if len(verts) < (3 if mode == "vertex" else 2):
        return None
    if k == 2:
        find = _sub_bridges if mode == "edge" else _articulation_points
        found = find(n, verts, us, vs)
        return Separator(mode, (found[0],), "k-separator") if found else None

    net = None
    for a, b in _separator_queries(n, verts, us, vs, k, mode):
        if net is None:
            net = _flow_net(n, us, vs, k, mode)
        value, augs = net.query(a, b, k)
        if counters is not None:
            counters.flow(augs)
        if value < k:
            cut = net.cut(a)
            if mode == "edge":
                cut = [(us[i], vs[i]) for i in cut]
            cut = _minimalize(
                cut,
                lambda mem: increases_scc_count(n, verts, us, vs, mem, mode),
            )
            return Separator(mode, tuple(sorted(cut)), "k-separator")
    return None


def _separator_queries(n, verts, us, vs, k, mode):
    """The (source, sink) flow queries of :func:`k_separator_raw`, in order.

    Edge mode leaves out the pairs that :func:`_tree_cover` certifies, in
    the graph and in its reverse (the edges vs->us).
    """
    if mode == "edge":
        s = verts[0]
        fwd = _tree_cover(n, s, *build_csr(n, us, vs), k)
        bwd = _tree_cover(n, s, *build_csr(n, vs, us), k)
        for t in verts[1:]:
            if fwd[t] < k:
                yield s, t
            if bwd[t] < k:
                yield t, s
        return
    edge_set = set(zip(us, vs))
    for s in verts[: min(k, len(verts))]:
        for t in verts:
            if t == s:
                continue
            for a, b in ((s, t), (t, s)):
                if (a, b) not in edge_set:
                    yield a, b


def k_separator(g, k, mode, counters=None):
    """Minimal k-separator of a strongly connected graph, or None."""
    if k < 2:
        raise GraphError("k must be >= 2")
    us, vs = g.edge_arrays()
    if not is_strongly_connected(g.n, range(g.n), us, vs):
        raise GraphError("k_separator requires a strongly connected graph")
    return k_separator_raw(g.n, range(g.n), us, vs, k, mode, counters)


# --- k-dominators ---------------------------------------------------------------


def _cut_off(n, root, csr, members, mode, reach_full):
    """Vertices that root reaches (``reach_full``) and that no root path
    avoiding ``members`` reaches, members and root excluded.

    ``csr`` is (indptr, indices, eids) of the flow graph; edge mode takes
    ``members`` as edge indices.
    """
    indptr, indices, eids = csr
    if mode == "vertex":
        blocked = [0] * n
        for x in members:
            blocked[x] = 1
        vis = kernels.reach_skip_vertices(n, root, indptr, indices, blocked)
        for x in members:
            vis[x] = 1
    else:
        blocked = [0] * len(eids)
        for e in members:
            blocked[e] = 1
        vis = kernels.reach_skip_edges(n, root, indptr, indices, eids, blocked)
    vis[root] = 1
    return [v for v in range(n) if reach_full[v] and not vis[v]]


class DominatorSearch:
    """The k-dominator search of one flow graph (root, edges us->vs), whose
    first pass also says which vertices root reaches.

    Construction runs that pass: the dominator tree for k == 2, a BFS
    (vertex mode) or the greedy tree cover of :func:`_tree_cover` (edge
    mode) for k > 2, over one CSR that :meth:`find` reuses.  ``reached`` is
    the set of vertices other than root that root reaches.  :meth:`find`
    finishes the search.
    """

    def __init__(self, n, root, us, vs, k, mode):
        self.n, self.root, self.us, self.vs, self.k, self.mode = n, root, us, vs, k, mode
        self.tree = None
        if k == 2:
            if us:
                self.tree = _dominator_tree(n, root, us, vs)
                ids, r, _, _, idom, _ = self.tree
                self.reached = {ids[v] for v, p in enumerate(idom) if p >= 0 and v != r}
            else:
                self.reached = set()
            return
        self.csr = build_csr_with_eids(n, us, vs)
        if mode == "vertex":
            self.reach_full = kernels.reach(n, root, self.csr[0], self.csr[1])
            self.targets = [t for t in range(n) if self.reach_full[t] and t != root]
            self.reached = set(self.targets)
        else:
            cover = _tree_cover(n, root, self.csr[0], self.csr[1], k)
            self.reach_full = [c > 0 for c in cover]
            self.targets = [t for t in range(n) if t != root and 0 < cover[t] < k]
            self.reached = {t for t in range(n) if cover[t] > 0 and t != root}

    def find(self, counters=None):
        """A minimal k-dominator z and the vertices it cuts off, or None.

        z is a sorted list of vertices (vertex mode) or edge indices (edge
        mode), chosen as :func:`k_dominator_raw` describes.  The vertices
        it cuts off are those outside z that root reaches, but no longer
        once z is removed: in the dominator tree, the strict descendants of
        z's vertex (k == 2, vertex mode) or the subtree of z's head (k == 2,
        edge mode); for k > 2, what the last reachability test of
        :func:`_minimalize` leaves unreached.
        """
        if self.k == 2:
            if self.tree is None:
                return None
            ids, r, _, vs, idom, children = self.tree
            if self.mode == "vertex":
                # ids is ascending, so the smallest local id is the smallest vertex
                d = min((p for v, p in enumerate(idom) if v != r and p >= 0 and p != r),
                        default=None)
                if d is None:
                    return None
                return [ids[d]], [ids[x] for x in _subtree(children, d)[1:]]
            idxs = _tree_edge_dominators(self.tree)
            if not idxs:
                return None
            i = min(idxs, key=lambda j: (self.us[j], self.vs[j]))
            return [i], [ids[x] for x in _subtree(children, vs[i])]

        n, root, k, mode = self.n, self.root, self.k, self.mode
        net = None
        for t in self.targets:
            if net is None:
                net = _flow_net(n, self.us, self.vs, k, mode)
            value, augs = net.query(root, t, k)
            if counters is not None:
                counters.flow(augs)
            if value >= k:
                continue
            cut = net.cut(root)
            kept = [None]  # what the last subset that _minimalize kept cuts off

            def still_dominates(mem):
                off = _cut_off(n, root, self.csr, mem, mode, self.reach_full)
                if off:
                    kept[0] = off
                return bool(off)

            z = _minimalize(cut, still_dominates)
            if len(z) == len(cut):  # nothing dropped, so the cut itself was never tried
                kept[0] = _cut_off(n, root, self.csr, z, mode, self.reach_full)
            return sorted(z), kept[0]
        return None


def k_dominator_raw(n, root, us, vs, k, mode, counters=None):
    """Minimal k-dominator of the flow graph (root, edges us->vs), or None.

    Returns a sorted list of vertices (vertex mode) or edge indices (edge
    mode).  k == 2 takes the smallest dominator (vertex mode) or the
    smallest edge-dominator (edge mode) off the dominator tree.  k > 2 runs
    a bounded max-flow from the root to the reachable vertices in id order,
    extracting and minimalizing the first short cut.  Vertex mode runs it to
    every reachable vertex; edge mode skips each vertex that k greedy
    arc-disjoint trees from the root reach (:func:`_tree_cover`), as k
    edge-disjoint paths lead there.  :class:`DominatorSearch` runs it.
    """
    found = DominatorSearch(n, root, us, vs, k, mode).find(counters)
    return None if found is None else found[0]


# --- pairwise k-connectivity (Menger queries) -----------------------------------


def pairwise_k_connected_impl(g, u, v, k, mode, nets=None):
    """Are u and v k-connected in g?

    Both directions must carry k disjoint paths (edge-disjoint, or internally
    vertex-disjoint), each one bounded max-flow query on the network of
    :func:`_flow_net`; in vertex mode its edge capacities make a direct edge
    uncuttable.  A dict passed as ``nets`` keeps the flow network of g for
    later calls on the same g, k and mode, so that their pairs share one
    network; every query starts from zero flow.
    """
    if u == v:
        raise GraphError("u and v must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertex ({u}, {v}) out of range")
    net = nets.get("flow") if nets is not None else None
    if net is None:
        net = _flow_net(g.n, *g.edge_arrays(), k, mode)
        if nets is not None:
            nets["flow"] = net
    return net.query(u, v, k)[0] >= k and net.query(v, u, k)[0] >= k
