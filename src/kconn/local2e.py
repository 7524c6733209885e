"""Sparse-graph 2eSCC algorithm: outer bridge-removal loop with depth-bounded
local searches seeded from vertices that recently lost edges."""

import math

from .errors import GraphError, InvariantViolation
from .graph import WorkGraph, constant_degree_transform, project_components
from .hierarchy import Component, ComponentSet, Counters, _search_side
from .primitives import _scc_edges, _sub_bridges, edges_minus, scc_raw, top_scc_of
from .primitives import k_dominator_raw  # noqa: F401  (perfbench/tests patch this binding)

__all__ = [
    "two_escc_sparse",
    "two_isolated_set_local",
    "bounded_reverse_bfs",
]


def _ball(wk, j, d, rev, counters):
    """Vertices with a path of <= d edges to j (rev=False: in the forward
    graph; rev=True: in the reverse graph), BFS over predecessor lists."""
    dist = {j: 0}
    order = [j]
    qi = 0
    scanned = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        if dist[v] >= d:
            continue
        preds = wk.in_neighbors(v) if not rev else wk.out_neighbors(v)
        scanned += len(preds)
        for u in preds:
            if u not in dist:
                dist[u] = dist[v] + 1
                order.append(u)
    if counters is not None:
        counters.ball(scanned)
    return order


def bounded_reverse_bfs(g, j, d, direction="forward"):
    """Vertices with a path of at most d edges to j in the chosen direction."""
    if not (0 <= j < g.n):
        raise GraphError(f"vertex {j} out of range")
    wk = WorkGraph(g)
    return set(_ball(wk, j, d, direction == "reverse", None))


def _local_search(wk, j_list, d, counters):
    """One pass of the ball searches; returns an isolated vertex set or None.

    For each seed and direction, the ball and its blue boundary (the ball
    vertices with an in-edge from outside it) go to the isolated-set search
    of the level search, with k=2 in edge mode: a blue-free top SCC of the
    ball, else the top SCC left by an edge-dominator of the ball with its
    blue boundary contracted to a root.  A top SCC counts only with an
    outgoing edge; without one it is the whole ball and a top and bottom
    SCC of the graph, where only an internal bridge can still isolate
    something.
    """
    for j in j_list:
        if not wk.alive[j]:
            continue
        for rev in (False, True):
            ball = _ball(wk, j, d, rev, counters)
            x_set = set(ball)
            verts = sorted(x_set)
            us, vs, blue = [], [], []
            for v in verts:
                preds = wk.in_neighbors(v) if not rev else wk.out_neighbors(v)
                external = False
                for u in preds:
                    if u in x_set:
                        us.append(u)
                        vs.append(v)
                    else:
                        external = True
                if external:
                    blue.append(v)
            if counters is not None:
                counters.ball(len(us))
            res = _search_side(wk.n, verts, us, vs, blue, 2, "edge", "forward", None)
            if res is None:
                continue
            t = res.s
            if res.provenance == "dominator":
                return t
            t_set = set(t)
            for v in t:
                succs = wk.out_neighbors(v) if not rev else wk.in_neighbors(v)
                if any(w not in t_set for w in succs):
                    return t
            bridges = _sub_bridges(wk.n, verts, us, vs)
            if bridges:
                return top_scc_of(wk.n, verts, *edges_minus(us, vs, bridges[:1]))
    return None


def two_isolated_set_local(g, j_set, d, counters=None):
    """Public ball search over a constant-degree graph."""
    if any(len(a) > 3 for a in g.in_adj) or any(len(a) > 3 for a in g.out_adj):
        raise GraphError("local search requires in/out degree <= 3")
    if any(not 0 <= j < g.n for j in j_set):
        raise GraphError("J-set vertex out of range")
    wk = WorkGraph(g)
    res = _local_search(wk, list(j_set), d, counters)
    return set(res) if res is not None else set()


def _boundary_edges(wk, s):
    s_set = set(s)
    out = []
    for v in s:
        for u in wk.in_neighbors(v):
            if u not in s_set:
                out.append((u, v))
        for w in wk.out_neighbors(v):
            if w not in s_set:
                out.append((v, w))
    return out


def two_escc_sparse(g, epsilon=0.5, validate=False, counters=None, trace=None):
    """2-edge strongly connected components via the local-search algorithm.

    The input is first rewritten to max degree 3; the outer loop strips
    cross-SCC edges and strong bridges, and while few vertices lost edges the
    inner loop peels small isolated sets found by depth-bounded BFS balls
    around them.  The surviving SCCs, projected back through the degree
    transform, are the 2eSCCs.
    """
    if not 0 < epsilon < 1:
        raise GraphError("epsilon must be in (0, 1)")
    counters = counters if counters is not None else Counters()
    gt, mapping = constant_degree_transform(g)
    if gt.n == 0:
        return ComponentSet(mode="edge", k=2, components=[])
    n2 = gt.n
    q = math.ceil(math.log2(n2)) if n2 > 1 else 0
    d = math.ceil(epsilon * math.log2(n2)) if n2 > 1 else 0
    wk = WorkGraph(gt)
    # the J-set: endpoints of the edges deleted in the current iteration
    j_set = {}

    # An SCC found bridgeless is, once the cross-SCC edges are gone, an
    # isolated 2-edge strongly connected island: no later deletion or local
    # search reaches it, so every later iteration finds it unchanged and
    # need not search it for bridges again.
    finished = set()
    outer = 0
    while True:
        outer += 1
        us, vs = wk.all_edges(counters)
        comps, grouped, cross = _scc_edges(n2, wk.verts, us, vs)
        if cross:
            wk.delete_edges(cross)
        last_j, j_set = j_set, {}
        for ci, comp in enumerate(comps):
            if len(comp) < 2:
                continue
            key = frozenset(comp)
            if key in finished:
                if validate and any(v in last_j for v in comp):
                    raise InvariantViolation("a finished SCC touches the J-set")
                continue
            cus, cvs = grouped[ci]
            bridges = _sub_bridges(n2, comp, cus, cvs)
            if not bridges:
                finished.add(key)
                continue
            wk.delete_edges(bridges)
            for (u, v) in bridges:
                j_set[u] = None
                j_set[v] = None
            if validate:
                _assert_tsccs_touch_j(n2, comp, cus, cvs, bridges, j_set)
        if trace is not None:
            trace.append({"event": "outer", "iteration": outer, "j": len(j_set),
                          "components": len(comps)})
        if not j_set:
            break
        if len(j_set) < q:
            while True:
                s = _local_search(wk, list(j_set), d, counters)
                if trace is not None:
                    trace.append({"event": "local", "found": 0 if s is None else len(s)})
                if s is None:
                    break
                boundary = _boundary_edges(wk, s)
                if not boundary:
                    raise InvariantViolation("local search returned a set with no boundary")
                wk.delete_edges(boundary)
                for (u, v) in boundary:
                    j_set[u] = None
                    j_set[v] = None
                if len(j_set) >= q:
                    break

    comps_cs = ComponentSet(
        mode="edge",
        k=2,
        components=sorted(
            (Component(vertices=tuple(sorted(c))) for c in comps),
            key=lambda c: c.vertices,
        ),
    )
    return project_components(mapping, comps_cs)


def _assert_tsccs_touch_j(n, comp, us, vs, deleted, j_set):
    """Every top SCC that deleting the (u, v) pairs ``deleted`` leaves in the
    component ``comp`` (edges us->vs) and that a deleted edge enters holds a
    J-set vertex."""
    _, comps2, has_in2, _ = scc_raw(n, comp, *edges_minus(us, vs, deleted))
    for ci, c2 in enumerate(comps2):
        if has_in2[ci]:
            continue
        entered = any(v in c2 and u not in c2 for (u, v) in deleted)
        if entered and not any(v in j_set for v in c2):
            raise InvariantViolation("top SCC created by deletions misses the J-set")
