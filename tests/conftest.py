from collections import deque

import pytest

from kconn import build_graph


@pytest.fixture
def c3():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def bitri():
    return build_graph(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])


@pytest.fixture
def bowtie():
    edges = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1),
             (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3)]
    return build_graph(5, edges)


@pytest.fixture
def two_cycle_bridge():
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0)]
    return build_graph(6, edges)


@pytest.fixture
def k4b():
    return build_graph(4, [(u, v) for u in range(4) for v in range(4) if u != v])


def naive_runs_same_calls(g, k, mode):
    """Does kscc make naive_kscc's calls on g?  kscc runs the level search
    only on working graphs of more than 8 vertices, and in vertex mode with
    k > 2 of at least 14 k^3; below that it is the naive loop."""
    return g.n <= 8 or (mode == "vertex" and k > 2 and g.n < 14 * k**3)


def arrays(edges):
    """The (us, vs) lists of a list of (u, v) pairs: the edge format that
    kconn's internal functions take."""
    return [u for u, _ in edges], [v for _, v in edges]


# --- brute-force helpers used as independent oracles -------------------------


def reach_set(n, edges, src, drop_v=(), drop_e=()):
    drop_v = set(drop_v)
    drop_e = set(drop_e)
    adj = {v: [] for v in range(n) if v not in drop_v}
    for (u, v) in edges:
        if u in drop_v or v in drop_v or (u, v) in drop_e:
            continue
        adj[u].append(v)
    if src in drop_v:
        return set()
    seen = {src}
    dq = deque([src])
    while dq:
        x = dq.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                dq.append(y)
    return seen


def within_depth(edges, j, d, reverse=False):
    """Vertices with a path of at most d edges to j (reverse: from j)."""
    ball = {j}
    for _ in range(d):
        if reverse:
            ball |= {v for (u, v) in edges if u in ball}
        else:
            ball |= {u for (u, v) in edges if v in ball}
    return ball


def brute_sccs(n, edges, drop_v=(), drop_e=()):
    drop_v = set(drop_v)
    verts = [v for v in range(n) if v not in drop_v]
    reach = {v: reach_set(n, edges, v, drop_v, drop_e) for v in verts}
    comps = set()
    for v in verts:
        comps.add(frozenset(w for w in reach[v] if v in reach[w]))
    return comps


def brute_scc_count(g, drop_v=None, drop_e=None):
    dv = [drop_v] if drop_v is not None else ()
    de = [drop_e] if drop_e is not None else ()
    return len(brute_sccs(g.n, g.edge_list, dv, de))


def brute_dominators(n, edges, root):
    """{v: some witness} for every vertex-dominator of the flow graph."""
    base = reach_set(n, edges, root)
    out = {}
    for v in sorted(base):
        if v == root:
            continue
        after = reach_set(n, edges, root, drop_v=[v])
        for u in sorted(base - after - {v}):
            out[v] = u
            break
    return out


def brute_edge_dominators(n, edges, root):
    base = reach_set(n, edges, root)
    out = []
    for e in edges:
        after = reach_set(n, edges, root, drop_e=[e])
        if base - after:
            out.append(e)
    return sorted(set(out))
