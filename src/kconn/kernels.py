"""Flat-array kernels for the hot graph loops.

Inputs are CSR-style numpy arrays (see :func:`build_csr`).  Each kernel
copies the arrays it reads into Python lists once with ``.tolist()`` and
loops over those: CPython indexes a list of ints several times faster than
it indexes a numpy array one scalar at a time.  Results are returned as
numpy arrays, as callers index and slice them that way.

The flow kernels are the exception: a flow network is queried many times,
so it is kept in list form (see ``primitives.FlowNet``) and they take and
return lists.
"""

import numpy as np

__all__ = [
    "backend",
    "tarjan_scc",
    "idom_lt",
    "bfs_depth",
    "reach",
    "reach_skip_vertices",
    "reach_skip_edges",
    "maxflow_upto_k",
    "residual_reach",
    "residual_tree",
    "build_csr",
    "build_csr_with_eids",
]

_I = np.int64


def backend():
    """Name of the kernel implementation; there is only the interpreted one."""
    return "python"


def build_csr(n, us, vs):
    """CSR adjacency (indptr, indices) for edges us[i] -> vs[i].

    Stable within each source vertex, so per-vertex edge order follows the
    input order of the edge arrays.
    """
    indptr, indices, _ = _csr(n, us, vs)
    return indptr, indices


def build_csr_with_eids(n, us, vs):
    """Like :func:`build_csr` but also returns the edge id of each CSR slot."""
    indptr, indices, order = _csr(n, us, vs)
    return indptr, indices, order.astype(_I)


def _csr(n, us, vs):
    us = np.asarray(us, dtype=_I)
    vs = np.asarray(vs, dtype=_I)
    counts = np.bincount(us, minlength=n) if len(us) else np.zeros(n, dtype=_I)
    indptr = np.zeros(n + 1, dtype=_I)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(us, kind="stable")
    return indptr, vs[order], order


def tarjan_scc(n, verts, indptr, indices):
    """Iterative Tarjan started from each of the given vertices in turn.

    Returns (comp, ncomp); comp[v] == -1 for vertices not reached from
    ``verts``.  Component ids are assigned in completion order (not
    canonical).
    """
    ptr = indptr.tolist()
    adj = indices.tolist()
    if isinstance(verts, np.ndarray):
        verts = verts.tolist()
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    comp = [-1] * n
    stack = []
    counter = 0
    ncomp = 0
    for s in verts:
        if index[s] >= 0:
            continue
        index[s] = low[s] = counter
        counter += 1
        stack.append(s)
        on[s] = True
        cs_v = [s]
        cs_e = [ptr[s]]
        while cs_v:
            v = cs_v[-1]
            e = cs_e[-1]
            end = ptr[v + 1]
            lv = low[v]
            while e < end:
                w = adj[e]
                e += 1
                iw = index[w]
                if iw < 0:
                    cs_e[-1] = e
                    low[v] = lv
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on[w] = True
                    cs_v.append(w)
                    cs_e.append(ptr[w])
                    break
                if on[w] and iw < lv:
                    lv = iw
            else:
                low[v] = lv
                cs_v.pop()
                cs_e.pop()
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        on[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if cs_v:
                    pv = cs_v[-1]
                    if lv < low[pv]:
                        low[pv] = lv
    return np.array(comp, dtype=_I), ncomp


def idom_lt(n, root, out_indptr, out_indices, pred_indptr, pred_indices):
    """Immediate dominators via Lengauer-Tarjan with path compression.

    idom[root] == root; idom[v] == -1 for vertices unreachable from root.
    """
    optr = out_indptr.tolist()
    oadj = out_indices.tolist()
    pptr = pred_indptr.tolist()
    padj = pred_indices.tolist()

    # DFS preorder: dfnum[v] is v's number, vertex[i] the i-th vertex.
    dfnum = [-1] * n
    parent = [-1] * n
    dfnum[root] = 0
    vertex = [root]
    cs_v = [root]
    cs_e = [optr[root]]
    while cs_v:
        v = cs_v[-1]
        e = cs_e[-1]
        end = optr[v + 1]
        while e < end:
            w = oadj[e]
            e += 1
            if dfnum[w] < 0:
                cs_e[-1] = e
                dfnum[w] = len(vertex)
                vertex.append(w)
                parent[w] = v
                cs_v.append(w)
                cs_e.append(optr[w])
                break
        else:
            cs_v.pop()
            cs_e.pop()

    semi = dfnum[:]
    ancestor = [-1] * n
    best = list(range(n))
    idom = [-1] * n
    samedom = [-1] * n
    bhead = [-1] * n
    bnext = [-1] * n

    def evaluate(v):
        """Ancestor of v with the lowest semi, compressing the path."""
        path = []
        x = v
        a = ancestor[x]
        while a >= 0 and ancestor[a] >= 0:
            path.append(x)
            x = a
            a = ancestor[x]
        while path:
            y = path.pop()
            a = ancestor[y]
            if semi[best[a]] < semi[best[y]]:
                best[y] = best[a]
            ancestor[y] = ancestor[a]
        return best[v]

    for i in range(len(vertex) - 1, 0, -1):
        w = vertex[i]
        p = parent[w]
        s = semi[w]
        for v in padj[pptr[w]:pptr[w + 1]]:
            dv = dfnum[v]
            if dv < 0:
                continue
            if dv > i:
                dv = semi[evaluate(v)]
            if dv < s:
                s = dv
        semi[w] = s
        sv = vertex[s]
        bnext[w] = bhead[sv]
        bhead[sv] = w
        ancestor[w] = p
        v = bhead[p]
        while v >= 0:
            u = evaluate(v)
            if semi[u] < semi[v]:
                samedom[v] = u
            else:
                idom[v] = p
            v = bnext[v]
        bhead[p] = -1

    for w in vertex[1:]:
        if samedom[w] >= 0:
            idom[w] = idom[samedom[w]]
    idom[root] = root
    return np.array(idom, dtype=_I)


def bfs_depth(n, src, limit, indptr, indices):
    """BFS from src up to the given edge-distance; returns (dist, edges_scanned)."""
    ptr = indptr.tolist()
    adj = indices.tolist()
    dist = [-1] * n
    dist[src] = 0
    q = [src]
    scanned = 0
    for v in q:
        dv = dist[v]
        if dv >= limit:
            continue
        succ = adj[ptr[v]:ptr[v + 1]]
        scanned += len(succ)
        for w in succ:
            if dist[w] < 0:
                dist[w] = dv + 1
                q.append(w)
    return np.array(dist, dtype=_I), scanned


def reach(n, src, indptr, indices):
    """Vertices reachable from src, as a 0/1 uint8 array."""
    ptr = indptr.tolist()
    adj = indices.tolist()
    vis = [0] * n
    vis[src] = 1
    q = [src]
    for v in q:
        for w in adj[ptr[v]:ptr[v + 1]]:
            if not vis[w]:
                vis[w] = 1
                q.append(w)
    return np.array(vis, dtype=np.uint8)


def reach_skip_vertices(n, src, indptr, indices, blocked):
    """:func:`reach` in the graph without the vertices marked in ``blocked``."""
    if blocked[src]:
        return np.zeros(n, dtype=np.uint8)
    ptr = indptr.tolist()
    adj = indices.tolist()
    skip = blocked.tolist()
    vis = [0] * n
    vis[src] = 1
    q = [src]
    for v in q:
        for w in adj[ptr[v]:ptr[v + 1]]:
            if not vis[w] and not skip[w]:
                vis[w] = 1
                q.append(w)
    return np.array(vis, dtype=np.uint8)


def reach_skip_edges(n, src, indptr, indices, eids, blocked_edges):
    """:func:`reach` without the edges whose ids are marked in ``blocked_edges``."""
    ptr = indptr.tolist()
    adj = indices.tolist()
    eid = eids.tolist()
    skip = blocked_edges.tolist()
    vis = [0] * n
    vis[src] = 1
    q = [src]
    for v in q:
        for e in range(ptr[v], ptr[v + 1]):
            if skip[eid[e]]:
                continue
            w = adj[e]
            if not vis[w]:
                vis[w] = 1
                q.append(w)
    return np.array(vis, dtype=np.uint8)


def residual_tree(nn, s, t, ptr, arcs, head, res):
    """Parent arcs of the BFS tree from s over arcs with positive ``res``.

    ``parc[s] == -2`` and ``parc[v] == -1`` for nodes not reached.  The
    search stops as soon as it reaches t; ``t = -1`` builds the whole tree.
    """
    parc = [-1] * nn
    parc[s] = -2
    q = [s]
    for u in q:
        for a in arcs[ptr[u]:ptr[u + 1]]:
            if res[a] > 0:
                w = head[a]
                if parc[w] == -1:
                    parc[w] = a
                    if w == t:
                        return parc
                    q.append(w)
    return parc


def maxflow_upto_k(nn, s, t, k, ptr, arcs, head, res, tree=None):
    """Shortest-augmenting-path max-flow, stopping once the value reaches k.

    The network is in list form: node u's arcs are ``arcs[ptr[u]:ptr[u+1]]``
    and arc a and a^1 are each other's reverse.  ``res`` holds the residual
    capacity of each arc and is updated in place.  ``tree`` may give the
    parent arcs of a BFS tree from s over the arcs positive in ``res``: it
    then supplies the first augmenting path, which is the one the stopping
    search would find.  Returns (value, augmentations).
    """
    value = 0
    augs = 0
    parc = tree
    while value < k:
        if parc is None:
            parc = residual_tree(nn, s, t, ptr, arcs, head, res)
        if parc[t] == -1:
            break
        b = k - value
        u = t
        while u != s:
            a = parc[u]
            if res[a] < b:
                b = res[a]
            u = head[a ^ 1]
        u = t
        while u != s:
            a = parc[u]
            res[a] -= b
            res[a ^ 1] += b
            u = head[a ^ 1]
        value += b
        augs += 1
        parc = None
    return value, augs


def residual_reach(nn, s, ptr, arcs, head, res):
    """Nodes reachable from s over arcs with positive ``res``, as a list of bools."""
    return [p != -1 for p in residual_tree(nn, s, -1, ptr, arcs, head, res)]
