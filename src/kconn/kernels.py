"""Flat-array kernels for the hot graph loops.

Every kernel takes and returns Python lists: a graph comes as CSR lists
(see :func:`build_csr`), and results are lists indexed by vertex.  CPython
indexes a list of ints faster than any array type, and the many small calls
of a decomposition cost no conversions.  A flow network is queried many
times, so it is kept in list form as well (see ``primitives.FlowNet``).
"""

from itertools import accumulate

__all__ = [
    "backend",
    "tarjan_scc",
    "idom_lt",
    "reach",
    "reach_skip_vertices",
    "reach_skip_edges",
    "maxflow_upto_k",
    "residual_reach",
    "residual_tree",
    "build_csr",
    "build_csr_with_eids",
]


def backend():
    """Name of the kernel implementation; there is only the interpreted one."""
    return "python"


def build_csr(n, us, vs):
    """CSR adjacency (indptr, indices) for edges us[i] -> vs[i].

    A counting sort on the sources; stable within each source vertex, so
    per-vertex edge order follows the input order of the edge lists.
    """
    return _counting_sort(n, us, vs)


def build_csr_with_eids(n, us, vs):
    """Like :func:`build_csr` but also returns the edge id of each CSR slot."""
    indptr, eids = _counting_sort(n, us, range(len(us)))
    return indptr, list(map(vs.__getitem__, eids)), eids


def _counting_sort(n, us, vs):
    """Stable counting sort of vs by us; the body of both CSR builders.

    Kept apart so that ``build_csr_with_eids`` does not call ``build_csr``,
    which a tracer may count on its own.
    """
    counts = [0] * n
    for u in us:
        counts[u] += 1
    indptr = [0]
    indptr += accumulate(counts)
    pos = indptr[:-1]
    indices = [0] * len(us)
    for u, v in zip(us, vs):
        p = pos[u]
        indices[p] = v
        pos[u] = p + 1
    return indptr, indices


def tarjan_scc(n, verts, ptr, adj):
    """Iterative Tarjan started from each of the given vertices in turn.

    Returns (comp, ncomp); comp[v] == -1 for vertices not reached from
    ``verts``.  Component ids are assigned in completion order (not
    canonical).
    """
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
    return comp, ncomp


def idom_lt(n, root, ptr, adj):
    """Immediate dominators: Lengauer-Tarjan semidominators, then Semi-NCA.

    Semidominators come from the Lengauer-Tarjan pass with path
    compression; each idom is then the nearest common ancestor of the DFS
    parent and the semidominator in the dominator tree built so far
    (Georgiadis, Tarjan and Werneck, "Finding Dominators in Practice").
    The predecessors that pass needs are collected by the DFS, which scans
    every edge out of a reached vertex once.  idom[root] == root; idom[v] ==
    -1 for vertices unreachable from root.
    """
    # DFS preorder: dfnum[v] is v's number, vertex[i] the i-th vertex,
    # parent[i] the number of its DFS parent and preds[i] the numbers of
    # its predecessors.
    dfnum = [-1] * n
    dfnum[root] = 0
    vertex = [root]
    parent = [0]
    preds = [[]]
    cs_v = [root]
    cs_e = [ptr[root]]
    while cs_v:
        v = cs_v[-1]
        e = cs_e[-1]
        end = ptr[v + 1]
        dv = dfnum[v]
        while e < end:
            w = adj[e]
            e += 1
            j = dfnum[w]
            if j < 0:
                cs_e[-1] = e
                dfnum[w] = len(vertex)
                vertex.append(w)
                parent.append(dv)
                preds.append([dv])
                cs_v.append(w)
                cs_e.append(ptr[w])
                break
            preds[j].append(dv)
        else:
            cs_v.pop()
            cs_e.pop()

    # Everything below works in preorder numbers.  anc is the linked
    # forest; label[x] is the smallest semidominator on x's path to the
    # root of its forest tree (that root excluded).
    count = len(vertex)
    semi = list(range(count))
    label = list(range(count))
    anc = [-1] * count

    def compress(j):
        path = []
        a = anc[j]
        while anc[a] >= 0:
            path.append(j)
            j = a
            a = anc[j]
        while path:
            y = path.pop()
            a = anc[y]
            if label[a] < label[y]:
                label[y] = label[a]
            anc[y] = anc[a]

    for i in range(count - 1, 0, -1):
        s = i
        for j in preds[i]:
            if j > i:
                if anc[anc[j]] >= 0:
                    compress(j)
                j = label[j]
            if j < s:
                s = j
        semi[i] = s
        label[i] = s
        anc[i] = parent[i]

    # idom by number, ancestors first; the root's -1 stops every walk
    idom_num = [-1] * count
    for i in range(1, count):
        d = parent[i]
        s = semi[i]
        while d > s:
            d = idom_num[d]
        idom_num[i] = d

    idom = [-1] * n
    idom[root] = root
    for i in range(1, count):
        idom[vertex[i]] = vertex[idom_num[i]]
    return idom


def reach(n, src, ptr, adj):
    """Vertices reachable from src, as a list of 0/1."""
    vis = [0] * n
    vis[src] = 1
    q = [src]
    for v in q:
        for w in adj[ptr[v]:ptr[v + 1]]:
            if not vis[w]:
                vis[w] = 1
                q.append(w)
    return vis


def reach_skip_vertices(n, src, ptr, adj, blocked):
    """:func:`reach` in the graph without the vertices marked in ``blocked``."""
    vis = [0] * n
    if blocked[src]:
        return vis
    vis[src] = 1
    q = [src]
    for v in q:
        for w in adj[ptr[v]:ptr[v + 1]]:
            if not vis[w] and not blocked[w]:
                vis[w] = 1
                q.append(w)
    return vis


def reach_skip_edges(n, src, ptr, adj, eids, blocked):
    """:func:`reach` without the edges whose ids are marked in ``blocked``."""
    vis = [0] * n
    vis[src] = 1
    q = [src]
    for v in q:
        for e in range(ptr[v], ptr[v + 1]):
            if blocked[eids[e]]:
                continue
            w = adj[e]
            if not vis[w]:
                vis[w] = 1
                q.append(w)
    return vis


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
