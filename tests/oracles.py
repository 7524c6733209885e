"""Oracles for k-edge and k-vertex SCCs that share no code with kconn.

Both take a digraph as ``(n, edges)`` and return its maximal k-edge or
k-vertex strongly connected vertex sets as a sorted list of sorted tuples,
the shape of ``[c.vertices for c in kscc(g, k, mode).components]``.

* Edge mode asks networkx: ``k_edge_subgraphs`` on a ``DiGraph``.
* Vertex mode splits recursively on a Menger flow written here, over the
  vertex-split graph in which direct edges cannot be cut.

``tests/test_oracle.py`` checks that this module imports nothing from kconn.
"""

from collections import deque

import networkx as nx


def edge_kscc_sets(n, edges, k):
    """Maximal vertex sets whose induced subgraphs are k-edge strongly connected."""
    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return sorted(tuple(sorted(c)) for c in nx.k_edge_subgraphs(G, k))


class _SplitNet:
    """Vertex v of ``verts`` (local index i) becomes in-node 2i -> out-node
    2i+1 with capacity 1; an edge u->v becomes out(u) -> in(v) with capacity
    k, which a cut of fewer than k vertices cannot saturate."""

    def __init__(self, verts, edges, k):
        self.verts = verts
        self.idx = {v: i for i, v in enumerate(verts)}
        self.head, self.cap = [], []
        self.arcs = [[] for _ in range(2 * len(verts))]
        for i in range(len(verts)):
            self._add(2 * i, 2 * i + 1, 1)
        for u, v in edges:
            self._add(2 * self.idx[u] + 1, 2 * self.idx[v], k)

    def _add(self, a, b, c):
        for x, y, cap in ((a, b, c), (b, a, 0)):
            self.arcs[x].append(len(self.head))
            self.head.append(y)
            self.cap.append(cap)

    def _search(self, s, t, res):
        """BFS from s over positive residual arcs, stopping at t: the arc
        that reached each node (or None) and the reached flags."""
        via = [None] * len(self.arcs)
        seen = [False] * len(self.arcs)
        seen[s] = True
        todo = deque([s])
        while todo:
            x = todo.popleft()
            for a in self.arcs[x]:
                y = self.head[a]
                if res[a] > 0 and not seen[y]:
                    seen[y] = True
                    via[y] = a
                    if y == t:
                        return via, seen
                    todo.append(y)
        return via, seen

    def small_cut(self, a, b, k):
        """Fewer than k vertices other than a and b meeting every a->b path,
        or None if k internally vertex-disjoint a->b paths exist."""
        s, t = 2 * self.idx[a] + 1, 2 * self.idx[b]
        res = self.cap[:]
        for _ in range(k):
            via, seen = self._search(s, t, res)
            if not seen[t]:
                return [v for i, v in enumerate(self.verts) if seen[2 * i] and not seen[2 * i + 1]]
            # every arc of the path has residual >= 1, so one unit always fits
            x = t
            while x != s:
                arc = via[x]
                res[arc] -= 1
                res[arc ^ 1] += 1
                x = self.head[arc ^ 1]
        return None


def _reach(src, out, drop):
    seen = {src}
    todo = [src]
    for x in todo:
        for y in out[x]:
            if y not in seen and y not in drop:
                seen.add(y)
                todo.append(y)
    return seen


def _split(piece, edges, k):
    """Two proper sub-pieces covering every k-vertex SCC of ``piece``, or None.

    Runs flow from each of k anchors to every other vertex and back; a pair
    that a set C of fewer than k vertices separates splits the piece into
    R u C and the rest, where R is what the query's source reaches once C
    is removed.  Any pairwise k-connected set inside the piece lies in one
    of them: an edge from R leads into R or C.  If every query finds k paths
    the piece is pairwise k-connected: some anchor avoids any small cut,
    and it is cut off from one side of the pair that cut separates.
    """
    out = {v: set() for v in piece}
    for u, v in edges:
        out[u].add(v)
    net = _SplitNet(piece, edges, k)
    for s in piece[:k]:
        for t in piece:
            for a, b in ((s, t), (t, s)):
                # a direct edge carries k units on its own
                if a == b or b in out[a]:
                    continue
                cut = net.small_cut(a, b, k)
                if cut is not None:
                    reach = _reach(a, out, set(cut))
                    return sorted(reach | set(cut)), [v for v in piece if v not in reach]
    return None


def vertex_kscc_sets(n, edges, k):
    """Maximal vertex sets whose induced subgraphs are pairwise k-vertex
    strongly connected: each ordered pair u, v has an edge u->v or k
    internally vertex-disjoint u->v paths."""
    leaves = []
    todo = [list(range(n))] if n else []
    while todo:
        piece = todo.pop()
        inside = set(piece)
        found = _split(piece, [(u, v) for u, v in edges if u in inside and v in inside], k)
        if found is None:
            leaves.append(frozenset(piece))
        else:
            todo.extend(found)
    leaves.sort(key=len, reverse=True)
    kept = []
    for p in leaves:
        if not any(p <= q for q in kept):
            kept.append(p)
    return sorted(tuple(sorted(p)) for p in kept)
