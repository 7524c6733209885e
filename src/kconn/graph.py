"""Directed-graph representation, the working graph of the decomposition
drivers (level-edge scans, splits, edge deletion) and the constant-degree
transform."""

from dataclasses import dataclass

from .errors import GraphError, InvariantViolation
from .kernels import build_csr  # noqa: F401  (perfbench/tests patch this binding)

__all__ = [
    "Graph",
    "WorkGraph",
    "VertexMapping",
    "build_graph",
    "reverse",
    "induced_subgraph",
    "degree_gamma",
    "constant_degree_transform",
    "project_components",
]


class Graph:
    """Simple directed graph with ordered adjacency in both directions.

    Vertex ids are 0..n-1.  Edge insertion order fixes the per-vertex in/out
    orderings for good; everything downstream (level edges in particular)
    relies on these orderings being stable.  Parallel edges and self-loops
    are rejected.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj", "edge_list", "_edge_set")

    def __init__(self, n, edges):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        self.out_adj = [[] for _ in range(n)]
        self.in_adj = [[] for _ in range(n)]
        self.edge_list = []
        self._edge_set = set()
        for u, v in edges:
            self.add_edge(u, v)
        self.m = len(self.edge_list)

    @classmethod
    def from_checked(cls, n, edges, edge_set):
        """Graph on a list of edges already known to be in range, free of
        self-loops and distinct; ``edge_set`` holds the same edges.  The
        graph takes both over."""
        g = cls.__new__(cls)
        g.n = n
        g.out_adj = out_adj = [[] for _ in range(n)]
        g.in_adj = in_adj = [[] for _ in range(n)]
        for u, v in edges:
            out_adj[u].append(v)
            in_adj[v].append(u)
        g.edge_list = edges
        g._edge_set = edge_set
        g.m = len(edges)
        return g

    def add_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        if (u, v) in self._edge_set:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._edge_set.add((u, v))
        self.out_adj[u].append(v)
        self.in_adj[v].append(u)
        self.edge_list.append((u, v))
        self.m = len(self.edge_list)

    def has_edge(self, u, v):
        return (u, v) in self._edge_set

    def edge_arrays(self):
        """The edge sources and the edge heads, as two lists in edge order."""
        return [u for u, _ in self.edge_list], [v for _, v in self.edge_list]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edge_list == other.edge_list

    def __hash__(self):
        return hash((self.n, tuple(self.edge_list)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n, edges):
    """Validating constructor; rejects self-loops and duplicate pairs."""
    return Graph(n, edges)


def reverse(g):
    """Graph with every edge flipped; orderings are the swapped orderings of g."""
    return Graph(g.n, [(v, u) for (u, v) in g.edge_list])


def induced_subgraph(g, s):
    """Subgraph induced by vertex set ``s``, re-indexed to 0..|s|-1.

    Returns (subgraph, old_ids) where old_ids[new] is the original vertex id.
    Relative edge order is preserved.
    """
    old_ids = sorted(s)
    to_new = {v: i for i, v in enumerate(old_ids)}
    edges = [
        (to_new[u], to_new[v])
        for (u, v) in g.edge_list
        if u in to_new and v in to_new
    ]
    return Graph(len(old_ids), edges), old_ids


def degree_gamma(g):
    """min(max in-degree, max out-degree); caps the level loop."""
    if g.n == 0 or g.m == 0:
        return 0
    return min(
        max(len(a) for a in g.in_adj),
        max(len(a) for a in g.out_adj),
    )


@dataclass
class VertexMapping:
    """Original vertex <-> expanded-vertex-block mapping for the degree transform."""

    forward: dict
    backward: tuple

    @classmethod
    def identity(cls, n):
        return cls({v: (v,) for v in range(n)}, tuple(range(n)))

    def is_identity(self):
        return all(len(vs) == 1 and vs[0] == v for v, vs in self.forward.items())


def constant_degree_transform(g):
    """Rewrite g so every vertex has in- and out-degree at most 3.

    A vertex v with max(indeg, outdeg) > 3 becomes a block of that many
    vertices wired as two opposite directed cycles; the i-th out-edge leaves
    block slot i-1 and the j-th in-edge enters block slot j-1.  2eSCCs are
    preserved under the returned mapping.
    """
    deg = [max(len(g.in_adj[v]), len(g.out_adj[v])) for v in range(g.n)]
    forward = {}
    nxt = 0
    for v in range(g.n):
        width = deg[v] if deg[v] > 3 else 1
        forward[v] = tuple(range(nxt, nxt + width))
        nxt += width
    backward = [0] * nxt
    for v, block in forward.items():
        for x in block:
            backward[x] = v
    edges = []
    for v, block in forward.items():
        if len(block) > 1:
            w = len(block)
            for i in range(w):
                edges.append((block[i], block[(i + 1) % w]))
                edges.append((block[i], block[(i - 1) % w]))
    out_pos = [0] * g.n
    in_pos = [0] * g.n
    for (u, v) in g.edge_list:
        i = g.out_adj[u].index(v, out_pos[u])
        j = g.in_adj[v].index(u, in_pos[v])
        src = forward[u][i] if len(forward[u]) > 1 else forward[u][0]
        dst = forward[v][j] if len(forward[v]) > 1 else forward[v][0]
        edges.append((src, dst))
    mapping = VertexMapping(forward, tuple(backward))
    return Graph(nxt, edges), mapping


def project_components(mapping, comps):
    """Map a vertex partition computed on the expanded graph back to originals.

    Every expansion block must land in one component; a split block signals a
    bug in the caller's algorithm.
    """
    from .hierarchy import ComponentSet, Component  # local import: avoid cycle

    if comps.mode != "edge":
        raise GraphError("projection is defined for edge-mode components")
    width = {v: len(block) for v, block in mapping.forward.items()}
    out = []
    for comp in comps.components:
        seen = {}
        for x in comp.vertices:
            v = mapping.backward[x]
            seen[v] = seen.get(v, 0) + 1
        for v, cnt in seen.items():
            if cnt != width[v]:
                raise InvariantViolation(
                    f"expansion block of vertex {v} split across components"
                )
        out.append(Component(vertices=tuple(sorted(seen))))
    out.sort(key=lambda c: c.vertices)
    return ComponentSet(mode="edge", k=comps.k, components=out)


class WorkGraph:
    """Mutable working view of a graph for the decomposition drivers.

    Holds an alive-vertex mask (a list of bools) plus per-vertex adjacency
    lists that may contain obsolete entries (endpoints no longer alive, or
    tombstoned edges).  Obsolete entries are physically purged when a scan
    encounters them, which keeps the amortized cleanup cost linear: sibling
    branches of a split never share an alive vertex, so each owns the lists
    it scans.
    """

    __slots__ = ("n", "alive", "verts", "in_l", "out_l", "dead")

    def __init__(self, g=None):
        if g is None:
            return
        self.n = g.n
        self.alive = [True] * g.n
        self.verts = list(range(g.n))
        self.in_l = [list(a) for a in g.in_adj]
        self.out_l = [list(a) for a in g.out_adj]
        self.dead = set()

    @property
    def n_alive(self):
        return len(self.verts)

    def restrict(self, keep, rebuild=()):
        """Child working graph on vertex set ``keep``.

        Lists are shared with the parent except for the ``rebuild`` vertices
        (the separator set, which both children retain), whose adjacency is
        filtered eagerly so the two children never mutate a shared list.
        """
        w = WorkGraph()
        w.n = self.n
        alive = [False] * self.n
        ks = sorted(keep)
        for v in ks:
            alive[v] = True
        w.alive = alive
        w.verts = ks
        w.in_l = list(self.in_l)
        w.out_l = list(self.out_l)
        w.dead = self.dead
        for z in rebuild:
            if alive[z]:
                w.in_l[z] = w.live_in(z)
                w.out_l[z] = w.live_out(z)
        return w

    def delete_edges(self, edges):
        self.dead.update(edges)

    def _collect(self, verts, lists, rev, cap):
        """Scan ``lists[v]`` for every v in verts, compacting each in place.

        Collects the first ``cap`` alive entries of each list as edges (u, v),
        and stops a list at its (cap+1)-th alive entry, which makes v blue.
        Entries read before that point that are obsolete are purged.
        Returns (us, vs, blue, number of entries read).
        """
        alive = self.alive
        dead = self.dead
        us, vs, blue = [], [], []
        scanned = 0
        for v in verts:
            lst = lists[v]
            L = len(lst)
            if L <= cap:
                # the scan cannot stop early: read and compact the whole list
                if dead:
                    if rev:
                        kept = [u for u in lst if alive[u] and (v, u) not in dead]
                    else:
                        kept = [u for u in lst if alive[u] and (u, v) not in dead]
                else:
                    kept = [u for u in lst if alive[u]]
                scanned += L
                if len(kept) < L:
                    lst[:] = kept
                us += kept
                vs += [v] * len(kept)
                continue
            r = w = 0
            while r < L:
                u = lst[r]
                r += 1
                if alive[u] and (not dead or ((v, u) if rev else (u, v)) not in dead):
                    lst[w] = u
                    w += 1
                    if w > cap:
                        blue.append(v)
                        break
                    us.append(u)
                    vs.append(v)
            scanned += r
            if w < r:
                del lst[w:r]
        return us, vs, blue, scanned

    def level_edges(self, i, rev, counters=None):
        """Level-i edge arrays in the chosen orientation plus the blue set.

        Forward scans in-lists; reverse scans out-lists (in-lists of the
        reverse graph).  Edges come out oriented for the scanned direction.
        The entries read are charged to ``counters.level``.
        """
        us, vs, blue, scanned = self._collect(
            self.verts, self.out_l if rev else self.in_l, rev, 1 << i)
        if counters is not None:
            counters.level(scanned)
        return us, vs, blue

    def all_edges(self, counters=None):
        """All alive edges (forward orientation), purging as it scans.

        The entries read are charged to ``counters.whole``.
        """
        us, vs, _, scanned = self._collect(self.verts, self.in_l, False, self.n + 1)
        if counters is not None:
            counters.whole(scanned)
        return us, vs

    def out_neighbors(self, v):
        """Alive out-neighbors of v, purging obsolete entries."""
        kept = self.live_out(v)
        if len(kept) < len(self.out_l[v]):
            self.out_l[v][:] = kept
        return kept

    def in_neighbors(self, v):
        kept = self.live_in(v)
        if len(kept) < len(self.in_l[v]):
            self.in_l[v][:] = kept
        return kept

    def live_in(self, v):
        """Alive in-neighbors of v, read without purging."""
        alive = self.alive
        dead = self.dead
        if dead:
            return [u for u in self.in_l[v] if alive[u] and (u, v) not in dead]
        return [u for u in self.in_l[v] if alive[u]]

    def live_out(self, v):
        """Alive out-neighbors of v, read without purging."""
        alive = self.alive
        dead = self.dead
        if dead:
            return [u for u in self.out_l[v] if alive[u] and (v, u) not in dead]
        return [u for u in self.out_l[v] if alive[u]]

    def to_graph(self):
        """Materialize the alive subgraph as a re-indexed Graph plus id map.

        Reads the lists without purging them, in the order ``all_edges``
        would return the edges.
        """
        old_ids = list(self.verts)
        to_new = {v: i for i, v in enumerate(old_ids)}
        edges = [(to_new[u], to_new[v]) for v in old_ids for u in self.live_in(v)]
        return Graph(len(old_ids), edges), old_ids
