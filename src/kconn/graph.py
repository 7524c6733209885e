"""Directed-graph representation, level subgraphs, flow-graph constructions
and the constant-degree transform."""

from dataclasses import dataclass

import numpy as np

from .errors import GraphError, InvariantViolation
from .kernels import build_csr  # noqa: F401  (perfbench/tests patch this binding)

__all__ = [
    "Graph",
    "WorkGraph",
    "LevelSubgraph",
    "RootedFlowGraph",
    "VertexMapping",
    "build_graph",
    "reverse",
    "induced_subgraph",
    "level_subgraph",
    "degree_gamma",
    "make_flow_graphs",
    "constant_degree_transform",
    "project_components",
]


class Graph:
    """Simple directed graph with ordered adjacency in both directions.

    Vertex ids are 0..n-1.  Edge insertion order fixes the per-vertex in/out
    orderings for good; everything downstream (level subgraphs in particular)
    relies on these orderings being stable.  Parallel edges are rejected
    unless ``allow_parallel`` is set, which only flow-graph contraction uses.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj", "edge_list", "allow_parallel", "_edge_set")

    def __init__(self, n, edges, allow_parallel=False):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        self.allow_parallel = allow_parallel
        self.out_adj = [[] for _ in range(n)]
        self.in_adj = [[] for _ in range(n)]
        self.edge_list = []
        self._edge_set = set() if not allow_parallel else None
        for u, v in edges:
            self.add_edge(u, v)
        self.m = len(self.edge_list)

    def add_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        if self._edge_set is not None:
            if (u, v) in self._edge_set:
                raise GraphError(f"duplicate edge ({u}, {v})")
            self._edge_set.add((u, v))
        self.out_adj[u].append(v)
        self.in_adj[v].append(u)
        self.edge_list.append((u, v))
        self.m = len(self.edge_list)

    def has_edge(self, u, v):
        if self._edge_set is not None:
            return (u, v) in self._edge_set
        return v in self.out_adj[u]

    def in_degree(self, v):
        return len(self.in_adj[v])

    def out_degree(self, v):
        return len(self.out_adj[v])

    def edge_arrays(self):
        if self.m == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        arr = np.asarray(self.edge_list, dtype=np.int64)
        return arr[:, 0], arr[:, 1]

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
    return Graph(g.n, [(v, u) for (u, v) in g.edge_list], allow_parallel=g.allow_parallel)


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


@dataclass
class LevelSubgraph:
    """The sparsified graph G_i: first 2^i in-edges of every vertex.

    ``edges`` are in the orientation of the chosen direction (reverse builds
    swap every pair).  ``blue`` holds the vertices whose in-degree in the base
    direction exceeds 2^i, i.e. the vertices missing in-edges here.
    """

    base: Graph
    level: int
    direction: str
    edges: list
    blue: tuple
    white: tuple


def level_subgraph(g, i, direction="forward"):
    """First-2^i-in-edges subgraph of g (or of its reverse)."""
    if i < 1:
        raise GraphError("level must be >= 1")
    if direction not in ("forward", "reverse"):
        raise GraphError(f"bad direction {direction!r}")
    cap = 1 << i
    edges = []
    blue = []
    if direction == "forward":
        for v in range(g.n):
            lst = g.in_adj[v]
            for u in lst[:cap]:
                edges.append((u, v))
            if len(lst) > cap:
                blue.append(v)
    else:
        for v in range(g.n):
            lst = g.out_adj[v]
            for u in lst[:cap]:
                edges.append((u, v))
            if len(lst) > cap:
                blue.append(v)
    blue_set = set(blue)
    white = tuple(v for v in range(g.n) if v not in blue_set)
    return LevelSubgraph(g, i, direction, edges, tuple(blue), white)


def degree_gamma(g):
    """min(max in-degree, max out-degree); caps the level loop."""
    if g.n == 0 or g.m == 0:
        return 0
    return min(
        max(len(a) for a in g.in_adj),
        max(len(a) for a in g.out_adj),
    )


@dataclass
class RootedFlowGraph:
    """A graph with a designated root for dominator searches.

    ``vertex_ids`` maps flow-graph vertices back to the ids the graph was
    built from (-1 for an added artificial/contracted root); ``edge_origin``
    maps each flow edge to the underlying original edge where that is
    meaningful (contracted graphs keep one entry per parallel edge).
    """

    graph: Graph
    root: int
    kind: str
    origin_blue: tuple = ()
    vertex_ids: tuple = ()
    edge_origin: tuple = None

    def to_original(self, v):
        if self.vertex_ids:
            return self.vertex_ids[v]
        return v

    @classmethod
    def plain(cls, g, root):
        return cls(g, root, "plain-root", (), tuple(range(g.n)), None)


def make_flow_graphs(ls, k, mode):
    """Flow graphs used by the level search, built from a level subgraph.

    edge mode: one graph with the blue set contracted to the root (parallel
    edges between blue and white kept, blue-internal edges dropped).
    vertex mode with |blue| >= k: one graph with a fresh root wired to every
    blue vertex.  vertex mode with 0 < |blue| < k: one graph per blue vertex
    w, rooted at w, with edges from w to the other blue vertices.
    """
    if mode not in ("edge", "vertex"):
        raise GraphError(f"bad mode {mode!r}")
    blue = list(ls.blue)
    if not blue:
        raise GraphError("flow graphs require a non-empty blue set")
    blue_set = set(blue)
    n = ls.base.n
    if mode == "edge":
        whites = [v for v in range(n) if v not in blue_set]
        to_new = {v: i for i, v in enumerate(whites)}
        root = len(whites)
        edges = []
        origin = []
        for (u, v) in ls.edges:
            bu, bv = u in blue_set, v in blue_set
            if bu and bv:
                continue
            nu = root if bu else to_new[u]
            nv = root if bv else to_new[v]
            edges.append((nu, nv))
            origin.append((u, v))
        g = Graph(root + 1, edges, allow_parallel=True)
        ids = tuple(whites) + (-1,)
        return [RootedFlowGraph(g, root, "contracted-root", tuple(blue), ids, tuple(origin))]
    if len(blue) >= k:
        root = n
        edges = list(ls.edges) + [(root, b) for b in blue]
        g = Graph(n + 1, edges, allow_parallel=True)
        ids = tuple(range(n)) + (-1,)
        return [RootedFlowGraph(g, root, "artificial-root", tuple(blue), ids, None)]
    out = []
    for w in blue:
        edges = list(ls.edges) + [(w, b) for b in blue if b != w]
        g = Graph(n, edges, allow_parallel=True)
        kind = "blue-member-root"
        out.append(RootedFlowGraph(g, w, kind, tuple(blue), tuple(range(n)), None))
    return out


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

    Holds an alive-vertex mask plus per-vertex adjacency lists that may
    contain obsolete entries (endpoints no longer alive, or tombstoned
    edges).  Obsolete entries are physically purged when a scan encounters
    them, which keeps the amortized cleanup cost linear: sibling branches of
    a split never share an alive vertex, so each owns the lists it scans.
    """

    __slots__ = ("n", "alive", "verts", "in_l", "out_l", "dead", "parallel")

    def __init__(self, g=None):
        if g is None:
            return
        self.n = g.n
        self.alive = np.ones(g.n, dtype=bool)
        self.verts = list(range(g.n))
        self.in_l = [list(a) for a in g.in_adj]
        self.out_l = [list(a) for a in g.out_adj]
        self.dead = set()
        self.parallel = g.allow_parallel

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
        w.alive = np.zeros(self.n, dtype=bool)
        ks = sorted(keep)
        for v in ks:
            w.alive[v] = True
        w.verts = ks
        w.in_l = list(self.in_l)
        w.out_l = list(self.out_l)
        w.dead = self.dead
        w.parallel = self.parallel
        dead = self.dead
        for z in rebuild:
            if w.alive[z]:
                w.in_l[z] = [u for u in self.in_l[z]
                             if w.alive[u] and (not dead or (u, z) not in dead)]
                w.out_l[z] = [u for u in self.out_l[z]
                              if w.alive[u] and (not dead or (z, u) not in dead)]
        return w

    def delete_edges(self, edges):
        self.dead.update(edges)

    def _scan(self, v, lst, rev, cap, out_u, out_v, counters):
        """Compact lst in place while collecting up to ``cap`` alive entries.

        Returns the number of alive entries seen (capped at cap+1, at which
        point v is known to be blue and the scan stops).
        """
        alive = self.alive
        dead = self.dead
        check_dead = bool(dead)
        r = 0
        w = 0
        taken = 0
        scanned = 0
        L = len(lst)
        while r < L:
            u = lst[r]
            scanned += 1
            ok = alive[u]
            if ok and check_dead:
                key = (v, u) if rev else (u, v)
                ok = key not in dead
            if ok:
                lst[w] = u
                w += 1
                taken += 1
                if taken <= cap:
                    out_u.append(u)
                    out_v.append(v)
                else:
                    r += 1
                    break
            r += 1
        if counters is not None:
            counters.scanned(scanned)
        if w < r:
            del lst[w:r]
        return taken

    def level_edges(self, i, rev, counters=None):
        """Level-i edge arrays in the chosen orientation plus the blue set.

        Forward scans in-lists; reverse scans out-lists (in-lists of the
        reverse graph).  Edges come out oriented for the scanned direction.
        """
        cap = 1 << i
        lists = self.out_l if rev else self.in_l
        us, vs, blue = [], [], []
        for v in self.verts:
            taken = self._scan(v, lists[v], rev, cap, us, vs, counters)
            if taken > cap:
                blue.append(v)
        return us, vs, blue

    def all_edges(self, counters=None):
        """All alive edges (forward orientation), purging as it scans."""
        us, vs = [], []
        big = self.n + 1
        for v in self.verts:
            self._scan(v, self.in_l[v], False, big, us, vs, counters)
        return us, vs

    def all_edges_with_degrees(self, counters=None):
        us, vs = self.all_edges(counters)
        indeg = {}
        outdeg = {}
        for u, v in zip(us, vs):
            outdeg[u] = outdeg.get(u, 0) + 1
            indeg[v] = indeg.get(v, 0) + 1
        gamma = 0
        if us:
            gamma = min(max(indeg.values()), max(outdeg.values()))
        return us, vs, gamma

    def out_neighbors(self, v):
        """Alive out-neighbors of v, purging obsolete entries."""
        us, vs = [], []
        self._scan(v, self.out_l[v], True, self.n + 1, us, vs, None)
        return us

    def in_neighbors(self, v):
        us, vs = [], []
        self._scan(v, self.in_l[v], False, self.n + 1, us, vs, None)
        return us

    def to_graph(self):
        """Materialize the alive subgraph as a re-indexed Graph plus id map."""
        us, vs = self.all_edges()
        old_ids = list(self.verts)
        to_new = {v: i for i, v in enumerate(old_ids)}
        g = Graph(len(old_ids), [(to_new[u], to_new[v]) for u, v in zip(us, vs)])
        return g, old_ids
