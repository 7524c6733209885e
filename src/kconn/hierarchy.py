"""Recursive k-connectivity decomposition: the isolated-set search (run on
the level edges of hierarchically sparsified subgraphs here, and on BFS balls
by the local search), whole-graph search, and the splitting driver."""

import hashlib
import json
import random
from dataclasses import dataclass

from .errors import GraphError, InvariantViolation
from .graph import WorkGraph, degree_gamma
from .primitives import (
    DominatorSearch,
    edges_within,
    is_strongly_connected,
    k_separator_raw,
    pairwise_k_connected_impl,
    subgraph_without,
    top_scc_of,
)
from .primitives import k_dominator_raw  # noqa: F401  (perfbench/tests patch this binding)

__all__ = [
    "Counters",
    "IsolationResult",
    "Component",
    "ComponentSet",
    "kscc",
    "k_isolated_set_level",
    "k_isolated_set",
    "check_isolation",
]


class Counters:
    """Instrumented work counters for one decomposition run.

    ``level_edges`` counts every adjacency entry touched by level searches
    (construction scans plus per-pass edge work); ``whole_edges`` the same for
    whole-graph searches.  Validation reads the working graph without
    charging either, so it leaves every count unchanged.
    """

    def __init__(self):
        self.level_edges = 0
        self.whole_edges = 0
        self.flow_augmentations = 0
        self.bfs_ball_edges = 0
        self.splits = 0

    def level(self, c):
        self.level_edges += c

    def whole(self, c):
        self.whole_edges += c

    def flow(self, c):
        self.flow_augmentations += c

    def ball(self, c):
        self.bfs_ball_edges += c

    def as_dict(self):
        return {
            "level_edges": self.level_edges,
            "whole_edges": self.whole_edges,
            "flow_augmentations": self.flow_augmentations,
            "bfs_ball_edges": self.bfs_ball_edges,
            "splits": self.splits,
        }


@dataclass
class IsolationResult:
    """A detected (k-almost) top/bottom SCC.

    ``s`` is the vertex set, ``z`` the separator elements (vertices, or edges
    reported in the original orientation even for reverse-side finds),
    ``side`` says which direction produced it, and ``provenance`` which branch
    of the search.
    """

    s: list
    z: list
    side: str
    provenance: str

    @classmethod
    def empty(cls):
        return cls([], [], "forward", "none")

    @property
    def is_empty(self):
        return not self.s


@dataclass
class Component:
    vertices: tuple
    edges: tuple = None
    degenerate: bool = None


@dataclass
class ComponentSet:
    """Decomposition result: vertex partition (edge mode) or subgraph list
    with per-component edge sets and degenerate flags (vertex mode)."""

    mode: str
    k: int
    components: list

    def canonical(self):
        comps = []
        for c in self.components:
            entry = {"vertices": list(c.vertices)}
            if self.mode == "vertex":
                entry["edges"] = [list(e) for e in c.edges]
                entry["degenerate"] = bool(c.degenerate)
            comps.append(entry)
        return {"mode": self.mode, "k": self.k, "components": comps}

    def digest(self):
        payload = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, ComponentSet):
            return NotImplemented
        return self.canonical() == other.canonical()


# --- searches ----------------------------------------------------------------


def _flow_graphs(n, us, vs, blue, k, mode):
    """Flow graphs rooted at the blue set, as (nodes, root, us, vs, origin).

    Edge mode: one graph with the blue set contracted to a new root n; edges
    between two blue vertices are dropped, parallel edges kept, and
    ``origin[j]`` is the index in us/vs of flow edge j.  Vertex mode with
    |blue| >= k: one graph with a new root n wired to every blue vertex.
    Vertex mode with |blue| < k: one graph per blue vertex w, rooted at w,
    with edges from w to the other blue vertices.  Vertex-mode graphs keep
    the vertex ids, so their origin is None.
    """
    if mode == "edge":
        blue_set = set(blue)
        fus, fvs, origin = [], [], []
        for idx, (u, v) in enumerate(zip(us, vs)):
            bu = u in blue_set
            bv = v in blue_set
            if bu and bv:
                continue
            fus.append(n if bu else u)
            fvs.append(n if bv else v)
            origin.append(idx)
        return [(n + 1, n, fus, fvs, origin)]
    if len(blue) >= k:
        return [(n + 1, n, us + [n] * len(blue), vs + list(blue), None)]
    return [(n, w, us + [w] * (len(blue) - 1), vs + [b for b in blue if b != w], None)
            for w in blue]


def _top_scc_within(n, part, us, vs, counters):
    """Smallest-id top SCC of the subgraph that ``part`` induces; the edges
    read are charged to ``counters.level``."""
    sus, svs = edges_within(us, vs, part)
    counters.level(len(sus))
    return top_scc_of(n, part, sus, svs)


def _search_side(n, verts, us, vs, blue, k, mode, side, counters):
    """Isolated-set search in one direction; returns an IsolationResult or None.

    ``verts`` with the edges us->vs is a level subgraph or a ball, and
    ``blue`` holds its vertices that miss in-edges from outside it.  One
    pass over each flow graph rooted at the blue set (a
    :class:`DominatorSearch`) answers the search:

    - the vertices U that are not blue and that the root does not reach
      have no in-edge from outside U, so the top SCCs of U are exactly the
      blue-free top SCCs of the subgraph; the smallest-id one is returned
      ("tscc");
    - else a k-dominator Z of the flow graph, and the vertices C it cuts
      off from the root: once Z is removed, the top SCCs of C are exactly
      the blue-free top SCCs, and the smallest-id one is returned
      ("dominator");
    - else, for vertex mode with a small blue set, the explicit Z >= blue
      special cases.

    Work is charged to ``counters.level``: the level edges, twice each flow
    graph's edges, and the edges of U or C.  None charges nothing.
    """
    counters = counters if counters is not None else Counters()
    counters.level(len(us))
    if not blue:
        # no root: nothing is reached
        if verts:
            return IsolationResult(_top_scc_within(n, verts, us, vs, counters), [], side, "tscc")
        return None
    blue_set = set(blue)
    for idx, (nodes, root, fus, fvs, origin) in enumerate(_flow_graphs(n, us, vs, blue, k, mode)):
        counters.level(2 * len(fus))
        search = DominatorSearch(nodes, root, fus, fvs, k, mode)
        if idx == 0:
            # every flow graph's root reaches what the blue set reaches; the
            # edge-mode root stands for the blue set, so list it apart
            reached = search.reached
            unreached = [v for v in verts if v not in reached and v not in blue_set]
            if unreached:
                S = _top_scc_within(n, unreached, us, vs, counters)
                return IsolationResult(S, [], side, "tscc")
        found = search.find(counters)
        if found is None:
            continue
        z, cut = found
        if mode == "edge":
            # a reverse-side edge us[j] -> vs[j] is the graph's vs[j] -> us[j]
            tails, heads = (vs, us) if side == "reverse" else (us, vs)
            z = [(tails[origin[j]], heads[origin[j]]) for j in z]
        S = _top_scc_within(n, cut, us, vs, counters)
        if S is None:
            raise InvariantViolation(f"{mode} dominator found but cuts nothing off")
        return IsolationResult(S, sorted(z), side, "dominator")
    if mode == "edge" or len(blue) >= k:
        return None

    # vertex mode, 0 < |blue| < k, no dominator: the separators containing
    # the whole blue set
    verts2 = [v for v in verts if v not in blue_set]
    if not verts2:
        return None
    us2, vs2 = edges_within(us, vs, verts2)
    counters.level(len(us2))
    S = top_scc_of(n, verts2, us2, vs2)
    if S is not None and len(S) < len(verts2):
        return IsolationResult(S, sorted(blue), side, "blue-singleton-special")
    if len(blue) < k - 1:
        # level graph minus blue is strongly connected here (its only top SCC
        # was everything); look for a separator that extends the blue set
        sep = k_separator_raw(n, verts2, us2, vs2, k - len(blue), "vertex", counters)
        if sep is not None:
            z = sorted(list(sep.members) + list(blue))
            counters.level(len(us))
            S = top_scc_of(n, *subgraph_without(verts, us, vs, z, "vertex"))
            if S is None:
                raise InvariantViolation("separator special case found but no top SCC")
            return IsolationResult(S, z, side, "blue-superset-special")
    return None


def _whole_search(wk, k, mode, counters):
    """Whole-graph search: a proper top SCC, else a k-separator split."""
    us, vs = wk.all_edges(counters)
    counters.whole(len(us))
    S = top_scc_of(wk.n, wk.verts, us, vs)
    if S is not None and len(S) < wk.n_alive:
        return IsolationResult(S, [], "forward", "whole-graph")
    sep = k_separator_raw(wk.n, wk.verts, us, vs, k, mode, counters)
    if sep is None:
        return None
    counters.whole(len(us))
    S = top_scc_of(wk.n, *subgraph_without(wk.verts, us, vs, sep.members, mode))
    if S is None:
        raise InvariantViolation("separator found but no top SCC after removal")
    return IsolationResult(S, sorted(sep.members), "forward", "whole-graph")


def _find_isolated(wk, k, mode, use_levels, counters, trace, validate):
    n_alive = wk.n_alive
    if n_alive <= 1:
        return None
    if mode == "vertex" and k > 2:
        run_levels = use_levels and n_alive >= 14 * k**3
    else:
        run_levels = use_levels and n_alive > 8
    i_star = None
    if run_levels:
        i = 1
        while True:
            usF, vsF, blueF = wk.level_edges(i, False, counters)
            if not blueF:
                i_star = i
                break
            usR, vsR, blueR = wk.level_edges(i, True, counters)
            if not blueR:
                i_star = i
                break
            if trace is not None:
                trace.append(
                    {"event": "level", "i": i, "n": n_alive,
                     "blue_fwd": len(blueF), "blue_rev": len(blueR)}
                )
            res = _search_side(wk.n, wk.verts, usF, vsF, blueF, k, mode, "forward", counters)
            if res is None:
                res = _search_side(wk.n, wk.verts, usR, vsR, blueR, k, mode, "reverse", counters)
            if res is not None:
                if validate and i > 1 and not len(res.s) > 2 ** (i - 1) - k + 2:
                    raise InvariantViolation(
                        f"level {i} result of size {len(res.s)} below the "
                        f"first-success bound 2^{i - 1} - {k} + 2"
                    )
                return res
            i += 1
    res = _whole_search(wk, k, mode, counters)
    if (
        res is not None
        and validate
        and run_levels
        and i_star is not None
        and i_star > 1
        and not len(res.s) > 2 ** (i_star - 1) - k + 2
    ):
        raise InvariantViolation(
            f"whole-graph result of size {len(res.s)} below the "
            f"first-success bound 2^{i_star - 1} - {k} + 2"
        )
    return res


# --- isolation validation ------------------------------------------------------


def check_isolation_core(n, verts, us, vs, s, z, side, k, mode):
    """Does (s, z) satisfy the top/bottom (k-almost) SCC definition in the
    graph on ``verts`` with edges us->vs?

    Checks, in the orientation given by ``side``: the complement of s (and z,
    vertex mode) is non-empty; s induces a strongly connected subgraph; every
    incoming edge of s comes from z; and every element of z actually borders
    s (the minimality clause of the almost-SCC definition).  Edge-mode z
    holds (u, v) pairs in the original orientation.
    """
    s_set = set(s)
    if not s_set:
        return False
    if mode == "vertex":
        z_set = set(z)
        if s_set & z_set:
            return False
        if not (set(verts) - s_set - z_set):
            return False
        if len(z_set) >= k:
            return False
    else:
        if not (set(verts) - s_set):
            return False
        if len(z) >= k:
            return False
    if not is_strongly_connected(n, sorted(s_set), *edges_within(us, vs, s_set)):
        return False
    # the edges entering s in the searched orientation
    tails, heads = (vs, us) if side == "reverse" else (us, vs)
    entering = [i for i, (a, b) in enumerate(zip(tails, heads))
                if b in s_set and a not in s_set]
    if mode == "edge":
        return {(us[i], vs[i]) for i in entering} == set(z)
    return {tails[i] for i in entering} == set(z)


def check_isolation(g, res, k, mode):
    """Validate an IsolationResult against a Graph (see check_isolation_core)."""
    if res.is_empty:
        raise GraphError("check_isolation requires a non-empty result")
    return check_isolation_core(
        g.n, range(g.n), *g.edge_arrays(), res.s, res.z, res.side, k, mode
    )


def _edges_at(wk, s):
    """Alive edges of the working graph with an endpoint in s, unpurged, as
    (us, vs) lists.

    Every edge entering a vertex of s (those from s included), then every
    edge from s to the rest.
    """
    s_set = set(s)
    us, vs = [], []
    for v in s:
        preds = wk.live_in(v)
        us += preds
        vs += [v] * len(preds)
    for v in s:
        succs = [w for w in wk.live_out(v) if w not in s_set]
        us += [v] * len(succs)
        vs += succs
    return us, vs


def _validate_split(wk, res, k, mode, rng):
    """Check a split against the working graph it was found in.

    Reads the working graph without purging it and charges no counter, so a
    validated run does the same work as an unvalidated one.  The isolation
    check gets only the edges with an endpoint in S, the only ones it reads;
    the sampled Menger checks share one flow network of the working graph.
    """
    s_set = set(res.s)
    if mode == "vertex":
        z_set = set(res.z)
        complement = [v for v in wk.verts if v not in s_set and v not in z_set]
    else:
        complement = [v for v in wk.verts if v not in s_set]
    if not complement:
        raise InvariantViolation("split leaves an empty complement V \\ (S u Z)")
    us, vs = _edges_at(wk, res.s)
    if not check_isolation_core(wk.n, wk.verts, us, vs, res.s, res.z, res.side, k, mode):
        raise InvariantViolation(
            f"split failed isolation check (provenance {res.provenance}, side {res.side})"
        )
    if wk.n_alive <= 40:
        sub, old_ids = wk.to_graph()
        nets = {}
        to_new = {v: i for i, v in enumerate(old_ids)}
        s_local = [to_new[v] for v in res.s]
        comp_local = [to_new[v] for v in complement]
        checked = set()
        for _ in range(20):
            u = rng.choice(comp_local)
            v = rng.choice(s_local)
            # a pair's answer is fixed, and a repeat was answered "no"
            if (u, v) in checked:
                continue
            checked.add((u, v))
            if pairwise_k_connected_impl(sub, u, v, k, mode, nets=nets):
                raise InvariantViolation(
                    f"cross pair ({old_ids[u]}, {old_ids[v]}) is {k}-connected across a split"
                )


# --- public operations -----------------------------------------------------------


def k_isolated_set_level(g, i, k, mode, counters=None):
    """Level-i search on a graph (both directions); requires 2^i < gamma."""
    if k < 2:
        raise GraphError("k must be >= 2")
    if i < 1:
        raise GraphError("level must be >= 1")
    if (1 << i) >= max(degree_gamma(g), 1):
        raise GraphError(f"level {i} violates 2^i < gamma")
    counters = counters if counters is not None else Counters()
    wk = WorkGraph(g)
    usF, vsF, blueF = wk.level_edges(i, False, counters)
    usR, vsR, blueR = wk.level_edges(i, True, counters)
    if not blueF or not blueR:
        raise GraphError(f"level {i} violates 2^i < gamma")
    res = _search_side(wk.n, wk.verts, usF, vsF, blueF, k, mode, "forward", counters)
    if res is None:
        res = _search_side(wk.n, wk.verts, usR, vsR, blueR, k, mode, "reverse", counters)
    return res if res is not None else IsolationResult.empty()


def k_isolated_set(g, k, mode, counters=None):
    """Whole-graph search: proper top SCC, else k-separator split, else empty."""
    if k < 2:
        raise GraphError("k must be >= 2")
    counters = counters if counters is not None else Counters()
    wk = WorkGraph(g)
    res = _whole_search(wk, k, mode, counters)
    return res if res is not None else IsolationResult.empty()


def _assemble(g, k, mode, pieces, validate):
    if mode == "edge":
        comps = [Component(vertices=tuple(sorted(p))) for p in pieces]
        comps.sort(key=lambda c: c.vertices)
        if validate:
            seen = set()
            for c in comps:
                if seen & set(c.vertices):
                    raise InvariantViolation("edge-mode components overlap")
                seen.update(c.vertices)
            if seen != set(range(g.n)):
                raise InvariantViolation("edge-mode components do not cover the graph")
        return ComponentSet(mode="edge", k=k, components=comps)
    # vertex mode: splits duplicate separator vertices into both branches, so
    # a leftover piece can be a strict subset of a real component; enforcing
    # maximality (and deduplication) here implements the definition.
    uniq = sorted({frozenset(p) for p in pieces}, key=len, reverse=True)
    kept = []
    for p in uniq:
        if not any(p < q for q in kept):
            kept.append(p)
    # components may share up to k-1 vertices, so an edge can lie in several
    member = [set() for _ in range(g.n)]
    for ci, p in enumerate(kept):
        for v in p:
            member[v].add(ci)
    inner = [[] for _ in kept]
    for (u, v) in g.edge_list:
        for ci in member[u] & member[v]:
            inner[ci].append((u, v))
    comps = []
    for p, es in zip(kept, inner):
        vs = tuple(sorted(p))
        comps.append(Component(vertices=vs, edges=tuple(sorted(es)), degenerate=len(vs) < 3))
    comps.sort(key=lambda c: c.vertices)
    if validate and k == 2:
        seen_edges = set()
        for c in comps:
            if seen_edges & set(c.edges):
                raise InvariantViolation("vertex-mode component edge sets overlap")
            seen_edges.update(c.edges)
    return ComponentSet(mode="vertex", k=k, components=comps)


def decompose(g, k, mode, use_levels, validate=True, trace=None, counters=None):
    """Shared driver behind kscc and the naive baseline."""
    if k < 2:
        raise GraphError("k must be >= 2")
    if mode not in ("edge", "vertex"):
        raise GraphError(f"bad mode {mode!r}")
    counters = counters if counters is not None else Counters()
    rng = random.Random(0x5CC)
    pieces = []
    if g.n == 0:
        return ComponentSet(mode=mode, k=k, components=[])
    stack = [WorkGraph(g)]
    while stack:
        wk = stack.pop()
        res = _find_isolated(wk, k, mode, use_levels, counters, trace, validate)
        if res is None:
            if trace is not None:
                trace.append({"event": "component", "n": wk.n_alive})
            pieces.append(list(wk.verts))
            continue
        if validate:
            _validate_split(wk, res, k, mode, rng)
        if trace is not None:
            trace.append(
                {"event": "split", "provenance": res.provenance, "side": res.side,
                 "n": wk.n_alive, "s_size": len(res.s), "z_size": len(res.z)}
            )
        counters.splits += 1
        s_set = set(res.s)
        if mode == "vertex":
            zs = list(res.z)
            child_a = sorted(s_set | set(zs))
            child_b = [v for v in wk.verts if v not in s_set]
            stack.append(wk.restrict(child_a, rebuild=zs))
            stack.append(wk.restrict(child_b, rebuild=zs))
        else:
            child_a = sorted(s_set)
            child_b = [v for v in wk.verts if v not in s_set]
            stack.append(wk.restrict(child_a))
            stack.append(wk.restrict(child_b))
    return _assemble(g, k, mode, pieces, validate)


def kscc(g, k, mode, *, validate=True, trace=None, counters=None):
    """k-edge or k-vertex strongly connected components of a simple digraph.

    Runs the hierarchical level search with whole-graph fallback, recursing on
    the split parts; small parts are finished by the whole-graph-only loop
    (the naive baseline), per the base-case thresholds.
    """
    return decompose(g, k, mode, True, validate=validate, trace=trace, counters=counters)
