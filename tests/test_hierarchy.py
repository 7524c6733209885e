import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconn import (
    GraphError,
    build_graph,
    check_isolation,
    k_isolated_set,
    k_isolated_set_level,
    kscc,
    naive_kscc,
    two_escc_sparse,
)
from kconn import hierarchy, local2e
from kconn.errors import InvariantViolation
from kconn.graph import WorkGraph
from kconn.graphio import gen_adversarial_chain, gen_random
from kconn.hierarchy import Counters, IsolationResult, check_isolation_core
from kconn.oracle import brute_force_kscc
from kconn.primitives import k_dominator_raw

from conftest import arrays


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def planted_almost_tscc():
    """3-cycle T = {0,1,2} reachable only through {3, 4} inside a K6 blob.

    At level 2 the blob is blue and T is white; T is a 3-almost top SCC
    w.r.t. the vertices {3, 4} (vertex mode) or the edges (3,0), (4,0)
    (edge mode).
    """
    edges = [(0, 1), (1, 2), (2, 0), (3, 0), (4, 0), (1, 3)]
    for u in range(3, 9):
        for v in range(3, 9):
            if u != v:
                edges.append((u, v))
    return build_graph(9, edges)


class TestKIsolatedSetLevel:
    def test_bowtie_special_case(self, bowtie):
        res = k_isolated_set_level(bowtie, 1, 2, "vertex")
        assert res.s == [0, 1]
        assert res.z == [2]
        assert res.provenance == "blue-singleton-special"
        assert check_isolation(bowtie, res, 2, "vertex")

    def test_bitri_violates_precondition(self, bitri):
        with pytest.raises(GraphError):
            k_isolated_set_level(bitri, 1, 2, "vertex")

    def test_tscc_branch(self):
        # {0,1} is a white top SCC at level 1; vertices 2 and 4 are blue
        g = build_graph(6, [(0, 1), (1, 0), (0, 4), (1, 4), (2, 4),
                            (4, 2), (4, 3), (4, 5), (3, 2), (5, 2)])
        res = k_isolated_set_level(g, 1, 2, "vertex")
        assert res.provenance == "tscc"
        assert res.s == [0, 1] and res.z == []

    def test_planted_vertex_dominator(self):
        g = planted_almost_tscc()
        res = k_isolated_set_level(g, 2, 3, "vertex")
        assert res.s == [0, 1, 2]
        assert res.z == [3, 4]
        assert res.provenance == "dominator"
        assert check_isolation(g, res, 3, "vertex")

    def test_planted_edge_dominator(self):
        g = planted_almost_tscc()
        res = k_isolated_set_level(g, 2, 3, "edge")
        assert res.s == [0, 1, 2]
        assert res.z == [(3, 0), (4, 0)]
        assert check_isolation(g, res, 3, "edge")

    def test_planted_reverse_side(self):
        # bidirectional triangle T={0,1,2} with three disjoint entries from
        # the blob (so nothing is isolatable forward) but only two exits
        # (0,3), (0,4): in the reverse graph T is almost-top w.r.t. {3,4}
        edges = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1),
                 (5, 0), (6, 1), (7, 2), (0, 3), (0, 4)]
        for u in range(3, 9):
            for v in range(3, 9):
                if u != v:
                    edges.append((u, v))
        g = build_graph(9, edges)
        res = k_isolated_set_level(g, 2, 3, "vertex")
        assert res.side == "reverse"
        assert res.s == [0, 1, 2]
        assert res.z == [3, 4]
        assert check_isolation(g, res, 3, "vertex")

    def test_blue_superset_special_case(self):
        # k=3, one blue vertex 7: no white top SCC, no 3-dominator from 7,
        # and the level graph minus 7 is strongly connected but has
        # articulation points, so the separator extends the blue set
        edges = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1),
                 (3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4),
                 (2, 6), (6, 2), (5, 6), (6, 5), (0, 6),
                 (7, 0), (7, 1), (7, 3), (7, 4), (7, 5),
                 (0, 7), (1, 7), (2, 7), (3, 7), (4, 7)]
        g = build_graph(8, edges)
        res = k_isolated_set_level(g, 2, 3, "vertex")
        assert res.provenance == "blue-superset-special"
        assert res.s == [0, 1]
        assert res.z == [2, 7]
        assert 7 in res.z  # the blue vertex is part of the separator
        assert check_isolation(g, res, 3, "vertex")

    def test_detection_completeness_small_planted(self):
        # any planted k-almost tSCC of size <= 2^i - k + 2 must be detected
        for k, i in ((2, 2), (3, 2), (4, 3)):
            size = 2**i - k + 2
            b = 2**i + 3
            edges = [((j + 1) % size, j) for j in range(size)]  # small cycle
            edges = [(u, v) for (u, v) in edges]
            blob = range(size, size + b)
            for u in blob:
                for v in blob:
                    if u != v:
                        edges.append((u, v))
            for z in range(size, size + k - 1):
                edges.append((z, 0))
            edges.append((0, size))
            g = build_graph(size + b, edges)
            res = k_isolated_set_level(g, i, k, "vertex")
            assert not res.is_empty
            assert check_isolation(g, res, k, "vertex")


class TestKIsolatedSet:
    def test_path_source(self):
        res = k_isolated_set(path3(), 2, "vertex")
        assert res.s == [0] and res.z == []
        assert res.provenance == "whole-graph"

    def test_bowtie(self, bowtie):
        res = k_isolated_set(bowtie, 2, "vertex")
        assert res.s == [0, 1] and res.z == [2]

    def test_bitri_edge_empty(self, bitri):
        assert k_isolated_set(bitri, 2, "edge").is_empty


class TestCheckIsolation:
    def test_bowtie_valid(self, bowtie):
        res = IsolationResult([0, 1], [2], "forward", "whole-graph")
        assert check_isolation(bowtie, res, 2, "vertex")

    def test_bowtie_missing_z(self, bowtie):
        res = IsolationResult([0, 1], [], "forward", "whole-graph")
        assert not check_isolation(bowtie, res, 2, "vertex")

    def test_whole_graph_rejected(self, c3):
        res = IsolationResult([0, 1, 2], [], "forward", "whole-graph")
        assert not check_isolation(c3, res, 2, "vertex")

    def test_edge_mode_exact_z(self, two_cycle_bridge):
        res = IsolationResult([1], [(0, 1)], "forward", "whole-graph")
        assert check_isolation(two_cycle_bridge, res, 2, "edge")
        res2 = IsolationResult([1], [(0, 1), (2, 0)], "forward", "whole-graph")
        assert not check_isolation(two_cycle_bridge, res2, 2, "edge")

    def test_reverse_side(self):
        # {0} is an almost-bottom SCC w.r.t. its single outgoing edge; z is
        # reported in the original orientation
        g = path3()
        res = IsolationResult([0], [(0, 1)], "reverse", "whole-graph")
        assert check_isolation(g, res, 2, "edge")
        plain = IsolationResult([2], [], "reverse", "whole-graph")
        assert check_isolation(g, plain, 2, "edge")


class TestKscc:
    def test_bitri_edge(self, bitri):
        cs = kscc(bitri, 2, "edge")
        assert [c.vertices for c in cs.components] == [(0, 1, 2)]

    def test_bowtie_vertex(self, bowtie):
        cs = kscc(bowtie, 2, "vertex")
        assert [c.vertices for c in cs.components] == [(0, 1, 2), (2, 3, 4)]
        assert all(len(c.edges) == 6 for c in cs.components)
        assert all(not c.degenerate for c in cs.components)

    def test_two_cycle_bridge_edge(self, two_cycle_bridge):
        cs = kscc(two_cycle_bridge, 2, "edge")
        assert [c.vertices for c in cs.components] == [(v,) for v in range(6)]

    def test_k4b_3vertex(self, k4b):
        cs = kscc(k4b, 3, "vertex")
        assert [c.vertices for c in cs.components] == [(0, 1, 2, 3)]
        assert len(cs.components[0].edges) == 12

    def test_k_below_2_rejected(self, c3):
        with pytest.raises(GraphError):
            kscc(c3, 1, "edge")

    def test_empty_and_singleton(self):
        assert kscc(build_graph(0, []), 2, "edge").components == []
        cs = kscc(build_graph(1, []), 2, "vertex")
        assert [c.vertices for c in cs.components] == [(0,)]
        assert cs.components[0].degenerate

    def test_degenerate_leftovers_pruned(self):
        # z ends up as a singleton piece inside one branch; maximality must
        # drop it in favor of the triangle that contains it
        g = build_graph(5, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1),
                            (0, 3), (3, 4), (4, 3), (4, 0)])
        cs = kscc(g, 2, "vertex")
        assert [c.vertices for c in cs.components] == [(0, 1, 2), (3, 4)]
        assert cs == brute_force_kscc(g, 2, "vertex")

    def test_deep_first_success_level(self):
        # two K20 blocks sharing a cut vertex: nothing is found before the
        # level loop saturates, exercising the first-success size bound
        g = gen_adversarial_chain(2, 20)
        cs = kscc(g, 2, "vertex")
        assert [c.vertices for c in cs.components] == [
            tuple(range(20)), tuple(range(19, 39))
        ]

    def test_chain_components(self):
        for c in (2, 3, 5):
            g = gen_adversarial_chain(c, 3)
            cs = kscc(g, 2, "vertex")
            assert len(cs.components) == c

    def test_matches_brute_force_k2(self):
        for seed in range(40):
            g = gen_random(7, 0.3, seed)
            for mode in ("edge", "vertex"):
                assert kscc(g, 2, mode) == brute_force_kscc(g, 2, mode)

    def test_matches_brute_force_k3(self):
        for seed in range(25):
            g = gen_random(7, 0.5, seed)
            for mode in ("edge", "vertex"):
                assert kscc(g, 3, mode) == brute_force_kscc(g, 3, mode)

    def test_matches_naive_medium(self):
        # vertex mode with k = 3 is left out: below 14 k^3 vertices kscc makes
        # naive_kscc's calls; criterion 2 checks it against tests/oracles.py
        for seed in range(6):
            g = gen_random(40, 0.1, seed)
            for k, mode in ((2, "edge"), (2, "vertex"), (3, "edge")):
                assert kscc(g, k, mode).digest() == naive_kscc(g, k, mode).digest()

    def test_edge_mode_partitions(self):
        for seed in range(20):
            g = gen_random(12, 0.25, seed)
            cs = kscc(g, 2, "edge")
            seen = sorted(v for c in cs.components for v in c.vertices)
            assert seen == list(range(g.n))

    def test_vertex_mode_edge_sets_disjoint(self):
        for seed in range(20):
            g = gen_random(12, 0.25, seed)
            cs = kscc(g, 2, "vertex")
            all_edges = [e for c in cs.components for e in c.edges]
            assert len(all_edges) == len(set(all_edges))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_digest(self, seed):
        g = gen_random(9, 0.3, seed)
        assert kscc(g, 2, "vertex").digest() == kscc(g, 2, "vertex").digest()

    def test_counters_and_trace(self, bowtie):
        counters = Counters()
        trace = []
        kscc(bowtie, 2, "vertex", counters=counters, trace=trace)
        assert counters.splits >= 1
        assert counters.whole_edges > 0
        events = {ev["event"] for ev in trace}
        assert "split" in events and "component" in events
        split = next(ev for ev in trace if ev["event"] == "split")
        assert {"provenance", "side", "s_size", "z_size"} <= set(split)


def _split_once(monkeypatch, s, z, side="forward"):
    """Make the driver's first search on the whole graph report (s, z)."""

    def fake(wk, *args):
        if wk.n_alive == wk.n:
            return IsolationResult(list(s), list(z), side, "planted")
        return None

    monkeypatch.setattr(hierarchy, "_find_isolated", fake)


class TestValidation:
    @pytest.mark.parametrize("mode", ["edge", "vertex"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_counters_do_not_depend_on_validate(self, mode, k):
        graphs = [gen_random(40, 0.06, 1), gen_random(60, 0.05, 2),
                  gen_random(30, 0.1, 3), gen_random(24, 0.4, 4)]
        for g in graphs:
            on, off = Counters(), Counters()
            a = kscc(g, k, mode, validate=True, counters=on)
            b = kscc(g, k, mode, validate=False, counters=off)
            assert a == b
            assert on.as_dict() == off.as_dict()

    def test_scan_counts_pinned(self):
        # WorkGraph scans purge what they read, so every later count depends
        # on exactly which entries each scan reads and purges
        g = gen_random(60, 0.05, 2)
        g3 = gen_random(60, 0.1, 2)
        # (level_edges, whole_edges, splits); at k >= 3 vertex mode stays
        # below the level-search size, and edge mode runs the tree cover
        expect = [
            (g, 2, "vertex", (16905, 395, 85)),
            (g, 2, "edge", (14250, 291, 59)),
            (g3, 3, "vertex", (0, 10531, 25)),
            (g3, 3, "edge", (9772, 520, 11)),
            (g3, 4, "vertex", (0, 22626, 139)),
            (g3, 4, "edge", (18305, 153, 59)),
        ]
        for graph, k, mode, want in expect:
            c = Counters()
            kscc(graph, k, mode, counters=c)
            assert (c.level_edges, c.whole_edges, c.splits) == want, (k, mode)
        c = Counters()
        two_escc_sparse(g, counters=c)
        assert (c.whole_edges, c.bfs_ball_edges) == (1523, 104)

    @pytest.mark.parametrize("mode", ["edge", "vertex"])
    def test_split_not_strongly_connected(self, monkeypatch, mode):
        # {0, 1} has no entering edge but only the edge 0 -> 1 inside
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 2)])
        _split_once(monkeypatch, [0, 1], [])
        with pytest.raises(InvariantViolation, match="isolation check"):
            kscc(g, 2, mode)
        kscc(g, 2, mode, validate=False)

    @pytest.mark.parametrize("z", [[], [(5, 0)], [(2, 3), (5, 0)]])
    def test_split_with_wrong_entering_edges(self, monkeypatch, two_cycle_bridge, z):
        # {3, 4, 5} is entered by the single edge (2, 3)
        _split_once(monkeypatch, [3, 4, 5], z)
        with pytest.raises(InvariantViolation, match="isolation check"):
            kscc(two_cycle_bridge, 2, "edge")

    @pytest.mark.parametrize("z", [[], [3]])
    def test_split_with_wrong_separator(self, monkeypatch, bowtie, z):
        # {0, 1} is entered only from the cut vertex 2
        _split_once(monkeypatch, [0, 1], z)
        with pytest.raises(InvariantViolation, match="isolation check"):
            kscc(bowtie, 2, "vertex")

    def test_reverse_split_with_wrong_leaving_edges(self, monkeypatch, two_cycle_bridge):
        # reverse side: {0, 1, 2} is left by the single edge (2, 3)
        _split_once(monkeypatch, [0, 1, 2], [(5, 0)], side="reverse")
        with pytest.raises(InvariantViolation, match="isolation check"):
            kscc(two_cycle_bridge, 2, "edge")

    @pytest.mark.parametrize("mode", ["edge", "vertex"])
    def test_split_through_k_connected_pair(self, monkeypatch, k4b, mode):
        # every pair of the complete digraph on 4 vertices is 3-connected;
        # with the isolation check waved through, the sampled Menger check
        # must still refuse the split
        _split_once(monkeypatch, [0, 1], [])
        monkeypatch.setattr(hierarchy, "check_isolation_core", lambda *a: True)
        with pytest.raises(InvariantViolation, match="cross pair"):
            kscc(k4b, 3, mode)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_edges_at_s_decide_isolation(self, data):
        n = data.draw(st.integers(2, 9))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
        wk = WorkGraph(build_graph(n, edges))
        keep = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=2))
        rebuild = data.draw(st.lists(st.sampled_from(keep), unique=True, max_size=2))
        wk.delete_edges(data.draw(st.lists(st.sampled_from(pairs), max_size=8)))
        wk = wk.restrict(keep, rebuild=rebuild)
        if data.draw(st.booleans()):
            wk.level_edges(1, data.draw(st.booleans()))
        s = data.draw(st.lists(st.sampled_from(wk.verts), unique=True, min_size=1))
        side = data.draw(st.sampled_from(["forward", "reverse"]))
        mode = data.draw(st.sampled_from(["edge", "vertex"]))

        before = (list(map(list, wk.in_l)), list(map(list, wk.out_l)))
        local = list(zip(*hierarchy._edges_at(wk, s)))
        assert (list(map(list, wk.in_l)), list(map(list, wk.out_l))) == before
        us, vs = wk.all_edges()
        full = list(zip(us, vs))
        assert set(local) <= set(full) and len(local) == len(set(local))

        # the entering edges (or their sources) of s, exact or perturbed
        s_set = set(s)
        if side == "forward":
            cross = [(u, v) for (u, v) in full if v in s_set and u not in s_set]
        else:
            cross = [(u, v) for (u, v) in full if u in s_set and v not in s_set]
        z = sorted({u if side == "forward" else v for (u, v) in cross}
                   if mode == "vertex" else cross)
        if z and data.draw(st.booleans()):
            z = z[1:]
        k = data.draw(st.sampled_from([2, len(z) + 1, len(z) + 2]))
        k = max(k, 2)
        assert check_isolation_core(wk.n, wk.verts, *arrays(local), s, z, side, k, mode) == \
            check_isolation_core(wk.n, wk.verts, us, vs, s, z, side, k, mode)


class TestSharedSearch:
    """The isolated-set search that the level search and the local search share."""

    @staticmethod
    def assert_isolated(g, edges, res, k, mode):
        # a result that leaves some vertex outside S is a (k-almost) top SCC
        # of the whole graph in the searched orientation
        if res is not None and len(res.s) < g.n:
            assert check_isolation_core(g.n, range(g.n), *arrays(edges), res.s, res.z,
                                        "forward", k, mode)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_results_are_isolated_in_the_whole_graph(self, data):
        n = data.draw(st.integers(2, 16))
        p = data.draw(st.sampled_from([0.1, 0.2, 0.35, 0.5]))
        g = gen_random(n, p, data.draw(st.integers(0, 10_000)))
        rev = data.draw(st.booleans())
        edges = [(v, u) for (u, v) in g.edge_list] if rev else g.edge_list

        # blue set of a level: the vertices with more than 2^i in-edges
        i = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(2, 4))
        mode = data.draw(st.sampled_from(["edge", "vertex"]))
        us, vs, blue = WorkGraph(g).level_edges(i, rev)
        res = hierarchy._search_side(g.n, list(range(n)), us, vs, blue, k, mode,
                                     "forward", None)
        self.assert_isolated(g, edges, res, k, mode)

        # blue set of a ball: the ball vertices with an in-edge from outside
        j = data.draw(st.integers(0, n - 1))
        d = data.draw(st.integers(1, 3))
        ball = set(local2e._ball(WorkGraph(g), j, d, rev, None))
        preds = g.out_adj if rev else g.in_adj
        verts = sorted(ball)
        inner = [(u, v) for v in verts for u in preds[v] if u in ball]
        blue = [v for v in verts if any(u not in ball for u in preds[v])]
        res = hierarchy._search_side(g.n, verts, [e[0] for e in inner],
                                     [e[1] for e in inner], blue, 2, "edge", "forward", None)
        self.assert_isolated(g, edges, res, 2, "edge")


def nx_top_scc(verts, edges, exclude=()):
    """Smallest-id top SCC of (verts, edges) disjoint from ``exclude``, read
    off networkx's condensation."""
    g = nx.DiGraph()
    g.add_nodes_from(verts)
    g.add_edges_from(edges)
    c = nx.condensation(g)
    ex = set(exclude)
    tops = [sorted(c.nodes[x]["members"]) for x in c if c.in_degree(x) == 0]
    tops = [t for t in tops if ex.isdisjoint(t)]
    return min(tops) if tops else None


def reference_search(n, verts, us, vs, blue, k, mode, side):
    """The isolated-set search in three separate steps: a blue-free top SCC
    of the whole subgraph; else a k-dominator Z of a flow graph; then the
    blue-free top SCC once Z is removed.  None where the vertex-mode special
    cases would take over."""
    edges = list(zip(us, vs))
    s = nx_top_scc(verts, edges, blue)
    if s is not None:
        return s, [], "tscc"
    for nodes, root, fus, fvs, origin in hierarchy._flow_graphs(n, us, vs, blue, k, mode):
        z = k_dominator_raw(nodes, root, fus, fvs, k, mode)
        if z is None:
            continue
        if mode == "edge":
            z = [edges[origin[j]] for j in z]
            s = nx_top_scc(verts, [e for e in edges if e not in z], blue)
            if side == "reverse":
                z = [(b, a) for (a, b) in z]
        else:
            s = nx_top_scc([v for v in verts if v not in z],
                           [(a, b) for (a, b) in edges if a not in z and b not in z], blue)
        return s, sorted(z), "dominator"
    return None


class TestSearchMatchesThreeSteps:
    """``_search_side`` reads U and C off one pass over the flow graph; its
    results equal those of the three separate steps."""

    @staticmethod
    def draw_graph(data, ps):
        # G(n, p), half the time with a Hamiltonian cycle added, so that
        # every vertex is reached and the dominator branch runs
        n = data.draw(st.integers(2, 16))
        g = gen_random(n, data.draw(st.sampled_from(ps)), data.draw(st.integers(0, 10_000)))
        if data.draw(st.booleans()):
            cycle = [(v, (v + 1) % n) for v in range(n)]
            g = build_graph(n, list(dict.fromkeys(g.edge_list + cycle)))
        return n, g

    @staticmethod
    def check(n, verts, us, vs, blue, k, mode, side):
        res = hierarchy._search_side(n, verts, us, vs, blue, k, mode, side, None)
        want = reference_search(n, verts, us, vs, blue, k, mode, side)
        if want is None:
            assert res is None or res.provenance.endswith("-special")
        else:
            assert res is not None and (res.s, res.z, res.provenance) == want
        return res

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_level_subgraphs(self, data):
        n, g = self.draw_graph(data, [0.1, 0.2, 0.35, 0.5])
        keep = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
        wk = WorkGraph(g).restrict(keep)
        i = data.draw(st.integers(1, 3))
        rev = data.draw(st.booleans())
        k = data.draw(st.integers(2, 4))
        mode = data.draw(st.sampled_from(["edge", "vertex"]))
        us, vs, blue = wk.level_edges(i, rev)
        self.check(n, wk.verts, us, vs, blue, k, mode, "reverse" if rev else "forward")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_balls(self, data):
        n, g = self.draw_graph(data, [0.1, 0.2, 0.35])
        rev = data.draw(st.booleans())
        ball = set(local2e._ball(WorkGraph(g), data.draw(st.integers(0, n - 1)),
                                 data.draw(st.integers(1, 3)), rev, None))
        preds = g.out_adj if rev else g.in_adj
        verts = sorted(ball)
        inner = [(u, v) for v in verts for u in preds[v] if u in ball]
        blue = [v for v in verts if any(u not in ball for u in preds[v])]
        k = data.draw(st.integers(2, 4))
        mode = data.draw(st.sampled_from(["edge", "vertex"]))
        self.check(n, verts, [e[0] for e in inner], [e[1] for e in inner], blue, k, mode,
                   "reverse" if rev else "forward")
