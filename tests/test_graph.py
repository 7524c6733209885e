import pytest

from kconn import (
    GraphError,
    InvariantViolation,
    build_graph,
    constant_degree_transform,
    degree_gamma,
    induced_subgraph,
    project_components,
    reverse,
)
from kconn.graph import WorkGraph
from kconn.graphio import gen_random
from kconn.hierarchy import Component, ComponentSet, _flow_graphs
from kconn.oracle import naive_kscc

from conftest import arrays


def edges_of(g):
    return sorted(g.edge_list)


class TestBuildGraph:
    def test_c3(self, c3):
        assert c3.n == 3
        assert c3.m == 3
        assert c3.out_adj[0] == [1]
        assert c3.in_adj[0] == [2]

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 1), (0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 2)])

    def test_adjacency_directions_agree(self):
        for seed in range(15):
            g = gen_random(9, 0.4, seed)
            from_out = sorted((u, v) for u in range(g.n) for v in g.out_adj[u])
            from_in = sorted((u, v) for v in range(g.n) for u in g.in_adj[v])
            assert from_out == from_in == sorted(g.edge_list)


class TestReverse:
    def test_c3(self, c3):
        r = reverse(c3)
        assert edges_of(r) == sorted([(1, 0), (2, 1), (0, 2)])

    def test_bitri_self_symmetric(self, bitri):
        assert edges_of(reverse(bitri)) == edges_of(bitri)

    def test_involution_random(self):
        for seed in range(100):
            g = gen_random(8, 0.3, seed)
            assert reverse(reverse(g)) == g

    def test_orderings_swapped(self, bowtie):
        r = reverse(bowtie)
        assert r.in_adj[2] == bowtie.out_adj[2]
        assert r.out_adj[2] == bowtie.in_adj[2]


class TestInducedSubgraph:
    def test_bowtie_front_triangle_is_bitri(self, bowtie, bitri):
        sub, ids = induced_subgraph(bowtie, {0, 1, 2})
        assert ids == [0, 1, 2]
        assert sub.n == 3 and sorted(sub.edge_list) == edges_of(bitri)

    def test_c3_prefix(self, c3):
        sub, ids = induced_subgraph(c3, {0, 1})
        assert sub.n == 2 and sub.edge_list == [(0, 1)]

    def test_identity(self, bowtie):
        sub, ids = induced_subgraph(bowtie, range(bowtie.n))
        assert sub == bowtie

    def test_reindexing(self, bowtie):
        sub, ids = induced_subgraph(bowtie, {2, 3, 4})
        assert ids == [2, 3, 4]
        assert sub.n == 3
        assert (0, 1) in sub.edge_list  # 2 -> 3 re-indexed


def level(g, i, rev=False):
    """Level-i edges (as pairs) and blue set of a fresh working graph."""
    us, vs, blue = WorkGraph(g).level_edges(i, rev)
    return list(zip(us, vs)), blue


class TestLevelSubgraph:
    def test_bitri_level1_keeps_everything(self, bitri):
        edges, blue = level(bitri, 1)
        assert len(edges) == 6
        assert blue == []

    def test_k4b_level1_all_blue(self, k4b):
        _, blue = level(k4b, 1)
        assert blue == [0, 1, 2, 3]

    def test_bowtie_level1_blue_center(self, bowtie):
        edges, blue = level(bowtie, 1)
        assert blue == [2]
        kept = [e for e in edges if e[1] == 2]
        assert kept == [(0, 2), (1, 2)]  # first two in-edges by insertion order

    def test_white_in_lists_complete(self):
        for seed in range(20):
            g = gen_random(12, 0.35, seed)
            for rev in (False, True):
                lists = g.out_adj if rev else g.in_adj
                for i in (1, 2, 3):
                    edges, blue = level(g, i, rev)
                    assert len(edges) <= g.n * 2**i
                    by_target = {}
                    for (u, v) in edges:
                        by_target.setdefault(v, []).append(u)
                    for v in range(g.n):
                        assert len(by_target.get(v, [])) <= 2**i
                        if v not in blue:
                            assert by_target.get(v, []) == lists[v]
                        else:
                            assert by_target[v] == lists[v][: 2**i]

    def test_saturation_level(self):
        g = gen_random(10, 0.5, 3)
        i = max(len(a) for a in g.in_adj).bit_length()
        edges, blue = level(g, i)
        assert blue == []
        assert len(edges) == g.m

    def test_gamma(self, bitri, bowtie):
        assert degree_gamma(bitri) == 2
        assert degree_gamma(bowtie) == 4
        assert degree_gamma(build_graph(2, [])) == 0


class TestMakeFlowGraphs:
    """The flow graphs of the isolated-set search, built on level edges."""

    def test_bowtie_single_blue_vertex_mode(self, bowtie):
        edges, blue = level(bowtie, 1)
        fgs = _flow_graphs(bowtie.n, *arrays(edges), blue, 2, "vertex")
        assert len(fgs) == 1
        nodes, root, fus, fvs, origin = fgs[0]
        assert (nodes, root, origin) == (bowtie.n, 2, None)
        assert list(zip(fus, fvs)) == edges  # no added edges for |blue| == 1

    def test_contracted_edge_mode(self):
        # blue = {0, 1}: both have in-degree 3 > 2, the rest at most 2
        g = build_graph(5, [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1),
                            (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
        edges, blue = level(g, 1)
        assert set(blue) == {0, 1}
        ((nodes, root, fus, fvs, origin),) = _flow_graphs(g.n, *arrays(edges), blue, 2, "edge")
        fedges = list(zip(fus, fvs))
        assert (nodes, root) == (g.n + 1, g.n)
        # whites keep their ids; origin maps every flow edge to its level edge
        for (a, b), j in zip(fedges, origin):
            u, v = edges[j]
            assert (a, b) == (root if u in blue else u, root if v in blue else v)
        # parallel edges into the contracted root survive
        into_root = [e for e in fedges if e[1] == root]
        assert len(into_root) == sum(1 for (u, v) in edges
                                     if v in (0, 1) and u not in (0, 1))

    def test_artificial_root_vertex_mode(self):
        g = build_graph(6, [(3, 0), (4, 0), (5, 0), (3, 1), (4, 1), (5, 1),
                            (3, 2), (4, 2), (5, 2), (0, 3), (1, 4), (2, 5)])
        edges, blue = level(g, 1)
        assert set(blue) == {0, 1, 2}
        ((nodes, root, fus, fvs, origin),) = _flow_graphs(g.n, *arrays(edges), blue, 2, "vertex")
        fedges = list(zip(fus, fvs))
        assert (nodes, root, origin) == (g.n + 1, g.n, None)
        root_edges = [e for e in fedges if e[0] == root]
        assert sorted(v for _, v in root_edges) == [0, 1, 2]

    def test_per_blue_roots_below_k(self):
        g = build_graph(5, [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1),
                            (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
        edges, blue = level(g, 1)
        fgs = _flow_graphs(g.n, *arrays(edges), blue, 3, "vertex")
        assert [root for _, root, _, _, _ in fgs] == [0, 1]
        assert all(nodes == g.n and origin is None for nodes, _, _, _, origin in fgs)
        assert (0, 1) in zip(fgs[0][2], fgs[0][3])  # root wired to the other blue

    def test_whites_reachable_from_blue_stay_reachable(self):
        # any white reachable from some blue vertex in the level subgraph
        # must be in the flow graph's reachable region
        from conftest import reach_set

        for seed in range(25):
            g = gen_random(9, 0.3, seed)
            edges, blue = level(g, 1)
            if not blue:
                continue
            reach_from_blue = set()
            for b in blue:
                reach_from_blue |= reach_set(g.n, edges, b)
            targets = reach_from_blue - set(blue)
            for mode, k in (("edge", 2), ("vertex", 2), ("vertex", 3)):
                if mode == "vertex" and len(blue) < k:
                    # one root per blue vertex; only the union must cover
                    continue
                for nodes, root, fus, fvs, _ in _flow_graphs(g.n, *arrays(edges), blue, k, mode):
                    seen = reach_set(nodes, list(zip(fus, fvs)), root)
                    for w in targets:
                        assert w in seen, (seed, mode, k, w)


class TestConstantDegreeTransform:
    def test_c3_unchanged(self, c3):
        t, mapping = constant_degree_transform(c3)
        assert t == c3
        assert mapping.is_identity()

    def test_bowtie_expansion(self, bowtie):
        t, mapping = constant_degree_transform(bowtie)
        assert t.n == 8
        assert len(mapping.forward[2]) == 4
        assert max(max(len(a) for a in t.in_adj), max(len(a) for a in t.out_adj)) <= 3

    def test_degree_bound_random(self):
        for seed in range(30):
            g = gen_random(15, 0.4, seed)
            t, _ = constant_degree_transform(g)
            if t.n:
                assert max(len(a) for a in t.in_adj) <= 3
                assert max(len(a) for a in t.out_adj) <= 3

    def test_preserves_two_edge_components(self):
        for seed in range(40):
            g = gen_random(10, 0.3, seed)
            t, mapping = constant_degree_transform(g)
            direct = naive_kscc(g, 2, "edge")
            lifted = project_components(mapping, naive_kscc(t, 2, "edge"))
            assert direct == lifted


class TestProjectComponents:
    def test_identity(self, c3):
        from kconn.graph import VertexMapping

        cs = ComponentSet("edge", 2, [Component(vertices=(0, 1, 2))])
        out = project_components(VertexMapping.identity(3), cs)
        assert out == cs

    def test_two_cycle_bridge_projection(self, two_cycle_bridge):
        t, mapping = constant_degree_transform(two_cycle_bridge)
        cs = project_components(mapping, naive_kscc(t, 2, "edge"))
        assert [c.vertices for c in cs.components] == [(v,) for v in range(6)]

    def test_split_block_rejected(self, bowtie):
        t, mapping = constant_degree_transform(bowtie)
        block = mapping.forward[2]
        bad = ComponentSet(
            "edge", 2,
            [Component(vertices=(block[0],)),
             Component(vertices=tuple(sorted(set(range(t.n)) - {block[0]})))],
        )
        with pytest.raises(InvariantViolation):
            project_components(mapping, bad)
