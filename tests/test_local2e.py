import pytest

from kconn import (
    GraphError,
    InvariantViolation,
    bounded_reverse_bfs,
    brute_force_kscc,
    build_graph,
    constant_degree_transform,
    kscc,
    two_escc_sparse,
    two_isolated_set_local,
)
from kconn import local2e
from kconn.graphio import gen_blocks_vs_components, gen_random
from kconn.hierarchy import Counters

from conftest import within_depth


class TestBoundedReverseBfs:
    def test_c3_depth1(self, c3):
        assert bounded_reverse_bfs(c3, 0, 1) == {0, 2}

    def test_c3_depth3(self, c3):
        assert bounded_reverse_bfs(c3, 0, 3) == {0, 1, 2}

    def test_path_forward(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert bounded_reverse_bfs(g, 2, 1) == {1, 2}

    def test_reverse_direction(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert bounded_reverse_bfs(g, 0, 1, "reverse") == {0, 1}

    def test_matches_depth_oracle(self):
        for seed in range(8):
            g = gen_random(10, 0.3, seed)
            for j in (0, 5):
                for d in (0, 1, 2, 4):
                    for direction in ("forward", "reverse"):
                        assert bounded_reverse_bfs(g, j, d, direction) == within_depth(
                            g.edge_list, j, d, reverse=direction == "reverse")

    def test_degree_bound_visit_count(self):
        # ball must stay local: in a long cycle only d+1 vertices are seen
        n = 50
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert len(bounded_reverse_bfs(g, 0, 5)) == 6


class TestTwoIsolatedSetLocal:
    def test_tscc_branch(self, two_cycle_bridge):
        # (5,0) was deleted "elsewhere": the front triangle is a clean top SCC
        g = build_graph(6, [e for e in two_cycle_bridge.edge_list if e != (5, 0)])
        res = two_isolated_set_local(g, [0], 3)
        assert res == {0, 1, 2}

    def test_bitri_empty(self, bitri):
        for d in (2, 3, 5):
            assert two_isolated_set_local(bitri, [0], d) == set()
            assert two_isolated_set_local(bitri, [0, 1, 2], d) == set()

    def test_empty_j(self, two_cycle_bridge):
        assert two_isolated_set_local(two_cycle_bridge, [], 3) == set()

    def test_bridge_branch(self, two_cycle_bridge):
        # the full graph is one SCC with no external edges: the ball is a
        # top-and-bottom SCC and progress comes from an internal bridge
        res = two_isolated_set_local(two_cycle_bridge, [0], 6)
        assert res == {1}  # top SCC after removing the smallest bridge (0,1)

    def test_dominator_branch(self):
        # ball around 0 at depth 1 is {0,1,2} with blue boundary {2}; the
        # contracted flow graph's unique edge-dominator (2,1) isolates {1}
        g = build_graph(5, [(1, 0), (2, 0), (2, 1), (4, 2), (0, 4), (2, 3), (3, 2)])
        res = two_isolated_set_local(g, [0], 1)
        assert res == {1}

    def test_degree_precondition(self, bowtie):
        with pytest.raises(GraphError):
            two_isolated_set_local(bowtie, [0], 2)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_small_planted_sets_found(self, size):
        # a planted almost-top SCC with fewer than d vertices touching the
        # J-seed and keeping a boundary edge must be detected
        n = 30
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [((i + 1) % n, i) for i in range(n)]
        cyc = list(range(n, n + size))
        if size == 2:
            edges += [(cyc[0], cyc[1]), (cyc[1], cyc[0])]
        else:
            edges += [(cyc[i], cyc[(i + 1) % size]) for i in range(size)]
        edges.append((0, cyc[0]))
        edges.append((cyc[0], 1))
        g = build_graph(n + size, edges)
        res = two_isolated_set_local(g, [cyc[0]], size + 1)
        assert res
        from kconn.hierarchy import check_isolation_core

        boundary_in = [(u, v) for (u, v) in g.edge_list
                       if v in res and u not in res]
        boundary_out = [(u, v) for (u, v) in g.edge_list
                        if u in res and v not in res]
        assert boundary_in or boundary_out

    def test_returned_sets_are_isolated(self):
        # soundness: whatever the local search returns passes the k=2 edge
        # isolation predicate in one orientation
        from kconn.hierarchy import check_isolation_core

        found = 0
        for seed in range(40):
            g, _ = constant_degree_transform(gen_random(12, 0.18, seed))
            if g.n == 0:
                continue
            res = two_isolated_set_local(g, list(range(min(4, g.n))), 4)
            if not res:
                continue
            found += 1
            s = sorted(res)
            ok = False
            for side in ("forward", "reverse"):
                if side == "forward":
                    z = [(u, v) for (u, v) in g.edge_list if v in res and u not in res]
                else:
                    z = [(u, v) for (u, v) in g.edge_list if u in res and v not in res]
                if len(z) < 2 and check_isolation_core(
                    g.n, range(g.n), *g.edge_arrays(), s, z, side, 2, "edge"
                ):
                    ok = True
            assert ok, (seed, s)
        assert found > 0


class TestTwoEsccSparse:
    def test_bitri(self, bitri):
        cs = two_escc_sparse(bitri)
        assert [c.vertices for c in cs.components] == [(0, 1, 2)]

    def test_two_cycle_bridge(self, two_cycle_bridge):
        cs = two_escc_sparse(two_cycle_bridge)
        assert [c.vertices for c in cs.components] == [(v,) for v in range(6)]

    def test_augmented_graph(self, c3):
        g = gen_blocks_vs_components(c3)
        cs = two_escc_sparse(g)
        assert [c.vertices for c in cs.components] == [
            (0,), (1,), (2,), (3,), (4,), (5,), (6,)
        ]

    def test_epsilon_validation(self, bitri):
        with pytest.raises(GraphError):
            two_escc_sparse(bitri, epsilon=0.0)
        with pytest.raises(GraphError):
            two_escc_sparse(bitri, epsilon=1.0)

    def test_matches_kscc_random(self):
        for seed in range(40):
            g = gen_random(10, 0.3, seed)
            assert two_escc_sparse(g, validate=True) == kscc(g, 2, "edge")

    def test_matches_kscc_various_epsilon(self):
        for eps in (0.25, 0.5, 0.75):
            for seed in range(10):
                g = gen_random(14, 0.25, seed)
                assert two_escc_sparse(g, epsilon=eps) == kscc(g, 2, "edge")

    def test_pre_expanded_input(self):
        for seed in range(10):
            g, _ = constant_degree_transform(gen_random(9, 0.35, seed))
            assert two_escc_sparse(g) == kscc(g, 2, "edge")

    def test_empty_and_tiny(self):
        assert two_escc_sparse(build_graph(0, [])).components == []
        cs = two_escc_sparse(build_graph(1, []))
        assert [c.vertices for c in cs.components] == [(0,)]
        cs = two_escc_sparse(build_graph(2, [(0, 1), (1, 0)]))
        assert [c.vertices for c in cs.components] == [(0,), (1,)]

    def test_counters_and_trace(self):
        counters = Counters()
        trace = []
        g = gen_random(30, 0.08, 5)
        two_escc_sparse(g, counters=counters, trace=trace)
        assert any(ev["event"] == "outer" for ev in trace)

    def test_finished_sccs_are_not_searched_again(self, monkeypatch):
        # an SCC the outer loop found bridgeless is an isolated island that
        # nothing later touches, so no later bridge search may see it again
        real_sub_bridges = local2e._sub_bridges
        real_local_search = local2e._local_search
        calls = []  # (vertex set, bridgeless, from the outer loop, iteration)
        in_local = []
        trace = []

        def sub_bridges(n, verts, us, vs):
            res = real_sub_bridges(n, verts, us, vs)
            iteration = 1 + sum(ev["event"] == "outer" for ev in trace)
            calls.append((frozenset(verts), not res, not in_local, iteration))
            return res

        def local_search(*args):
            in_local.append(True)
            try:
                return real_local_search(*args)
            finally:
                in_local.pop()

        monkeypatch.setattr(local2e, "_sub_bridges", sub_bridges)
        monkeypatch.setattr(local2e, "_local_search", local_search)
        waiting = 0
        for n, p, seeds in ((10, 0.3, range(6)), (12, 0.25, range(3)),
                            (30, 0.08, range(6)), (60, 0.045, range(4))):
            for seed in seeds:
                g = gen_random(n, p, seed)
                calls.clear()
                trace.clear()
                cs = two_escc_sparse(g, validate=True, trace=trace)
                outer = sum(ev["event"] == "outer" for ev in trace)
                if outer < 2:
                    continue
                finished = set()
                for verts, bridgeless, from_outer, iteration in calls:
                    assert verts not in finished
                    if bridgeless and from_outer:
                        finished.add(verts)
                        waiting += iteration < outer
                assert cs == kscc(g, 2, "edge")
                if n <= 12:
                    assert cs == brute_force_kscc(g, 2, "edge")
        # sets found finished before the last iteration: each a skipped search
        assert waiting > 0

    def test_validation_catches_a_touched_finished_scc(self, monkeypatch):
        # a bidirected 6-cycle beside the graph of the test below; the
        # cycle is found bridgeless first, then an injected fault deletes
        # one of its arcs with the first local search's boundary
        n = 40
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [((i + 1) % n, i) for i in range(n)]
        edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n), (0, n), (n + 2, 0)]
        a = list(range(n + 3, n + 9))
        edges += [(a[i], a[(i + 1) % 6]) for i in range(6)]
        edges += [(a[(i + 1) % 6], a[i]) for i in range(6)]
        g = build_graph(n + 9, edges)
        real_sub_bridges = local2e._sub_bridges
        real_boundary_edges = local2e._boundary_edges
        finished = []

        def sub_bridges(n, verts, us, vs):
            res = real_sub_bridges(n, verts, us, vs)
            if not res and len(verts) == 6:
                finished.append(set(verts))
            return res

        def boundary_edges(wk, s):
            out = real_boundary_edges(wk, s)
            if finished:
                u = min(finished[0])
                out.append((u, next(w for w in wk.out_neighbors(u) if w in finished[0])))
                finished.clear()
            return out

        monkeypatch.setattr(local2e, "_sub_bridges", sub_bridges)
        monkeypatch.setattr(local2e, "_boundary_edges", boundary_edges)
        with pytest.raises(InvariantViolation, match="finished SCC"):
            two_escc_sparse(g, validate=True)

    def test_local_searches_fire_on_sparse_graphs(self):
        # a directed 3-cycle hanging off a large bridgeless cycle: the first
        # pass deletes its four bridges, leaving |J| = 4 < q so the inner
        # local loop runs and peels the leftovers
        n = 150
        edges = []
        for i in range(n):
            edges.append((i, (i + 1) % n))
            edges.append(((i + 1) % n, i))
        t = [n, n + 1, n + 2]
        edges += [(t[0], t[1]), (t[1], t[2]), (t[2], t[0]), (0, t[0]), (t[2], 0)]
        g = build_graph(n + 3, edges)
        trace = []
        counters = Counters()
        cs = two_escc_sparse(g, counters=counters, trace=trace)
        assert cs == kscc(g, 2, "edge")
        assert len(cs.components) == 4
        assert any(ev["event"] == "local" and ev["found"] for ev in trace)
        assert counters.bfs_ball_edges > 0
