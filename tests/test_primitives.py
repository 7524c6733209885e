import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconn import (
    GraphError,
    bounded_min_separator,
    build_graph,
    k_separator,
    scc,
    strong_articulation_points,
    strong_bridges,
    top_scc_excluding,
)
from kconn.graphio import gen_random
from kconn.hierarchy import _flow_graphs
from kconn.kernels import build_csr
from kconn.primitives import (
    EdgeFlowNet,
    Separator,
    _minimalize,
    _tree_cover,
    dominator_set_raw,
    edge_dominators_raw,
    k_dominator_raw,
    k_separator_raw,
    increases_scc_count,
    pairwise_k_connected_impl,
)

from conftest import (
    arrays,
    brute_dominators,
    brute_edge_dominators,
    brute_scc_count,
    brute_sccs,
    reach_set,
)


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def diamond():
    return build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestScc:
    def test_c3_single(self, c3):
        parts = scc(c3)
        assert parts.components == ((0, 1, 2),)
        assert parts.is_top == (True,) and parts.is_bottom == (True,)

    def test_path_singletons(self):
        parts = scc(path3())
        assert parts.components == ((0,), (1,), (2,))
        assert parts.is_top == (True, False, False)
        assert parts.is_bottom == (False, False, True)

    def test_two_cycle_bridge_single(self, two_cycle_bridge):
        parts = scc(two_cycle_bridge)
        assert parts.components == ((0, 1, 2, 3, 4, 5),)

    def test_partition_matches_reachability(self):
        for seed in range(40):
            g = gen_random(9, 0.25, seed)
            got = {frozenset(c) for c in scc(g).components}
            assert got == brute_sccs(g.n, g.edge_list)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, seed):
        g = gen_random(10, 0.3, seed)
        assert scc(g).components == scc(g).components


class TestTopSccExcluding:
    def test_path_source(self):
        assert top_scc_excluding(path3(), set()) == {0}

    def test_excluded_source(self):
        assert top_scc_excluding(path3(), {0}) == set()

    def test_two_triangles(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert top_scc_excluding(g, {1}) == {3, 4, 5}

    def test_nonempty_without_exclusions(self):
        for seed in range(20):
            g = gen_random(7, 0.3, seed)
            assert top_scc_excluding(g, set())


def dominators(g, root):
    """(dominator, witness) pairs of g rooted at root."""
    return sorted(dominator_set_raw(g.n, root, *g.edge_arrays()).items())


def edge_dominators(g, root):
    """Edge-dominators of g rooted at root, as edges sorted by head."""
    return [g.edge_list[i] for i in edge_dominators_raw(g.n, root, *g.edge_arrays())]


class TestDominators:
    def test_path(self):
        assert dominators(path3(), 0) == [(1, 2)]

    def test_diamond_no_dominators(self):
        assert dominators(diamond(), 0) == []

    def test_bowtie_center(self, bowtie):
        assert dominators(bowtie, 0) == [(2, 3)]

    def test_matches_removal_oracle(self):
        for seed in range(60):
            g = gen_random(10, 0.25, seed)
            got = {v for v, _ in dominators(g, 0)}
            assert got == set(brute_dominators(g.n, g.edge_list, 0))

    def test_edge_dominator_path(self):
        assert edge_dominators(path3(), 0) == [(0, 1), (1, 2)]

    def test_edge_dominator_c3_chord(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        assert edge_dominators(g, 0) == [(0, 1)]

    def test_edge_dominator_bitri_none(self, bitri):
        for r in range(3):
            assert edge_dominators(bitri, r) == []

    def test_edge_dominator_matches_removal_oracle(self):
        for seed in range(60):
            g = gen_random(9, 0.3, seed)
            got = edge_dominators(g, 0)
            assert sorted(got) == brute_edge_dominators(g.n, g.edge_list, 0)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_edge_dominators_raw_multigraph(self, data):
        # parallel edges, self-loops, unreachable vertices and any root; the
        # oracle drops one edge index at a time, so parallel copies stay apart
        n = data.draw(st.integers(1, 7))
        root = data.draw(st.integers(0, n - 1))
        vertex = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=16))
        base = reach_set(n, edges, root)
        want = [i for i in range(len(edges))
                if base - reach_set(n, edges[:i] + edges[i + 1:], root)]
        got = edge_dominators_raw(n, root, [u for u, _ in edges], [v for _, v in edges])
        assert got == sorted(want, key=lambda i: edges[i][1])


class TestStrongBridgesAndArticulationPoints:
    def test_bowtie(self, bowtie):
        assert strong_articulation_points(bowtie) == [2]

    def test_bitri(self, bitri):
        assert strong_articulation_points(bitri) == []

    def test_k4b(self, k4b):
        assert strong_articulation_points(k4b) == []

    def test_two_cycle_bridge_bridges(self, two_cycle_bridge):
        # the outer-cycle edges are the strong bridges: the two triangle-closing
        # edges (2,0) and (5,3) are backed up by the long way around
        assert strong_bridges(two_cycle_bridge) == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)
        ]

    def test_c3_all_bridges(self, c3):
        assert strong_bridges(c3) == sorted(c3.edge_list)

    def test_bitri_no_bridges(self, bitri):
        assert strong_bridges(bitri) == []

    def test_removal_oracle(self):
        for seed in range(50):
            g = gen_random(8, 0.3, seed)
            base = brute_scc_count(g)
            want_v = [v for v in range(g.n) if brute_scc_count(g, drop_v=v) > base]
            want_e = [e for e in g.edge_list if brute_scc_count(g, drop_e=e) > base]
            assert strong_articulation_points(g) == sorted(want_v)
            assert strong_bridges(g) == sorted(want_e)


class TestBoundedMinSeparator:
    def test_c3_edge(self, c3):
        sep = bounded_min_separator(c3, 0, 2, 2, "edge")
        assert sep is not None and len(sep.members) == 1
        (e,) = sep.members
        assert 2 not in reach_set(3, c3.edge_list, 0, drop_e=[e])

    def test_k4b_vertex_none(self, k4b):
        assert bounded_min_separator(k4b, 0, 3, 3, "vertex") is None

    def test_bowtie_center_cut(self, bowtie):
        sep = bounded_min_separator(bowtie, 0, 4, 2, "vertex")
        assert sep.members == (2,)

    def test_adjacent_vertex_pair_inseparable(self, c3):
        assert bounded_min_separator(c3, 0, 1, 2, "vertex") is None

    def test_menger_consistency(self):
        # separator exists iff some removal of < k elements cuts s from t;
        # vertex mode removes vertices other than s and t, on non-adjacent pairs
        for seed in range(25):
            g = gen_random(6, 0.35, seed)
            for s in range(g.n):
                for t in range(g.n):
                    if s == t:
                        continue
                    others = [x for x in range(g.n) if x not in (s, t)]
                    for k in (2, 3):
                        sep = bounded_min_separator(g, s, t, k, "edge")
                        cuttable = any(
                            t not in reach_set(g.n, g.edge_list, s, drop_e=drop)
                            for size in range(k)
                            for drop in itertools.combinations(g.edge_list, size)
                        )
                        assert (sep is not None) == cuttable
                        if sep is not None:
                            assert t not in reach_set(
                                g.n, g.edge_list, s, drop_e=sep.members
                            )
                        if g.has_edge(s, t):
                            continue
                        sep = bounded_min_separator(g, s, t, k, "vertex")
                        cuttable = any(
                            t not in reach_set(g.n, g.edge_list, s, drop_v=drop)
                            for size in range(k)
                            for drop in itertools.combinations(others, size)
                        )
                        assert (sep is not None) == cuttable
                        if sep is not None:
                            assert s not in sep.members and t not in sep.members
                            assert t not in reach_set(
                                g.n, g.edge_list, s, drop_v=sep.members
                            )

    def test_minimality(self):
        for seed in range(20):
            g = gen_random(7, 0.3, seed)
            for t in range(1, g.n):
                sep = bounded_min_separator(g, 0, t, 3, "edge")
                if sep is None or not sep.members:
                    continue
                for i in range(len(sep.members)):
                    sub = sep.members[:i] + sep.members[i + 1:]
                    assert t in reach_set(g.n, g.edge_list, 0, drop_e=sub)


class TestKSeparator:
    def test_bitri_vertex_none(self, bitri):
        assert k_separator(bitri, 2, "vertex") is None

    def test_bowtie_vertex(self, bowtie):
        sep = k_separator(bowtie, 2, "vertex")
        assert sep.members == (2,)

    def test_two_cycle_bridge_edge(self, two_cycle_bridge):
        sep = k_separator(two_cycle_bridge, 2, "edge")
        assert len(sep.members) == 1
        assert sep.members[0] in set(strong_bridges(two_cycle_bridge))

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(GraphError):
            k_separator(path3(), 2, "edge")

    def test_k2_is_smallest_removal_that_splits(self):
        # random strongly connected graphs: a Hamiltonian cycle plus chords
        rng = random.Random(15)
        found = none = 0
        for _ in range(150):
            n = rng.randint(2, 9)
            order = rng.sample(range(n), n)
            edges = {(order[i], order[(i + 1) % n]) for i in range(n)} if n > 1 else set()
            p = rng.choice([0.0, 0.1, 0.25, 0.5])
            edges |= {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
            g = build_graph(n, sorted(edges))
            base = brute_scc_count(g)
            for mode in ("edge", "vertex"):
                pool = g.edge_list if mode == "edge" else range(n)
                drop = "drop_e" if mode == "edge" else "drop_v"
                want = min((x for x in pool if brute_scc_count(g, **{drop: x}) > base),
                           default=None)
                sep = k_separator(g, 2, mode)
                assert (sep is None) == (want is None)
                if sep is not None:
                    assert sep.members == (want,)
                found += want is not None
                none += want is None
        assert found and none

    def test_increases_scc_count_random(self):
        for seed in range(30):
            g = gen_random(7, 0.45, seed)
            if len(brute_sccs(g.n, g.edge_list)) != 1 or g.n < 2:
                continue
            for k in (2, 3):
                for mode in ("edge", "vertex"):
                    sep = k_separator(g, k, mode)
                    drop_v = sep.members if (sep and mode == "vertex") else ()
                    drop_e = sep.members if (sep and mode == "edge") else ()
                    if sep is not None:
                        assert len(sep.members) < k
                        assert len(brute_sccs(g.n, g.edge_list, drop_v, drop_e)) > 1
                        # minimality against the SCC-increase predicate
                        for i in range(len(sep.members)):
                            sub = list(sep.members[:i] + sep.members[i + 1:])
                            assert not increases_scc_count(
                                g.n, range(g.n), *g.edge_arrays(), sub, mode
                            )
                    else:
                        found = any(
                            len(brute_sccs(
                                g.n, g.edge_list,
                                drop if mode == "vertex" else (),
                                drop if mode == "edge" else (),
                            )) > 1
                            for size in range(1, k)
                            for drop in itertools.combinations(
                                range(g.n) if mode == "vertex" else g.edge_list, size
                            )
                        )
                        assert not found


class TestKDominator:
    def test_path_vertex(self):
        assert k_dominator_raw(3, 0, *path3().edge_arrays(), 2, "vertex") == [1]

    def test_diamond_pair(self):
        assert k_dominator_raw(4, 0, *diamond().edge_arrays(), 3, "vertex") == [1, 2]

    def test_bitri_none(self, bitri):
        assert k_dominator_raw(3, 0, *bitri.edge_arrays(), 2, "vertex") is None

    def test_k2_agrees_with_removal_oracle(self):
        for seed in range(40):
            g = gen_random(9, 0.3, seed)
            z = k_dominator_raw(g.n, 0, *g.edge_arrays(), 2, "vertex")
            doms = brute_dominators(g.n, g.edge_list, 0)
            assert z == ([min(doms)] if doms else None)

    def test_k2_edge_agrees_with_removal_oracle(self):
        for seed in range(40):
            g = gen_random(9, 0.3, seed)
            z = k_dominator_raw(g.n, 0, *g.edge_arrays(), 2, "edge")
            ed = brute_edge_dominators(g.n, g.edge_list, 0)
            assert (z is None) == (not ed)
            if z is not None:
                assert [g.edge_list[i] for i in z] == [min(ed)]

    def test_dominates_and_minimal(self):
        for seed in range(25):
            g = gen_random(8, 0.35, seed)
            for k in (2, 3):
                z = k_dominator_raw(g.n, 0, *g.edge_arrays(), k, "vertex")
                if z is None:
                    continue
                assert len(z) < k
                base = reach_set(g.n, g.edge_list, 0)
                after = reach_set(g.n, g.edge_list, 0, drop_v=z)
                assert base - after - set(z)
                for i in range(len(z)):
                    sub = z[:i] + z[i + 1:]
                    a2 = reach_set(g.n, g.edge_list, 0, drop_v=sub)
                    assert not (base - a2 - set(sub))


def block_ring(seed, blocks=3, links=2):
    """``blocks`` G(n, 0.35) blocks of 6-14 vertices, ``links`` arcs from each to the next."""
    rng = random.Random(seed)
    sizes = [rng.randint(6, 14) for _ in range(blocks)]
    starts = [sum(sizes[:j]) for j in range(blocks)]
    edges = set()
    for j, size in enumerate(sizes):
        b = gen_random(size, 0.35, [seed, j])
        edges.update((u + starts[j], v + starts[j]) for (u, v) in b.edge_list)
    for j in range(blocks):
        nxt = (j + 1) % blocks
        for _ in range(links):
            edges.add((starts[j] + rng.randrange(sizes[j]),
                       starts[nxt] + rng.randrange(sizes[nxt])))
    return build_graph(sum(sizes), sorted(edges))


def cuts_something_off(n, root, edges, members):
    """Does removing the edges with indices ``members`` cut a vertex off from root?

    Edges go by index, so parallel copies are removed one at a time.
    """
    drop = set(members)
    kept = [e for i, e in enumerate(edges) if i not in drop]
    return bool(reach_set(n, edges, root) - reach_set(n, kept, root))


def flow_everywhere_dominator(n, root, edges, k):
    """Edge-mode k-dominator with a flow query to every reachable vertex in id order."""
    net = EdgeFlowNet(n, *arrays(edges))
    reach = reach_set(n, edges, root)
    for t in range(n):
        if t == root or t not in reach or net.query(root, t, k)[0] >= k:
            continue
        cut = _minimalize(
            net.cut(root),
            lambda mem: cuts_something_off(n, root, edges, mem),
        )
        return sorted(cut)
    return None


def flow_everywhere_separator(n, verts, edges, k):
    """Edge-mode k-separator with flow queries both ways between verts[0] and every vertex."""
    verts = sorted(verts)
    net = EdgeFlowNet(n, *arrays(edges))
    s = verts[0]
    for t in verts[1:]:
        for a, b in ((s, t), (t, s)):
            if net.query(a, b, k)[0] >= k:
                continue
            cut = _minimalize(
                [edges[i] for i in net.cut(a)],
                lambda mem: increases_scc_count(n, verts, *arrays(edges), mem, "edge"),
            )
            return Separator("edge", tuple(sorted(cut)), "k-separator")
    return None


class TestTreeCover:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_certified_vertices_carry_k_edge_disjoint_paths(self, data):
        n = data.draw(st.integers(2, 9))
        node = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=30))
        root = data.draw(node)
        k = data.draw(st.integers(2, 5))
        cover = _tree_cover(n, root, *build_csr(n, *arrays(edges)), k)
        reach = reach_set(n, edges, root)
        net = EdgeFlowNet(n, *arrays(edges))
        for t in range(n):
            if t == root:
                continue
            assert (cover[t] > 0) == (t in reach)
            if cover[t] >= k:
                assert net.query(root, t, k)[0] >= k

    def test_parallel_edges_count_separately(self):
        csr = build_csr(3, *arrays([(0, 1), (0, 1), (0, 1), (1, 2)]))
        assert _tree_cover(3, 0, *csr, 3) == [0, 3, 1]


class TestFlowSkipping:
    """Edge-mode k >= 3 results equal those of a flow query to every vertex."""

    def cases(self):
        rng = random.Random(11)
        for seed in range(30):
            n = rng.randint(8, 30)
            yield gen_random(n, 5.0 / n, seed)
            yield gen_random(n, 0.5, seed)
            yield block_ring(seed)

    def test_k_dominator_raw(self):
        found = none = 0
        rng = random.Random(5)
        for g in self.cases():
            edges = list(g.edge_list)
            for k in (3, 4, 5):
                blue = sorted(rng.sample(range(g.n), rng.randint(1, 4)))
                ((nodes, root, fus, fvs, _),) = _flow_graphs(g.n, *arrays(edges), blue, k, "edge")
                for n, r, es in ((g.n, 0, edges), (nodes, root, list(zip(fus, fvs)))):
                    want = flow_everywhere_dominator(n, r, es, k)
                    assert k_dominator_raw(n, r, *arrays(es), k, "edge") == want
                    found += want is not None
                    none += want is None
        assert found and none

    def test_k_separator_raw(self):
        found = none = 0
        for g in self.cases():
            for k in (3, 4, 5):
                want = flow_everywhere_separator(g.n, range(g.n), g.edge_list, k)
                assert k_separator_raw(g.n, range(g.n), *g.edge_arrays(), k, "edge") == want
                found += want is not None
                none += want is None
        assert found and none


class TestPairwiseKConnected:
    def test_bitri_edge(self, bitri):
        assert pairwise_k_connected_impl(bitri, 0, 1, 2, "edge")

    def test_bowtie_vertex_separated(self, bowtie):
        assert not pairwise_k_connected_impl(bowtie, 0, 3, 2, "vertex")

    def test_c3_not_2edge(self, c3):
        assert not pairwise_k_connected_impl(c3, 0, 1, 2, "edge")

    def test_symmetry(self):
        for seed in range(15):
            g = gen_random(7, 0.4, seed)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    for mode in ("edge", "vertex"):
                        assert pairwise_k_connected_impl(
                            g, u, v, 2, mode
                        ) == pairwise_k_connected_impl(g, v, u, 2, mode)

    def test_matches_removal_definition_vertex(self):
        # definition: strongly connected and still so after removing any < k
        # vertices other than the pair; n up to 13 and p up to 0.7 put many
        # adjacent pairs in range, whose direct edges no removal cuts
        rng = random.Random(0x3E1)
        graphs = [gen_random(6, 0.4, seed) for seed in range(20)]
        graphs += [gen_random(n, rng.choice([0.3, 0.4, 0.55, 0.7]), 1000 * n + seed)
                   for n in range(7, 14) for seed in range(4)]
        for g in graphs:
            n = g.n
            for k in (2, 3, 4):
                # ordered pairs (u, v) that some removal of < k others separates
                apart = set()
                for size in range(k):
                    for drop in itertools.combinations(range(n), size):
                        for u in range(n):
                            if u not in drop:
                                seen = reach_set(n, g.edge_list, u, drop_v=drop)
                                apart.update((u, v) for v in range(n)
                                             if v not in seen and v not in drop)
                for u in range(n):
                    for v in range(u + 1, n):
                        want = (u, v) not in apart and (v, u) not in apart
                        assert pairwise_k_connected_impl(g, u, v, k, "vertex") == want

    def test_shared_net_matches_fresh_nets(self):
        # one network answers every pair of a graph, in any order, as a
        # network built for each pair does
        for seed in range(12):
            g = gen_random(16, 0.3, seed)
            pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
            random.Random(seed).shuffle(pairs)
            for k in (2, 3):
                for mode in ("edge", "vertex"):
                    nets = {}
                    for u, v in pairs[:60]:
                        assert pairwise_k_connected_impl(g, u, v, k, mode, nets=nets) == \
                            pairwise_k_connected_impl(g, u, v, k, mode)
                    assert nets
