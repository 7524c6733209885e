from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from kconn import kernels
from kconn.graphio import gen_random
from kconn.primitives import EdgeFlowNet, VertexFlowNet, idoms_raw, scc_raw

from conftest import arrays, brute_dominators, brute_sccs, reach_set


def test_build_csr_stable_order():
    indptr, indices = kernels.build_csr(3, [2, 0, 2, 0], [1, 2, 0, 1])
    assert indptr == [0, 2, 2, 4]
    assert indices == [2, 1, 1, 0]  # per-source input order kept


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_csr_matches_a_stable_sort(data):
    # n = 0, m = 0, isolated vertices and up to 5 edges per vertex are all drawn
    n = data.draw(st.integers(0, 10))
    us = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=5 * n))
    vs = data.draw(st.lists(st.integers(0, 30), min_size=len(us), max_size=len(us)))
    order = sorted(range(len(us)), key=us.__getitem__)
    want_ptr = [sum(u < v for u in us) for v in range(n + 1)]
    assert kernels.build_csr(n, us, vs) == (want_ptr, [vs[i] for i in order])
    assert kernels.build_csr_with_eids(n, us, vs) == (want_ptr, [vs[i] for i in order], order)


def test_scc_matches_brute_sccs():
    for seed in range(15):
        g = gen_random(12, 0.25, seed)
        us, vs = g.edge_arrays()
        comps = scc_raw(g.n, range(g.n), us, vs)[1]
        assert {frozenset(c) for c in comps} == brute_sccs(g.n, g.edge_list)


def test_idoms_match_brute_force():
    for seed in range(15):
        g = gen_random(12, 0.3, seed)
        us, vs = g.edge_arrays()
        idom = idoms_raw(g.n, 0, us, vs)
        base = reach_set(g.n, g.edge_list, 0)
        # strict dominators of w: the root plus every vertex whose removal cuts w off
        strict = {
            w: {0} | {v for v in base - {0, w}
                      if w not in reach_set(g.n, g.edge_list, 0, drop_v=[v])}
            for w in base - {0}
        }
        for w in range(g.n):
            if w == 0:
                assert idom[w] == 0
            elif w not in base:
                assert idom[w] == -1
            else:
                # the immediate dominator is the strict dominator that all others dominate
                assert idom[w] == max(strict[w], key=lambda v: len(strict.get(v, ())))
        assert {p for p in idom if p > 0} == set(brute_dominators(g.n, g.edge_list, 0))


@st.composite
def _flow_multigraphs(draw):
    """(n, root, edges): parallel edges, self-loops, vertices the root may
    not reach, and optionally a long chain with back edges, so that path
    compression runs several levels deep."""
    n = draw(st.integers(1, 12))
    vert = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vert, vert), max_size=3 * n))
    if draw(st.booleans()):
        chain = draw(st.permutations(range(n)))
        edges += list(zip(chain, chain[1:]))
        back = draw(st.lists(st.tuples(vert, vert), max_size=n))
        edges += [(chain[max(a, b)], chain[min(a, b)]) for a, b in back if a != b]
        edges = draw(st.permutations(edges))
    root = draw(vert)
    return n, root, edges


@settings(max_examples=400, deadline=None)
@given(_flow_multigraphs())
def test_idoms_match_removal_oracle(case):
    n, root, edges = case
    idom = idoms_raw(n, root, [u for u, _ in edges], [v for _, v in edges])
    base = reach_set(n, edges, root)
    # strict dominators of w: the root plus every vertex whose removal cuts w off
    strict = {root: set()}
    for w in base - {root}:
        strict[w] = {root} | {v for v in base - {root, w}
                              if w not in reach_set(n, edges, root, drop_v=[v])}
    for w in range(n):
        if w == root:
            assert idom[w] == root
        elif w not in base:
            assert idom[w] == -1
        else:
            # the idom is the strict dominator that all the others dominate
            best = [d for d in strict[w] if strict[w] - {d} <= strict[d]]
            assert best == [idom[w]]


def _brute_cut_size(n, edges, s, t, k, mode):
    """Fewest edges (vertices other than s and t) cutting t off from s, capped at k."""
    if mode == "edge":
        pool = edges
    elif (s, t) in edges:
        return k
    else:
        pool = [v for v in range(n) if v not in (s, t)]
    for size in range(k):
        for drop in combinations(pool, size):
            if mode == "edge":
                after = reach_set(n, edges, s, drop_e=drop)
            else:
                after = reach_set(n, edges, s, drop_v=drop)
            if t not in after:
                return size
    return k


def test_flow_values_match_removal_counts():
    k = 3
    for seed in range(6):
        g = gen_random(7, 0.4, seed)
        edge_net = EdgeFlowNet(g.n, *g.edge_arrays())
        vertex_net = VertexFlowNet(g.n, *g.edge_arrays(), k)
        for s, t in permutations(range(g.n), 2):
            expect_e = _brute_cut_size(g.n, g.edge_list, s, t, k, "edge")
            expect_v = _brute_cut_size(g.n, g.edge_list, s, t, k, "vertex")
            assert edge_net.query(s, t, k)[0] == expect_e
            assert vertex_net.query(s, t, k)[0] == expect_v


@st.composite
def _net_queries(draw):
    n = draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=3 * n)))
    # sources from a small pool, so they repeat and interleave
    sources = st.integers(0, min(n - 1, 2))
    queries = draw(st.lists(
        st.tuples(sources, st.integers(0, n - 1), st.integers(2, 4))
        .filter(lambda q: q[0] != q[1]),
        min_size=1, max_size=12,
    ))
    return n, edges, queries


@settings(max_examples=200, deadline=None)
@given(_net_queries())
def test_reused_flow_nets_match_fresh_nets(case):
    n, edges, queries = case
    cap = 4  # at least every k, so only vertices can be cut
    edge_net = EdgeFlowNet(n, *arrays(edges))
    vertex_net = VertexFlowNet(n, *arrays(edges), cap)
    for s, t, k in queries:
        fresh = EdgeFlowNet(n, *arrays(edges))
        value, augs = edge_net.query(s, t, k)
        assert (value, augs) == fresh.query(s, t, k)
        cut = edge_net.cut(s)
        assert cut == fresh.cut(s)
        if value < k:
            assert len(cut) == value
            assert t not in reach_set(n, edges, s, drop_e=[edges[i] for i in cut])

        fresh = VertexFlowNet(n, *arrays(edges), cap)
        value, augs = vertex_net.query(s, t, k)
        assert (value, augs) == fresh.query(s, t, k)
        cut = vertex_net.cut(s)
        assert cut == fresh.cut(s)
        if value < k:
            assert len(cut) == value and s not in cut and t not in cut
            assert t not in reach_set(n, edges, s, drop_v=cut)


def test_reach_kernel_matches_oracle():
    for seed in range(10):
        g = gen_random(9, 0.3, seed)
        us, vs = g.edge_arrays()
        indptr, indices = kernels.build_csr(g.n, us, vs)
        vis = kernels.reach(g.n, 0, indptr, indices)
        assert {v for v in range(g.n) if vis[v]} == reach_set(g.n, g.edge_list, 0)


def test_idom_matches_brute_dominators():
    for seed in range(20):
        g = gen_random(11, 0.25, seed)
        us, vs = g.edge_arrays()
        idom = idoms_raw(g.n, 0, us, vs)
        doms = set()
        for v in range(g.n):
            if v == 0 or idom[v] < 0:
                continue
            p = int(idom[v])
            if p != 0:
                doms.add(p)
        assert doms == set(brute_dominators(g.n, g.edge_list, 0))
