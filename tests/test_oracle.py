import ast
from pathlib import Path

import pytest

from kconn import (
    GraphError,
    brute_force_kscc,
    build_graph,
    kscc,
    naive_kscc,
    pairwise_k_connected,
)
from kconn.graphio import gen_random

from conftest import naive_runs_same_calls
from oracles import edge_kscc_sets, vertex_kscc_sets


class TestPairwise:
    def test_bitri_edge(self, bitri):
        assert pairwise_k_connected(bitri, 0, 1, 2, "edge")

    def test_bowtie_vertex(self, bowtie):
        assert not pairwise_k_connected(bowtie, 0, 3, 2, "vertex")
        assert pairwise_k_connected(bowtie, 0, 1, 2, "vertex")

    def test_c3_edge(self, c3):
        assert not pairwise_k_connected(c3, 0, 1, 2, "edge")

    def test_same_vertex_rejected(self, c3):
        with pytest.raises(GraphError):
            pairwise_k_connected(c3, 1, 1, 2, "edge")


class TestBruteForce:
    def test_bitri_edge(self, bitri):
        cs = brute_force_kscc(bitri, 2, "edge")
        assert [c.vertices for c in cs.components] == [(0, 1, 2)]

    def test_path_edge_singletons(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        cs = brute_force_kscc(g, 2, "edge")
        assert [c.vertices for c in cs.components] == [(0,), (1,), (2,)]

    def test_bowtie_vertex(self, bowtie):
        cs = brute_force_kscc(bowtie, 2, "vertex")
        assert [c.vertices for c in cs.components] == [(0, 1, 2), (2, 3, 4)]
        assert all(len(c.edges) == 6 for c in cs.components)

    def test_size_limit(self):
        g = gen_random(13, 0.2, 0)
        with pytest.raises(GraphError):
            brute_force_kscc(g, 2, "edge")
        g = gen_random(11, 0.2, 0)
        with pytest.raises(GraphError):
            brute_force_kscc(g, 2, "vertex")

    def test_components_are_maximal(self):
        for seed in range(15):
            g = gen_random(7, 0.35, seed)
            for mode in ("edge", "vertex"):
                cs = brute_force_kscc(g, 2, mode)
                sets = [set(c.vertices) for c in cs.components]
                for a in sets:
                    for b in sets:
                        assert a == b or not a < b


class TestNaive:
    def test_bowtie_vertex(self, bowtie):
        cs = naive_kscc(bowtie, 2, "vertex")
        assert [c.vertices for c in cs.components] == [(0, 1, 2), (2, 3, 4)]

    def test_c3_edge(self, c3):
        cs = naive_kscc(c3, 2, "edge")
        assert [c.vertices for c in cs.components] == [(0,), (1,), (2,)]

    def test_k4b_vertex(self, k4b):
        cs = naive_kscc(k4b, 2, "vertex")
        assert [c.vertices for c in cs.components] == [(0, 1, 2, 3)]

    def test_oracle_chain(self):
        for seed in range(25):
            g = gen_random(8, 0.3, seed)
            for mode in ("edge", "vertex"):
                h = kscc(g, 2, mode)
                assert brute_force_kscc(g, 2, mode) == h
                if not naive_runs_same_calls(g, 2, mode):
                    assert naive_kscc(g, 2, mode) == h

    def test_oracle_chain_k3(self):
        for seed in range(12):
            g = gen_random(7, 0.5, seed)
            for mode in ("edge", "vertex"):
                assert brute_force_kscc(g, 3, mode) == naive_kscc(g, 3, mode)


class TestIndependentOracles:
    # what tests/oracles.py may take from kconn: graph construction and the
    # generators, nothing that decides connectivity
    ALLOWED = {
        "kconn": {"Graph", "build_graph"},
        "kconn.graph": {"Graph", "build_graph"},
        "kconn.graphio": {"gen_random", "gen_adversarial_chain", "gen_blocks_vs_components"},
    }

    def test_imports_nothing_else_from_kconn(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
                assert not any(m == "kconn" or m.startswith("kconn.") for m in names), names
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import"
                mod = node.module or ""
                if mod == "kconn" or mod.startswith("kconn."):
                    for a in node.names:
                        assert a.name in self.ALLOWED.get(mod, set()), f"{mod}.{a.name}"

    def test_match_brute_force(self):
        for seed in range(20):
            g = gen_random(7, 0.45, 300 + seed)
            for k in (2, 3):
                for mode, oracle in (("edge", edge_kscc_sets), ("vertex", vertex_kscc_sets)):
                    want = [c.vertices for c in brute_force_kscc(g, k, mode).components]
                    assert oracle(g.n, g.edge_list, k) == want, (seed, k, mode)
