"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The work-counter criterion is an empirical trend check, not a proof,
and is labeled as such in its output.
"""

import itertools
import json
import random

import pytest

from kconn import (
    build_graph,
    constant_degree_transform,
    kscc,
    naive_kscc,
    pairwise_k_connected,
    project_components,
    two_escc_sparse,
)
from kconn.bench import bench_run
from kconn.cli import main
from kconn.graphio import (
    gen_adversarial_chain,
    gen_blocks_vs_components,
    gen_random,
    write_edgelist,
)
from kconn.hierarchy import Counters

from conftest import naive_runs_same_calls
from oracles import edge_kscc_sets, vertex_kscc_sets


def _report(num, desc, ok):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _small_corpus():
    """2,000 seeded edge sets on n <= 5 plus 500 random graphs on n <= 10."""
    rng = random.Random(0xACC1)
    graphs = []
    for _ in range(2000):
        n = rng.choice([1, 2, 3, 3, 4, 4, 5, 5, 5, 5])
        density = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < density
        ]
        graphs.append(build_graph(n, edges))
    for i in range(500):
        n = rng.randint(2, 10)
        p = rng.choice([0.1, 0.2, 0.35, 0.5])
        graphs.append(gen_random(n, p, 10_000 + i))
    return graphs


def _medium_corpus():
    """300 random graphs (n <= 60, p in {.05, .1, .3}) and 50 chains."""
    graphs = []
    seed = 0
    for n in (15, 30, 45, 60):
        for p in (0.05, 0.1, 0.3):
            for _ in range(25):
                graphs.append(gen_random(n, p, 20_000 + seed))
                seed += 1
    chains = []
    for c in range(2, 12):
        for b in (3, 4, 5, 6, 7):
            chains.append(gen_adversarial_chain(c, b))
    return graphs, chains


@pytest.fixture(scope="module")
def small_corpus():
    return _small_corpus()


@pytest.fixture(scope="module")
def medium_corpus():
    return _medium_corpus()


def test_criterion_1_oracle_equivalence_small(small_corpus):
    from kconn.oracle import brute_force_kscc

    checked = naive = 0
    for g in small_corpus:
        for mode in ("edge", "vertex"):
            fast = kscc(g, 2, mode)
            brute = brute_force_kscc(g, 2, mode)
            assert fast == brute, (g.n, g.edge_list, mode)
            checked += 1
            if not naive_runs_same_calls(g, 2, mode):
                assert naive_kscc(g, 2, mode) == fast, (g.n, g.edge_list, mode)
                naive += 1
    _report(1, f"kscc == brute force on {checked} small instances, "
               f"== naive on the {naive} where they differ in code", True)


def test_criterion_2_oracle_equivalence_medium(medium_corpus):
    randoms, chains = medium_corpus
    checked = 0
    for g in randoms + chains:
        for k in (2, 3, 4):
            for mode in ("edge", "vertex"):
                if naive_runs_same_calls(g, k, mode):
                    continue
                a = kscc(g, k, mode)
                b = naive_kscc(g, k, mode)
                assert a.digest() == b.digest(), (g.n, g.m, k, mode)
                checked += 1
    _report(2, f"kscc == naive (byte-equal digests) on {checked} medium runs", True)


def test_criterion_2_independent_oracles(medium_corpus):
    # the oracles of tests/oracles.py share no code with kscc; they run on
    # every chain and every random graph with n <= 30
    randoms, chains = medium_corpus
    checked = 0
    for g in [g for g in randoms if g.n <= 30] + chains:
        for k in (2, 3, 4):
            for mode, oracle in (("edge", edge_kscc_sets), ("vertex", vertex_kscc_sets)):
                got = [c.vertices for c in kscc(g, k, mode).components]
                assert got == oracle(g.n, g.edge_list, k), (g.n, g.m, k, mode)
                checked += 1
    _report(2, f"kscc == independent oracles on {checked} medium runs", True)


def test_criterion_3_sparse_equality(small_corpus, medium_corpus):
    randoms, chains = medium_corpus
    checked = 0
    for g in small_corpus:
        assert two_escc_sparse(g) == kscc(g, 2, "edge"), g.edge_list
        checked += 1
    for g in randoms + chains:
        assert two_escc_sparse(g) == kscc(g, 2, "edge"), (g.n, g.m)
        checked += 1
    rng = random.Random(0xACC3)
    pre_expanded = [constant_degree_transform(g)[0] for g in rng.sample(randoms, 50)]
    pre_expanded += [constant_degree_transform(g)[0] for g in chains]
    for g in pre_expanded:
        assert two_escc_sparse(g) == kscc(g, 2, "edge"), (g.n, g.m)
        checked += 1
    _report(3, f"two_escc_sparse == kscc(2, edge) on {checked} instances "
               "(corpora 1-2 plus pre-expanded graphs)", True)


def test_criterion_4_structural_invariants(medium_corpus):
    # the driver enforces, on every run with validation enabled: the
    # first-success size bound, non-empty complements, the isolation check on
    # every split, and Menger sampling of cross pairs on instances n <= 40;
    # any violation raises InvariantViolation
    randoms, chains = medium_corpus
    small_enough = [g for g in randoms if g.n <= 40] + chains
    runs = 0
    for g in small_enough:
        for k in (2, 3):
            for mode in ("edge", "vertex"):
                kscc(g, k, mode, validate=True)
                runs += 1
                if not naive_runs_same_calls(g, k, mode):
                    naive_kscc(g, k, mode, validate=True)
                    runs += 1
    _report(4, f"zero invariant violations across {runs} validated runs", True)


def test_criterion_5_degree_transform_fidelity():
    rng = random.Random(0xACC5)
    for i in range(200):
        n = rng.randint(4, 28)
        p = rng.choice([0.1, 0.2, 0.35, 0.5])
        g = gen_random(n, p, 50_000 + i)
        t, mapping = constant_degree_transform(g)
        if t.n:
            assert max(len(a) for a in t.in_adj) <= 3
            assert max(len(a) for a in t.out_adj) <= 3
        direct = kscc(g, 2, "edge")
        lifted = project_components(mapping, kscc(t, 2, "edge"))
        assert direct == lifted, (n, p, i)
    _report(5, "projected 2eSCCs of 200 transformed graphs match, degrees <= 3", True)


def test_criterion_6_blocks_vs_components():
    rng = random.Random(0xACC6)
    for i in range(50):
        n = rng.randint(3, 11)
        p = rng.choice([0.15, 0.3, 0.5])
        base = gen_random(n, p, 60_000 + i)
        aug = gen_blocks_vs_components(base)
        for u, v in itertools.combinations(range(n), 2):
            assert pairwise_k_connected(aug, u, v, 2, "edge")
        orig = [c.vertices for c in kscc(base, 2, "edge").components]
        full = [c.vertices for c in kscc(aug, 2, "edge").components]
        want = sorted(orig + [(x,) for x in range(n, n + 4)])
        assert full == want, (n, p, i)
    _report(6, "50 augmented graphs: all original pairs 2-edge-connected, "
               "2eSCCs preserved plus four singletons", True)


def test_criterion_7_work_counter_trend():
    sizes = (200, 400, 800)
    totals = {n: [] for n in sizes}
    for seed in range(5):
        for n in sizes:
            g = gen_random(n, 0.5, 70_000 + seed)
            for mode in ("edge", "vertex"):
                counters = Counters()
                kscc(g, 2, mode, counters=counters)
                assert counters.level_edges <= 64 * n * n, (n, mode, seed)
                totals[n].append(counters.level_edges)
    avg = {n: sum(v) / len(v) for n, v in totals.items()}
    r1 = avg[400] / avg[200]
    r2 = avg[800] / avg[400]
    ok = r1 <= 5 and r2 <= 5
    _report(7, "level-search counter <= 64*n^2 and doubling ratios "
               f"{r1:.2f}, {r2:.2f} <= 5 (empirical evidence, not a proof)", ok)


def test_criterion_8_determinism(tmp_path, capsys):
    g = gen_random(25, 0.15, 0xD37)
    path = tmp_path / "g.txt"
    path.write_text(write_edgelist(g))
    invocations = [
        ["scc", str(path)],
        ["kescc", str(path), "--format", "json"],
        ["kvscc", str(path), "--format", "json"],
        ["sparse2e", str(path)],
        ["oracle", str(path), "--mode", "vertex"],
        ["gen", "random", "--n", "12", "--p", "0.3", "--seed", "7"],
        ["gen", "chain", "--blocks", "3", "--block-size", "4"],
    ]
    for argv in invocations:
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv
    config = {
        "algorithms": ["kscc", "naive"],
        "generator": {"kind": "random", "p": 0.2},
        "sizes": [20],
        "seeds": [0, 1],
    }
    digests = []
    for _ in range(2):
        reports = bench_run(json.loads(json.dumps(config)))
        digests.append([r.digest for r in reports])
    assert digests[0] == digests[1]
    _report(8, "repeated CLI invocations byte-identical; bench digests stable", True)
