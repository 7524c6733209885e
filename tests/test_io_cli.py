import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconn import BenchMismatch, GraphError, ParseError, build_graph, kscc
from kconn.bench import bench_run
from kconn.cli import main
from kconn.graphio import (
    emit_components,
    gen_adversarial_chain,
    gen_blocks_vs_components,
    gen_random,
    parse_graph_text,
    write_edgelist,
)
from kconn.oracle import pairwise_k_connected
from kconn.primitives import strong_articulation_points


class TestParse:
    def test_edgelist_c3(self, c3):
        g = parse_graph_text("3 3\n0 1\n1 2\n2 0\n")
        assert g == c3

    def test_dimacs_c3(self, c3):
        g = parse_graph_text("c comment\np sp 3 3\na 1 2\na 2 3\na 3 1\n")
        assert g == c3

    def test_self_loop_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph_text("3 1\n0 0\n")
        assert err.value.line == 2

    def test_duplicate_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph_text("3 2\n0 1\n0 1\n")
        assert err.value.line == 3

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_graph_text("2 1\n0 x\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph_text("3 2\n0 1\n")

    def test_roundtrip_idempotent(self):
        for seed in range(20):
            g = gen_random(9, 0.3, seed)
            text = write_edgelist(g)
            again = parse_graph_text(text)
            assert again == g
            assert write_edgelist(again) == text


class TestEmit:
    def test_edge_mode_text(self, bitri):
        cs = kscc(bitri, 2, "edge")
        assert emit_components(cs) == "0 1 2\n"

    def test_vertex_mode_text(self, bowtie):
        cs = kscc(bowtie, 2, "vertex")
        lines = emit_components(cs).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0 1 2 :")
        assert lines[0].count(">") == 6

    def test_empty_graph(self):
        cs = kscc(build_graph(0, []), 2, "edge")
        assert emit_components(cs) == ""

    def test_json_schema(self, bowtie):
        cs = kscc(bowtie, 2, "vertex")
        data = json.loads(emit_components(cs, "json"))
        assert data["mode"] == "vertex" and data["k"] == 2
        assert [c["vertices"] for c in data["components"]] == [[0, 1, 2], [2, 3, 4]]
        assert all("edges" in c and "degenerate" in c for c in data["components"])

    def test_suppress_degenerate(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        cs = kscc(g, 2, "vertex")
        full = emit_components(cs)
        slim = emit_components(cs, suppress_degenerate=True)
        assert full and not slim

    @given(st.integers(0, 2_000))
    @settings(max_examples=20, deadline=None)
    def test_byte_stable(self, seed):
        g = gen_random(8, 0.3, seed)
        cs = kscc(g, 2, "vertex")
        assert emit_components(cs, "json") == emit_components(kscc(g, 2, "vertex"), "json")


class TestGenerators:
    def test_gen_random_extremes(self, k4b):
        g0 = gen_random(5, 0, 1)
        assert g0.m == 0
        g1 = gen_random(4, 1, 1)
        assert g1 == k4b or sorted(g1.edge_list) == sorted(k4b.edge_list)

    def test_gen_random_deterministic(self):
        assert gen_random(20, 0.3, 9) == gen_random(20, 0.3, 9)

    def test_chain_bowtie(self, bowtie):
        g = gen_adversarial_chain(2, 3)
        assert sorted(g.edge_list) == sorted(bowtie.edge_list)

    def test_chain_articulation_points(self):
        g = gen_adversarial_chain(3, 3)
        assert g.n == 7
        assert strong_articulation_points(g) == [2, 4]

    def test_chain_components(self):
        for c in (2, 3, 4):
            g = gen_adversarial_chain(c, 3)
            cs = kscc(g, 2, "vertex")
            assert len(cs.components) == c

    def test_blocks_augmentation_counts(self, c3):
        g = gen_blocks_vs_components(c3)
        assert g.n == 7
        assert g.m == 17

    def test_blocks_augmentation_semantics(self):
        for seed in range(12):
            base = gen_random(7, 0.3, seed)
            aug = gen_blocks_vs_components(base)
            orig = kscc(base, 2, "edge")
            full = kscc(aug, 2, "edge")
            want = sorted([c.vertices for c in orig.components]
                          + [(v,) for v in range(base.n, base.n + 4)])
            assert [c.vertices for c in full.components] == want
            for u in range(base.n):
                for v in range(base.n):
                    if u != v:
                        assert pairwise_k_connected(aug, u, v, 2, "edge")


class TestCli:
    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_kescc_text(self, tmp_path, capsys):
        path = self._write(tmp_path, "g.txt", "3 3\n0 1\n1 2\n2 0\n")
        assert main(["kescc", path]) == 0
        assert capsys.readouterr().out == "0\n1\n2\n"

    def test_kvscc_json(self, tmp_path, capsys):
        bowtie = "5 12\n0 1\n1 0\n0 2\n2 0\n1 2\n2 1\n2 3\n3 2\n2 4\n4 2\n3 4\n4 3\n"
        path = self._write(tmp_path, "g.txt", bowtie)
        assert main(["kvscc", path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["vertices"] for c in data["components"]] == [[0, 1, 2], [2, 3, 4]]

    def test_scc(self, tmp_path, capsys):
        path = self._write(tmp_path, "g.txt", "3 2\n0 1\n1 2\n")
        assert main(["scc", path]) == 0
        assert capsys.readouterr().out == "0\n1\n2\n"

    def test_sparse2e(self, tmp_path, capsys):
        path = self._write(tmp_path, "g.txt", "3 6\n0 1\n1 0\n0 2\n2 0\n1 2\n2 1\n")
        assert main(["sparse2e", path]) == 0
        assert capsys.readouterr().out == "0 1 2\n"

    def test_oracle_brute(self, tmp_path, capsys):
        path = self._write(tmp_path, "g.txt", "3 3\n0 1\n1 2\n2 0\n")
        assert main(["oracle", path, "--engine", "brute", "--mode", "edge"]) == 0
        assert capsys.readouterr().out == "0\n1\n2\n"

    def test_gen_roundtrip(self, tmp_path, capsys):
        assert main(["gen", "random", "--n", "6", "--p", "0.4", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        g = parse_graph_text(text)
        assert g == gen_random(6, 0.4, 3)

    def test_gen_augment(self, tmp_path, capsys):
        base = self._write(tmp_path, "g.txt", "3 3\n0 1\n1 2\n2 0\n")
        assert main(["gen", "augment", "--input", base]) == 0
        g = parse_graph_text(capsys.readouterr().out)
        assert g.n == 7 and g.m == 17

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.txt", "3 1\n0 0\n")
        assert main(["kescc", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"

    def test_trace_output(self, tmp_path, capsys):
        bowtie = "5 12\n0 1\n1 0\n0 2\n2 0\n1 2\n2 1\n2 3\n3 2\n2 4\n4 2\n3 4\n4 3\n"
        path = self._write(tmp_path, "g.txt", bowtie)
        assert main(["kvscc", path, "--trace"]) == 0
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert any(ev.get("event") == "split" for ev in events)
        assert any(ev.get("event") == "counters" for ev in events)

    def test_trace_streams_before_failure(self, tmp_path, capsys, monkeypatch):
        from kconn import hierarchy

        real = hierarchy._find_isolated
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise GraphError("injected failure")
            return real(*args)

        monkeypatch.setattr(hierarchy, "_find_isolated", failing)
        path = self._write(tmp_path, "g.txt", write_edgelist(gen_random(20, 0.15, 0)))
        assert main(["kvscc", path, "--trace"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [json.loads(line) for line in captured.err.splitlines()]
        assert lines[-1] == {"error": "GraphError", "message": "injected failure"}
        events = [ev["event"] for ev in lines[:-1]]
        assert events[0] == "level" and "split" in events
        assert "counters" not in events

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        path = self._write(tmp_path, "g.txt", write_edgelist(gen_random(15, 0.2, 4)))
        outs = []
        for _ in range(2):
            assert main(["kvscc", path, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestBench:
    def test_empty_algorithms(self):
        assert bench_run({"algorithms": []}) == []

    def test_digest_equality_random(self):
        reports = bench_run({
            "algorithms": ["kscc", "naive", "sparse2e"],
            "generator": {"kind": "random", "p": 0.15},
            "sizes": [14],
            "seeds": [0, 1, 2],
            "k": 2,
            "mode": "edge",
        })
        assert len(reports) == 9
        by_seed = {}
        for r in reports:
            by_seed.setdefault(r.seed, set()).add(r.digest)
        assert all(len(d) == 1 for d in by_seed.values())

    def test_chain_generator(self):
        reports = bench_run({
            "algorithms": ["kscc", "naive"],
            "generator": {"kind": "chain", "block_size": 3},
            "sizes": [3],
            "seeds": [0],
            "k": 2,
            "mode": "vertex",
        })
        assert len(reports) == 2
        assert reports[0].digest == reports[1].digest

    def test_mismatch_detection(self, monkeypatch):
        import kconn.bench as bench_mod

        real = bench_mod.run_algorithm

        def faulty(name, g, k, mode, validate=True):
            cs, counters, trace = real(name, g, k, mode, validate)
            if name == "naive" and cs.components:
                cs.components.pop()
            return cs, counters, trace

        monkeypatch.setattr(bench_mod, "run_algorithm", faulty)
        with pytest.raises(BenchMismatch):
            bench_run({
                "algorithms": ["kscc", "naive"],
                "generator": {"kind": "random", "p": 0.3},
                "sizes": [8],
                "seeds": [5],
                "k": 2,
                "mode": "edge",
            })

    def test_unknown_config_key_rejected(self):
        with pytest.raises(GraphError, match="backends"):
            bench_run({"algorithms": ["kscc"], "backends": ["python"]})

    def test_cli_config_error_exit_code(self, tmp_path, capsys):
        config = {
            "algorithms": ["kscc", "naive", "sparse2e"],
            "generator": {"kind": "random", "p": 0.5},
            "sizes": [200, 400, 800],
            "seeds": [0, 1, 2, 3, 4],
            "k": 2,
            "mode": "edge",
            "backends": ["python"],
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["bench", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "GraphError"
        assert "backends" in err["message"]

    def test_cli_malformed_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["bench", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "GraphError"

    def test_report_backend_field(self):
        reports = bench_run({"algorithms": ["kscc"], "sizes": [8], "seeds": [1]})
        assert [r.as_dict()["backend"] for r in reports] == ["python"]
