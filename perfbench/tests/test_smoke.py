"""Smoke tests: every workload through the benchmark's own code path, on
the tiny graphs of ``--smoke``.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def smoke(capsys, name, trace, seed=3):
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_spec_matches_code():
    assert sorted(NAMES) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run(capsys, name, trace):
    report, result = smoke(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert set(report["environment"]) == {"backend", "python", "numpy", "scipy",
                                          "nproc", "commit"}
    assert tracer.wrapped_bindings() == []
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_across_seeds(capsys):
    counts = []
    for seed in (3, 4):
        _, result = smoke(capsys, "sparse-2vertex", 1, seed)
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["hierarchy.splits"] > 0


def test_tracer_patches_by_value_imports_and_restores():
    run.load_cli()
    from kconn import cli, graph, hierarchy, local2e, primitives

    bindings = [(hierarchy, "top_scc_of"), (local2e, "top_scc_of"),
                (hierarchy, "k_dominator_raw"), (local2e, "k_dominator_raw"),
                (primitives, "build_csr"), (graph, "build_csr"),
                (cli, "parse_graph"), (cli, "emit_components")]
    before = [getattr(m, a) for m, a in bindings]
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert all(getattr(getattr(m, a), "__perfbench_wrapped__", False)
                       for m, a in bindings)
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is fn for (m, a), fn in zip(bindings, before))
    assert tracer.wrapped_bindings() == []


def test_fails_without_the_package(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", NAMES[0], "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
