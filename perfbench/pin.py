"""Pin the benchmark's reference digests into ``perfbench/reference.json``.

    python3 perfbench/pin.py

Solves every pool graph of every workload (full and smoke sizes) with the
checkout's kconn and records the input and output digests.  The
``sparse-2edge-local`` reference is the output of ``kescc --k 2`` on the same
graph, an independent algorithm for the same 2-edge components; an instance
where ``sparse2e`` disagrees with it is listed under ``sparse2e_mismatches``
and fails every run that reaches it.

A pool whose answers are all the same, or all singletons, could not tell a
wrong answer from a right one, so it is refused and nothing is written.
"""

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def pin(cli, name, w, pool, tmp):
    files = run.write_pool(w, pool, tmp)
    ref_argv = ["kescc", "--k", "2"] if name == "sparse-2edge-local" else list(w.argv)
    outputs, mismatches, largest = [], [], []
    for i, (path, _, _) in enumerate(files):
        rc, out, err = run.solve(cli, ref_argv + [path])
        if rc != 0:
            raise run.BenchError(f"{name} pool graph {i}: exit {rc}, {err[-300:]}")
        outputs.append(run.sha256(out))
        largest.append(max((len(line.split(":")[0].split()) for line in out.splitlines()),
                           default=0))
        if ref_argv != list(w.argv):
            rc, own, _ = run.solve(cli, list(w.argv) + [path])
            if rc != 0 or own != out:
                mismatches.append(i)
    if len(set(outputs)) == 1 or max(largest) <= 1:
        raise run.BenchError(f"{name}: every pool graph has the same answer, or only "
                             f"singletons (largest components {largest})")
    entry = {"argv": list(w.argv), "n": w.n, "p": w.p, "blocks": w.blocks, "links": w.links,
             "inputs": [f[2] for f in files], "outputs": outputs,
             "largest_components": largest}
    return entry, mismatches


def main():
    cli = run.load_cli()
    ref = {"sparse2e_mismatches": {}}
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
    try:
        for key, smoke, pool in (("full", False, run.POOL), ("smoke", True, run.SMOKE_POOL)):
            ref[key] = {}
            for name, w in run.workloads(smoke).items():
                ref[key][name], bad = pin(cli, name, w, pool, tmp)
                msg = f"{key} {name}: {pool} graphs pinned"
                if name == "sparse-2edge-local":
                    ref["sparse2e_mismatches"][key] = bad
                    msg += f", sparse2e mismatches: {bad}"
                print(msg, file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
