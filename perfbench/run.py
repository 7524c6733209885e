"""kconn benchmark: the ``kconn`` CLI on generated random graphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Each workload runs one CLI
subcommand (``kconn.cli.main(argv)``, stdout captured) in this process, one
instance at a time: a closed loop with one client.  Instances come from a
pool of graphs whose input and output digests are pinned in
``perfbench/reference.json`` (regenerate with ``perfbench/pin.py``); the seed
picks the order in which the run walks the pool, and every output is checked
against its pinned digest.

``--trace 0`` solves instances for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` solves a fixed number of instances twice, untraced
and then with every layer function wrapped by ``tracer.Tracer``, and reports
per-layer self time, call counts and work counts.  Solve and layer times are
in reference seconds, which cancel most of the host's CPU-speed drift (see
``RefClock``); ``setup_s`` is in CPU seconds (see ``start_up``).
``--smoke`` runs the same code on tiny graphs.  The last line of stdout is
the result object; the line before it is a report with the environment and
the sample counts.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from tracer import EXTRAS, LAYER_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    argv: tuple           # subcommand and flags; the graph path follows
    n: int                # G(n, p) size, or the largest block size
    p: float
    trace_instances: int  # instances solved in each pass of a traced run
    blocks: int = 1       # G(n_j, p) blocks, n_j drawn from [n/2, n]
    links: int = 0        # arcs from each block to the next, in a ring


# Why each workload is here is recorded in BENCHMARK.json.  Dense and flow
# graphs are rings of blocks, so that their answers (the blocks) differ from
# graph to graph instead of being the whole graph every time.
WORKLOADS = {
    "dense-2edge": Workload(("kescc", "--k", "2"), 75, 0.5, 8, blocks=3, links=1),
    "sparse-2vertex": Workload(("kvscc", "--k", "2"), 220, 0.018, 8),
    "sparse-2edge-local": Workload(("sparse2e",), 200, 0.0225, 8),
    "flow-3edge": Workload(("kescc", "--k", "3"), 60, 0.2, 8, blocks=3, links=2),
}
SMOKE_SIZES = {
    "dense-2edge": (12, 0.6),
    "sparse-2vertex": (40, 0.1),
    "sparse-2edge-local": (40, 0.12),
    "flow-3edge": (12, 0.6),
}
POOL = 16
SMOKE_POOL = 4
SETUP_REPS = 25
# probe() on an uncontended 2.0 GHz Xeon core; solve and layer times are
# reported in seconds at that speed (see RefClock).
PROBE_REF_S = 0.025

# A 6-vertex graph for warm-up solves.
TINY_GRAPH = "6 10\n0 1\n1 2\n2 0\n1 0\n2 1\n0 2\n2 3\n3 4\n4 5\n5 3\n"

END_TO_END = (
    ("solve_p50_s", "s"),
    ("edges_per_s", "edges/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run or cannot judge the outputs."""


def workloads(smoke):
    if not smoke:
        return WORKLOADS
    return {name: replace(w, n=SMOKE_SIZES[name][0], p=SMOKE_SIZES[name][1], trace_instances=2)
            for name, w in WORKLOADS.items()}


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports, in output order."""
    out = []
    for layer in LAYER_NAMES:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
        if layer in EXTRAS:
            out.append((f"{layer}.{EXTRAS[layer][0]}", "count"))
    out += [
        ("hierarchy.level_hit_ratio", "ratio"),
        ("local2e.local_hit_ratio", "ratio"),
        ("hierarchy.splits", "count"),
        ("hierarchy.level_edges", "count"),
        ("hierarchy.whole_edges", "count"),
        ("hierarchy.flow_augmentations", "count"),
        ("local2e.ball_edges", "count"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    return out


# --- inputs -------------------------------------------------------------------


def pool_graph(w, i):
    """Pool graph i of workload w, a ``kconn.graph.Graph`` (after ``load_cli``).

    One block is ``gen_random(n, p, i)``.  With several, block j is
    ``gen_random(n_j, p, [i, j])`` and block j has ``links`` arcs, between
    random ends, to block j + 1 (mod blocks).
    """
    from kconn.graph import Graph
    from kconn.graphio import gen_random

    if w.blocks == 1:
        return gen_random(w.n, w.p, i)
    rng = np.random.default_rng([i, w.blocks])
    sizes = rng.integers(w.n // 2, w.n + 1, w.blocks).tolist()
    starts = np.cumsum([0] + sizes).tolist()
    edges = []
    for j, size in enumerate(sizes):
        block = gen_random(size, w.p, [i, j])
        edges += [(u + starts[j], v + starts[j]) for u, v in block.edge_list]
    for j, size in enumerate(sizes):
        k = (j + 1) % w.blocks
        for _ in range(w.links):
            edges.append((starts[j] + int(rng.integers(size)),
                          starts[k] + int(rng.integers(sizes[k]))))
    return Graph(starts[-1], list(dict.fromkeys(edges)))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def write_pool(w, pool, tmp):
    """Write pool graph i as ``tmp/g<i>.txt``.

    Returns [(path, edge count, input digest)] in pool order.
    """
    from kconn.graphio import write_edgelist

    out = []
    for i in range(pool):
        g = pool_graph(w, i)
        text = write_edgelist(g)
        path = tmp / f"g{i}.txt"
        path.write_text(text)
        out.append((str(path), g.m, sha256(text)))
    return out


# --- the program under test ---------------------------------------------------


def load_cli():
    """Import ``kconn.cli`` from this checkout's ``src``."""
    if not (SRC / "kconn" / "__init__.py").is_file():
        raise BenchError(f"no kconn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kconn
    from kconn import cli

    if SRC.resolve() not in Path(kconn.__file__).resolve().parents:
        raise BenchError(f"kconn was imported from {kconn.__file__}, not {SRC}")
    return cli


def probe():
    """Seconds taken by a fixed pure-Python loop of about 25 ms."""
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(150_000):
        d[i & 1023] = i
        s += d.get((i * 7) & 1023, 0)
    return time.perf_counter() - t0


class RefClock:
    """Times calls in reference seconds: wall seconds scaled to the speed at
    which ``probe`` takes ``PROBE_REF_S``.

    On a shared host the CPU speed drifts by a third or more over seconds to
    minutes, with no steal time to show it: the same flow-3edge pool gave a
    median of 0.80 s in one batch of runs and 0.53 s twenty minutes later.
    The probe runs before and after every timed call, and dividing by the
    mean of the two cancels most of that drift (run-to-run spread 0.21 ->
    0.04 on those runs).
    """

    def __init__(self):
        self.probes = [probe()]

    def time(self, fn):
        """Returns (fn(), wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        self.probes.append(probe())
        speed = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        return res, dt, dt * speed


def solve(cli, argv):
    """One CLI call; returns (exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash fails this instance, not the run
            rc = repr(exc)
    return rc, out.getvalue(), err.getvalue()


def start_up(w, tiny):
    """CPU seconds (user + system) and wall seconds that one fresh process
    takes to import kconn and solve ``tiny``.

    CPU time is what ``setup_s`` reports: numpy's import starts threads, so
    the wall time of a start-up depends on what the other core is doing, and
    the probe of ``RefClock``, which times one core, does not correct it.  On
    a 2-core shared host the median of 25 start-ups ranged 6% in CPU time
    and 17% in wall time over six batches.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from kconn import cli; sys.exit(cli.main(sys.argv[2:]))")
    cmd = [sys.executable, "-c", code, str(SRC), *w.argv, str(tiny)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120, check=False)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.decode()[-500:]}")
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime, wall


def environment(cli):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "backend": cli.kernels.backend(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }


def commit():
    """HEAD of the checkout's git metadata, read from files; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- runs ---------------------------------------------------------------------


class Instances:
    """The pool of one workload, walked in the order the seed picks."""

    def __init__(self, cli, name, w, smoke, seed, tmp):
        pool = SMOKE_POOL if smoke else POOL
        ref = json.loads(REFERENCE.read_text())["smoke" if smoke else "full"].get(name)
        shape = [w.n, w.p, w.blocks, w.links]
        if ref is None or [ref.get(k) for k in ("n", "p", "blocks", "links")] != shape \
                or len(ref["outputs"]) != pool:
            raise BenchError(f"{REFERENCE.name} does not match {name}; rerun pin.py")
        self.cli = cli
        self.w = w
        self.argv = list(w.argv)
        self.tiny = tmp / "tiny.txt"
        self.tiny.write_text(TINY_GRAPH)
        self.files = write_pool(w, pool, tmp)
        if [f[2] for f in self.files] != ref["inputs"]:
            raise BenchError(f"generated {name} graphs differ from the pinned inputs")
        self.expected = ref["outputs"]
        self.order = random.Random(seed).sample(range(pool), pool)
        self.clock = RefClock()
        self.attempted = 0
        self.failed = 0

    def at(self, j):
        return self.order[j % len(self.order)]

    def run(self, i, extra=()):
        """Solve pool instance i; returns (seconds, reference seconds, edges, stderr)."""
        path, m, _ = self.files[i]
        gc.collect()
        (rc, out, err), dt, dt_ref = self.clock.time(
            lambda: solve(self.cli, self.argv + [path, *extra]))
        self.attempted += 1
        if rc != 0 or sha256(out) != self.expected[i]:
            self.failed += 1
            print(f"instance {i} failed: exit {rc}, {err[-300:]!r}", file=sys.stderr)
        return dt, dt_ref, m, err


def hd_median(xs):
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) distribution.  With one or two noisy
    samples per instance it moves far less from run to run than the middle
    one or two values do.
    """
    xs = np.sort(xs)
    a = (len(xs) + 1) / 2
    grid = np.linspace(0.0, 1.0, 4097)
    pdf = (grid * (1 - grid)) ** (a - 1)
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(len(xs) + 1) / len(xs), grid, cdf))
    return float(np.dot(weights, xs))


def run_untraced(inst, seconds, start_ups):
    """Solve instances for ``seconds`` of solve time, and each at least once.

    Instances solved more than once count once, with their mean time, so a
    run's figures cover the same graphs whatever the seed.  Half of the
    ``start_ups`` are timed before the solves and half after, so that they
    sample the host's speed at both ends of the run; timed between solves,
    they made the solve times noisier.
    """
    ups = [start_up(inst.w, inst.tiny) for _ in range(start_ups // 2)]
    inst.clock.probes.append(probe())  # the first solve's "before" probe
    raw, per = [], {}
    solving = 0.0
    j = 0
    while j < len(inst.order) or solving < seconds:
        i = inst.at(j)
        dt, dt_ref, _, _ = inst.run(i)
        solving += dt
        raw.append(dt)
        per.setdefault(i, []).append(dt_ref)
        j += 1
    ups += [start_up(inst.w, inst.tiny) for _ in range(start_ups - len(ups))]
    mean = {i: statistics.fmean(ts) for i, ts in per.items()}
    summary = {"samples": len(raw), "instances": len(mean),
               "solve_p50_raw_s": statistics.median(raw),
               "probe_p50_s": statistics.median(inst.clock.probes),
               "setup_samples": len(ups),
               "setup_wall_p50_s": statistics.median(wall for _, wall in ups)}
    metrics = {
        "setup_s": statistics.median(cpu for cpu, _ in ups),
        "solve_p50_s": hd_median(list(mean.values())),
        "edges_per_s": sum(inst.files[i][1] for i in mean) / sum(mean.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, summary


def run_traced(inst, count):
    """Solve pool instances 0 .. count-1 untraced, then traced.

    The seed picks only their order, so work counts repeat across seeds.
    Layer self times are scaled to reference seconds per instance, as the
    solve times are.
    """
    picks = [i for i in inst.order if i < count]
    untraced_ref = sum(inst.run(i)[1] for i in picks)
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
    counters = {}
    traced_ref = 0.0
    with Tracer() as tr:
        for i in picks:
            dt, dt_ref, _, err = inst.run(i, ["--trace"])
            traced_ref += dt_ref
            for name, agg in tr.take().items():
                layers[name]["self_s"] += agg["self_s"] * dt_ref / dt
                layers[name]["calls"] += agg["calls"]
            for line in err.splitlines():
                ev = json.loads(line)
                if ev.get("event") == "counters":
                    for key, val in ev.items():
                        if key != "event":
                            counters[key] = counters.get(key, 0) + val
        extras = dict(tr.extras)

    def ratio(a, b):
        return a / b if b else 0.0

    values = dict(extras)
    for layer, agg in layers.items():
        values[f"{layer}.self_s"] = agg["self_s"]
        values[f"{layer}.calls"] = agg["calls"]
    for layer, name in (("hierarchy._search_side", "hierarchy.level_hit_ratio"),
                        ("local2e._local_search", "local2e.local_hit_ratio")):
        values[name] = ratio(values.get(f"{layer}.hits", 0), values[f"{layer}.calls"])
    for key in ("splits", "level_edges", "whole_edges", "flow_augmentations"):
        values[f"hierarchy.{key}"] = counters.get(key, 0)
    values["local2e.ball_edges"] = counters.get("bfs_ball_edges", 0)
    values["trace.coverage"] = ratio(sum(a["self_s"] for a in layers.values()), traced_ref)
    values["trace.overhead"] = ratio(traced_ref, untraced_ref) - 1
    metrics = {name: values.get(name, 0) for name, _ in per_layer_metrics()}
    summary = {"samples": count, "traced_ref_s": traced_ref}
    return metrics, summary


def bench(name, seed, seconds, trace, smoke):
    """Run one workload; returns (report, result) dictionaries."""
    cli = load_cli()
    w = workloads(smoke)[name]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        inst = Instances(cli, name, w, smoke, seed, tmp)
        rc, _, err = solve(cli, list(w.argv) + [str(inst.tiny)])  # warm-up, untimed
        if rc != 0:
            raise BenchError(f"warm-up solve failed: exit {rc}, {err[-300:]}")
        if trace:
            metrics, summary = run_traced(inst, w.trace_instances)
            units = dict(per_layer_metrics())
        else:
            metrics, summary = run_untraced(inst, seconds, 2 if smoke else SETUP_REPS)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    report = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke,
              "argv": list(w.argv), "n": w.n, "p": w.p,
              "environment": environment(cli), **summary}
    result = {
        "correct": inst.failed == 0,
        "attempted": inst.attempted,
        "failed": inst.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return report, result


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny graphs, same code path")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        report, result = bench(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
