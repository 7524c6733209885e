"""Benchmark harness: generates instances, runs the requested algorithms,
and cross-checks result digests."""

import time
from dataclasses import dataclass

from . import kernels
from .errors import BenchMismatch, GraphError
from .graphio import gen_adversarial_chain, gen_random
from .hierarchy import Counters, kscc
from .local2e import two_escc_sparse
from .oracle import naive_kscc

__all__ = ["RunReport", "run_algorithm", "bench_run"]

ALGORITHMS = ("kscc", "naive", "sparse2e")


def _naturals(v):
    return isinstance(v, list) and all(type(x) is int and x >= 0 for x in v)


# key -> (test of a given value, what the value must be)
CONFIG_KEYS = {
    "algorithms": (lambda v: isinstance(v, list), "a list of algorithm names"),
    "generator": (lambda v: isinstance(v, dict), "an object"),
    "sizes": (_naturals, "a list of integers >= 0"),
    "seeds": (_naturals, "a list of integers >= 0"),
    "k": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),
    "mode": (lambda v: v in ("edge", "vertex"), '"edge" or "vertex"'),
    "validate": (lambda v: isinstance(v, bool), "true or false"),
}

# the same for the keys of the generator object
GENERATOR_KEYS = {
    "kind": (lambda v: v in ("random", "chain"), '"random" or "chain"'),
    "p": (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
    "block_size": (lambda v: type(v) is int and v >= 3, "an integer >= 3"),
}


def _check_keys(obj, table, where):
    """Raise GraphError naming the first key of ``obj`` that ``table`` refuses."""
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise GraphError(f"unknown {where} keys {unknown}; expected some of {list(table)}")
    for key, value in obj.items():
        valid, want = table[key]
        if not valid(value):
            raise GraphError(f"{where} key {key!r} must be {want}, not {value!r}")


@dataclass
class RunReport:
    algorithm: str
    backend: str
    n: int
    m: int
    k: int
    mode: str
    seed: object
    wall_time_s: float
    counters: dict
    levels: dict
    digest: str
    instance: str

    def as_dict(self):
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "mode": self.mode,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "counters": self.counters,
            "levels": self.levels,
            "digest": self.digest,
            "instance": self.instance,
        }


def _level_summary(trace):
    """Per-level attempt counts plus split/component tallies."""
    out = {"attempts_by_level": {}, "splits": 0, "components": 0}
    for ev in trace:
        if ev["event"] == "level":
            key = str(ev["i"])
            out["attempts_by_level"][key] = out["attempts_by_level"].get(key, 0) + 1
        elif ev["event"] == "split":
            out["splits"] += 1
        elif ev["event"] == "component":
            out["components"] += 1
    return out


def run_algorithm(name, g, k, mode, validate=True):
    """Run one named algorithm, returning (ComponentSet, Counters, trace)."""
    counters = Counters()
    trace = []
    if name == "kscc":
        cs = kscc(g, k, mode, validate=validate, counters=counters, trace=trace)
    elif name == "naive":
        cs = naive_kscc(g, k, mode, validate=validate, counters=counters, trace=trace)
    elif name == "sparse2e":
        if mode != "edge" or k != 2:
            raise GraphError("sparse2e only computes 2-edge components")
        cs = two_escc_sparse(g, counters=counters, trace=trace)
    else:
        raise GraphError(f"unknown algorithm {name!r}")
    return cs, counters, trace


def _make_instance(generator, size, seed):
    if generator.get("kind", "random") == "random":
        p = generator.get("p", 0.1)
        return gen_random(size, p, seed), f"random(n={size},p={p},seed={seed})"
    b = generator.get("block_size", 4)
    return gen_adversarial_chain(size, b), f"chain(blocks={size},b={b})"


def bench_run(config):
    """Run the configured algorithm/instance matrix; returns RunReports.

    Digests of all algorithms on one instance must agree; a mismatch raises
    BenchMismatch naming the instance and seed.  Unknown config keys and
    values of the wrong type or range raise GraphError, in the config and in
    its generator object alike.
    """
    _check_keys(config, CONFIG_KEYS, "bench config")
    generator = config.get("generator", {"kind": "random", "p": 0.1})
    _check_keys(generator, GENERATOR_KEYS, "bench config generator")
    algorithms = list(config.get("algorithms", []))
    if not algorithms:
        return []
    for a in algorithms:
        if a not in ALGORITHMS:
            raise GraphError(f"unknown algorithm {a!r}")
    k = config.get("k", 2)
    mode = config.get("mode", "edge")
    sizes = config.get("sizes", [30])
    seeds = config.get("seeds", [0])
    validate = config.get("validate", True)
    reports = []
    for size in sizes:
        for seed in seeds:
            g, label = _make_instance(generator, size, seed)
            digests = {}
            for name in algorithms:
                t0 = time.perf_counter()
                cs, counters, trace = run_algorithm(name, g, k, mode, validate=validate)
                dt = time.perf_counter() - t0
                digest = cs.digest()
                digests[name] = digest
                reports.append(
                    RunReport(
                        algorithm=name,
                        backend=kernels.backend(),
                        n=g.n,
                        m=g.m,
                        k=k,
                        mode=mode,
                        seed=seed,
                        wall_time_s=dt,
                        counters=counters.as_dict(),
                        levels=_level_summary(trace),
                        digest=digest,
                        instance=label,
                    )
                )
            if len(set(digests.values())) > 1:
                raise BenchMismatch(
                    f"digest mismatch on {label} (seed {seed}): {digests}"
                )
    return reports
