"""Command-line interface: scc, kescc, kvscc, sparse2e, oracle, gen, bench."""

import argparse
import json
import sys

from . import kernels
from .bench import bench_run
from .errors import BenchMismatch, GraphError, InvariantViolation, ParseError
from .graphio import (
    emit_components,
    gen_adversarial_chain,
    gen_blocks_vs_components,
    gen_random,
    parse_graph,
    write_edgelist,
)
from .hierarchy import Counters, kscc
from .local2e import two_escc_sparse
from .oracle import brute_force_kscc, naive_kscc
from .primitives import scc


def _add_io_args(p):
    p.add_argument("graph", help="input graph file")
    p.add_argument("--input-format", choices=["auto", "edgelist", "dimacs"], default="auto")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--trace", action="store_true", help="emit trace events on stderr")
    p.add_argument("--suppress-degenerate", action="store_true",
                   help="drop degenerate vertex-mode components from the output")


def build_parser():
    ap = argparse.ArgumentParser(prog="kconn",
                                 description="directed-graph k-connectivity toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scc", help="strongly connected components")
    _add_io_args(p)

    p = sub.add_parser("kescc", help="k-edge strongly connected components")
    _add_io_args(p)
    p.add_argument("--k", type=int, default=2)

    p = sub.add_parser("kvscc", help="k-vertex strongly connected components")
    _add_io_args(p)
    p.add_argument("--k", type=int, default=2)

    p = sub.add_parser("sparse2e", help="2-edge components via local search")
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, default=0.5)

    p = sub.add_parser("oracle", help="baseline algorithms")
    _add_io_args(p)
    p.add_argument("--engine", choices=["naive", "brute"], default="naive")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=["edge", "vertex"], default="edge")

    p = sub.add_parser("gen", help="instance generators")
    p.add_argument("kind", choices=["random", "chain", "augment"])
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=3)
    p.add_argument("--block-size", type=int, default=4)
    p.add_argument("--input", help="base graph for the augment generator")
    p.add_argument("--input-format", choices=["auto", "edgelist", "dimacs"], default="auto")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("bench", help="benchmark harness")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="report file (default stdout)")
    return ap


def _print_trace(trace):
    for ev in trace:
        print(json.dumps(ev, sort_keys=True), file=sys.stderr)


def _run_components(args, compute):
    g = parse_graph(args.graph, args.input_format)
    trace = [] if args.trace else None
    counters = Counters()
    cs = compute(g, trace, counters)
    if trace is not None:
        trace.append({"event": "counters", **counters.as_dict()})
        _print_trace(trace)
    sys.stdout.write(
        emit_components(cs, args.format, getattr(args, "suppress_degenerate", False))
    )
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scc":
            g = parse_graph(args.graph, args.input_format)
            parts = scc(g)
            if args.format == "json":
                data = {"components": [list(c) for c in parts.components],
                        "is_top": list(parts.is_top), "is_bottom": list(parts.is_bottom)}
                sys.stdout.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
            else:
                for c in parts.components:
                    sys.stdout.write(" ".join(map(str, c)) + "\n")
            return 0
        if args.command == "kescc":
            return _run_components(
                args, lambda g, t, c: kscc(g, args.k, "edge", trace=t, counters=c)
            )
        if args.command == "kvscc":
            return _run_components(
                args, lambda g, t, c: kscc(g, args.k, "vertex", trace=t, counters=c)
            )
        if args.command == "sparse2e":
            return _run_components(
                args,
                lambda g, t, c: two_escc_sparse(g, epsilon=args.epsilon, trace=t, counters=c),
            )
        if args.command == "oracle":
            if args.engine == "brute":
                return _run_components(
                    args, lambda g, t, c: brute_force_kscc(g, args.k, args.mode)
                )
            return _run_components(
                args, lambda g, t, c: naive_kscc(g, args.k, args.mode, trace=t, counters=c)
            )
        if args.command == "gen":
            if args.kind == "random":
                g = gen_random(args.n, args.p, args.seed)
            elif args.kind == "chain":
                g = gen_adversarial_chain(args.blocks, args.block_size)
            else:
                if not args.input:
                    raise GraphError("augment requires --input")
                g = gen_blocks_vs_components(parse_graph(args.input, args.input_format))
            text = write_edgelist(g)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        if args.command == "bench":
            if args.config:
                with open(args.config, "r", encoding="utf-8") as fh:
                    try:
                        config = json.load(fh)
                    except json.JSONDecodeError as exc:
                        raise GraphError(f"bench config {args.config}: {exc}") from exc
                if not isinstance(config, dict):
                    raise GraphError(f"bench config {args.config} is not a JSON object")
            else:
                config = {"algorithms": ["kscc", "naive"]}
            reports = bench_run(config)
            payload = json.dumps(
                {"backend_default": kernels.backend(),
                 "reports": [r.as_dict() for r in reports]},
                sort_keys=True, indent=2,
            ) + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            else:
                sys.stdout.write(payload)
            return 0
        raise GraphError(f"unknown command {args.command!r}")
    except (GraphError, ParseError, InvariantViolation, BenchMismatch, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
