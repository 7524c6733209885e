"""Graph file parsing and serialization, component emission, and the
instance generators."""

import json
from dataclasses import replace

from .errors import GraphError, ParseError
from .graph import Graph

__all__ = [
    "parse_graph",
    "parse_graph_text",
    "write_edgelist",
    "emit_components",
    "gen_random",
    "gen_adversarial_chain",
    "gen_blocks_vs_components",
]


def parse_graph(path, fmt="auto"):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read(), fmt)


def parse_graph_text(text, fmt="auto"):
    """Parse an edgelist ("n m" then "u v" lines, 0-based) or DIMACS
    ("p ..." then "a u v" lines, 1-based) graph description."""
    lines = text.splitlines()
    if fmt == "auto":
        fmt = "edgelist"
        for raw in lines:
            s = raw.strip()
            if not s:
                continue
            if s[0] in "pc" and not s[0].isdigit():
                fmt = "dimacs"
            break
    if fmt == "edgelist":
        return _parse_edgelist(lines)
    if fmt == "dimacs":
        return _parse_dimacs(lines)
    raise ParseError(f"unknown format {fmt!r}")


def _checked_add(n, edges, seen, u, v, lineno):
    """Append edge (u, v) after the checks that ``Graph`` would repeat."""
    if u == v:
        raise ParseError(f"self-loop ({u}, {v})", lineno)
    if (u, v) in seen:
        raise ParseError(f"duplicate edge ({u}, {v})", lineno)
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"vertex out of range in edge ({u}, {v})", lineno)
    seen.add((u, v))
    edges.append((u, v))


def _parse_edgelist(lines):
    n = None
    m_expected = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if n is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", lineno)
            try:
                n, m_expected = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("expected integer header 'n m'", lineno)
            if n < 0 or m_expected < 0:
                raise ParseError("negative header values", lineno)
            continue
        if len(parts) != 2:
            raise ParseError("expected edge line 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("expected integer edge 'u v'", lineno)
        _checked_add(n, edges, seen, u, v, lineno)
    if n is None:
        raise ParseError("empty input", None)
    if len(edges) != m_expected:
        raise ParseError(f"expected {m_expected} edges, found {len(edges)}", None)
    return Graph.from_checked(n, edges, seen)


def _parse_dimacs(lines):
    n = None
    m_expected = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        parts = s.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) < 3:
                raise ParseError("malformed problem line", lineno)
            try:
                n, m_expected = int(parts[-2]), int(parts[-1])
            except ValueError:
                raise ParseError("malformed problem line", lineno)
            if n < 0 or m_expected < 0:
                raise ParseError("negative problem line values", lineno)
            continue
        if parts[0] == "a":
            if n is None:
                raise ParseError("arc before problem line", lineno)
            if len(parts) != 3:
                raise ParseError("expected arc line 'a u v'", lineno)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError("expected integer arc 'a u v'", lineno)
            _checked_add(n, edges, seen, u, v, lineno)
            continue
        raise ParseError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing problem line", None)
    if len(edges) != m_expected:
        raise ParseError(f"expected {m_expected} arcs, found {len(edges)}", None)
    return Graph.from_checked(n, edges, seen)


def write_edgelist(g):
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for (u, v) in g.edge_list)
    return "\n".join(out) + "\n"


def emit_components(cs, fmt="text", suppress_degenerate=False):
    """Stable text or JSON rendering of a ComponentSet.

    Text: one component per line, vertices sorted; vertex mode appends the
    edge list and a degenerate marker.  Output is byte-identical across runs
    for equal component sets.
    """
    comps = cs.components
    if suppress_degenerate and cs.mode == "vertex":
        comps = [c for c in comps if not c.degenerate]
    if fmt == "json":
        data = replace(cs, components=comps).canonical()
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt != "text":
        raise GraphError(f"unknown output format {fmt!r}")
    lines = []
    for c in comps:
        vs = " ".join(str(v) for v in c.vertices)
        if cs.mode == "vertex":
            es = " ".join(f"{u}>{v}" for (u, v) in c.edges)
            line = f"{vs} : {es}"
            if c.degenerate:
                line += " (degenerate)"
            lines.append(line)
        else:
            lines.append(vs)
    return "\n".join(lines) + ("\n" if lines else "")


def gen_random(n, p, seed):
    """G(n, p) digraph: each ordered pair independently with probability p.

    numpy's PCG64 stream fixes the graph for each seed, so numpy is imported
    here, and only here.
    """
    import numpy as np

    if n < 0:
        raise GraphError("n must be non-negative")
    if not 0 <= p <= 1:
        raise GraphError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    if n == 0:
        return Graph(0, [])
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    us, vs = np.nonzero(mask)
    return Graph(n, list(zip(us.tolist(), vs.tolist())))


def gen_adversarial_chain(c, b):
    """c bidirectional b-cliques chained through shared cut vertices.

    Consecutive cliques share exactly one vertex, which forces a linear
    number of recursion splits in vertex mode.
    """
    if c < 2 or b < 3:
        raise GraphError("need c >= 2 blocks of size b >= 3")
    edges = []
    start = 0
    for _ in range(c):
        block = list(range(start, start + b))
        for u in block:
            for v in block:
                if u != v:
                    edges.append((u, v))
        start += b - 1
    return Graph(start + 1, edges)


def gen_blocks_vs_components(g):
    """Augmentation making every original pair 2-edge-connected through the
    whole graph while leaving the 2eSCCs unchanged (plus four singletons).

    Adds s1, t1, s2, t2 (ids n..n+3) with bridges (s1,t1), (s2,t2) and, for
    every original vertex v, edges (v,s1), (v,s2), (t1,v), (t2,v).
    """
    n = g.n
    s1, t1, s2, t2 = n, n + 1, n + 2, n + 3
    edges = list(g.edge_list)
    edges.append((s1, t1))
    edges.append((s2, t2))
    for v in range(n):
        edges.append((v, s1))
        edges.append((v, s2))
        edges.append((t1, v))
        edges.append((t2, v))
    return Graph(n + 4, edges)
