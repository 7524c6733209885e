"""Outside-in span tracer for the kconn layers.

``Tracer`` replaces the module-level functions and ``WorkGraph`` methods
listed in ``LAYERS`` with wrappers that record one span (name, start, end,
parent) per call, and puts every original back on exit.  A function that
another kconn module imported by value (``from .primitives import
top_scc_of``) is bound in that module too, so each such binding is patched
and restored as well.  Nothing in the package itself is edited.
"""

import functools
import sys
import time

# (layer metric name, defining module, attribute).  Several functions may
# share one name: every reach variant counts as ``kernels.reach``, both CSR
# builders as ``kernels.build_csr``, in- and out-neighbour scans as
# ``graph.WorkGraph.neighbors``.
LAYERS = (
    ("graphio.parse_graph", "kconn.graphio", "parse_graph"),
    ("graphio.emit_components", "kconn.graphio", "emit_components"),
    ("graph.WorkGraph.level_edges", "kconn.graph", "WorkGraph.level_edges"),
    ("graph.WorkGraph.all_edges", "kconn.graph", "WorkGraph.all_edges"),
    ("graph.WorkGraph.restrict", "kconn.graph", "WorkGraph.restrict"),
    ("graph.WorkGraph.neighbors", "kconn.graph", "WorkGraph.in_neighbors"),
    ("graph.WorkGraph.neighbors", "kconn.graph", "WorkGraph.out_neighbors"),
    ("graph.constant_degree_transform", "kconn.graph", "constant_degree_transform"),
    ("hierarchy.decompose", "kconn.hierarchy", "decompose"),
    ("hierarchy._find_isolated", "kconn.hierarchy", "_find_isolated"),
    ("hierarchy._search_side", "kconn.hierarchy", "_search_side"),
    ("hierarchy._whole_search", "kconn.hierarchy", "_whole_search"),
    ("hierarchy._validate_split", "kconn.hierarchy", "_validate_split"),
    ("hierarchy._assemble", "kconn.hierarchy", "_assemble"),
    ("primitives.scc_raw", "kconn.primitives", "scc_raw"),
    ("primitives.top_scc_of", "kconn.primitives", "top_scc_of"),
    ("primitives.edge_dominators_raw", "kconn.primitives", "edge_dominators_raw"),
    ("primitives.dominator_set_raw", "kconn.primitives", "dominator_set_raw"),
    ("primitives.k_dominator_raw", "kconn.primitives", "k_dominator_raw"),
    ("primitives.k_separator_raw", "kconn.primitives", "k_separator_raw"),
    ("primitives._minimalize", "kconn.primitives", "_minimalize"),
    ("primitives.pairwise_k_connected_impl", "kconn.primitives", "pairwise_k_connected_impl"),
    ("kernels.idom_lt", "kconn.kernels", "idom_lt"),
    ("kernels.tarjan_scc", "kconn.kernels", "tarjan_scc"),
    ("kernels.maxflow_upto_k", "kconn.kernels", "maxflow_upto_k"),
    ("kernels.build_csr", "kconn.kernels", "build_csr"),
    ("kernels.build_csr", "kconn.kernels", "build_csr_with_eids"),
    ("kernels.reach", "kconn.kernels", "reach"),
    ("kernels.reach", "kconn.kernels", "reach_skip_vertices"),
    ("kernels.reach", "kconn.kernels", "reach_skip_edges"),
    ("kernels.reach", "kconn.kernels", "residual_reach"),
    ("local2e.two_escc_sparse", "kconn.local2e", "two_escc_sparse"),
    ("local2e._local_search", "kconn.local2e", "_local_search"),
    ("local2e._ball", "kconn.local2e", "_ball"),
    ("local2e._sub_bridges", "kconn.local2e", "_sub_bridges"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

# Per-call quantities summed beside the spans: layer -> (suffix, f(args, result)).
# ``hits`` counts the calls that found a set.
EXTRAS = {
    "kernels.idom_lt": ("nodes", lambda args, res: args[0]),
    "kernels.tarjan_scc": ("verts", lambda args, res: len(args[1])),
    "kernels.maxflow_upto_k": ("augs", lambda args, res: int(res[1])),
    "hierarchy._search_side": ("hits", lambda args, res: res is not None),
    "local2e._local_search": ("hits", lambda args, res: res is not None),
}

_MARK = "__perfbench_wrapped__"


def _kconn_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "kconn" or name.startswith("kconn."))]


def _targets():
    """(layer, owner, attribute, original) for every binding to patch."""
    out = []
    modules = _kconn_modules()
    for layer, modname, attr in LAYERS:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            out.append((layer, cls, meth, cls.__dict__[meth]))
            continue
        fn = getattr(mod, attr)
        bound = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
        out.extend((layer, owner, a, fn) for owner, a in bound)
    return out


def wrapped_bindings():
    """Every kconn binding that currently holds a tracer wrapper."""
    found = []
    for m in _kconn_modules():
        for owner in [m] + [v for v in vars(m).values() if isinstance(v, type)]:
            for a, v in vars(owner).items():
                if getattr(v, _MARK, False):
                    found.append(f"{owner.__name__}.{a}")
    return found


class Tracer:
    """Records spans while active (``with Tracer() as t:``)."""

    def __init__(self):
        self.spans = []      # [layer, start, end, parent index or -1]
        self.extras = {}     # "layer.suffix" -> summed quantity
        self._stack = []
        self._patches = []

    def __enter__(self):
        wrappers = {}
        for layer, owner, attr, fn in _targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(layer, fn)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []
        return False

    def _wrap(self, layer, fn):
        spans = self.spans
        stack = self._stack
        extras = self.extras
        extra = EXTRAS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                key = f"{layer}.{extra[0]}"
                extras[key] = extras.get(key, 0) + extra[1](args, res)
            return res

        setattr(wrapper, _MARK, True)
        return wrapper

    def take(self):
        """Per-layer {"self_s", "calls"} from the spans so far, then clear them.

        Self time is a span's duration minus the durations of its direct
        children; spans run on one thread, so children never overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
        for i, (name, start, end, _) in enumerate(spans):
            agg = out[name]
            agg["self_s"] += (end - start) - child[i]
            agg["calls"] += 1
        spans.clear()
        return out
