"""Outside-in span tracer for the offdiag package.

The tracer times calls into each layer (package module) by rebinding the
layer's functions to timing wrappers from outside the package; nothing in
`src/` knows about it.  `from .x import y` copies a function into several
module namespaces (`counts`, `verify`, `matrices`, `cli`, the package
`__init__`), so every `offdiag.*` namespace that holds an original is
rebound, and every rebinding is undone on exit.

Spans nest: a span's self time is its duration minus the time its child
spans cover.  The root frame's child time is the wall time that some span
covers, so the caller can report the time no span covers.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import Counter

LAYERS = ("cli", "verify", "counts", "matrices", "pfaffian", "paths",
          "oracle", "series")

# Functions timed as spans, by layer.  `Class.method` patches the class.
# Helpers called once per square or domino (span, mirror_square, is_black,
# ...) are left out, since a span costs about a microsecond.  `delannoy` is
# never wrapped: its recursion goes through the module global, so a wrapper
# would time every recursive call as its own span; its cache_info() is read
# instead.
SPANS = {
    "cli": ("main",),
    "verify": ("verify_identities", "verify_rank_claim",
               "scan_log_concavity", "scan_asymptotics"),
    "counts": ("count_off_diag", "o_vector", "_o_vector_direct",
               "count_nearly", "d_vector", "d_entry_bordered",
               "even_order_full"),
    "matrices": ("matrix_a", "matrix_b", "matrix_m", "matrix_r", "r_value",
                 "pell_vector", "g_sequence", "t_array"),
    "pfaffian": ("SkewMatrix.__init__", "principal_submatrix", "pfaffian",
                 "pfaffian_cofactor", "pfaffian_eliminate", "bordered_skew",
                 "determinant", "rational_rank", "integer_kernel_vector"),
    "paths": ("PathGraph.__init__", "PathGraph.path_counts", "q_doublet",
              "q_free", "enumerate_families", "signed_family_count"),
    "oracle": ("build_region", "enumerate_tilings", "count_all_tilings",
               "is_mirror_symmetric", "diagonal_profile", "classify",
               "classify_region_tilings", "oracle_counts", "tiling_to_paths",
               "paths_to_tiling", "render_text", "render_svg"),
    "series": ("expand_rational", "add", "subtract", "multiply", "sqrt",
               "integer_coeffs", "poly_multiply", "poly_power",
               "schroeder_numbers"),
}

# Spans whose per-call time is also kept by matrix order, for the ladder.
ORDER_OF = {
    "pfaffian.integer_kernel_vector": lambda args: len(args[0]),
    "pfaffian.pfaffian_eliminate": lambda args: args[0].order,
    "matrices.matrix_a": lambda args: args[0],
}

# Generator functions, timed by the time spent inside each next(); the
# counter named here counts the items they yield.
GENERATORS = {"oracle.enumerate_tilings": "oracle.enumerate_tilings.tilings"}

# Counters kept by the wrappers (besides the generators' item counts) and
# read from delannoy's cache_info().
COUNTERS = ("paths.delannoy.hits", "paths.delannoy.misses",
            "paths.path_counts.misses", "paths.enumerate_families.families",
            "oracle.is_mirror_symmetric.true")


def span_name(layer: str, qualname: str) -> str:
    """`pfaffian.SkewMatrix.__init__` -> `pfaffian.SkewMatrix`,
    `paths.PathGraph.path_counts` -> `paths.path_counts`."""
    owner, _, attr = qualname.rpartition(".")
    return f"{layer}.{owner if attr == '__init__' else attr}"


class Tracer:
    """Context manager: patches the package on entry, restores on exit."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # span -> [calls, total_s, self_s]
        self.edges: Counter = Counter()       # (parent span, span) -> calls
        self.by_order: dict[str, dict] = {}   # span -> {order: [calls, total_s]}
        self.counters: Counter = Counter()
        self._stack = [["", 0.0]]             # frames: [span name, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._delannoy0 = None

    @property
    def spanned_s(self) -> float:
        """Wall time covered by at least one (root) span so far."""
        return self._stack[0][1]

    # --- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        order_of = ORDER_OF.get(name)
        orders = self.by_order.setdefault(name, {}) if order_of else None
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                edges[parent[0], name] += 1
                if orders is not None:
                    slot = orders.setdefault(order_of(args), [0, 0.0])
                    slot[0] += 1
                    slot[1] += dt

        return wrapper

    def _span_generator(self, name, fn):
        """Time a generator function by the time spent inside each next()."""
        step = self._span(name, next)
        counters, items = self.counters, GENERATORS[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = step(gen)
                    except StopIteration:
                        return
                    counters[items] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def _counting(self, name, fn):
        """Layer counters that need the arguments or the result of a call."""
        counters = self.counters
        if name == "paths.path_counts":
            def wrapper(graph, src):
                if src not in getattr(graph, "_counts", ()):
                    counters[name + ".misses"] += 1
                return fn(graph, src)
        elif name == "paths.enumerate_families":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[name + ".families"] += len(result)
                return result
        elif name == "oracle.is_mirror_symmetric":
            def wrapper(tiling):
                result = fn(tiling)
                counters[name + ".true"] += bool(result)
                return result
        else:
            return fn
        return functools.wraps(fn)(wrapper)

    # --- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        import offdiag
        import offdiag.cli  # noqa: F401  (cli is not imported by the package)

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "offdiag" or key.startswith("offdiag.")]
        for layer, qualnames in SPANS.items():
            module = sys.modules["offdiag." + layer]
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner).get(attr)
                if original is None:
                    continue  # gone from the package: its metrics read 0
                name = span_name(layer, qualname)
                if name in GENERATORS:
                    wrapper = self._span_generator(name, original)
                else:
                    wrapper = self._span(name, self._counting(name, original))
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
        self._delannoy0 = offdiag.paths.delannoy.cache_info()
        return self

    def __exit__(self, *exc):
        # Undo every rebinding, newest first.
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # --- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Raw, JSON-safe record of what the traced code did."""
        import offdiag.paths

        info = offdiag.paths.delannoy.cache_info()
        counters = dict(self.counters)
        if self._delannoy0 is not None:
            counters["paths.delannoy.hits"] = info.hits - self._delannoy0.hits
            counters["paths.delannoy.misses"] = (
                info.misses - self._delannoy0.misses)
        return {
            "spans": {k: v for k, v in self.stats.items() if v[0]},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "by_order": {k: {str(o): v for o, v in sorted(d.items())}
                         for k, d in self.by_order.items() if d},
            "counters": counters,
            "spanned_s": self.spanned_s,
        }


SPAN_NAMES = frozenset(span_name(layer, q)
                       for layer, qualnames in SPANS.items() for q in qualnames)
_LADDER = re.compile(r"(.+)\.n(\d+)_s")


def layer_value(summary: dict, name: str) -> float:
    """One per-layer metric, named as in BENCHMARK.json, from a summary().

    `<layer>.self_s` sums the self time of the layer's spans;
    `<span>.calls` and `<span>.self_s` read one span; `<span>.n<N>_s` is the
    mean duration of the span's calls on order-N matrices."""
    spans, counters = summary["spans"], summary["counters"]
    if name in COUNTERS or name in GENERATORS.values():
        return counters.get(name, 0)
    if name == "counts.o_vector.fallbacks":
        return sum(n for parent, child, n in summary["edges"]
                   if (parent, child) == ("counts.o_vector",
                                          "counts._o_vector_direct"))
    if name == "oracle.symmetric_yield":
        tilings = counters.get("oracle.enumerate_tilings.tilings", 0)
        symmetric = counters.get("oracle.is_mirror_symmetric.true", 0)
        return symmetric / tilings if tilings else 0.0
    head, _, tail = name.rpartition(".")
    if tail == "self_s" and head in LAYERS:
        return sum(v[2] for k, v in spans.items() if k.startswith(head + "."))
    if head in SPAN_NAMES and tail in ("calls", "self_s"):
        calls, _total, self_s = spans.get(head, (0, 0.0, 0.0))
        return calls if tail == "calls" else self_s
    ladder = _LADDER.fullmatch(name)
    if ladder and ladder[1] in ORDER_OF:
        calls, total = summary["by_order"].get(ladder[1], {}).get(
            ladder[2], (0, 0.0))
        return total / calls if calls else 0.0
    raise KeyError(f"unknown per-layer metric {name!r}")
