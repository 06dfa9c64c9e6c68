"""Spans around threshnet's public layer functions, recorded from outside.

:func:`install` rebinds each traced function in its defining module and under
every name another threshnet module imports it as (``limits.expectation``,
``spatial.quad_checked``, ``cli.expectation``, ...), and
``WeightDistribution.sample`` on the class.  Registered experiments are held
by direct reference inside ``stats``, so they show only through the public
functions they call.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  A function's self time is its spans' duration minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from time import perf_counter

# (span name, defining module, attribute) of every traced function.
TRACED = (
    ("dist.parse_dist", "threshnet.dist", "parse_dist"),
    ("dist.expectation", "threshnet.dist", "expectation"),
    ("dist.quad_checked", "threshnet.dist", "quad_checked"),
    ("dist.sample", "threshnet.dist", "WeightDistribution.sample"),
    ("graph.sample_graph", "threshnet.graph", "sample_graph"),
    ("graph.count_triangles", "threshnet.graph", "count_triangles"),
    ("graph.count_local_triangles", "threshnet.graph", "count_local_triangles"),
    ("graph.tagged_pair_degrees", "threshnet.graph", "tagged_pair_degrees"),
    ("motifs.count_motif_tuples", "threshnet.motifs", "count_motif_tuples"),
    ("limits.limit_degree_cdf", "threshnet.limits", "limit_degree_cdf"),
    ("limits.conditional_triangle_probability", "threshnet.limits",
     "conditional_triangle_probability"),
    ("limits.triangle_probability", "threshnet.limits", "triangle_probability"),
    ("limits.triangle_kernel_variance", "threshnet.limits", "triangle_kernel_variance"),
    ("limits.edge_conditioned_correlation", "threshnet.limits",
     "edge_conditioned_correlation"),
    ("spatial.radial_intensity", "threshnet.spatial", "radial_intensity"),
    ("spatial.sample_origin_degree_direct", "threshnet.spatial",
     "sample_origin_degree_direct"),
    ("stats.run_replicates", "threshnet.stats", "run_replicates"),
    ("stats.ks_statistic", "threshnet.stats", "ks_statistic"),
    ("stats.chi_square_gof", "threshnet.stats", "chi_square_gof"),
    ("cli.main", "threshnet.cli", "main"),
)

# Work counters, besides each traced function's calls and self time.
COUNTERS = (
    "dist.integrand_evals",
    "dist.sample.draws",
    "motifs.census_outer_iters",
    "stats.replicates",
    "stats.ks_cdf_evals",
    "spatial.radial_cache_hits",
    "spatial.radial_cache_misses",
)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _counting(counts, key, pos, kwarg):
    """Hook that counts the calls a traced function makes to its callable
    argument at position ``pos``."""

    def hook(args, kwargs):
        fn = _arg(args, kwargs, pos, kwarg)

        def counted(*a):
            counts[key] += 1
            return fn(*a)

        if len(args) > pos:
            return args[:pos] + (counted,) + args[pos + 1:], kwargs
        return args, dict(kwargs, **{kwarg: counted})

    return hook


def _hooks(counts: Counter) -> dict:
    def draws(args, kwargs):
        size = args[2] if len(args) > 2 else kwargs.get("size")
        counts["dist.sample.draws"] += 1 if size is None else math.prod(
            size if isinstance(size, tuple) else (size,))
        return args, kwargs

    def census(args, kwargs):
        g, motif = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "motif")
        if motif.k >= 2:
            counts["motifs.census_outer_iters"] += math.comb(g.n, motif.k - 2)
        return args, kwargs

    def replicates(args, kwargs):
        counts["stats.replicates"] += int(_arg(args, kwargs, 2, "replicates"))
        return args, kwargs

    return {
        "dist.expectation": _counting(counts, "dist.integrand_evals", 1, "g"),
        "dist.quad_checked": _counting(counts, "dist.integrand_evals", 0, "f"),
        "dist.sample": draws,
        "motifs.count_motif_tuples": census,
        "stats.run_replicates": replicates,
        "stats.ks_statistic": _counting(counts, "stats.ks_cdf_evals", 1, "cdf"),
    }


class Tracer:
    """Records spans, per-function calls and self time, and work counters."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []  # [span index, time covered by children]
        self._undo: list = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return traced

    def install(self) -> None:
        """Rebind every function in TRACED to its traced wrapper."""
        hooks = _hooks(self.counts)
        modules = [m for n, m in sys.modules.items()
                   if n == "threshnet" or n.startswith("threshnet.")]
        for name, modname, attr in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[method]
                self._undo.append((cls, method, orig))
                setattr(cls, method, self.wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._undo.append((module, key, orig))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] covered by top-level spans."""
        return sum(min(e, end) - max(s, start) for _, s, e, parent in self.spans
                   if parent == -1 and e > start and s < end)

    def span_dicts(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
