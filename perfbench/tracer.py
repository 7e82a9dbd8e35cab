"""Per-layer tracing of the screeb package, installed from outside.

``Tracer.install`` replaces each function listed in ``LAYERS`` with a
recording wrapper in every ``screeb`` module namespace that holds a
reference to it (``knn_graph`` is resolved through ``screeb.geometry``
inside ``condense`` but through ``screeb.reeb`` inside ``screeb``), and
``Tracer.remove`` puts the originals back. No file of the package is
changed, and a traced call returns exactly what the original returns.

Each call is kept in memory as a span ``[name, start, end, parent, child]``.
A function's self time is its span's duration minus the time covered by the
wrapped spans it caused. Work counters are computed from arguments and
results outside the timed interval, and that time is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

# The package's modules, and the public functions whose calls are recorded.
LAYERS = {
    "synthgen": ("generate_sample", "sample_topology_meta", "embed_graph", "sample_point_cloud", "validate"),
    "geometry": (
        "knn_graph",
        "adaptive_affinity",
        "affinity_components",
        "induced_neighbor_subgraph",
        "fiedler_filter",
        "condense",
        "load_points_csv",
        "save_points_csv",
    ),
    "reeb": ("reeb_graph", "screeb", "screeb_tower"),
    "graph": ("reduce", "connected_components", "disjoint_union", "save_graph", "load_graph"),
    "mapper": ("mapper_graph", "dbscan"),
    "metrics": ("compare", "approx_ged", "edge_length_diagram", "wasserstein_breakdown"),
    "harness": ("cmd_generate", "cmd_run", "cmd_evaluate"),
}

# Reasons the generator gives for re-drawing a candidate sample: the
# GenerationReject reasons first, then the ValidationResult reasons.
REJECT_REASONS = (
    "topology-unrealizable",
    "embedding-disconnected-core",
    "embedding-clearance",
    "thickness",
    "noise-floor",
    "tube-overlap",
    "component-separation",
    "component-count",
    "noise-confusion",
    "other",
)

# Which end-to-end metric each layer's numbers should move, and on which
# workload; printed beside the traced results.
LAYER_FEEDS = {
    "synthgen": "generate_s on ci and union; nothing on ladder",
    "geometry": "screeb_s/screebtower_s on ladder (Fiedler solve), run_s on ci, screeb_s on union; CSV I/O only generate_s/run_s on ci",
    "reeb": "screeb_s/screebtower_s on ladder (slice span), run_s on ci, screeb_s on union",
    "graph": "evaluate_s on union (large graphs) and ci (many tiny graphs)",
    "mapper": "run_s on ci, ladder and union",
    "metrics": "evaluate_s on union mostly, on ci and ladder slightly",
    "harness": "generate_s/run_s/evaluate_s on ci only",
}

COUNTERS = (
    ("synthgen.attempts", "count", "lower"),
    ("synthgen.accept_ratio", "1", "higher"),
    *((f"synthgen.reject.{r}", "count", "lower") for r in REJECT_REASONS),
    ("synthgen.generate_sample.p50_ms", "ms", "lower"),
    ("synthgen.generate_sample.p75_ms", "ms", "lower"),
    ("geometry.points", "count", "lower"),
    ("geometry.knn_edges", "count", "lower"),
    ("geometry.solver.dense", "count", "lower"),
    ("geometry.solver.arpack", "count", "lower"),
    ("geometry.solver.dense_fallback", "count", "lower"),
    ("reeb.slices", "count", "lower"),
    ("reeb.slice_span", "count", "lower"),
    ("reeb.raw_vertices", "count", "lower"),
    ("reeb.reduced_vertices", "count", "lower"),
    ("reeb.screeb_tower.p50_ms", "ms", "lower"),
    ("reeb.screeb_tower.p75_ms", "ms", "lower"),
    ("mapper.nodes", "count", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.
    The ``trace.*`` pass times come from the traced run, which times an
    untraced and a traced pass of the same workload."""
    specs = []
    for layer, names in LAYERS.items():
        specs.append((f"{layer}.self_s", "s", "lower"))
        for fn in names:
            specs.append((f"{layer}.{fn}.self_s", "s", "lower"))
            specs.append((f"{layer}.{fn}.calls", "count", "lower"))
    specs.extend(COUNTERS)
    specs.extend(
        [
            ("trace.untraced_pass_s", "s", "lower"),
            ("trace.traced_pass_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
        ]
    )
    return specs


def slice_counts(nbrs, filter_values) -> tuple[int, int]:
    """(slices, summed slice span) of ``reeb_graph(nbrs, filter_values, _)``.

    Slice s lies between distinct filter values s and s + 1; an undirected
    edge crosses the slices in [rank(min f), rank(max f)), found with the
    same ``searchsorted`` on the distinct values that ``reeb_graph`` uses.
    """
    f = np.asarray(filter_values, dtype=float)
    distinct = np.unique(f)
    if distinct.size == 1:
        return 0, 0
    lengths = [len(ids) for ids in nbrs.neighbor_ids]
    u = np.repeat(np.arange(nbrs.n), lengths)
    v = np.concatenate(nbrs.neighbor_ids).astype(int)
    pairs = np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    fu, fv = f[pairs[:, 0]], f[pairs[:, 1]]
    lo = np.searchsorted(distinct, np.minimum(fu, fv))
    hi = np.searchsorted(distinct, np.maximum(fu, fv))
    return distinct.size - 1, int((hi - lo).sum())


class Tracer:
    """Records spans and work counters for the functions in ``LAYERS``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {name: 0 for name, _, _ in COUNTERS}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._spectral_solves = 0
        self._eigsh_calls = 0
        self._raised_rejects = 0
        self._failed_validations = 0
        self._last_reject = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        from scipy.sparse.linalg import ArpackNoConvergence

        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name == "screeb" or name.startswith("screeb.")]
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"screeb.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original, hooks.get(fn_name))
                self._rebind(modules, original, wrapper)

        geometry = importlib.import_module("screeb.geometry")
        eigsh = geometry.eigsh
        tracer = self

        def counting_eigsh(*args, **kwargs):
            tracer._eigsh_calls += 1
            try:
                result = eigsh(*args, **kwargs)
            except ArpackNoConvergence:
                tracer.counters["geometry.solver.dense_fallback"] += 1
                raise
            tracer.counters["geometry.solver.arpack"] += 1
            return result

        counting_eigsh._perfbench_wrapper = True
        self._rebind([geometry], eigsh, counting_eigsh)

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def remove(self) -> None:
        """Restore every rebound name, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        self._stack.clear()

    @staticmethod
    def installed_wrappers() -> list[str]:
        """Names in screeb modules that still refer to a tracing wrapper."""
        return [
            f"{name}.{attr}"
            for name, module in sorted(sys.modules.items())
            if name == "screeb" or name.startswith("screeb.")
            for attr, value in vars(module).items()
            if getattr(value, "_perfbench_wrapper", False)
        ]

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname, fn, hook):
        from screeb.errors import GenerationReject

        tracer = self
        spans = self.spans
        stack = self._stack
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [qualname, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except GenerationReject as exc:
                # Counted once, where it first leaves a wrapped function.
                if exc is not tracer._last_reject:
                    tracer._last_reject = exc
                    tracer._raised_rejects += 1
                    tracer._count_reject(exc.reason)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if hook is not None:
                started = perf_counter()
                hook(signature.bind(*args, **kwargs).arguments, result)
                if parent >= 0:
                    # Counter work is tracing cost, not the caller's self time.
                    spans[parent][4] += perf_counter() - started
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper._perfbench_wrapper = True
        return wrapper

    def _count_reject(self, reason) -> None:
        key = reason if reason in REJECT_REASONS else "other"
        self.counters[f"synthgen.reject.{key}"] += 1

    def _hooks(self) -> dict:
        c = self.counters

        def validate(args, result):
            if not result.ok:
                self._failed_validations += 1
                self._count_reject(result.reason)

        def knn_graph(args, result):
            c["geometry.points"] += result.n
            entries = sum(len(ids) for ids in result.neighbor_ids)
            c["geometry.knn_edges"] += entries // 2 if result.symmetrized else entries

        def fiedler_filter(args, result):
            if np.asarray(args["component"]).size > 1:
                self._spectral_solves += 1

        def reeb_graph(args, result):
            slices, span = slice_counts(args["nbrs"], args["filter_values"])
            c["reeb.slices"] += slices
            c["reeb.slice_span"] += span
            c["reeb.raw_vertices"] += result.n_vertices

        def screeb(args, result):
            c["reeb.reduced_vertices"] += result.n_vertices

        def mapper_graph(args, result):
            c["mapper.nodes"] += result.n_vertices

        return {
            "validate": validate,
            "knn_graph": knn_graph,
            "fiedler_filter": fiedler_filter,
            "reeb_graph": reeb_graph,
            "screeb": screeb,
            "mapper_graph": mapper_graph,
        }

    # -- results -----------------------------------------------------------

    def calls(self, qualname: str) -> int:
        return sum(1 for s in self.spans if s[0] == qualname)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out

    def durations_ms(self, qualname: str) -> list[float]:
        return [(s[2] - s[1]) * 1000.0 for s in self.spans if s[0] == qualname]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``metric_specs`` by name."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = sum(self_s.get(f"{layer}.{fn}", 0.0) for fn in names)
            for fn in names:
                out[f"{layer}.{fn}.self_s"] = self_s.get(f"{layer}.{fn}", 0.0)
                out[f"{layer}.{fn}.calls"] = self.calls(f"{layer}.{fn}")
        c = dict(self.counters)
        # Every candidate either raises GenerationReject or reaches validate.
        validations = self.calls("synthgen.validate")
        attempts = validations + self._raised_rejects
        c["synthgen.attempts"] = attempts
        c["synthgen.accept_ratio"] = (validations - self._failed_validations) / attempts if attempts else 0.0
        # A Fiedler solve on two or more vertices is dense unless it went to
        # ARPACK; an ARPACK non-convergence is also counted as dense_fallback.
        c["geometry.solver.dense"] = self._spectral_solves - self._eigsh_calls
        for qualname in ("synthgen.generate_sample", "reeb.screeb_tower"):
            d = self.durations_ms(qualname)
            c[f"{qualname}.p50_ms"] = float(np.percentile(d, 50)) if d else 0.0
            c[f"{qualname}.p75_ms"] = float(np.percentile(d, 75)) if d else 0.0
        out.update(c)
        return out
