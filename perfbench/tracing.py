"""Per-layer spans recorded from outside the library.

The tracer replaces each public function listed in ``TARGETS`` under every
name a ``graphssl`` module binds it to (``graphssl.plan.rwcad_scores_loo``
as well as ``graphssl.cad.rwcad_scores_loo``), and the two traced methods
on their classes.  ``restore()`` puts every original back.

A span's self time is its duration minus the durations of the spans it
directly encloses on the same thread.  Parent stacks are kept per thread
because ``run_plan`` can score cells on a thread pool.  Counters are computed
from arguments and results outside the span's clock, and the time they take
is not charged to the enclosing span either.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _kernel_pairs(args, kwargs, result):
    if len(args) == 2:                      # pairwise_sq_dists(x, psi)
        n = _rows(args[0])
        return {"pairs": n * n}
    return {"pairs": _rows(args[0]) * _rows(args[1])}   # cross_sq_dists(a, b, psi)


def _graph_nnz(args, kwargs, result):
    return {"nnz": int(result.weights.nnz)}


def _solve_residual(args, kwargs, result):
    a, b = args[0], np.asarray(args[1], dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(a @ result - b)) / b_norm if b_norm > 0 else 0.0
    return {"rows": int(b.shape[0]), "residual_max": resid}


def _observe_counts(args, kwargs, result, before):
    state = args[0]
    return {"repartitions": int(state.last_repartition is not None),
            "label_conflicts": state.label_conflicts - before,
            "centroid_sum": state.size}


def _observe_before(args, kwargs):
    return args[0].label_conflicts


def _predict_counts(args, kwargs, result):
    return {"abstained": int(result.abstained)}


def _induce_counts(args, kwargs, result):
    return {"retained": int(result[0].size), "nodes": int(args[0].n)}


def _joint_outer(args, kwargs, result):
    return {"outer_iterations": len(result.objective_trace) - 1}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


def _cells_failed(args, kwargs, result):
    return {"cells_failed": sum(1 for r in result if r.status != "ok")}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module or class path, ``attr``
    the attribute name, ``span`` the layer-qualified span name."""

    owner: str
    attr: str
    span: str
    counters: object = None
    before: object = None


TARGETS = (
    Target("graphssl._kernels", "pairwise_sq_dists", "kernels.pairwise_sq_dists", _kernel_pairs),
    Target("graphssl._kernels", "cross_sq_dists", "kernels.cross_sq_dists", _kernel_pairs),
    Target("graphssl.graph", "build_graph", "graph.build_graph", _graph_nnz),
    Target("graphssl.graph", "laplacian", "graph.laplacian"),
    Target("graphssl.graph.SimilarityGraph", "__init__", "graph.SimilarityGraph"),
    Target("graphssl.graph", "connected_components", "graph.connected_components"),
    Target("graphssl.harmonic", "solve_spd", "harmonic.solve_spd", _solve_residual),
    Target("graphssl.harmonic", "hard_harmonic", "harmonic.hard_harmonic"),
    Target("graphssl.harmonic", "soft_harmonic", "harmonic.soft_harmonic"),
    Target("graphssl.cad", "rwcad_scores_loo", "cad.rwcad_scores_loo"),
    Target("graphssl.cad", "weighted_knn_scores_loo", "cad.weighted_knn_scores_loo"),
    Target("graphssl.cad", "softhad_score", "cad.softhad_score"),
    Target("graphssl.cad", "fit_cad_model", "cad.fit_cad_model"),
    Target("graphssl.online", "predict_online", "online.predict_online", _predict_counts),
    Target("graphssl.online.QuantizerState", "observe", "online.QuantizerState.observe",
           _observe_counts, _observe_before),
    Target("graphssl.online", "compact_harmonic", "online.compact_harmonic"),
    Target("graphssl.cuts", "induce_labels", "cuts.induce_labels", _induce_counts),
    Target("graphssl.cuts", "train_maxmargin", "cuts.train_maxmargin"),
    Target("graphssl.joint", "elastic_joint", "joint.elastic_joint", _joint_outer),
    Target("graphssl.joint", "infer_unlabeled", "joint.infer_unlabeled"),
    Target("graphssl.datasets", "gen_gauss_mixture", "datasets.gen_gauss_mixture"),
    Target("graphssl.datasets", "flip_labels", "datasets.flip_labels"),
    Target("graphssl.metrics", "auroc", "metrics.auroc"),
    Target("graphssl.io", "write_scores_csv", "io.write_scores_csv", _bytes_written),
    Target("graphssl.io", "write_metrics_json", "io.write_metrics_json", _bytes_written),
    Target("graphssl.plan", "run_plan", "plan.run_plan", _cells_failed),
    Target("graphssl.plan", "score_method", "plan.score_method"),
    Target("graphssl.cli", "main", "cli.main"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


def _resolve(path: str):
    """Module or class object named by a dotted path."""
    if path in sys.modules:
        return sys.modules[path]
    module, _, name = path.rpartition(".")
    return getattr(sys.modules[module], name)


class Tracer:
    """Collects span statistics while installed; one per traced run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.nesting_violations = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, original):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame()
            counting = time.perf_counter()
            before = target.before(args, kwargs) if target.before else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += duration
            counting = start - counting - time.perf_counter()
            counts = None
            if target.counters is not None:
                counts = (target.counters(args, kwargs, result, before)
                          if target.before else target.counters(args, kwargs, result))
            if stack:       # the counters' own time is no layer's self time
                stack[-1].child_s += counting + time.perf_counter()
            tracer._record(target.span, duration, frame.child_s, counts)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", target.attr)
        traced.__qualname__ = getattr(original, "__qualname__", target.attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _record(self, span: str, duration: float, child_s: float, counts) -> None:
        with self._lock:
            st = self.stats.setdefault(span, SpanStats())
            st.calls += 1
            st.self_s += duration - child_s
            st.durations.append(duration)
            if child_s > duration:
                self.nesting_violations += 1
            for key, value in (counts or {}).items():
                if key.endswith("_max"):
                    st.counters[key] = max(st.counters.get(key, 0.0), value)
                else:
                    st.counters[key] = st.counters.get(key, 0) + value

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Replace every target under each name graphssl modules bind it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "graphssl" or name.startswith("graphssl."))]
        for target in self.targets:
            owner = _resolve(target.owner)
            original = owner.__dict__[target.attr]
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, target.attr, original, wrapper)
                continue
            for module in modules + ([owner] if owner not in modules else []):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched_names(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _get(stats: dict, span: str) -> SpanStats:
    return stats.get(span, SpanStats())


def layer_metrics(tracer: Tracer, units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), summed per traced unit of work
    (ratios, maxima and percentiles are taken over the whole traced run)."""
    s = tracer.stats
    per = 1.0 / max(units, 1)
    out: dict[str, tuple[float, str]] = {}

    def self_s(span):
        out[f"{span}.self_s"] = (_get(s, span).self_s * per, "s")

    def calls(span, name=None):
        out[name or f"{span}.calls"] = (_get(s, span).calls * per, "count")

    def counter(span, key, name, unit="count"):
        out[name] = (_get(s, span).counters.get(key, 0) * per, unit)

    kernels = [_get(s, "kernels.pairwise_sq_dists"), _get(s, "kernels.cross_sq_dists")]
    out["kernels.self_s"] = (sum(k.self_s for k in kernels) * per, "s")
    out["kernels.calls"] = (sum(k.calls for k in kernels) * per, "count")
    out["kernels.pairs"] = (sum(k.counters.get("pairs", 0) for k in kernels) * per, "count")

    self_s("graph.build_graph")
    calls("graph.build_graph")
    counter("graph.build_graph", "nnz", "graph.build_graph.nnz")
    self_s("graph.laplacian")
    self_s("graph.SimilarityGraph")
    self_s("graph.connected_components")
    calls("graph.connected_components")

    self_s("harmonic.solve_spd")
    calls("harmonic.solve_spd")
    counter("harmonic.solve_spd", "rows", "harmonic.solve_spd.rows")
    self_s("harmonic.hard_harmonic")
    self_s("harmonic.soft_harmonic")
    out["harmonic.residual_max"] = (
        _get(s, "harmonic.solve_spd").counters.get("residual_max", 0.0), "1")

    cad_spans = ("cad.rwcad_scores_loo", "cad.weighted_knn_scores_loo",
                 "cad.softhad_score", "cad.fit_cad_model")
    for span in cad_spans:
        self_s(span)
    out["cad.calls"] = (sum(_get(s, span).calls for span in cad_spans) * per, "count")

    self_s("online.predict_online")
    self_s("online.QuantizerState.observe")
    self_s("online.compact_harmonic")
    observe = _get(s, "online.QuantizerState.observe")
    counter("online.QuantizerState.observe", "repartitions", "online.repartitions")
    counter("online.QuantizerState.observe", "label_conflicts", "online.label_conflicts")
    out["online.centroids"] = (observe.counters.get("centroid_sum", 0) / max(observe.calls, 1),
                               "count")
    predict = _get(s, "online.predict_online")
    out["online.abstain_frac"] = (predict.counters.get("abstained", 0) / max(predict.calls, 1),
                                  "1")

    self_s("cuts.induce_labels")
    self_s("cuts.train_maxmargin")
    induce = _get(s, "cuts.induce_labels")
    counter("cuts.induce_labels", "retained", "cuts.retained")
    out["cuts.retained_frac"] = (induce.counters.get("retained", 0)
                                 / max(induce.counters.get("nodes", 0), 1), "1")

    self_s("joint.elastic_joint")
    self_s("joint.infer_unlabeled")
    counter("joint.elastic_joint", "outer_iterations", "joint.outer_iterations")

    self_s("datasets.gen_gauss_mixture")
    self_s("datasets.flip_labels")

    self_s("metrics.auroc")
    calls("metrics.auroc")
    self_s("io.write_scores_csv")
    self_s("io.write_metrics_json")
    out["io.bytes_written"] = (sum(_get(s, span).counters.get("bytes_written", 0)
                                   for span in ("io.write_scores_csv", "io.write_metrics_json"))
                               * per, "B")

    self_s("plan.run_plan")
    calls("plan.score_method")
    durations = _get(s, "plan.score_method").durations
    out["plan.score_method.p50_ms"] = (
        statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    counter("plan.run_plan", "cells_failed", "plan.cells_failed")
    self_s("cli.main")
    return out
