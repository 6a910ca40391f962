"""Per-layer tracing for the benchmark's traced run.

Every public jrpnet function a stage reaches is replaced, at the module
attribute its callers look it up by, with a wrapper that records busy
time, self time (busy time minus the time spent in wrapped callees) and
call counts.  Some wrappers also count work from the call's arguments or
result (matrix cells, distance pairs, saturated dimensions...).  Nothing
inside the package changes; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# Per-layer metrics, in print order: name -> (unit, better).  The prefix
# names the layer, i.e. the jrpnet module whose functions are timed.
# ``_s`` is busy time, ``_self_s`` busy time minus time in wrapped
# callees, the rest are counts or ratios of counts.  Which end-to-end
# figure each should move (see the workloads in run.py):
#
#   pipeline.*   trials_per_s on resume_from_networks (artifact reads) and
#                three_regime (artifact writes); self_s is artifact IO and
#                orchestration, artifact_bytes what the output holds.
#   ingest.*     feeds per-call ratios of the other layers.
#   embedding.*  trials_per_s on three_regime and dense_windows, nothing on
#                resume_from_networks; saturated_frac is the share of
#                dimension scans that ended at the cap (a defect at 1.0).
#   recurrence.* threshold_s and threshold_pairs (computed N(N-1)/2): both
#                trials_per_s and peak_rss_mb on three_regime; rp_* and
#                jrp_*: trials_per_s on dense_windows.
#   rqa.*        trials_per_s on dense_windows, barely on three_regime;
#                cells is the computed sum of n^2 over the matrices.
#   netbuild.*   dense_windows.
#   tempnet.*    dense_windows first, resume_from_networks second;
#                reachability_per_network is 2 while feature_vector
#                recomputes the reachability the pipeline also asks for.
#   learn.*      trials_per_s on three_regime, nothing on dense_windows or
#                resume_from_networks, never cv_accuracy.
#   trace.*      untraced minus traced trials_per_s: the tracing overhead.
PER_LAYER = {
    "pipeline.embed_params_s": ("s", "lower"),
    "pipeline.analyze_s": ("s", "lower"),
    "pipeline.features_s": ("s", "lower"),
    "pipeline.evaluate_s": ("s", "lower"),
    "pipeline.train_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.artifact_bytes": ("bytes", "lower"),
    "ingest.load_s": ("s", "lower"),
    "ingest.windows": ("count", "lower"),
    "embedding.delay_s": ("s", "lower"),
    "embedding.dimension_s": ("s", "lower"),
    "embedding.embed_s": ("s", "lower"),
    "embedding.channels": ("count", "lower"),
    "embedding.saturated_frac": ("ratio", "lower"),
    "recurrence.threshold_s": ("s", "lower"),
    "recurrence.threshold_pairs": ("count", "lower"),
    "recurrence.rp_s": ("s", "lower"),
    "recurrence.rp_calls": ("count", "lower"),
    "recurrence.jrp_s": ("s", "lower"),
    "recurrence.jrp_calls": ("count", "lower"),
    "rqa.det_s": ("s", "lower"),
    "rqa.lam_s": ("s", "lower"),
    "rqa.calls": ("count", "lower"),
    "rqa.cells": ("count", "lower"),
    "netbuild.channel_graphs_self_s": ("s", "lower"),
    "netbuild.merge_s": ("s", "lower"),
    "netbuild.assemble_s": ("s", "lower"),
    "netbuild.empty_layers": ("count", "lower"),
    "tempnet.feature_vector_s": ("s", "lower"),
    "tempnet.small_world_s": ("s", "lower"),
    "tempnet.reachability_s": ("s", "lower"),
    "tempnet.reachability_per_network": ("ratio", "lower"),
    "tempnet.sw_degenerate_frac": ("ratio", "lower"),
    "learn.grid_s": ("s", "lower"),
    "learn.cv_s": ("s", "lower"),
    "learn.cv_calls": ("count", "lower"),
    "learn.fit_lasso_s": ("s", "lower"),
    "learn.fit_calls": ("count", "lower"),
    "trace.overhead_trials_per_s": ("1/s", "lower"),
}


def _size(matrix) -> int:
    return int(getattr(matrix, "size_n", None) or len(getattr(matrix, "bits", matrix)))


def _n_states(trajectory) -> int:
    return int(len(getattr(trajectory, "states", trajectory)))


def _count_threshold(counts, args, result):
    n = _n_states(args[0])
    counts["threshold_pairs"] += n * (n - 1) // 2


def _count_cells(counts, args, result):
    counts["rqa_cells"] += _size(args[0]) ** 2


def _count_dimension(counts, args, result):
    counts["saturated"] += int(result.saturated)


def _count_windows(counts, args, result):
    counts["windows"] += len(result)


def _count_empty_layers(counts, args, result):
    counts["empty_layers"] += int((~result.layers.any(axis=(1, 2))).sum())


def _count_degenerate(counts, args, result):
    counts["sw_degenerate"] += int(result.degenerate)


# (module that binds the name, attribute, span name, work counter).  A
# function bound in two modules is wrapped at both sites under one span.
BINDINGS = [
    ("jrpnet.pipeline", "stage_embed_params", "pipeline.embed_params", None),
    ("jrpnet.pipeline", "stage_analyze", "pipeline.analyze", None),
    ("jrpnet.pipeline", "stage_features", "pipeline.features", None),
    ("jrpnet.pipeline", "stage_evaluate", "pipeline.evaluate", None),
    ("jrpnet.pipeline", "stage_train", "pipeline.train", None),
    ("jrpnet.pipeline", "estimate_trial_embeddings", "pipeline.trial_embeddings", None),
    ("jrpnet.pipeline", "analyze_recording", "pipeline.analyze_recording", None),
    ("jrpnet.pipeline", "load_recording", "ingest.load", None),
    ("jrpnet.pipeline", "load_labels", "ingest.load", None),
    ("jrpnet.pipeline", "segment_windows", "ingest.segment", _count_windows),
    ("jrpnet.pipeline", "estimate_delay", "embedding.delay", None),
    ("jrpnet.pipeline", "estimate_dimension", "embedding.dimension", _count_dimension),
    ("jrpnet.pipeline", "embed", "embedding.embed", None),
    ("jrpnet.netbuild", "embed", "embedding.embed", None),
    ("jrpnet.pipeline", "threshold_for_rate", "recurrence.threshold", _count_threshold),
    ("jrpnet.netbuild", "recurrence_plot", "recurrence.rp", None),
    ("jrpnet.netbuild", "joint_recurrence_plot", "recurrence.jrp", None),
    ("jrpnet.netbuild", "determinism", "rqa.det", _count_cells),
    ("jrpnet.netbuild", "laminarity", "rqa.lam", _count_cells),
    ("jrpnet.pipeline", "channel_graphs", "netbuild.channel_graphs", None),
    ("jrpnet.pipeline", "merge_modalities", "netbuild.merge", None),
    ("jrpnet.pipeline", "assemble_temporal_network", "netbuild.assemble", _count_empty_layers),
    ("jrpnet.pipeline", "feature_vector", "tempnet.feature_vector", None),
    ("jrpnet.pipeline", "reachability_and_latency", "tempnet.reachability", None),
    ("jrpnet.tempnet", "reachability_and_latency", "tempnet.reachability", None),
    ("jrpnet.tempnet", "temporal_small_worldness", "tempnet.small_world", _count_degenerate),
    ("jrpnet.pipeline", "lambda_grid", "learn.grid", None),
    ("jrpnet.pipeline", "cross_validate", "learn.cv", None),
    ("jrpnet.pipeline", "fit_lasso", "learn.fit_lasso", None),
]


class Tracer:
    """Aggregated spans: busy time, self time and calls per span name."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, span: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = [0.0]
            self._stack.append(inner)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.busy[span] += elapsed
                self.self_time[span] += elapsed - inner[0]
                self.calls[span] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, count in BINDINGS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(span, getattr(module, attr), count))

    def snapshot(self) -> dict:
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


# Stage spans, the ones a command calls directly; the part of the
# command's wall time outside them is orchestration in the command itself.
STAGES = (
    "pipeline.embed_params",
    "pipeline.analyze",
    "pipeline.features",
    "pipeline.evaluate",
    "pipeline.train",
)


def per_layer_metrics(trace: dict, command_s: float, artifact_bytes: int) -> tuple[dict, dict]:
    """Per-layer values of one traced execution, and the metrics it could
    not measure with the reason.  ``command_s`` is the command's wall time."""
    busy, self_time = trace["busy"], trace["self"]
    calls, counts = trace["calls"], trace["counts"]
    unmeasured: dict[str, str] = {}

    def b(span: str) -> float:
        return busy.get(span, 0.0)

    def n(span: str) -> int:
        return calls.get(span, 0)

    def ratio(name: str, num: float, den: int, why_empty: str) -> float:
        if den:
            return num / den
        unmeasured[name] = why_empty
        return 0.0

    outside_stages = max(0.0, command_s - sum(b(span) for span in STAGES))
    values = {f"{span}_s": b(span) for span in STAGES}
    values.update({
        "pipeline.self_s": outside_stages + sum(
            v for k, v in self_time.items() if k.startswith("pipeline.")
        ),
        "pipeline.artifact_bytes": artifact_bytes,
        "ingest.load_s": b("ingest.load"),
        "ingest.windows": counts.get("windows", 0),
        "embedding.delay_s": b("embedding.delay"),
        "embedding.dimension_s": b("embedding.dimension"),
        "embedding.embed_s": b("embedding.embed"),
        "embedding.channels": n("embedding.dimension"),
        "embedding.saturated_frac": ratio(
            "embedding.saturated_frac", counts.get("saturated", 0), n("embedding.dimension"),
            "no dimension scans: the command does not estimate embeddings",
        ),
        "recurrence.threshold_s": b("recurrence.threshold"),
        "recurrence.threshold_pairs": counts.get("threshold_pairs", 0),
        "recurrence.rp_s": b("recurrence.rp"),
        "recurrence.rp_calls": n("recurrence.rp"),
        "recurrence.jrp_s": b("recurrence.jrp"),
        "recurrence.jrp_calls": n("recurrence.jrp"),
        "rqa.det_s": b("rqa.det"),
        "rqa.lam_s": b("rqa.lam"),
        "rqa.calls": n("rqa.det") + n("rqa.lam"),
        "rqa.cells": counts.get("rqa_cells", 0),
        "netbuild.channel_graphs_self_s": self_time.get("netbuild.channel_graphs", 0.0),
        "netbuild.merge_s": b("netbuild.merge"),
        "netbuild.assemble_s": b("netbuild.assemble"),
        "netbuild.empty_layers": counts.get("empty_layers", 0),
        "tempnet.feature_vector_s": b("tempnet.feature_vector"),
        "tempnet.small_world_s": b("tempnet.small_world"),
        "tempnet.reachability_s": b("tempnet.reachability"),
        "tempnet.reachability_per_network": ratio(
            "tempnet.reachability_per_network", n("tempnet.reachability"),
            n("tempnet.feature_vector"), "no feature vectors: the command computes no features",
        ),
        "tempnet.sw_degenerate_frac": ratio(
            "tempnet.sw_degenerate_frac", counts.get("sw_degenerate", 0),
            n("tempnet.small_world"), "no small-worldness: the command computes no features",
        ),
        "learn.grid_s": b("learn.grid"),
        "learn.cv_s": b("learn.cv"),
        "learn.cv_calls": n("learn.cv"),
        "learn.fit_lasso_s": b("learn.fit_lasso"),
        "learn.fit_calls": n("learn.fit_lasso"),
    })
    return values, unmeasured


def tree_bytes(root: str) -> int:
    """Total size of the files under ``root``."""
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total
