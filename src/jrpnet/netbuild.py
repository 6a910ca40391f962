"""From windowed joint recurrence structure to temporal networks.

For each window of a trial, every unordered channel pair gets a coupling
weight (joint determinism or joint laminarity of the pair's JRP).  The
graphs are built per trial, window after window: overlapping windows
share most of their states, so each channel's recurrence plot keeps the
rows it shares with the window before and computes only the rows of its
new states.  Channels are then merged into modality nodes by averaging
the weights of every edge spanning (or staying inside) a modality pair.
Finally the per-window modality graphs are binarized with a proportional
threshold and stacked into a temporal network.

Weights are kept in [0, 1]; absent weights (degenerate channels, single
channel modalities) are marked NaN and treated as non-edges, never
imputed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingParams, embed
from .errors import InputError
from .ingest import CONSTANT_EPS, Window
from .recurrence import RecurrenceMatrix, joint_recurrence_plot, recurrence_plot
from .rqa import DEFAULT_L_MIN, DEFAULT_V_MIN, determinism, laminarity

__all__ = [
    "METRICS",
    "ChannelEmbedding",
    "WeightedGraph",
    "TemporalNetwork",
    "channel_graphs",
    "merge_modalities",
    "assemble_temporal_network",
    "weighted_record",
    "binary_record",
]

log = logging.getLogger(__name__)

#: Joint-RQA weight metrics a graph edge can carry.
METRICS = ("JDET", "JLAM")

DEFAULT_RHO = 0.5


@dataclass(frozen=True)
class ChannelEmbedding:
    """Per-trial reconstruction settings of one channel: embedding
    parameters, the recurrence threshold calibrated on the trial, and
    whether the dimension scan saturated at its cap."""

    params: EmbeddingParams
    epsilon: float
    saturated: bool = False


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric weighted graph for one window and one metric.

    ``weights[i, j]`` is the coupling weight between nodes i and j, NaN
    where absent.  Diagonal entries hold intra-modality weights after
    merging (always NaN at channel level).
    """

    nodes: tuple[str, ...]
    weights: np.ndarray
    window_index: int
    metric: str


@dataclass(frozen=True)
class TemporalNetwork:
    """Stack of binarized per-window adjacency matrices over one node set.

    ``layers`` has shape (T, n, n), boolean, symmetric, zero diagonal.
    """

    nodes: tuple[str, ...]
    layers: np.ndarray
    binarize_rule: dict
    metric: str = ""

    @property
    def n_layers(self) -> int:
        return self.layers.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _metric_value(jrp, metric: str, l_min: int, v_min: int) -> float:
    return determinism(jrp, l_min) if metric == "JDET" else laminarity(jrp, v_min)


def _window_plot(
    window: Window,
    name: str,
    emb: ChannelEmbedding | None,
    norm: str,
    earlier: Window | None,
    earlier_plot: RecurrenceMatrix | None,
) -> RecurrenceMatrix | None:
    """One channel's plot in one window, None if absent or constant.

    The earlier window's plot is handed on when this window, starting
    ``shift`` samples after it, repeats its samples from ``shift`` on;
    ``recurrence_plot`` then decides whether the rows can be shared.
    """
    x = window.channel(name)
    if emb is None or np.ptp(x) < CONSTANT_EPS:
        if emb is not None:
            log.warning("window %d: channel %s is constant, weights set absent", window.index, name)
        return None
    shift = 0 if earlier is None else window.start_sample - earlier.start_sample
    if earlier_plot is not None:
        overlap = earlier.channel(name)[shift:]
        if not np.array_equal(overlap, x[: len(overlap)]):
            earlier_plot = None
    return recurrence_plot(embed(x, emb.params), emb.epsilon, norm, earlier_plot, shift)


def channel_graphs(
    windows: list[Window],
    embeddings: dict[str, ChannelEmbedding | None],
    metrics: tuple[str, ...] = METRICS,
    l_min: int = DEFAULT_L_MIN,
    v_min: int = DEFAULT_V_MIN,
    norm: str = "L1",
) -> list[dict[str, WeightedGraph]]:
    """Pairwise joint-RQA graphs of one trial's windows, in window order:
    one ``{metric: graph}`` per window.

    All metrics share the same joint recurrence plots, so asking for both
    costs one JRP pass.  A channel's plot shares the rows it has in common
    with its plot in the window before, so overlapping windows compute
    only their new states' distances.  Channels marked None in
    ``embeddings``, or constant within a window, contribute absent
    weights, the constant ones with a warning.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise InputError(f"unknown weight metric {metric!r}; choose one of {METRICS}")

    out: list[dict[str, WeightedGraph]] = []
    earlier: Window | None = None
    plots: dict[str, RecurrenceMatrix | None] = {}
    for window in windows:
        names = window.channel_names
        missing = [n for n in names if n not in embeddings]
        if missing:
            raise InputError(f"no embedding provided for channels {missing}")
        plots = {
            name: _window_plot(window, name, embeddings[name], norm, earlier, plots.get(name))
            for name in names
        }
        earlier = window

        n = len(names)
        weights = {m: np.full((n, n), np.nan) for m in metrics}
        for i in range(n):
            for j in range(i + 1, n):
                rp_i, rp_j = plots[names[i]], plots[names[j]]
                if rp_i is None or rp_j is None:
                    continue
                jrp = joint_recurrence_plot(rp_i, rp_j)
                for m in metrics:
                    value = _metric_value(jrp, m, l_min, v_min)
                    weights[m][i, j] = value
                    weights[m][j, i] = value
        out.append({
            m: WeightedGraph(nodes=names, weights=weights[m], window_index=window.index, metric=m)
            for m in metrics
        })
    return out


def merge_modalities(graph: WeightedGraph, modality_map: dict[str, str]) -> WeightedGraph:
    """Collapse channel nodes into modality nodes by averaging edge weights.

    The weight between two modalities is the mean of all channel-pair
    weights spanning them; the diagonal holds the mean within a modality
    (absent for single-channel modalities).  Absent channel weights are
    excluded from the means.
    """
    unmapped = [c for c in graph.nodes if c not in modality_map]
    if unmapped:
        raise InputError(f"channels without a modality: {unmapped}")
    unknown = [c for c in modality_map if c not in graph.nodes]
    if unknown:
        raise InputError(f"modality map names channels not in the graph: {unknown}")

    modalities: list[str] = []
    for channel in graph.nodes:
        m = modality_map[channel]
        if m not in modalities:
            modalities.append(m)
    if not modalities:
        raise InputError("modality map is empty")
    groups = [[i for i, c in enumerate(graph.nodes) if modality_map[c] == m] for m in modalities]
    if any(not g for g in groups):
        raise InputError("every modality must contain at least one channel")

    n = len(modalities)
    merged = np.full((n, n), np.nan)
    for a in range(n):
        for b in range(a, n):
            if a == b:
                pool = [
                    graph.weights[i, j]
                    for k, i in enumerate(groups[a])
                    for j in groups[a][k + 1 :]
                ]
            else:
                pool = [graph.weights[i, j] for i in groups[a] for j in groups[b]]
            values = np.array([w for w in pool if not np.isnan(w)])
            if values.size:
                merged[a, b] = values.mean()
                merged[b, a] = merged[a, b]
    return WeightedGraph(
        nodes=tuple(modalities),
        weights=merged,
        window_index=graph.window_index,
        metric=graph.metric,
    )


def assemble_temporal_network(
    graphs: list[WeightedGraph], rho: float = DEFAULT_RHO
) -> TemporalNetwork:
    """Binarize per-window graphs and stack them into a temporal network.

    Each window keeps the edges whose weight reaches that window's
    (1 - rho)-quantile of present off-diagonal weights, ties included, so
    roughly the strongest fraction rho of edges survives.  Absent weights
    and self-entries never become edges.
    """
    if not graphs:
        raise InputError("cannot assemble a temporal network from zero graphs")
    if not 0.0 < rho <= 1.0:
        raise InputError(f"rho must be in (0, 1], got {rho}")
    ordered = sorted(graphs, key=lambda g: g.window_index)
    nodes = ordered[0].nodes
    metric = ordered[0].metric
    for g in ordered:
        if g.nodes != nodes:
            raise InputError("all graphs must share one node set")
        if g.metric != metric:
            raise InputError("all graphs must carry the same weight metric")

    n = len(nodes)
    iu = np.triu_indices(n, k=1)
    layers = np.zeros((len(ordered), n, n), dtype=bool)
    for t, g in enumerate(ordered):
        w = g.weights[iu]
        present = w[~np.isnan(w)]
        if present.size == 0:
            continue
        cut = np.quantile(present, 1.0 - rho)
        keep = ~np.isnan(w) & (w >= cut)
        layer = np.zeros((n, n), dtype=bool)
        layer[iu[0][keep], iu[1][keep]] = True
        layers[t] = layer | layer.T
    return TemporalNetwork(
        nodes=nodes,
        layers=layers,
        binarize_rule={"strategy": "proportional", "rho": rho},
        metric=metric,
    )


def weighted_record(graph: WeightedGraph) -> dict:
    """JSON-ready record of one weighted graph.

    Weights are the upper triangle including the diagonal, row-major,
    with absent entries as null.
    """
    n = len(graph.nodes)
    iu = np.triu_indices(n)
    values = [None if np.isnan(v) else float(v) for v in graph.weights[iu]]
    return {
        "window": graph.window_index,
        "metric": graph.metric,
        "nodes": list(graph.nodes),
        "weights": values,
    }


def binary_record(tn: TemporalNetwork, window_index: int) -> dict:
    """JSON-ready record of one binarized layer: sorted edge list."""
    layer = tn.layers[window_index]
    i, j = np.nonzero(np.triu(layer, k=1))
    return {
        "window": int(window_index),
        "edges": [[int(a), int(b)] for a, b in zip(i, j)],
    }
