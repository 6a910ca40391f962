"""From windowed joint recurrence structure to temporal networks.

A trial's coupling weights travel as one ``(windows, nodes, nodes)``
array per metric.  For each window, every unordered channel pair gets a
coupling weight (joint determinism or joint laminarity of the pair's
JRP).  The windows are visited in order: overlapping windows share most
of their states, so each channel's recurrence plot keeps the rows it
shares with the window before and computes only the rows of its new
states.  Channels are then merged into modality nodes by averaging the
weights of every edge spanning (or staying inside) a modality pair,
window by window.  Finally each window's modality weights are binarized
with a proportional threshold into one layer of a temporal network.

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
from .rqa import DEFAULT_L_MIN, DEFAULT_V_MIN, determinism, laminarity, off_diagonal

__all__ = [
    "METRICS",
    "ChannelEmbedding",
    "TemporalNetwork",
    "channel_graphs",
    "merge_modalities",
    "assemble_temporal_network",
    "weighted_records",
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
) -> dict[str, np.ndarray]:
    """Pairwise joint-RQA weights of one trial's windows: per metric a
    symmetric ``(windows, channels, channels)`` array in window order, NaN
    where absent (always on the diagonal).

    All metrics share the same joint recurrence plots and the same padded
    off-diagonal copy of each, so asking for both costs one JRP pass.  A
    channel's plot shares the rows it has in common with its plot in the
    window before, so overlapping windows compute only their new states'
    distances.  Channels marked None in ``embeddings``, or constant within
    a window, contribute absent weights, the constant ones with a warning.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise InputError(f"unknown weight metric {metric!r}; choose one of {METRICS}")
    names = windows[0].channel_names if windows else ()
    missing = [n for n in names if n not in embeddings]
    if missing:
        raise InputError(f"no embedding provided for channels {missing}")

    n = len(names)
    weights = {m: np.full((len(windows), n, n), np.nan) for m in metrics}
    earlier: Window | None = None
    plots: dict[str, RecurrenceMatrix | None] = {}
    for t, window in enumerate(windows):
        plots = {
            name: _window_plot(window, name, embeddings[name], norm, earlier, plots.get(name))
            for name in names
        }
        earlier = window
        for i in range(n):
            for j in range(i + 1, n):
                rp_i, rp_j = plots[names[i]], plots[names[j]]
                if rp_i is None or rp_j is None:
                    continue
                lines = off_diagonal(joint_recurrence_plot(rp_i, rp_j))
                for m in metrics:
                    value = determinism(lines, l_min) if m == "JDET" else laminarity(lines, v_min)
                    weights[m][t, i, j] = value
                    weights[m][t, j, i] = value
    return weights


def merge_modalities(
    weights: np.ndarray, modalities: tuple[str, ...]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Collapse channel nodes into modality nodes by averaging edge weights.

    ``weights`` is a ``(windows, channels, channels)`` stack and
    ``modalities`` names each channel's modality in channel order.
    Returns the modalities in first-seen order and their
    ``(windows, k, k)`` weights.  In each window the weight between two
    modalities is the mean of all channel-pair weights spanning them; the
    diagonal holds the mean within a modality (absent for single-channel
    modalities).  Absent channel weights are excluded from the means.
    """
    if len(modalities) != weights.shape[-1]:
        raise InputError(f"{len(modalities)} modalities for {weights.shape[-1]} channels")
    nodes = tuple(dict.fromkeys(modalities))
    groups = [[i for i, m in enumerate(modalities) if m == node] for node in nodes]

    k = len(nodes)
    merged = np.full((len(weights), k, k), np.nan)
    for a in range(k):
        for b in range(a, k):
            if a == b:
                pairs = [(i, j) for p, i in enumerate(groups[a]) for j in groups[a][p + 1 :]]
            else:
                pairs = [(i, j) for i in groups[a] for j in groups[b]]
            rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
            # np.mean of each window's present values in pair order; nanmean
            # would sum in another order once a pool holds more than 8 values
            for t, pool in enumerate(weights[:, rows, cols]):
                values = pool[~np.isnan(pool)]
                if values.size:
                    merged[t, a, b] = merged[t, b, a] = values.mean()
    return nodes, merged


def assemble_temporal_network(
    weights: np.ndarray, nodes: tuple[str, ...], metric: str, rho: float = DEFAULT_RHO
) -> TemporalNetwork:
    """Binarize a ``(windows, nodes, nodes)`` weight stack into the layers
    of a temporal network.

    Each window keeps the edges whose weight reaches that window's
    (1 - rho)-quantile of present off-diagonal weights, ties included, so
    roughly the strongest fraction rho of edges survives.  Absent weights
    and self-entries never become edges.
    """
    if len(weights) == 0:
        raise InputError("cannot assemble a temporal network from zero windows")
    if not 0.0 < rho <= 1.0:
        raise InputError(f"rho must be in (0, 1], got {rho}")
    n = len(nodes)
    if weights.shape[1:] != (n, n):
        raise InputError(f"weights of shape {weights.shape} for {n} nodes")

    rows, cols = np.triu_indices(n, k=1)
    layers = np.zeros((len(weights), n, n), dtype=bool)
    for t, w in enumerate(weights[:, rows, cols]):
        present = w[~np.isnan(w)]
        if present.size == 0:
            continue
        keep = ~np.isnan(w) & (w >= np.quantile(present, 1.0 - rho))
        layers[t, rows[keep], cols[keep]] = True
    return TemporalNetwork(
        nodes=tuple(nodes),
        layers=layers | layers.transpose(0, 2, 1),
        binarize_rule={"strategy": "proportional", "rho": rho},
        metric=metric,
    )


def weighted_records(weights: dict[str, np.ndarray], nodes: tuple[str, ...]) -> list[dict]:
    """JSON-ready records of a trial's weight stacks by metric, window by
    window and, within a window, metric by metric.

    Weights are the upper triangle including the diagonal, row-major,
    with absent entries as null.
    """
    iu = np.triu_indices(len(nodes))
    n_windows = len(next(iter(weights.values())))
    return [
        {
            "window": t,
            "metric": metric,
            "nodes": list(nodes),
            "weights": [None if np.isnan(v) else float(v) for v in stack[t][iu]],
        }
        for t in range(n_windows)
        for metric, stack in weights.items()
    ]


def binary_record(tn: TemporalNetwork, window_index: int) -> dict:
    """JSON-ready record of one binarized layer: sorted edge list."""
    layer = tn.layers[window_index]
    i, j = np.nonzero(np.triu(layer, k=1))
    return {
        "window": int(window_index),
        "edges": [[int(a), int(b)] for a, b in zip(i, j)],
    }
