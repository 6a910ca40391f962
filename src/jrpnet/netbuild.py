"""From windowed joint recurrence structure to temporal networks.

A trial's coupling weights travel as one ``(windows, nodes, nodes)``
array per metric.  For each window, every channel pair that spans two
modalities gets a coupling weight (joint determinism or joint laminarity
of the pair's JRP); pairs within a modality reach no edge and are never
computed.  Every plot is a bool array in the L1 distance.  The windows
are visited in order: overlapping windows share most of their states,
so each channel's recurrence plot, at the channel's one trial-wide
threshold, keeps the rows it shares with the window before and computes
only the rows of its new states.  Channels are then merged into
modality nodes by averaging the weights of every edge spanning a
modality pair, window by window.  Finally each window's modality weights
are binarized with a proportional threshold into one layer of a temporal
network.

Weights are kept in [0, 1]; absent weights (degenerate channels, pairs
within a modality, the diagonal) are marked NaN and treated as
non-edges, never imputed.  This module computes in memory only: the
pipeline encodes the weights and networks into its network files and
decodes them back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .embedding import EmbeddingParams, embed
from .errors import InputError
from .ingest import CONSTANT_EPS, Window
from .recurrence import joint_recurrence_plot, recurrence_plot
from .rqa import DEFAULT_L_MIN, DEFAULT_V_MIN, determinism, laminarity, off_diagonal

__all__ = [
    "METRICS",
    "ChannelEmbedding",
    "TemporalNetwork",
    "channel_graphs",
    "merge_modalities",
    "assemble_temporal_network",
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
    earlier: Window | None,
    earlier_plot: np.ndarray | None,
) -> np.ndarray | None:
    """One channel's plot in one window, None if absent or constant.

    The earlier window's plot, made at the same trial-wide threshold
    ``emb.epsilon`` and of as many states, is handed on when this window,
    starting ``shift`` samples after it, repeats its samples from
    ``shift`` on; ``recurrence_plot`` then shares the rows when the two
    windows overlap.
    """
    x = window.channel(name)
    if emb is None or np.ptp(x) < CONSTANT_EPS:
        if emb is not None:
            log.warning("window %d: channel %s is constant, weights set absent", window.index, name)
        return None
    shift = 0 if earlier is None else window.start_sample - earlier.start_sample
    if earlier_plot is not None:
        overlap = earlier.channel(name)[shift:]
        same_length = window.length_samples == earlier.length_samples
        if not (same_length and np.array_equal(overlap, x[: len(overlap)])):
            earlier_plot = None
    return recurrence_plot(embed(x, emb.params), emb.epsilon, earlier_plot, shift)


def channel_graphs(
    windows: list[Window],
    embeddings: dict[str, ChannelEmbedding | None],
    modalities: tuple[str, ...],
    l_min: int = DEFAULT_L_MIN,
    v_min: int = DEFAULT_V_MIN,
) -> dict[str, np.ndarray]:
    """Joint-RQA weights of one trial's windows: for each of ``METRICS`` a
    symmetric ``(windows, channels, channels)`` array in window order, NaN
    where absent.  Only channels of different ``modalities`` (each
    channel's modality, in channel order) are paired; pairs within a
    modality and the diagonal are always absent.

    Both metrics share the same joint recurrence plots and the same padded
    off-diagonal copy of each, so they cost one JRP pass.  A channel's plot
    shares the rows it has in common with its plot in the window before,
    so overlapping windows compute only their new states' distances.
    Channels marked None in ``embeddings``, or constant within a window,
    contribute absent weights, the constant ones with a warning.
    """
    names = windows[0].channel_names if windows else ()
    missing = [n for n in names if n not in embeddings]
    if missing:
        raise InputError(f"no embedding provided for channels {missing}")
    n = len(names)
    if len(modalities) != n:
        raise InputError(f"{len(modalities)} modalities for {n} channels")

    pairs = [(i, j) for i, j in combinations(range(n), 2) if modalities[i] != modalities[j]]
    weights = {m: np.full((len(windows), n, n), np.nan) for m in METRICS}
    earlier: Window | None = None
    plots: dict[str, np.ndarray | None] = {}
    for t, window in enumerate(windows):
        plots = {
            name: _window_plot(window, name, embeddings[name], earlier, plots.get(name))
            for name in names
        }
        earlier = window
        for i, j in pairs:
            rp_i, rp_j = plots[names[i]], plots[names[j]]
            if rp_i is None or rp_j is None:
                continue
            lines = off_diagonal(joint_recurrence_plot(rp_i, rp_j))
            values = (determinism(lines, l_min), laminarity(lines, v_min))
            for m, value in zip(METRICS, values):
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
    modalities is the mean of all channel-pair weights spanning them.
    Absent channel weights are excluded from the means; the diagonal is
    always absent.
    """
    if len(modalities) != weights.shape[-1]:
        raise InputError(f"{len(modalities)} modalities for {weights.shape[-1]} channels")
    nodes = tuple(dict.fromkeys(modalities))
    groups = [[i for i, m in enumerate(modalities) if m == node] for node in nodes]

    k = len(nodes)
    merged = np.full((len(weights), k, k), np.nan)
    for a, b in combinations(range(k), 2):
        # np.mean of each window's present values in pair order; nanmean
        # would sum in another order once a pool holds more than 8 values
        for t, pool in enumerate(weights[:, groups[a]][:, :, groups[b]]):
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
