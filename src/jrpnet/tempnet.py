"""Temporal graph metrics over binarized window networks.

A time-respecting path hops along edges at strictly increasing window
indices (at most one hop per window; waiting at a node is free).  All
reachability notions start from before the first window, so the latency
of a pair is simply the earliest window by which the target can be
reached.  On top of that sit temporal efficiency, fastest-path counts,
the temporal correlation coefficient (topological overlap between
consecutive layers), a small-worldness ratio against degree-preserving
nulls, and strong/weak connectedness fractions.  Each null rewires all
layers from one batch of its generator's 32-bit words.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .netbuild import TemporalNetwork
from .seeding import generator

__all__ = [
    "FEATURE_SCHEMA_VERSION",
    "ReachabilityReport",
    "TemporalFeatures",
    "SmallWorldness",
    "reachability_and_latency",
    "temporal_correlation",
    "temporal_small_worldness",
    "feature_vector",
]

#: Bump when the feature layout below changes.
FEATURE_SCHEMA_VERSION = 1

#: The scalar feature columns in order; a ``corr_<node>`` column per node follows.
SCALAR_FEATURES = (
    "efficiency",
    "mean_latency",
    "mean_fastest_paths",
    "temporal_correlation",
    "small_worldness",
    "small_worldness_degenerate",
    "frac_strong",
    "frac_weak",
)

DEFAULT_N_NULL = 20


@dataclass(frozen=True)
class ReachabilityReport:
    """Pairwise latency and fastest-path structure of a temporal network.

    ``latency[i, j]`` is the earliest window index by which j is
    reachable from i (0 on the diagonal, inf if never);
    ``fastest_path_counts[i, j]`` counts the distinct time-respecting
    paths arriving exactly at that latency.
    """

    nodes: tuple[str, ...]
    latency: np.ndarray
    fastest_path_counts: np.ndarray
    strong_pairs: frozenset[tuple[str, str]]
    weak_pairs: frozenset[tuple[str, str]]


class SmallWorldness(NamedTuple):
    value: float
    degenerate: bool


@dataclass(frozen=True)
class TemporalFeatures:
    """Fixed-order feature summary of one temporal network, with the
    reachability report its latency and path features came from."""

    efficiency: float
    mean_latency: float
    mean_fastest_paths: float
    temporal_correlation: float
    small_worldness: float
    small_worldness_degenerate: bool
    frac_strong: float
    frac_weak: float
    per_node_correlation: tuple[float, ...]
    reachability: ReachabilityReport = field(compare=False, repr=False)

    def names(self, nodes: tuple[str, ...]) -> list[str]:
        return [*SCALAR_FEATURES, *[f"corr_{name}" for name in nodes]]

    def values(self) -> list[float]:
        scalars = [float(getattr(self, name)) for name in SCALAR_FEATURES]
        return scalars + list(self.per_node_correlation)


def _check(tn: TemporalNetwork) -> None:
    if tn.n_nodes < 1 or tn.n_layers < 1:
        raise InputError("temporal network must have at least one node and one layer")


def _latency_matrix(tn: TemporalNetwork) -> np.ndarray:
    """Earliest-arrival windows via a boolean reachability sweep."""
    n = tn.n_nodes
    latency = np.full((n, n), np.inf)
    np.fill_diagonal(latency, 0.0)
    reached = np.eye(n, dtype=bool)
    for t in range(tn.n_layers):
        adjacent = (reached.astype(np.uint8) @ tn.layers[t].astype(np.uint8)) > 0
        fresh = adjacent & ~reached
        latency[fresh] = t + 1
        reached |= fresh
        if reached.all():
            break
    return latency


def _fastest_counts(tn: TemporalNetwork, latency: np.ndarray) -> np.ndarray:
    """Count distinct time-respecting paths achieving each pair's latency.

    Paths revisit no node; two paths are distinct when their (edge,
    window) sequences differ.  The search enumerates paths depth-first
    but prunes any branch that is already past the largest finite latency
    from its source, so saturated networks stay cheap.  Worst-case cost
    is still exponential in node count, which is fine at modality scale.
    """
    n = tn.n_nodes
    T = tn.n_layers
    neighbors = [[np.nonzero(tn.layers[t][u])[0] for u in range(n)] for t in range(T)]
    counts = np.zeros((n, n), dtype=np.int64)

    for source in range(n):
        finite = latency[source][np.isfinite(latency[source])]
        horizon = int(finite.max()) if finite.size else 0

        stack = [(source, 0, 1 << source)]
        while stack:
            node, window, visited = stack.pop()
            for t in range(window + 1, horizon + 1):
                for nxt in neighbors[t - 1][node]:
                    bit = 1 << int(nxt)
                    if visited & bit:
                        continue
                    if latency[source, nxt] == t:
                        counts[source, nxt] += 1
                    if t < horizon:
                        stack.append((int(nxt), t, visited | bit))
    return counts


def reachability_and_latency(tn: TemporalNetwork) -> ReachabilityReport:
    """Latency matrix, fastest-path counts, strong/weak pair sets."""
    _check(tn)
    latency = _latency_matrix(tn)
    counts = _fastest_counts(tn, latency)
    strong = set()
    weak = set()
    n = tn.n_nodes
    for i in range(n):
        for j in range(i + 1, n):
            fwd = np.isfinite(latency[i, j])
            bwd = np.isfinite(latency[j, i])
            pair = (tn.nodes[i], tn.nodes[j])
            if fwd and bwd:
                strong.add(pair)
            elif fwd or bwd:
                weak.add(pair)
    return ReachabilityReport(
        nodes=tn.nodes,
        latency=latency,
        fastest_path_counts=counts,
        strong_pairs=frozenset(strong),
        weak_pairs=frozenset(weak),
    )


def _efficiency(latency: np.ndarray) -> float:
    """Mean of 1/latency over ordered node pairs (1/inf counted as 0)."""
    off = ~np.eye(len(latency), dtype=bool)
    with np.errstate(divide="ignore"):
        inv = 1.0 / latency[off]
    return float(np.where(np.isfinite(inv), inv, 0.0).mean())


def temporal_correlation(tn: TemporalNetwork) -> tuple[np.ndarray, float]:
    """Per-node topological overlap between consecutive layers, and its mean.

    C_i averages, over consecutive layer pairs, the ratio of preserved
    neighbors to the geometric mean of the two degrees; a pair with a
    zero degree on either side contributes 0.
    """
    _check(tn)
    if tn.n_layers < 2:
        raise InputError("temporal correlation needs at least 2 layers")
    layers = tn.layers.astype(float)
    a, b = layers[:-1], layers[1:]
    overlap = (a * b).sum(axis=2)
    deg = np.sqrt(a.sum(axis=2) * b.sum(axis=2))
    terms = np.divide(overlap, deg, out=np.zeros_like(overlap), where=deg > 0)
    per_node = terms.mean(axis=0)
    return per_node, float(per_node.mean())


def _edge_list(layer: np.ndarray) -> list[list[int]]:
    """Upper-triangle edges [i, j], i < j, of one layer in row-major order."""
    return np.argwhere(np.triu(layer, k=1)).tolist()


def _words(rng: np.random.Generator, batch: int) -> Iterator[int]:
    """``rng``'s 32-bit words, drawn ``batch`` at a time; each batch continues the stream."""
    while True:
        yield from rng.integers(0, 1 << 32, size=batch, dtype=np.uint32).tolist()


def _bounded(words: Iterator[int], k: int) -> int:
    """``Generator.integers(0, k)`` for 2 <= k <= 2**32, from the generator's ``words``."""
    threshold = ((1 << 32) - k) % k
    while True:
        scaled = next(words) * k
        if scaled & 0xFFFFFFFF >= threshold:
            return scaled >> 32


def _rewire_layer(layer: np.ndarray, edges: list, words: Iterator[int]) -> np.ndarray:
    """Degree-preserving rewiring of one simple undirected layer.

    ``edges`` is the layer's ``_edge_list`` and is left unmodified.  The
    swaps run on Python lists and take their integers from ``words`` by
    NumPy's own rule for ``Generator.integers(0, k)`` (its
    ``random_bounded_uint64`` path; Lemire 2019, ACM TOMACS 29(1):3): a
    word u maps to ``(u * k) >> 32``, drawn again while the low word of
    ``u * k`` is below ``(2**32 - k) % k``.  The swaps are those the same
    ``rng.integers`` calls give, without NumPy's per-call overhead.
    """
    m = len(edges)
    if m < 2:
        return layer.copy()
    edges = list(edges)
    adj = layer.tolist()
    attempts = 4 * m
    for _ in range(attempts):
        k1 = _bounded(words, m)
        k2 = _bounded(words, m)
        if k1 == k2:
            continue
        a, b = edges[k1]
        c, d = edges[k2]
        if _bounded(words, 2):
            c, d = d, c
        # a != b and c != d hold for every edge
        if a == c or a == d or b == c or b == d:
            continue
        if adj[a][d] or adj[c][b]:
            continue
        adj[a][b] = adj[b][a] = False
        adj[c][d] = adj[d][c] = False
        adj[a][d] = adj[d][a] = True
        adj[c][b] = adj[b][c] = True
        edges[k1] = (min(a, d), max(a, d))
        edges[k2] = (min(c, b), max(c, b))
    return np.array(adj, dtype=bool)


def _null_layers(layers: np.ndarray, edges: list, rng: np.random.Generator) -> np.ndarray:
    """One null: every layer rewired in order from one batch of ``rng``'s words.

    The batch covers 4*m attempts of at most three words for each layer of
    m edges, so only rejected draws refill it.  ``rng`` must be the null's
    own: the words left over are lost.
    """
    words = _words(rng, 12 * sum(len(e) for e in edges))
    return np.stack([_rewire_layer(layer, e, words) for layer, e in zip(layers, edges)])


def _mean_finite_latency(latency: np.ndarray) -> float:
    """Mean finite off-diagonal latency; nan when no pair is reachable."""
    off = ~np.eye(len(latency), dtype=bool)
    finite = latency[off][np.isfinite(latency[off])]
    return float(finite.mean()) if finite.size else float("nan")


def temporal_small_worldness(
    tn: TemporalNetwork, n_null: int = DEFAULT_N_NULL, seed: int = 0
) -> SmallWorldness:
    """Small-worldness ratio against per-layer degree-preserving nulls.

    S = (C / <C_null>) / (L / <L_null>) with C the network temporal
    correlation and L the mean finite latency.  Returns (0, True) when L
    is undefined here or in every comparison it needs (no reachable
    pairs, zero null means).
    """
    _check(tn)
    if n_null < 1:
        raise InputError(f"n_null must be >= 1, got {n_null}")
    if tn.n_layers < 2 or not tn.layers.any():
        return SmallWorldness(0.0, True)

    _, c_value = temporal_correlation(tn)
    l_value = _mean_finite_latency(_latency_matrix(tn))
    if not np.isfinite(l_value):
        return SmallWorldness(0.0, True)

    edges = [_edge_list(layer) for layer in tn.layers]
    c_nulls = np.empty(n_null)
    l_nulls = np.empty(n_null)
    for k in range(n_null):
        layers = _null_layers(tn.layers, edges, generator(seed, f"null:{k}"))
        null = TemporalNetwork(
            nodes=tn.nodes, layers=layers, binarize_rule=tn.binarize_rule, metric=tn.metric
        )
        _, c_nulls[k] = temporal_correlation(null)
        l_nulls[k] = _mean_finite_latency(_latency_matrix(null))

    l_nulls = l_nulls[np.isfinite(l_nulls)]
    if l_nulls.size == 0:
        return SmallWorldness(0.0, True)
    c_null = c_nulls.mean()
    l_null = l_nulls.mean()
    if c_null == 0.0 or l_null == 0.0 or l_value == 0.0:
        return SmallWorldness(0.0, True)
    return SmallWorldness(float((c_value / c_null) / (l_value / l_null)), False)


def feature_vector(
    tn: TemporalNetwork, n_null: int = DEFAULT_N_NULL, seed: int = 0
) -> TemporalFeatures:
    """Fixed-order temporal feature summary of one network.

    Degenerate metrics (nothing reachable, zero-edge nulls) become
    flagged zeros so downstream feature tables never hold missing cells.
    """
    _check(tn)
    report = reachability_and_latency(tn)
    n = tn.n_nodes
    off = ~np.eye(n, dtype=bool)

    mean_latency = _mean_finite_latency(report.latency)
    if not np.isfinite(mean_latency):
        mean_latency = 0.0

    reachable = np.isfinite(report.latency) & off
    mean_paths = (
        float(report.fastest_path_counts[reachable].mean()) if reachable.any() else 0.0
    )

    efficiency = _efficiency(report.latency) if n >= 2 else 0.0

    if tn.n_layers >= 2:
        per_node, corr = temporal_correlation(tn)
    else:
        per_node, corr = np.zeros(n), 0.0

    sw = temporal_small_worldness(tn, n_null=n_null, seed=seed)

    n_pairs = n * (n - 1) // 2
    frac_strong = len(report.strong_pairs) / n_pairs if n_pairs else 0.0
    frac_weak = len(report.weak_pairs) / n_pairs if n_pairs else 0.0

    return TemporalFeatures(
        efficiency=efficiency,
        mean_latency=mean_latency,
        mean_fastest_paths=mean_paths,
        temporal_correlation=corr,
        small_worldness=sw.value,
        small_worldness_degenerate=sw.degenerate,
        frac_strong=frac_strong,
        frac_weak=frac_weak,
        per_node_correlation=tuple(float(c) for c in per_node),
        reachability=report,
    )
