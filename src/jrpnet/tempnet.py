"""Temporal graph metrics over binarized window networks.

A time-respecting path hops along edges at strictly increasing window
indices (at most one hop per window; waiting at a node is free).  All
reachability notions start from before the first window, so the latency
of a pair is simply the earliest window by which the target can be
reached.  On top of that sit temporal efficiency, fastest-path counts,
the temporal correlation coefficient (topological overlap between
consecutive layers), a small-worldness ratio against degree-preserving
nulls, and strong/weak connectedness fractions.  The latency and
correlation kernels take layer stacks with leading axes, so a network's
nulls are scored as one (n_null, T, n, n) stack by the network's own
kernels; each null rewires edge lists from one batch of 32-bit words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .netbuild import TemporalNetwork
from .seeding import generator

__all__ = [
    "ReachabilityReport",
    "TemporalFeatures",
    "SmallWorldness",
    "reachability_and_latency",
    "temporal_correlation",
    "temporal_small_worldness",
    "feature_vector",
]

#: The scalar feature columns in order; a ``corr_<node>`` column per node
#: follows.  A change of this layout bumps ``config.CONFIG_SCHEMA_VERSION``.
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


def _latency_matrix(layers: np.ndarray) -> np.ndarray:
    """Earliest-arrival windows of a (..., T, n, n) layer stack, shape (..., n, n),
    by a boolean reachability sweep (boolean matmul: relay counts cannot wrap)."""
    layers = layers.astype(bool, copy=False)
    n = layers.shape[-1]
    reached = np.broadcast_to(np.eye(n, dtype=bool), (*layers.shape[:-3], n, n)).copy()
    latency = np.where(reached, 0.0, np.inf)
    for t in range(layers.shape[-3]):
        fresh = (reached @ layers[..., t, :, :]) & ~reached
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
    latency = _latency_matrix(tn.layers)
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


def _node_correlation(layers: np.ndarray) -> np.ndarray:
    """Per-node temporal correlation of a (..., T, n, n) layer stack, shape (..., n)."""
    layers = layers.astype(float)
    a, b = layers[..., :-1, :, :], layers[..., 1:, :, :]
    overlap = (a * b).sum(axis=-1)
    deg = np.sqrt(a.sum(axis=-1) * b.sum(axis=-1))
    terms = np.divide(overlap, deg, out=np.zeros_like(overlap), where=deg > 0)
    return terms.mean(axis=-2)


def temporal_correlation(tn: TemporalNetwork) -> tuple[np.ndarray, float]:
    """Per-node topological overlap between consecutive layers, and its mean.

    C_i averages, over consecutive layer pairs, the ratio of preserved
    neighbors to the geometric mean of the two degrees; a pair with a
    zero degree on either side contributes 0.
    """
    _check(tn)
    if tn.n_layers < 2:
        raise InputError("temporal correlation needs at least 2 layers")
    per_node = _node_correlation(tn.layers)
    return per_node, float(per_node.mean())


def _bounded(words: list[int], i: int, k: int, rng: np.random.Generator) -> tuple[int, int]:
    """``Generator.integers(0, k)`` for 2 <= k <= 2**32 from ``words[i:]``,
    and the index of the first word it left.

    NumPy's own rule (its ``random_bounded_uint64`` path; Lemire 2019, ACM
    TOMACS 29(1):3): a word u maps to ``(u * k) >> 32``, drawn again while
    the low word of ``u * k`` is below ``(2**32 - k) % k``.  ``words``
    holds ``rng``'s 32-bit words in stream order; each rejected word is made
    up for by the next one appended, so a word per draw always suffices.
    """
    threshold = ((1 << 32) - k) % k
    scaled = words[i] * k
    while scaled & 0xFFFFFFFF < threshold:
        words.append(int(rng.integers(0, 1 << 32, dtype=np.uint32)))
        i += 1
        scaled = words[i] * k
    return scaled >> 32, i + 1


def _rewire(
    edges: list, neighbors: list[int], words: list[int], i: int, rng: np.random.Generator
) -> int:
    """Degree-preserving swaps of one simple undirected layer, in place.

    ``edges`` is the layer's edge list and ``neighbors[u]`` the bitmask
    of u's neighbors.  Each of 4*m attempts draws two edge indices by
    ``_bounded`` and, when they differ, a coin from ``words[i:]``;
    returns the index of the first word left.
    """
    m = len(edges)
    if m < 2:
        return i
    for _ in range(4 * m):
        k1, i = _bounded(words, i, m, rng)
        k2, i = _bounded(words, i, m, rng)
        if k1 == k2:
            continue
        a, b = edges[k1]
        c, d = edges[k2]
        # a coin, k = 2, is never rejected: (2**32 - 2) % 2 == 0
        if words[i] >> 31:
            c, d = d, c
        i += 1
        # a != b and c != d hold for every edge
        if a == c or a == d or b == c or b == d:
            continue
        if neighbors[a] >> d & 1 or neighbors[c] >> b & 1:
            continue
        neighbors[a] ^= (1 << b) | (1 << d)
        neighbors[b] ^= (1 << a) | (1 << c)
        neighbors[c] ^= (1 << d) | (1 << b)
        neighbors[d] ^= (1 << c) | (1 << a)
        edges[k1] = (a, d) if a < d else (d, a)
        edges[k2] = (c, b) if c < b else (b, c)
    return i


def _null_stack(layers: np.ndarray, n_null: int, seed: int) -> np.ndarray:
    """The (n_null, T, n, n) stack of degree-preserving nulls of ``layers``.

    Null k rewires every layer in order from one batch of the 32-bit words
    of ``generator(seed, f"null:{k}")``: 4*m attempts of at most three
    words for each layer of m edges, so only rejected draws add words.
    """
    n_layers, n, _ = layers.shape
    # each layer's edges [a, b], a < b, in row-major order
    edges = [np.argwhere(np.triu(layer, k=1)).tolist() for layer in layers]
    neighbors = [[0] * n for _ in layers]
    for t, a, b in np.argwhere(layers).tolist():
        neighbors[t][a] |= 1 << b
    sizes = [len(e) for e in edges]
    total = sum(sizes)
    null_edges = []
    for k in range(n_null):
        rng = generator(seed, f"null:{k}")
        words, i = rng.integers(0, 1 << 32, size=12 * total, dtype=np.uint32).tolist(), 0
        for layer_edges, layer_neighbors in zip(edges, neighbors):
            swapped = list(layer_edges)
            i = _rewire(swapped, list(layer_neighbors), words, i, rng)
            null_edges += swapped
    ends = np.fromiter(chain.from_iterable(null_edges), np.intp, 2 * n_null * total)
    ends = ends.reshape(n_null, total, 2)
    nulls = np.arange(n_null)[:, None]
    windows = np.repeat(np.arange(n_layers), sizes)
    stack = np.zeros((n_null, n_layers, n, n), dtype=bool)
    stack[nulls, windows, ends[..., 0], ends[..., 1]] = True
    return stack | stack.swapaxes(-2, -1)


def _mean_finite_latency(latency: np.ndarray) -> np.ndarray:
    """Mean finite off-diagonal latency over the last two axes, nan if none."""
    finite = np.isfinite(latency) & ~np.eye(latency.shape[-1], dtype=bool)
    total = np.where(finite, latency, 0.0).sum(axis=(-2, -1))
    with np.errstate(invalid="ignore"):
        return total / finite.sum(axis=(-2, -1))


def temporal_small_worldness(
    tn: TemporalNetwork, n_null: int = DEFAULT_N_NULL, seed: int = 0
) -> SmallWorldness:
    """Small-worldness ratio against per-layer degree-preserving nulls.

    S = (C / <C_null>) / (L / <L_null>) with C the network temporal
    correlation and L the mean finite latency.  The nulls are scored as
    one stack, by the same correlation and latency kernels as the
    network.  Returns (0, True) when no layer has an edge (L undefined)
    or the nulls' mean correlation is zero.
    """
    _check(tn)
    if n_null < 1:
        raise InputError(f"n_null must be >= 1, got {n_null}")
    if tn.n_layers < 2 or not tn.layers.any():
        return SmallWorldness(0.0, True)

    # an edge makes L finite and >= 1, here and in every null, since each
    # null keeps every layer's edge count
    _, c_value = temporal_correlation(tn)
    l_value = _mean_finite_latency(_latency_matrix(tn.layers))
    nulls = _null_stack(tn.layers, n_null, seed)
    c_null = _node_correlation(nulls).mean(axis=-1).mean()
    l_null = _mean_finite_latency(_latency_matrix(nulls)).mean()
    if c_null == 0.0:
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

    mean_latency = float(_mean_finite_latency(report.latency))
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
