"""Delay-embedding parameter estimation and trajectory reconstruction.

The delay tau comes from the first local minimum of the average mutual
information (AMI) between a channel and its lagged copy, or is 1 when
that minimum sits at the AMI's bias floor (a fast-mixing, map-like
signal); the dimension m comes from the false-nearest-neighbors
criterion.  Both estimators run once per channel on the full trial, and
every window of that channel reuses the same parameters so recurrence
plots stay size-aligned across windows.

A state's nearest neighbor is the lowest-index state among all other
states at the nearest distance, so the false-neighbor count is a function
of the data alone, also when quantized samples make states coincide or
lie equally far apart.  A KD-tree's three nearest states settle most
rows; a row whose own state does not come first, or whose two nearest
other states are equally far, is settled by exact distances to every
state.

The dimension scan only asks whether each m's false-neighbor fraction is
below a threshold, so a rejected m's fraction is not fully counted: its
nearest-neighbor queries stop as soon as the false neighbors found so far
decide it.  Only the accepted m is counted over every state.  The rows
are queried in chunks, each sized to reach the rejecting count at the
false-neighbor rate seen so far, with 20% headroom.  The count only
grows, so it stays below the rejecting count in every chunk exactly when
it does over all states: chunk sizes change the work, never the answer.

AMI uses a plug-in histogram estimate over 16 equal-width bins.  Finite
sampling biases such a histogram away from zero even for independent
variables, so "the AMI has reached its minimum" is judged against the
first-order chi-square bias floor (bins-1)^2 / (2 n) rather than against
zero, and plateau-shaped minima are resolved to the midpoint of their
basin instead of to whichever lag float jitter happens to favor.  A first
minimum at or below twice the floor means the delay coordinates are
already independent there, so the delay is 1, the lag that keeps the
most dependence.  The delay estimator computes the curve in doubling
prefixes of lags (8, 16, ...), each lag once, and extends it to every lag
only when the first minimum is above the floor, or there is none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, InputError

__all__ = [
    "EmbeddingParams",
    "DimensionEstimate",
    "ami_curve",
    "estimate_delay",
    "estimate_dimension",
    "embed",
]

#: Histogram bins for the AMI estimate.
AMI_BINS = 16
#: Smallest signal the delay estimator accepts.
MIN_DELAY_SAMPLES = 64
#: Largest embedding dimension the FNN scan will try.
DEFAULT_M_MAX = 10
#: Kennel criteria: relative growth and absolute size thresholds.
FNN_RTOL = 10.0
FNN_ATOL = 2.0
#: A dimension is accepted once the false-neighbor fraction drops below this.
FNN_THRESHOLD = 0.05
#: Leaf size of the scan's KD-tree, built unbalanced and without shrunk
#: node boxes.  Build plus a query of 20% of the rows, summed over the 120
#: benchmark channels on 2 vCPUs, at m = 10: 318 ms at leaf size 8, 261 ms
#: at 16, 205 ms at 64, at or near the best at every m.  The whole scan
#: took 0.90 s at 16, 0.75 s at 64 and 1.55 s at 4096 (a single leaf).
FNN_LEAF_SIZE = 64


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay (in samples) and dimension of a phase-space reconstruction."""

    delay_tau: int
    dimension_m: int

    def __post_init__(self) -> None:
        if self.delay_tau < 1:
            raise InputError(f"delay_tau must be >= 1, got {self.delay_tau}")
        if self.dimension_m < 1:
            raise InputError(f"dimension_m must be >= 1, got {self.dimension_m}")


class DimensionEstimate(NamedTuple):
    dimension: int
    saturated: bool


def _as_signal(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise InputError("signal contains non-finite values")
    return x


def _bin_codes(x: np.ndarray) -> np.ndarray:
    lo = x.min()
    width = x.max() - lo
    return np.minimum((x - lo) * (AMI_BINS / width), AMI_BINS - 1).astype(np.int64)


def _ami_lags(codes: np.ndarray, first: int, last: int) -> np.ndarray:
    """Plug-in AMI (nats) between bin codes and their lag-k copies, k=first..last."""
    out = np.empty(last - first + 1)
    for k in range(first, last + 1):
        a = codes[:-k]
        b = codes[k:]
        joint = np.bincount(a * AMI_BINS + b, minlength=AMI_BINS * AMI_BINS).astype(float)
        joint /= a.size
        pa = joint.reshape(AMI_BINS, AMI_BINS).sum(axis=1)
        pb = joint.reshape(AMI_BINS, AMI_BINS).sum(axis=0)
        denom = np.outer(pa, pb).ravel()
        nz = joint > 0.0
        out[k - first] = float(np.sum(joint[nz] * np.log(joint[nz] / denom[nz])))
    return out


def ami_curve(samples, tau_max: int) -> np.ndarray:
    """Average mutual information (nats) between x(t) and x(t+k), k=1..tau_max.

    The estimate is the plug-in MI of the joint histogram over
    ``AMI_BINS`` equal-width bins spanning the sample range.
    """
    x = _as_signal(samples)
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("AMI of a constant signal is undefined")
    if tau_max >= x.size:
        raise InputError(f"tau_max {tau_max} must be below the signal length {x.size}")
    return _ami_lags(_bin_codes(x), 1, tau_max)


def estimate_delay(samples, tau_max: int | None = None) -> int:
    """Embedding delay: lag of the first local minimum of the AMI curve.

    Scans lags 1..tau_max (default: length/4).  A plateau-shaped minimum
    is reported at its basin midpoint (basin = contiguous lags within 2%
    of the AMI range above the minimum).  If the curve decays without any
    local minimum, the first lag where AMI drops below AMI(1)/e is used;
    failing that, tau = 1.

    A first minimum at or below twice the histogram bias floor gives
    tau = 1.  The first-minimum rule is meant for flows (Fraser & Swinney
    1986).  A fast-mixing map's AMI falls onto the floor within a few
    lags; there its delay coordinates are independent and the dimension
    scan saturates, so the smallest lag, the one that keeps the most
    dependence, is taken instead (Kantz & Schreiber, ch. 3 and 9).  The
    rule does not tell a map from a flow whose minimum also sits at the
    floor, such as a sine under heavy noise or a short random walk, since
    no cheap test separates them there: a rise above twice the floor
    after the minimum marks most such sines, but also some maps and
    walks, and needs every lag of the curve; an AMI(2)/AMI(1) ratio below
    0.8 marks most maps, but also some sines and walks.  This rule reads
    only the doubling prefix that holds the minimum.
    """
    x = _as_signal(samples)
    if x.size < MIN_DELAY_SAMPLES:
        raise DegenerateInputError(
            f"delay estimation needs >= {MIN_DELAY_SAMPLES} samples, got {x.size}"
        )
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("cannot estimate a delay for a constant signal")
    if tau_max is None:
        tau_max = max(2, x.size // 4)
    tau_max = min(tau_max, x.size - 1)

    # Independence-level AMI for this sample size (chi-square bias of the
    # plug-in histogram estimate); curves at or below twice this floor
    # carry no dependence structure worth waiting for.
    floor = (AMI_BINS - 1) ** 2 / (2.0 * (x.size - 1))
    codes = _bin_codes(x)
    v = _ami_lags(codes, 1, min(8, tau_max))
    if v[0] <= 2.0 * floor:
        return 1
    # A lag's AMI does not depend on tau_max, so the curve grows in doubling
    # prefixes, each lag computed once, until it shows an interior minimum;
    # only the plateau and no-minimum rules need all of it.
    while True:
        interior = np.nonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:]))[0]
        if interior.size or v.size == tau_max:
            break
        v = np.append(v, _ami_lags(codes, v.size + 1, min(2 * v.size, tau_max)))
    if interior.size and v[interior[0] + 1] <= 2.0 * floor:
        return 1
    v = np.append(v, _ami_lags(codes, v.size + 1, tau_max))
    if interior.size == 0:
        drops = np.nonzero(v < v[0] / np.e)[0]
        return int(drops[0]) + 1 if drops.size else 1
    kstar = int(interior[0]) + 1  # 0-based index into v

    level = v[kstar] + 0.02 * (v.max() - v.min())
    a = kstar
    while a > 0 and v[a - 1] <= level:
        a -= 1
    b = kstar
    while b + 1 < v.size and v[b + 1] <= level:
        b += 1
    return (a + b) // 2 + 1


def _false_neighbor_counts(x: np.ndarray, m: int, tau: int, scale: float, first: int):
    """Cumulative Kennel false-neighbor counts when growing dimension m -> m+1.

    A state's neighbor is the lowest-index state among all other states at
    the nearest distance.  The states are queried in row chunks; after each
    chunk this yields the number of false neighbors among all rows queried
    so far, and the last value counts every state.  The first chunk holds
    ``first`` rows, the count that rejects m; each next one is sized to
    find the false neighbors still missing at the rate seen so far, plus
    20%, or takes every remaining row while none has been found.  The
    counts are cumulative, so whether one of them reaches ``first``
    depends on the data alone, not on the chunking.  ``scale`` is the
    signal's standard deviation.
    """
    n_usable = x.size - m * tau
    states = np.stack([x[i * tau : i * tau + n_usable] for i in range(m)], axis=1)
    ahead = x[m * tau : m * tau + n_usable]
    tree = cKDTree(states, leafsize=FNN_LEAF_SIZE, balanced_tree=False, compact_nodes=False)
    # Exact repeats of periodic signals give dist ~ 0 with extra at float
    # noise; those are true recurrences, not false neighbors, so the
    # relative criterion also demands growth above machine noise.
    noise_floor = 1e-9 * scale
    # rows per block of exact distances: each block holds about 2**16 of them
    block = max(1, 2**16 // n_usable)
    count, start, stop = 0, 0, max(1, first)
    while start < n_usable:
        stop = min(stop, n_usable)
        rows = np.arange(start, stop)
        dist, idx = tree.query(states[start:stop], k=3)
        # The tree orders equally near states its own way.  A row whose own
        # state comes back first and whose two nearest other states differ
        # in distance takes the second column; the rest are resolved by
        # exact distances to every state, lowest index first.
        tied = np.nonzero((idx[:, 0] != rows) | (dist[:, 1] == dist[:, 2]))[0]
        neighbor, dist = idx[:, 1], dist[:, 1]
        for a in range(0, tied.size, block):
            at = tied[a : a + block]
            diff = states[rows[at], None, :] - states[None, :, :]
            d = np.sqrt(np.square(diff, out=diff).sum(axis=2))
            d[np.arange(at.size), rows[at]] = np.inf
            neighbor[at] = np.argmin(d, axis=1)
            dist[at] = d[np.arange(at.size), neighbor[at]]
        extra = np.abs(ahead[start:stop] - ahead[neighbor])
        crit_rel = (extra > FNN_RTOL * dist) & (extra > noise_floor)
        crit_abs = np.sqrt(dist**2 + extra**2) > FNN_ATOL * scale
        count += int(np.count_nonzero(crit_rel | crit_abs))
        yield count
        missing = max(first - count, 1)
        start = stop
        stop += math.ceil(1.2 * missing * stop / count) if count else n_usable


def estimate_dimension(
    samples,
    tau: int,
    m_max: int = DEFAULT_M_MAX,
    threshold: float = FNN_THRESHOLD,
) -> DimensionEstimate:
    """Embedding dimension via false nearest neighbors.

    Returns the smallest m in 1..m_max whose false-neighbor fraction
    falls below ``threshold``; if none does, returns m_max with the
    saturation flag set (typical of noise-dominated signals).  A
    rejected m is not fully counted: its scan stops at the first row
    chunk whose false neighbors alone reach ``threshold`` of all states,
    which the full count could only confirm.  The accepted m is counted
    over every state.
    """
    x = _as_signal(samples)
    if tau < 1:
        raise InputError(f"tau must be >= 1, got {tau}")
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("cannot estimate a dimension for a constant signal")
    if x.size < m_max * tau + 2:
        raise DegenerateInputError(
            f"need more than {m_max * tau + 1} samples to scan dimensions "
            f"up to {m_max} at tau={tau}, got {x.size}"
        )
    scale = x.std()
    for m in range(1, m_max + 1):
        n_usable = x.size - m * tau
        # fewer rows than this cannot hold enough false neighbors to reject m
        first = math.ceil(threshold * n_usable)
        counts = _false_neighbor_counts(x, m, tau, scale, first)
        if all(count / n_usable < threshold for count in counts):
            return DimensionEstimate(dimension=m, saturated=False)
    return DimensionEstimate(dimension=m_max, saturated=True)


def embed(samples, params: EmbeddingParams) -> np.ndarray:
    """Delay-embedded states of one channel.

    The result has shape (N, m) with N = L - (m-1)*tau; row i is
    (s_i, s_{i+tau}, ..., s_{i+(m-1)tau}).
    """
    x = _as_signal(samples)
    tau, m = params.delay_tau, params.dimension_m
    n_states = x.size - (m - 1) * tau
    if n_states < 2:
        raise InputError(
            f"cannot embed {x.size} samples with m={m}, tau={tau}: "
            f"would yield {n_states} states, need >= 2"
        )
    return np.stack([x[i * tau : i * tau + n_states] for i in range(m)], axis=1)
