"""Recurrence plots and joint recurrence plots.

A recurrence plot marks every pair of trajectory states closer than a
threshold epsilon under a chosen norm.  The joint recurrence plot of two
channels is the elementwise AND of their individual plots, cropped to a
common size when different embedding parameters trim the trajectories to
different lengths.  Thresholds are picked per channel so that every plot
hits the same target recurrence rate, which keeps densities comparable
across heterogeneous modalities.

A channel's threshold holds for the whole trial, so the plots of two
overlapping windows agree on their shared states: a window's plot can
take the previous window's overlap block and compute only the rows of its
new states.  ``recurrence_plot`` builds every plot's bits, whole or from
shared rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import DegenerateInputError, InputError

__all__ = [
    "NORMS",
    "RecurrenceMatrix",
    "threshold_for_rate",
    "recurrence_plot",
    "joint_recurrence_plot",
]

#: Supported distance norms and their scipy metric names.
NORMS = {"L1": "cityblock", "L2": "euclidean", "Linf": "chebyshev"}

DEFAULT_TARGET_RR = 0.1


@dataclass(frozen=True)
class RecurrenceMatrix:
    """Binary recurrence structure of one channel (RP) or channel pair (JRP).

    ``epsilon`` is the threshold for an RP and the pair of parent
    thresholds for a JRP.
    """

    size_n: int
    bits: np.ndarray  # (n, n) bool
    epsilon: float | tuple[float, float]
    norm: str
    kind: str  # "RP" or "JRP"


def _metric(norm: str) -> str:
    try:
        return NORMS[norm]
    except KeyError:
        raise InputError(f"unknown norm {norm!r}; choose one of {sorted(NORMS)}") from None


def _states(trajectory: np.ndarray) -> np.ndarray:
    states = np.asarray(trajectory, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2 or states.shape[0] < 2:
        raise InputError("trajectory must provide at least 2 states")
    return states


def threshold_for_rate(
    trajectory: np.ndarray,
    target_rr: float = DEFAULT_TARGET_RR,
    norm: str = "L1",
) -> float:
    """Threshold achieving a target recurrence rate.

    Returns the empirical quantile at level ``target_rr`` of all
    off-diagonal pairwise state distances, so the resulting plot's
    off-diagonal density lands near ``target_rr``.
    """
    if not 0.0 < target_rr <= 1.0:
        raise InputError(f"target_rr must be in (0, 1], got {target_rr}")
    states = _states(trajectory)
    dists = pdist(states, metric=_metric(norm))
    if not np.any(dists > 0.0):
        raise DegenerateInputError(
            "all pairwise distances are zero; cannot calibrate a threshold"
        )
    # Each unordered pair appears twice among the ordered off-diagonal
    # distances; quantiles are taken over that full population.  In the
    # doubled sorted array entry j equals sorted(dists)[j // 2], so the
    # linear-interpolation quantile needs only two order statistics.
    virtual = target_rr * (2 * dists.size - 1)
    k = int(virtual)
    frac = virtual - k
    # at rate 1.0 the virtual index is the last entry and frac is 0, so
    # the upper statistic is unused; clamp it into range anyway
    lo_i, hi_i = k // 2, min((k + 1) // 2, dists.size - 1)
    # hi_i is lo_i or lo_i + 1, and after an in-place partition at lo_i
    # the next order statistic is the minimum of the tail
    dists.partition(lo_i)
    lo = dists[lo_i]
    hi = dists[hi_i:].min() if hi_i > lo_i else lo
    epsilon = float(lo + frac * (hi - lo))
    if epsilon <= 0.0:
        raise DegenerateInputError(
            f"threshold at rate {target_rr} is zero: too many coincident states"
        )
    return epsilon


def recurrence_plot(
    trajectory: np.ndarray,
    epsilon: float,
    norm: str = "L1",
    previous: RecurrenceMatrix | None = None,
    shift: int = 0,
) -> RecurrenceMatrix:
    """Recurrence plot: bits[i, j] = 1 iff the states i and j lie within
    ``epsilon`` of each other (closed ball) under ``norm``.

    ``previous`` may be the plot of a trajectory whose states from index
    ``shift`` on are this trajectory's first states, such as the window
    ``shift`` samples earlier.  When both plots have n states, the same
    threshold and norm, and 0 < shift < n, its block ``[shift:, shift:]``
    is reused and only the new states' distances to all n are computed,
    mirrored into the new columns; every norm is symmetric, so the bits
    equal a full rebuild.  Otherwise the plot is built from scratch.
    """
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    states = _states(trajectory)
    n = states.shape[0]
    metric = _metric(norm)
    if (
        previous is not None
        and previous.size_n == n
        and previous.epsilon == epsilon
        and previous.norm == norm
        and 0 < shift < n
    ):
        kept = n - shift
        new_rows = cdist(states[kept:], states, metric=metric) <= epsilon
        bits = np.empty((n, n), dtype=bool)
        bits[:kept, :kept] = previous.bits[shift:, shift:]
        bits[kept:] = new_rows
        bits[:kept, kept:] = new_rows[:, :kept].T
    else:
        bits = cdist(states, states, metric=metric) <= epsilon
    return RecurrenceMatrix(
        size_n=n,
        bits=bits,
        epsilon=float(epsilon),
        norm=norm,
        kind="RP",
    )


def joint_recurrence_plot(rp_a: RecurrenceMatrix, rp_b: RecurrenceMatrix) -> RecurrenceMatrix:
    """Joint recurrence plot: AND of two plots on their common time range.

    Different embedding parameters leave the two plots with different
    sizes; both trajectories start at the same wall-clock sample, so the
    top-left blocks are the simultaneous part and get combined.
    """
    if rp_a.kind != "RP" or rp_b.kind != "RP":
        raise InputError("joint_recurrence_plot expects two plain recurrence plots")
    if rp_a.norm != rp_b.norm:
        raise InputError(
            f"parent plots use different norms ({rp_a.norm} vs {rp_b.norm})"
        )
    n = min(rp_a.size_n, rp_b.size_n)
    bits = rp_a.bits[:n, :n] & rp_b.bits[:n, :n]
    return RecurrenceMatrix(
        size_n=n,
        bits=bits,
        epsilon=(float(rp_a.epsilon), float(rp_b.epsilon)),
        norm=rp_a.norm,
        kind="JRP",
    )
