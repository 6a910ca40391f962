"""Recurrence plots and joint recurrence plots.

A recurrence plot is an ``(n, n)`` bool array that marks every pair of
trajectory states within a threshold epsilon of each other in the L1
(city-block) distance.  The joint recurrence plot of two channels is the
elementwise AND of their individual plots, cropped to a common size when
different embedding parameters trim the trajectories to different
lengths.  Thresholds are picked per channel so that every plot hits the
same target recurrence rate, which keeps densities comparable across
heterogeneous modalities.

A channel's threshold holds for the whole trial, so the plots of two
overlapping windows agree on their shared states: a window's plot can
take the previous window's overlap block and compute only the rows of its
new states.  ``recurrence_plot`` builds every plot, whole or from shared
rows.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import DegenerateInputError, InputError

__all__ = ["threshold_for_rate", "recurrence_plot", "joint_recurrence_plot"]

DEFAULT_TARGET_RR = 0.1


def _states(trajectory: np.ndarray) -> np.ndarray:
    states = np.asarray(trajectory, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2 or states.shape[0] < 2:
        raise InputError("trajectory must provide at least 2 states")
    return states


def threshold_for_rate(trajectory: np.ndarray, target_rr: float = DEFAULT_TARGET_RR) -> float:
    """Threshold achieving a target recurrence rate.

    Returns the empirical quantile at level ``target_rr`` of all
    off-diagonal pairwise L1 state distances, so the resulting plot's
    off-diagonal density lands near ``target_rr``.
    """
    if not 0.0 < target_rr <= 1.0:
        raise InputError(f"target_rr must be in (0, 1], got {target_rr}")
    states = _states(trajectory)
    # every distance is zero exactly when every state is the same point
    if not np.ptp(states, axis=0).any():
        raise DegenerateInputError(
            "all pairwise distances are zero; cannot calibrate a threshold"
        )
    dists = pdist(states, metric="cityblock")
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
    previous: np.ndarray | None = None,
    shift: int = 0,
) -> np.ndarray:
    """Recurrence plot: the ``(n, n)`` bool array whose entry [i, j] is
    set iff the states i and j lie within ``epsilon`` of each other
    (closed L1 ball).

    ``previous`` may be the plot, at the same ``epsilon``, of a trajectory
    of as many states whose states from index ``shift`` on are this
    trajectory's first states, such as the window ``shift`` samples
    earlier; the caller vouches for that.  When 0 < shift < n its block
    ``[shift:, shift:]`` is reused and only the new states' distances to
    all n are computed, mirrored into the new columns; the distance is
    symmetric, so the plot equals a full rebuild.  Otherwise the plot is
    built from scratch.
    """
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    states = _states(trajectory)
    n = states.shape[0]
    if previous is None or not 0 < shift < n:
        return cdist(states, states, metric="cityblock") <= epsilon
    kept = n - shift
    new_rows = cdist(states[kept:], states, metric="cityblock") <= epsilon
    bits = np.empty((n, n), dtype=bool)
    bits[:kept, :kept] = previous[shift:, shift:]
    bits[kept:] = new_rows
    bits[:kept, kept:] = new_rows[:, :kept].T
    return bits


def joint_recurrence_plot(rp_a: np.ndarray, rp_b: np.ndarray) -> np.ndarray:
    """Joint recurrence plot: AND of two plots on their common time range.

    Different embedding parameters leave the two plots with different
    sizes; both trajectories start at the same wall-clock sample, so the
    top-left blocks are the simultaneous part and get combined.
    """
    n = min(len(rp_a), len(rp_b))
    return rp_a[:n, :n] & rp_b[:n, :n]
