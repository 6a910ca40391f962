"""Recurrence quantification: determinism and laminarity.

Determinism is the fraction of recurrence points lying on diagonal lines
of length at least ``l_min``; laminarity is the same for vertical lines
and ``v_min`` (Marwan et al. 2007, Phys. Rep. 438).  Both exclude the
main diagonal from numerator and denominator, which matters doubly for
joint plots whose diagonal is always full.  Lines cut off by the matrix
border count at their truncated length.  On a joint recurrence plot these
are the joint determinism and laminarity used as coupling weights.

Lines are counted by erosion: ANDing k shifted slices leaves one set cell
per start of a run of k ones along the line, so its count N_k is the
number of such starts.  A run of length L >= l has L - l + 1 starts of
l ones and L - l starts of l + 1 ones, so l * N_l - (l - 1) * N_{l+1}
is exactly the number of points on lines of length >= l.  Counts stay
integers, so the fractions are exact.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .recurrence import RecurrenceMatrix

__all__ = ["determinism", "laminarity"]

DEFAULT_L_MIN = 3
DEFAULT_V_MIN = 3


def _padded_off_diagonal(matrix: RecurrenceMatrix | np.ndarray) -> tuple[np.ndarray, int]:
    """The bits of a square n x n matrix with the main diagonal cleared,
    row-major with a zero column appended to every row, as a flat array,
    and n.  In that layout the next cell down a column is ``n + 1`` on,
    the next one down a diagonal ``n + 2`` on, and no diagonal wraps into
    the next row: it runs into the zero column first."""
    bits = matrix.bits if isinstance(matrix, RecurrenceMatrix) else np.asarray(matrix)
    if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
        raise InputError("recurrence matrix must be square")
    n = len(bits)
    padded = np.zeros((n, n + 1), dtype=bool)
    padded[:, :n] = bits
    flat = padded.ravel()
    flat[:: n + 2] = False
    return flat, n


def _lines(matrix: RecurrenceMatrix | np.ndarray, length: int, diagonal: bool):
    """Off-diagonal recurrence points, and those on lines of >= length.

    After k - 1 ANDs with shifted copies, a set cell starts k consecutive
    ones down-right (diagonal) or down (vertical).  Only starts whose run
    fits inside the matrix are kept, which is zero padding beyond the
    border.
    """
    if length < 2:
        raise InputError(f"{'l_min' if diagonal else 'v_min'} must be >= 2, got {length}")
    flat, n = _padded_off_diagonal(matrix)
    step = n + 2 if diagonal else n + 1
    runs = flat.copy()
    starts = []  # N_length, then N_length+1
    for k in range(1, length + 1):
        size = max(flat.size - k * step, 0)
        runs[:size] &= flat[flat.size - size :]
        if k >= length - 1:
            starts.append(np.count_nonzero(runs[:size]))
    points = length * starts[0] - (length - 1) * starts[1]
    return np.count_nonzero(flat), points


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def determinism(matrix: RecurrenceMatrix | np.ndarray, l_min: int = DEFAULT_L_MIN) -> float:
    """Fraction of off-diagonal recurrence points on diagonal lines of
    length >= l_min; 0 when no off-diagonal points exist."""
    total, points = _lines(matrix, l_min, diagonal=True)
    return _ratio(points, total)


def laminarity(matrix: RecurrenceMatrix | np.ndarray, v_min: int = DEFAULT_V_MIN) -> float:
    """Fraction of off-diagonal recurrence points on vertical lines of
    length >= v_min; main-diagonal points are removed before lines form."""
    total, points = _lines(matrix, v_min, diagonal=False)
    return _ratio(points, total)
