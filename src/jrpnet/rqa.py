"""Recurrence quantification: determinism and laminarity.

Determinism is the fraction of recurrence points lying on diagonal lines
of length at least ``l_min``; laminarity is the same for vertical lines
and ``v_min`` (Marwan et al. 2007, Phys. Rep. 438).  Both exclude the
main diagonal from numerator and denominator, which matters doubly for
joint plots whose diagonal is always full.  Lines cut off by the matrix
border count at their truncated length.  On a joint recurrence plot these
are the joint determinism and laminarity used as coupling weights.

Lines are found by erosion: a point lies on a line of length >= l exactly
when it falls inside a run of l ones along the line, so ANDing l shifted
slices marks run starts and ORing those back over the same shifts marks
the points.  Counts stay integers, so the fractions are exact.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .recurrence import RecurrenceMatrix

__all__ = ["determinism", "laminarity"]

DEFAULT_L_MIN = 3
DEFAULT_V_MIN = 3


def _off_diagonal(matrix: RecurrenceMatrix | np.ndarray) -> np.ndarray:
    """Boolean copy of a square matrix with the main diagonal cleared."""
    bits = matrix.bits if isinstance(matrix, RecurrenceMatrix) else np.asarray(matrix)
    if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
        raise InputError("recurrence matrix must be square")
    bits = bits.astype(bool)
    np.fill_diagonal(bits, False)
    return bits


def _lines(matrix: RecurrenceMatrix | np.ndarray, length: int, diagonal: bool):
    """Off-diagonal bits and the number of points on lines.

    A set cell of the eroded matrix starts ``length`` consecutive ones
    down-right (diagonal) or down (vertical).  Only starts whose run fits
    inside the matrix are kept, which is zero padding beyond the border.
    """
    if length < 2:
        raise InputError(f"{'l_min' if diagonal else 'v_min'} must be >= 2, got {length}")
    bits = _off_diagonal(matrix)
    n = len(bits)
    rows = max(n - length + 1, 0)
    cols = rows if diagonal else n

    def shifted(k: int) -> tuple[slice, slice]:
        c = k if diagonal else 0
        return slice(k, k + rows), slice(c, c + cols)

    eroded = bits[shifted(0)].copy()
    for k in range(1, length):
        eroded &= bits[shifted(k)]
    covered = np.zeros_like(bits)
    for k in range(length):
        covered[shifted(k)] |= eroded
    return bits, np.count_nonzero(covered)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def determinism(matrix: RecurrenceMatrix | np.ndarray, l_min: int = DEFAULT_L_MIN) -> float:
    """Fraction of off-diagonal recurrence points on diagonal lines of
    length >= l_min; 0 when no off-diagonal points exist."""
    bits, points = _lines(matrix, l_min, diagonal=True)
    return _ratio(points, np.count_nonzero(bits))


def laminarity(matrix: RecurrenceMatrix | np.ndarray, v_min: int = DEFAULT_V_MIN) -> float:
    """Fraction of off-diagonal recurrence points on vertical lines of
    length >= v_min; main-diagonal points are removed before lines form."""
    bits, points = _lines(matrix, v_min, diagonal=False)
    return _ratio(points, np.count_nonzero(bits))
