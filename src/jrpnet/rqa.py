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

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .recurrence import RecurrenceMatrix

__all__ = [
    "RqaSummary",
    "determinism",
    "laminarity",
    "recurrence_rate",
    "mean_diagonal_length",
    "mean_vertical_length",
    "summarize",
]

DEFAULT_L_MIN = 3
DEFAULT_V_MIN = 3


@dataclass(frozen=True)
class RqaSummary:
    """Determinism, laminarity and density of one recurrence matrix."""

    det: float
    lam: float
    recurrence_rate: float
    l_min: int
    v_min: int


def _off_diagonal(matrix: RecurrenceMatrix | np.ndarray) -> np.ndarray:
    """Boolean copy of a square matrix with the main diagonal cleared."""
    bits = matrix.bits if isinstance(matrix, RecurrenceMatrix) else np.asarray(matrix)
    if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
        raise InputError("recurrence matrix must be square")
    bits = bits.astype(bool)
    np.fill_diagonal(bits, False)
    return bits


def _lines(matrix: RecurrenceMatrix | np.ndarray, length: int, diagonal: bool):
    """Off-diagonal bits, eroded matrix and number of points on lines.

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
    return bits, eroded, np.count_nonzero(covered)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _mean_line_length(matrix: RecurrenceMatrix | np.ndarray, length: int, diagonal: bool) -> float:
    """Points on lines over number of lines; a line starts at an eroded
    cell whose predecessor along the line is not eroded."""
    _, eroded, points = _lines(matrix, length, diagonal)
    c = 1 if diagonal else 0
    starts = eroded.copy()
    starts[1:, c:] &= ~eroded[:-1, : eroded.shape[1] - c]
    return _ratio(points, np.count_nonzero(starts))


def determinism(matrix: RecurrenceMatrix | np.ndarray, l_min: int = DEFAULT_L_MIN) -> float:
    """Fraction of off-diagonal recurrence points on diagonal lines of
    length >= l_min; 0 when no off-diagonal points exist."""
    bits, _, points = _lines(matrix, l_min, diagonal=True)
    return _ratio(points, np.count_nonzero(bits))


def laminarity(matrix: RecurrenceMatrix | np.ndarray, v_min: int = DEFAULT_V_MIN) -> float:
    """Fraction of off-diagonal recurrence points on vertical lines of
    length >= v_min; main-diagonal points are removed before lines form."""
    bits, _, points = _lines(matrix, v_min, diagonal=False)
    return _ratio(points, np.count_nonzero(bits))


def recurrence_rate(matrix: RecurrenceMatrix | np.ndarray) -> float:
    """Off-diagonal density of the matrix."""
    bits = _off_diagonal(matrix)
    n = len(bits)
    return _ratio(np.count_nonzero(bits), n * n - n)


def mean_diagonal_length(
    matrix: RecurrenceMatrix | np.ndarray, l_min: int = DEFAULT_L_MIN
) -> float:
    """Mean length of diagonal lines of length >= l_min (0 if none).

    Auxiliary reading of determinism as an average line length rather
    than a point fraction.
    """
    return _mean_line_length(matrix, l_min, diagonal=True)


def mean_vertical_length(
    matrix: RecurrenceMatrix | np.ndarray, v_min: int = DEFAULT_V_MIN
) -> float:
    """Mean length of vertical lines of length >= v_min (0 if none)."""
    return _mean_line_length(matrix, v_min, diagonal=False)


def summarize(
    matrix: RecurrenceMatrix | np.ndarray,
    l_min: int = DEFAULT_L_MIN,
    v_min: int = DEFAULT_V_MIN,
) -> RqaSummary:
    """Bundle determinism, laminarity and recurrence rate of one matrix."""
    return RqaSummary(
        det=determinism(matrix, l_min),
        lam=laminarity(matrix, v_min),
        recurrence_rate=recurrence_rate(matrix),
        l_min=l_min,
        v_min=v_min,
    )
