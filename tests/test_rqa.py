"""Determinism and laminarity against brute-force line counting."""

import numpy as np
import pytest

from jrpnet.errors import InputError
from jrpnet.rqa import determinism, laminarity


def diagonal_run_lengths(bits):
    """Lengths of 1-runs along every off-main diagonal, by nested loops."""
    n = bits.shape[0]
    runs = []
    for offset in range(-(n - 1), n):
        if offset == 0:
            continue
        diag = np.diagonal(bits, offset)
        run = 0
        for v in diag:
            if v:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        if run:
            runs.append(run)
    return runs


def vertical_run_lengths(bits):
    """Lengths of 1-runs down every column, main diagonal removed."""
    work = bits.copy()
    np.fill_diagonal(work, False)
    runs = []
    for j in range(work.shape[1]):
        run = 0
        for v in work[:, j]:
            if v:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        if run:
            runs.append(run)
    return runs


def brute_det(bits, l_min):
    runs = diagonal_run_lengths(bits)
    total = sum(runs)
    if total == 0:
        return 0.0
    return sum(r for r in runs if r >= l_min) / total


def brute_lam(bits, v_min):
    runs = vertical_run_lengths(bits)
    total = sum(runs)
    if total == 0:
        return 0.0
    return sum(r for r in runs if r >= v_min) / total


def random_symmetric(rng, n, density):
    upper = rng.random((n, n)) < density
    bits = np.triu(upper, k=1)
    bits = bits | bits.T
    np.fill_diagonal(bits, True)
    return bits


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        bits = random_symmetric(rng, n, float(rng.uniform(0.05, 0.6)))
        l_min = int(rng.integers(2, 5))
        v_min = int(rng.integers(2, 5))
        assert determinism(bits, l_min) == pytest.approx(brute_det(bits, l_min))
        assert laminarity(bits, v_min) == pytest.approx(brute_lam(bits, v_min))


def test_hand_constructed_det():
    # one length-3 diagonal line (plus mirror) and one isolated pair:
    # 6 + 2 points on lines of length >= 3 out of 8 -> det = 0.75
    n = 6
    bits = np.eye(n, dtype=bool)
    for i in range(3):
        bits[i, i + 1] = bits[i + 1, i] = True
    bits[0, 5] = bits[5, 0] = True
    assert determinism(bits, 3) == pytest.approx(0.75)
    assert brute_det(bits, 3) == pytest.approx(0.75)


def test_hand_constructed_lam():
    # column 4 carries a vertical run of 3; total off-diagonal points 6
    bits = np.eye(5, dtype=bool)
    for i in (0, 1, 2):
        bits[i, 4] = bits[4, i] = True
    assert laminarity(bits, 3) == pytest.approx(0.5)
    assert brute_lam(bits, 3) == pytest.approx(0.5)


def test_saturated_and_empty_matrices():
    # all ones: only the short border diagonals (lengths 1 and 2) fall
    # below l_min = 3, leaving 126 of the 132 off-diagonal points on lines
    ones = np.ones((12, 12), dtype=bool)
    assert determinism(ones) == pytest.approx(126 / 132)
    assert laminarity(ones) == pytest.approx(126 / 132)
    assert determinism(ones) == pytest.approx(brute_det(ones, 3))
    assert laminarity(ones) == pytest.approx(brute_lam(ones, 3))

    identity = np.eye(9, dtype=bool)
    assert determinism(identity) == 0.0
    assert laminarity(identity) == 0.0


def test_isolated_points_count_zero():
    bits = np.eye(7, dtype=bool)
    bits[0, 3] = bits[3, 0] = True
    bits[1, 5] = bits[5, 1] = True
    assert determinism(bits, 2) == 0.0
    assert laminarity(bits, 2) == 0.0


def test_main_diagonal_never_counts():
    # only the main diagonal is set: no off-diagonal structure at all
    bits = np.eye(20, dtype=bool)
    assert determinism(bits, 2) == 0.0
    # adding one long diagonal line changes det to 1
    for i in range(15):
        bits[i, i + 2] = bits[i + 2, i] = True
    assert determinism(bits, 3) == 1.0


def test_det_monotone_in_l_min():
    rng = np.random.default_rng(77)
    for _ in range(15):
        bits = random_symmetric(rng, 30, 0.3)
        values = [determinism(bits, l) for l in range(2, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_asymmetric_matrices_also_match_brute_force():
    # joint plots are symmetric but the counters must not assume it
    rng = np.random.default_rng(78)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        bits = rng.random((n, n)) < float(rng.uniform(0.1, 0.5))
        np.fill_diagonal(bits, True)
        assert determinism(bits, 3) == pytest.approx(brute_det(bits, 3))
        assert laminarity(bits, 3) == pytest.approx(brute_lam(bits, 3))


def test_line_minimum_validation():
    bits = np.eye(5, dtype=bool)
    with pytest.raises(InputError):
        determinism(bits, 1)
    with pytest.raises(InputError):
        laminarity(bits, 0)



@pytest.mark.parametrize("l_min", [2, 3, 5])
def test_erosion_equals_brute_force_exactly(l_min):
    # integer counts on both sides, so the fractions agree bit for bit
    rng = np.random.default_rng(81 + l_min)
    for _ in range(30):
        n = int(rng.integers(1, 30))
        bits = rng.random((n, n)) < float(rng.uniform(0.05, 0.6))
        assert determinism(bits, l_min) == brute_det(bits, l_min)
        assert laminarity(bits, l_min) == brute_lam(bits, l_min)
    zero = np.zeros((12, 12), dtype=bool)
    assert determinism(zero, l_min) == laminarity(zero, l_min) == 0.0
    # at n = l - 1, l, l + 1 the (l + 1)-fold erosion is empty or one cell
    for n in (l_min - 1, l_min, l_min + 1):
        inputs = [np.ones((n, n), dtype=bool), np.eye(n, dtype=bool)]
        inputs += [rng.random((n, n)) < density for density in (0.3, 0.6, 0.9)]
        for bits in inputs:
            assert determinism(bits, l_min) == brute_det(bits, l_min)
            assert laminarity(bits, l_min) == brute_lam(bits, l_min)


@pytest.mark.parametrize("l_min", [2, 3, 5])
def test_matrices_shorter_than_the_line_minimum_have_no_lines(l_min):
    ones = np.ones((l_min - 1, l_min - 1), dtype=bool)
    assert determinism(ones, l_min) == laminarity(ones, l_min) == 0.0
    # at n = l the longest off-main diagonal and every column's runs either
    # side of the cleared diagonal still fall one short of l
    ones = np.ones((l_min, l_min), dtype=bool)
    assert determinism(ones, l_min) == laminarity(ones, l_min) == 0.0
    # at n = l + 1 the two first off-diagonals and the first and last
    # columns hold one line of exactly l points each: 2l of (l + 1) l points
    ones = np.ones((l_min + 1, l_min + 1), dtype=bool)
    assert determinism(ones, l_min) == laminarity(ones, l_min) == 2 / (l_min + 1)
