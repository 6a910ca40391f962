"""Recurrence plots, threshold calibration, joint recurrence algebra."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from jrpnet.errors import DegenerateInputError, InputError
from jrpnet.recurrence import (
    NORMS,
    joint_recurrence_plot,
    recurrence_plot,
    threshold_for_rate,
)


def brute_rp(states, epsilon, norm):
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] == 1:
        states = states.T
    n = states.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            d = states[i] - states[j]
            if norm == "L1":
                dist = np.abs(d).sum()
            elif norm == "L2":
                dist = np.sqrt((d * d).sum())
            else:
                dist = np.abs(d).max()
            out[i, j] = dist <= epsilon
    return out


def off_diagonal_rate(bits):
    n = bits.shape[0]
    return (bits.sum() - np.trace(bits)) / (n * (n - 1))


def test_hand_case_l1():
    states = np.array([0.0, 3.0, 4.0])
    rp = recurrence_plot(states, 1.0, "L1")
    assert np.array_equal(rp.bits, [[1, 0, 0], [0, 1, 1], [0, 1, 1]])
    assert rp.kind == "RP"
    assert rp.size_n == 3
    assert rp.epsilon == 1.0


def test_epsilon_below_minimum_distance_gives_identity():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(20, 2))
    eps = 0.5 * pdist(states, "cityblock").min()
    rp = recurrence_plot(states, eps, "L1")
    assert np.array_equal(rp.bits, np.eye(20, dtype=bool))


def test_constant_trajectory_is_all_ones():
    states = np.zeros((8, 3))
    rp = recurrence_plot(states, 0.1, "L2")
    assert rp.bits.all()


def test_matrix_is_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(4)
    for norm in ("L1", "L2", "Linf"):
        for _ in range(10):
            n = int(rng.integers(2, 40))
            states = rng.normal(size=(n, int(rng.integers(1, 5))))
            eps = float(rng.uniform(0.1, 2.0))
            bits = recurrence_plot(states, eps, norm).bits
            assert np.array_equal(bits, bits.T)
            assert bits.diagonal().all()
            assert np.array_equal(bits, brute_rp(states, eps, norm))


def test_threshold_monotone_in_epsilon():
    rng = np.random.default_rng(5)
    for _ in range(20):
        states = rng.normal(size=(30, 3))
        e1 = float(rng.uniform(0.1, 1.0))
        e2 = e1 + float(rng.uniform(0.0, 1.5))
        b1 = recurrence_plot(states, e1).bits
        b2 = recurrence_plot(states, e2).bits
        assert np.all(b2[b1])


def test_threshold_for_rate_calibrates():
    rng = np.random.default_rng(6)
    for _ in range(25):
        states = rng.normal(size=(100, int(rng.integers(1, 5))))
        eps = threshold_for_rate(states, 0.1)
        achieved = off_diagonal_rate(recurrence_plot(states, eps).bits)
        assert abs(achieved - 0.1) <= 0.02


def sorted_threshold(states, rate, norm):
    """The quantile by a full sort of the ordered off-diagonal distances."""
    doubled = np.sort(np.repeat(pdist(states, metric=NORMS[norm]), 2))
    virtual = rate * (doubled.size - 1)
    k = int(virtual)
    frac = virtual - k
    lo, hi = doubled[k], doubled[min(k + 1, doubled.size - 1)]
    return float(lo + frac * (hi - lo)), k


def test_threshold_for_rate_equals_the_sorted_quantile():
    rng = np.random.default_rng(8)
    parities = set()
    # at a few hundred states the partition sometimes leaves a larger
    # distance next to the lower statistic
    for n in (3, 4, 7, 10, 25, 60, 141) + (300,) * 8:
        states = rng.normal(size=(n, 3))
        # coarse copies put ties among the distances
        for trajectory in (states, np.round(states, 1)):
            for norm in NORMS:
                for rate in (0.05, 0.1, 0.2, 1.0):
                    want, k = sorted_threshold(trajectory, rate, norm)
                    if want <= 0.0:
                        continue
                    assert threshold_for_rate(trajectory, rate, norm) == want
                    parities.add(k % 2)
    assert parities == {0, 1}


def test_threshold_rate_one_connects_everything():
    states = np.random.default_rng(7).normal(size=(40, 2))
    eps = threshold_for_rate(states, 1.0)
    assert recurrence_plot(states, eps).bits.all()


def test_threshold_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        threshold_for_rate(np.zeros((10, 2)), 0.1)
    # heavy coincidence: the low quantile lands on a zero distance
    states = np.vstack([np.zeros((99, 1)), np.ones((1, 1))])
    with pytest.raises(DegenerateInputError):
        threshold_for_rate(states, 0.1)
    with pytest.raises(InputError):
        threshold_for_rate(np.random.default_rng(0).normal(size=(10, 1)), 0.0)


def test_invalid_inputs():
    with pytest.raises(InputError):
        recurrence_plot(np.zeros((1, 2)), 1.0)
    with pytest.raises(InputError):
        recurrence_plot(np.zeros((5, 2)), -1.0)
    with pytest.raises(InputError):
        recurrence_plot(np.zeros((5, 2)), 1.0, "L3")


def test_jrp_is_elementwise_and_of_cropped_plots():
    rng = np.random.default_rng(8)
    for _ in range(30):
        na, nb = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        a = recurrence_plot(rng.normal(size=(na, 2)), float(rng.uniform(0.3, 2.0)))
        b = recurrence_plot(rng.normal(size=(nb, 3)), float(rng.uniform(0.3, 2.0)))
        j = joint_recurrence_plot(a, b)
        n = min(na, nb)
        assert j.size_n == n
        assert j.kind == "JRP"
        assert j.epsilon == (a.epsilon, b.epsilon)
        assert np.array_equal(j.bits, a.bits[:n, :n] & b.bits[:n, :n])


def test_jrp_idempotent_and_identity():
    states = np.random.default_rng(9).normal(size=(25, 2))
    rp = recurrence_plot(states, 1.0)
    assert np.array_equal(joint_recurrence_plot(rp, rp).bits, rp.bits)
    ones = recurrence_plot(np.zeros((25, 1)), 1.0)
    assert np.array_equal(joint_recurrence_plot(rp, ones).bits, rp.bits)


def test_jrp_rate_never_exceeds_parents():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        a = recurrence_plot(rng.normal(size=(n, 2)), float(rng.uniform(0.3, 2.0)))
        b = recurrence_plot(rng.normal(size=(n, 2)), float(rng.uniform(0.3, 2.0)))
        j = joint_recurrence_plot(a, b)
        ra = off_diagonal_rate(a.bits)
        rb = off_diagonal_rate(b.bits)
        assert off_diagonal_rate(j.bits) <= min(ra, rb) + 1e-12


def test_jrp_rejects_mismatched_norms_and_kinds():
    states = np.random.default_rng(11).normal(size=(10, 2))
    a = recurrence_plot(states, 1.0, "L1")
    b = recurrence_plot(states, 1.0, "L2")
    with pytest.raises(InputError, match="norm"):
        joint_recurrence_plot(a, b)
    j = joint_recurrence_plot(a, recurrence_plot(states, 1.0, "L1"))
    with pytest.raises(InputError, match="recurrence plots"):
        joint_recurrence_plot(j, a)
