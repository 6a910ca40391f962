"""
Recurrence plots and line-structure measures
============================================

A recurrence plot marks every pair of times (i, j) at which a trajectory
revisits the same neighborhood of its state space.  Deterministic motion
leaves diagonal lines because the orbit shadows itself for a while, and
laminar episodes leave vertical lines.  Noise leaves isolated dots.

This script builds recurrence plots for three signals of one stationary
second each, calibrates the neighborhood radius so all three plots have
the same density of recurrence points, and compares their determinism
(fraction of points on diagonal lines) and laminarity (fraction on
vertical lines).
"""

import numpy as np

from jrpnet.recurrence import recurrence_plot, threshold_for_rate
from jrpnet.rqa import determinism, laminarity

rng = np.random.default_rng(0)
n = 400

# Three one-dimensional signals with very different memory structure.
t = np.arange(n)
periodic = np.sin(2 * np.pi * t / 40)

x = np.empty(n)
x[0] = 0.3
for i in range(1, n):
    x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
chaotic = x

noise = rng.normal(size=n)

print("signal      epsilon    DET    LAM")

for name, signal in [("periodic", periodic), ("chaotic", chaotic), ("noise", noise)]:
    # Calibrate epsilon so exactly 10% of off-diagonal pairs recur.  A
    # fixed radius would make the comparison meaningless: the three
    # signals have different amplitudes, so the same epsilon would give
    # plots of wildly different density.
    eps = threshold_for_rate(signal, target_rr=0.1)
    rp = recurrence_plot(signal, eps)
    det, lam = determinism(rp, l_min=3), laminarity(rp, v_min=3)
    print(f"{name:<10}  {eps:7.4f}   {det:5.3f}  {lam:5.3f}")

print()
print("expected ordering: DET(periodic) > DET(chaotic) >> DET(noise)")
