"""
Choosing delay-embedding parameters from data
=============================================

A scalar measurement hides the other coordinates of the system that
produced it.  Delay embedding recovers a usable state space by stacking
lagged copies of the signal: x(t), x(t-tau), ..., up to dimension m.
Both parameters can be read off the data itself:

* tau: the first local minimum of the average mutual information (AMI)
  between the signal and its lagged copy.  Earlier lags are redundant,
  later ones decorrelate the coordinates too much.
* m: the smallest dimension at which the fraction of false nearest
  neighbors (points that look close only because the embedding is too
  flat) drops to near zero.  If no dimension up to the cap works, the
  estimate is flagged as saturated, which is the typical signature of
  a noise-dominated channel.
"""

import numpy as np

from jrpnet.embedding import EmbeddingParams, ami_curve, embed, estimate_delay, estimate_dimension

rng = np.random.default_rng(1)
n = 2000
t = np.arange(n)

# A slow noisy oscillation (period 64), a chaotic iterated map, and
# white noise.
sine = np.sin(2 * np.pi * t / 64) + 0.05 * rng.normal(size=n)

x = np.empty(n)
x[0] = 0.3
for i in range(1, n):
    x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
logistic = x

noise = rng.normal(size=n)

# The AMI of the oscillation decays over tens of lags, the map
# decorrelates within a few iterations, and noise starts flat at the
# histogram bias floor.
print("AMI at lags 1..6 (nats):")
for name, signal in [("sine", sine), ("logistic", logistic), ("noise", noise)]:
    curve = ami_curve(signal, tau_max=6)
    print(f"  {name:<9} " + "  ".join(f"{v:6.3f}" for v in curve))

print()
print("estimated delay (first AMI minimum):")
for name, signal in [("sine", sine), ("logistic", logistic), ("noise", noise)]:
    print(f"  {name:<9} tau={estimate_delay(signal)}")
print("  (the sine finds its quarter period, 64/4 = 16)")

# For the false-neighbor scan the delay matters.  The oscillation uses
# its estimated tau; for an iterated map one application of the map is
# the natural step, so tau=1.
print()
print("estimated dimension (false nearest neighbors):")
for name, signal, tau in [
    ("sine", sine, estimate_delay(sine)),
    ("logistic", logistic, 1),
    ("noise", noise, 1),
]:
    est = estimate_dimension(signal, tau=tau, m_max=8)
    status = "saturated, noise-dominated" if est.saturated else f"m={est.dimension}"
    print(f"  {name:<9} tau={tau:<3d} {status}")

# With tau at a quarter period the two delay coordinates of the sine are
# sin and (almost) cos, so the embedded states trace a circle whose
# radius wobbles only by the added measurement noise.
tau = estimate_delay(sine)
states = embed(sine, EmbeddingParams(delay_tau=tau, dimension_m=2))
radius = np.hypot(states[:, 0], states[:, 1])
print()
print(
    f"sine embedded with tau={tau}, m=2: radius spread "
    f"{radius.min():.2f}..{radius.max():.2f} (a noisy circle)"
)
