"""Delay estimation, false-nearest-neighbor dimension, embedding."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from jrpnet.embedding import (
    AMI_BINS,
    FNN_ATOL,
    FNN_RTOL,
    FNN_THRESHOLD,
    EmbeddingParams,
    ami_curve,
    embed,
    estimate_delay,
    estimate_dimension,
)
from jrpnet import embedding, pipeline
from jrpnet.config import PipelineConfig
from jrpnet.embedding import _false_neighbor_counts
from jrpnet.errors import DegenerateInputError, InputError
from jrpnet.synth import CouplingSpec, generate, three_regime_specs


def ami_oracle(x, tau_max, bins=AMI_BINS):
    """Plug-in MI from np.histogram2d, independent of the bincount path."""
    lo, hi = x.min(), x.max()
    out = np.empty(tau_max)
    for k in range(1, tau_max + 1):
        joint, _, _ = np.histogram2d(
            x[:-k], x[k:], bins=bins, range=[[lo, hi], [lo, hi]]
        )
        joint /= joint.sum()
        pa = joint.sum(axis=1, keepdims=True)
        pb = joint.sum(axis=0, keepdims=True)
        nz = joint > 0
        out[k - 1] = np.sum(joint[nz] * np.log(joint[nz] / (pa @ pb)[nz]))
    return out


def test_embed_unrolled_examples():
    p = EmbeddingParams(delay_tau=1, dimension_m=2)
    states = embed([1.0, 2.0, 3.0, 4.0, 5.0], p)
    assert np.array_equal(states, [[1, 2], [2, 3], [3, 4], [4, 5]])

    p1 = EmbeddingParams(delay_tau=3, dimension_m=1)
    series = np.arange(7.0)
    assert np.array_equal(embed(series, p1).ravel(), series)

    with pytest.raises(InputError, match="need >= 2"):
        embed(np.arange(5.0), EmbeddingParams(delay_tau=2, dimension_m=3))


def test_embed_state_count_property():
    rng = np.random.default_rng(3)
    for _ in range(40):
        length = int(rng.integers(10, 200))
        tau = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        x = rng.normal(size=length)
        n_states = length - (m - 1) * tau
        if n_states < 2:
            with pytest.raises(InputError):
                embed(x, EmbeddingParams(delay_tau=tau, dimension_m=m))
            continue
        states = embed(x, EmbeddingParams(delay_tau=tau, dimension_m=m))
        assert states.shape == (n_states, m)
        # column i is the signal shifted by i*tau
        for i in range(m):
            assert np.array_equal(states[:, i], x[i * tau : i * tau + n_states])


def test_embedding_params_validate():
    with pytest.raises(InputError):
        EmbeddingParams(delay_tau=0, dimension_m=2)
    with pytest.raises(InputError):
        EmbeddingParams(delay_tau=1, dimension_m=0)


def test_ami_matches_histogram_oracle():
    rng = np.random.default_rng(9)
    signals = [
        np.sin(2 * np.pi * np.arange(500) / 40.0),
        rng.normal(size=500),
        np.cumsum(rng.normal(size=500)),
    ]
    for x in signals:
        assert np.allclose(ami_curve(x, 30), ami_oracle(x, 30), atol=1e-12)


def test_ami_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        ami_curve(np.ones(100), 10)
    with pytest.raises(InputError):
        ami_curve(np.arange(50.0), 50)


def test_delay_on_sine_quarter_period():
    # period 40 samples: AMI dips near a quarter period regardless of phase
    t = np.arange(1000)
    for phase in (0.0, 0.7, 1.9):
        x = np.sin(2 * np.pi * t / 40.0 + phase)
        tau = estimate_delay(x)
        assert abs(tau - 10) <= 2, tau


def test_delay_on_white_noise_is_one():
    for s in range(20):
        x = np.random.default_rng(s).normal(size=800)
        assert estimate_delay(x) == 1


def test_delay_errors():
    with pytest.raises(DegenerateInputError):
        estimate_delay(np.ones(200))
    with pytest.raises(DegenerateInputError, match="64"):
        estimate_delay(np.random.default_rng(0).normal(size=40))


def delay_oracle(x, tau_max=None):
    """estimate_delay's rules on the full AMI curve, and the rule that decided."""
    x = np.asarray(x, dtype=float)
    if tau_max is None:
        tau_max = max(2, x.size // 4)
    v = ami_curve(x, min(tau_max, x.size - 1))
    floor = 2.0 * (AMI_BINS - 1) ** 2 / (2.0 * (x.size - 1))
    if v[0] <= floor:
        return 1, "first lag at floor"
    interior = np.nonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:]))[0]
    if interior.size == 0:
        drops = np.nonzero(v < v[0] / np.e)[0]
        return (int(drops[0]) + 1 if drops.size else 1), "no minimum"
    kstar = int(interior[0]) + 1
    if v[kstar] <= floor:
        return 1, "minimum at floor"
    level = v[kstar] + 0.02 * (v.max() - v.min())
    a = b = kstar
    while a > 0 and v[a - 1] <= level:
        a -= 1
    while b + 1 < v.size and v[b + 1] <= level:
        b += 1
    return (a + b) // 2 + 1, "plateau"


def delay_test_signals(rng, count):
    """Noise, noisy sines, random walks and noisy logistic maps of 64-2000 samples."""
    for k in range(count):
        n = int(rng.integers(64, 2001))
        t = np.arange(n)
        if k % 4 == 0:
            yield rng.normal(size=n)
        elif k % 4 == 1:
            phase = rng.uniform(0, 2 * np.pi)
            yield np.sin(2 * np.pi * t / rng.uniform(4, 200) + phase) + rng.uniform(
                0, 1.5
            ) * rng.normal(size=n)
        elif k % 4 == 2:
            yield np.cumsum(rng.normal(size=n))
        else:
            r, x = rng.uniform(3.5, 4.0), np.empty(n)
            x[0] = rng.uniform(0.1, 0.9)
            for i in range(1, n):
                x[i] = r * x[i - 1] * (1 - x[i - 1])
            yield x + rng.uniform(0, 0.3) * rng.normal(size=n)


def test_delay_equals_the_full_curve_decision():
    rules = set()
    for x in delay_test_signals(np.random.default_rng(12), 160):
        for tau_max in (None, 5, 9, 17, 127):
            if tau_max is not None and tau_max >= x.size:
                continue
            want, rule = delay_oracle(x, tau_max)
            assert estimate_delay(x, tau_max) == want
            rules.add(rule)
    assert rules == {"first lag at floor", "no minimum", "minimum at floor", "plateau"}


def count_lags(monkeypatch):
    """Record how many AMI lags each call of ``_ami_lags`` computes."""
    computed = []
    lags = embedding._ami_lags
    monkeypatch.setattr(
        embedding,
        "_ami_lags",
        lambda codes, first, last: computed.append(last - first + 1) or lags(codes, first, last),
    )
    return computed


def test_delay_computes_each_lag_at_most_once(monkeypatch):
    computed = count_lags(monkeypatch)
    full = 0
    for x in delay_test_signals(np.random.default_rng(13), 80):
        for tau_max in (None, 17, 127):
            if tau_max is not None and tau_max >= x.size:
                continue
            rule = delay_oracle(x, tau_max)[1]
            computed.clear()
            estimate_delay(x, tau_max)
            lags = max(2, x.size // 4) if tau_max is None else tau_max
            assert sum(computed) <= lags
            if rule in ("no minimum", "plateau"):
                assert sum(computed) == lags
                full += 1
    assert full


def test_delay_computes_at_most_16_lags_per_benchmark_channel(monkeypatch):
    computed = count_lags(monkeypatch)
    per_channel = []

    def delay(x, tau_max):
        computed.clear()
        tau = estimate_delay(x, tau_max=tau_max)
        per_channel.append(sum(computed))
        assert tau == delay_oracle(x, tau_max)[0]
        return tau

    monkeypatch.setattr(pipeline, "estimate_delay", delay)
    specs, _ = three_regime_specs(5, 201)
    for spec in specs:
        pipeline.estimate_trial_embeddings(generate(spec), PipelineConfig())
    assert len(per_channel) == 120
    assert max(per_channel) <= 16


def test_delay_is_deterministic():
    x = np.sin(2 * np.pi * np.arange(600) / 24.0) + 0.1 * np.cos(
        2 * np.pi * np.arange(600) / 7.0
    )
    assert estimate_delay(x) == estimate_delay(x)


def logistic_map(r, n=1280, x0=0.3):
    x = np.empty(n + 128)
    x[0] = x0
    for i in range(1, x.size):
        x[i] = r * x[i - 1] * (1 - x[i - 1])
    return x[128:]


def henon_map(n=1280, a=1.4, b=0.3):
    x, y, out = 0.1, 0.1, np.empty(n + 128)
    for i in range(out.size):
        x, y = 1 - a * x * x + y, b * x
        out[i] = x
    return out[128:]


@pytest.mark.parametrize(
    "x, m",
    [(logistic_map(4.0), 1), (logistic_map(3.8), 1), (henon_map(), 2)],
    ids=["logistic r 4", "logistic r 3.8", "henon"],
)
def test_noise_free_maps_take_lag_one_and_a_small_dimension(x, m):
    # each AMI falls onto the bias floor within a few lags, where the delay
    # coordinates are already independent
    x = (x - x.mean()) / x.std()
    tau = estimate_delay(x, tau_max=127)
    assert tau == 1
    assert estimate_dimension(x, tau) == (m, False)


def test_oscillator_channels_keep_their_first_minimum():
    spec = CouplingSpec(
        n_channels=4,
        modality_map={"a": "M1", "b": "M1", "c": "M2", "d": "M2"},
        coupling_matrix=np.zeros((4, 4)),
        dynamics="coupled_oscillator",
        noise_sd=0.05,
        seed=3,
    )
    found = pipeline.estimate_trial_embeddings(generate(spec), PipelineConfig())
    assert [e.params.delay_tau for e in found.values()] == [11, 29, 29, 31]
    assert {(e.params.dimension_m, e.saturated) for e in found.values()} == {(3, False)}


def test_no_benchmark_channel_saturates():
    specs, _ = three_regime_specs(1, 201)
    found = [
        e
        for spec in specs
        for e in pipeline.estimate_trial_embeddings(generate(spec), PipelineConfig()).values()
    ]
    assert len(found) == 24
    assert not any(e.saturated for e in found)


def fnn_oracle(x, m, tau):
    """Kennel false-neighbor fraction with nearest neighbors found by brute
    force over all other states; of several equally near states, the one
    with the lowest index is the neighbor."""
    n = x.size - m * tau
    states = np.stack([x[i * tau : i * tau + n] for i in range(m)], axis=1)
    ahead = x[m * tau : m * tau + n]
    neighbor, dist = np.empty(n, dtype=int), np.empty(n)
    for a in range(0, n, 256):  # row blocks bound the memory, not the values
        b = min(a + 256, n)
        diff = states[a:b, None, :] - states[None, :, :]
        d = np.sqrt(np.square(diff, out=diff).sum(axis=2))
        d[np.arange(b - a), np.arange(a, b)] = np.inf
        neighbor[a:b] = np.argmin(d, axis=1)
        dist[a:b] = d[np.arange(b - a), neighbor[a:b]]
    extra = np.abs(ahead - ahead[neighbor])
    scale = x.std()
    crit_rel = (extra > FNN_RTOL * dist) & (extra > 1e-9 * scale)
    crit_abs = np.sqrt(dist**2 + extra**2) > FNN_ATOL * scale
    return float(np.mean(crit_rel | crit_abs))


def fnn_fraction(x, m, tau, first):
    """False-neighbor fraction of the chunked scan, counted to the end."""
    counts = list(_false_neighbor_counts(x, m, tau, x.std(), first))
    assert counts == sorted(counts)
    return counts[-1] / (x.size - m * tau)


def coincident_copy_signals():
    # copied states whose futures differ: a KD-tree query may return the
    # state itself behind its copy, and a state equidistant from the
    # copies may get either
    for seed in range(50):
        x = np.random.default_rng(seed).normal(size=300)
        x[200:203] = x[50:53]
        yield x.copy()
        x[120:123] = x[50:53]
        yield x


def test_fnn_fraction_never_takes_a_state_as_its_own_neighbor():
    # the lowest-indexed other copy must win, also when the copies fall in
    # chunks queried after the one that first meets a zero distance
    for x in coincident_copy_signals():
        for m in (1, 2, 3):
            expected = fnn_oracle(x, m, 1)
            for first in (1, 7, x.size):
                assert fnn_fraction(x, m, 1, first) == expected


def dimension_oracle(x, tau, m_max, threshold):
    """The smallest m whose full oracle fraction is below ``threshold``."""
    for m in range(1, m_max + 1):
        if fnn_oracle(x, m, tau) < threshold:
            return m, False
    return m_max, True


def noisy_sines():
    t = np.arange(400)
    noise = np.random.default_rng(5).normal(size=t.size)
    for level in (0.0, 0.05, 0.1, 0.2, 0.4):
        yield np.sin(2 * np.pi * t / 40.0) + level * noise


def chunked_fractions(x, m, tau):
    """The scan's fraction for first chunks of 1, 7, the rejecting count
    and every row: chunk sizes follow the counts, so each gives another
    chunking."""
    n = x.size - m * tau
    return {fnn_fraction(x, m, tau, first) for first in (1, 7, math.ceil(FNN_THRESHOLD * n), n)}


def test_fnn_fraction_does_not_depend_on_the_chunking():
    for x in noisy_sines():
        for m in range(1, 7):
            assert len(chunked_fractions(x, m, 10)) == 1


@pytest.mark.parametrize("level, m", [(level, m) for level in range(5) for m in range(1, 7)])
def test_every_chunking_counts_the_oracle_fraction(level, m):
    x = list(noisy_sines())[level]
    assert chunked_fractions(x, m, 10) == {fnn_oracle(x, m, 10)}


def quantized(x, levels):
    """``x`` as the integer codes of an ADC with ``levels`` levels over its range."""
    return np.round((x - x.min()) * ((levels - 1) / np.ptp(x)))


def quantized_signals():
    # the sines and two benchmark channels, rounded as an ADC rounds them:
    # states coincide, and distinct states lie exactly equally far apart
    recording = generate(three_regime_specs(1, 201)[0][0])
    channels = [recording.samples[0], recording.samples[5]]
    for x in [*noisy_sines(), *channels]:
        for levels in (1024, 256, 64):
            yield quantized(x, levels)


def test_quantized_fractions_do_not_depend_on_the_tree(monkeypatch):
    for x in quantized_signals():
        for tau in (1, 4):
            for m in range(1, 5):
                expected = {fnn_oracle(x, m, tau)}
                for leaf in (1, 16, 64, 4096):
                    monkeypatch.setattr(embedding, "FNN_LEAF_SIZE", leaf)
                    assert chunked_fractions(x, m, tau) == expected, leaf


def test_shortest_signal_the_scan_accepts():
    # at x.size == m_max * tau + 2 the last m has 2 states, so the tree
    # has no third neighbor to return; with the copy, those 2 states coincide
    rng = np.random.default_rng(8)
    for tau in (1, 2, 3):
        for m_max in (1, 2, 3, 4):
            x = rng.normal(size=m_max * tau + 2)
            copied = x.copy()
            for j in range(m_max):
                copied[j * tau + 1] = copied[j * tau]
            for signal in (x, copied):
                assert fnn_fraction(signal, m_max, tau, 1) == fnn_oracle(signal, m_max, tau)
                for threshold in (0.0, FNN_THRESHOLD, 0.6, 1.0):
                    est = estimate_dimension(signal, tau, m_max, threshold)
                    assert est == dimension_oracle(signal, tau, m_max, threshold)


def test_dimension_queries_at_most_a_fifth_of_the_benchmark_states(monkeypatch):
    queried = [0]

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried[0] += len(x)
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(embedding, "cKDTree", CountingTree)
    states = [0]

    def dimension(x, tau, m_max, threshold=FNN_THRESHOLD):
        x = np.asarray(x, dtype=float)
        states[0] += sum(x.size - m * tau for m in range(1, m_max + 1))
        est = estimate_dimension(x, tau, m_max, threshold)
        assert est == dimension_oracle(x, tau, m_max, threshold)
        return est

    monkeypatch.setattr(pipeline, "estimate_dimension", dimension)
    specs, _ = three_regime_specs(1, 201)
    for spec in specs:
        pipeline.estimate_trial_embeddings(generate(spec), PipelineConfig())
    assert states[0] and queried[0] <= 0.2 * states[0]


def test_dimension_equals_the_full_fraction_decision():
    # noise levels whose fractions fall on both sides of the threshold,
    # two of them within 20% of it
    fractions = [fnn_oracle(x, m, 10) for x in noisy_sines() for m in range(1, 7)]
    assert sum(0.8 * FNN_THRESHOLD < f < 1.2 * FNN_THRESHOLD for f in fractions) >= 2
    for x in noisy_sines():
        for threshold in (0.0, FNN_THRESHOLD, 1.0):
            est = estimate_dimension(x, 10, m_max=6, threshold=threshold)
            assert est == dimension_oracle(x, 10, 6, threshold)
    for x in coincident_copy_signals():
        assert estimate_dimension(x, 1, m_max=3) == dimension_oracle(x, 1, 3, FNN_THRESHOLD)


def test_false_count_exactly_at_the_bound_rejects():
    # threshold = count / n of the deciding m: the scan rejects m once
    # count / n >= threshold, so it must count to the last row and reject;
    # one ulp higher accepts m
    x = list(noisy_sines())[2]
    for m in (1, 2, 3):
        bound = fnn_oracle(x, m, 10)
        assert estimate_dimension(x, 10, m_max=m, threshold=bound) == (m, True)
        above = np.nextafter(bound, 1.0)
        assert estimate_dimension(x, 10, m_max=m, threshold=above) == (m, False)


def test_dimension_on_clean_sine():
    x = np.sin(2 * np.pi * np.arange(1000) / 40.0)
    tau = estimate_delay(x)
    est = estimate_dimension(x, tau)
    assert est.dimension == 2
    assert not est.saturated


def test_dimension_saturates_on_white_noise():
    for s in range(20):
        x = np.random.default_rng(s).normal(size=400)
        est = estimate_dimension(x, 1)
        assert est.dimension == 10
        assert est.saturated


def test_dimension_errors():
    x = np.random.default_rng(1).normal(size=30)
    with pytest.raises(DegenerateInputError, match="samples"):
        estimate_dimension(x, 5)
    with pytest.raises(InputError):
        estimate_dimension(x, 0)
    with pytest.raises(DegenerateInputError):
        estimate_dimension(np.zeros(300), 1)
