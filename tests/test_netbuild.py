"""Coupling graphs, modality merging and temporal-network assembly."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from jrpnet import netbuild
from jrpnet.embedding import EmbeddingParams, embed
from jrpnet.errors import InputError
from jrpnet.ingest import CONSTANT_EPS, Window, segment_windows, window_geometry, zscore_channels
from jrpnet.netbuild import (
    ChannelEmbedding,
    assemble_temporal_network,
    channel_graphs,
    merge_modalities,
)
from jrpnet.recurrence import joint_recurrence_plot, recurrence_plot, threshold_for_rate
from jrpnet.rqa import determinism, laminarity, off_diagonal
from jrpnet.synth import CouplingSpec, generate, three_regime_specs


def logistic_window(n_channels, length, seed, index=0):
    rng = np.random.default_rng(seed)
    data = np.empty((n_channels, length))
    for k in range(n_channels):
        x = rng.uniform(0.2, 0.8)
        for t in range(length):
            x = 4.0 * x * (1.0 - x)
            data[k, t] = x
    names = tuple(f"ch{k}" for k in range(n_channels))
    return Window(
        index=index,
        start_sample=0,
        length_samples=length,
        channel_names=names,
        samples=data,
    )


def simple_embeddings(window, epsilon=0.5, delay=1, dim=2):
    params = EmbeddingParams(delay_tau=delay, dimension_m=dim)
    return {name: ChannelEmbedding(params=params, epsilon=epsilon) for name in window.channel_names}


def test_pair_weights_match_direct_recomputation():
    window = logistic_window(3, 120, seed=5)
    embeddings = simple_embeddings(window, epsilon=0.4, delay=2, dim=3)
    names = window.channel_names
    weights = channel_graphs([window], embeddings, names)
    for i in range(3):
        for j in range(i + 1, 3):
            emb_i, emb_j = embeddings[names[i]], embeddings[names[j]]
            rp_i = recurrence_plot(embed(window.channel(names[i]), emb_i.params), emb_i.epsilon)
            rp_j = recurrence_plot(embed(window.channel(names[j]), emb_j.params), emb_j.epsilon)
            jrp = joint_recurrence_plot(rp_i, rp_j)
            assert weights["JDET"][0, i, j] == determinism(jrp)
            assert weights["JLAM"][0, i, j] == laminarity(jrp)


def test_unequal_embeddings_give_unequal_jrps_with_exact_weights():
    # different (tau, m) per channel trim the trajectories to different
    # lengths, so the window's JRPs differ in size
    window = logistic_window(4, 90, seed=6)
    names = window.channel_names
    shapes = [(1, 2), (2, 3), (3, 4), (1, 6)]
    embeddings = {
        name: ChannelEmbedding(params=EmbeddingParams(delay_tau=tau, dimension_m=m), epsilon=1.5)
        for name, (tau, m) in zip(names, shapes)
    }
    weights = channel_graphs([window], embeddings, names, l_min=2, v_min=4)
    rps = [
        recurrence_plot(embed(window.channel(name), embeddings[name].params), 1.5)
        for name in names
    ]
    assert len({len(rp) for rp in rps}) == 4
    assert np.nanmax(weights["JDET"]) > 0.0 and np.nanmax(weights["JLAM"]) > 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            jrp = joint_recurrence_plot(rps[i], rps[j])
            assert weights["JDET"][0, i, j] == determinism(jrp, 2)
            assert weights["JLAM"][0, j, i] == laminarity(jrp, 4)


def test_six_channels_fill_all_fifteen_pairs():
    window = logistic_window(6, 100, seed=9)
    graphs = channel_graphs([window], simple_embeddings(window), window.channel_names)
    for stack in graphs.values():
        assert stack.shape == (1, 6, 6)
        w = stack[0]
        assert np.isnan(np.diagonal(w)).all()
        off = w[np.triu_indices(6, k=1)]
        assert np.isfinite(off).all()
        assert ((off >= 0.0) & (off <= 1.0)).all()
        assert np.array_equal(w, w.T, equal_nan=True)


def test_each_jrp_is_padded_once_for_both_metrics(monkeypatch):
    window = logistic_window(4, 90, seed=12)
    padded = []
    monkeypatch.setattr(
        netbuild, "off_diagonal", lambda jrp: padded.append(jrp) or off_diagonal(jrp)
    )
    weights = channel_graphs(
        [window, replace(window, index=1)], simple_embeddings(window), window.channel_names
    )
    assert len(padded) == 2 * 6
    assert np.isfinite(weights["JDET"][:, 0, 1]).all()


def test_constant_channel_gets_absent_weights(caplog):
    window = logistic_window(3, 80, seed=13)
    window.samples[1, :] = 0.7
    embeddings = simple_embeddings(window)
    with caplog.at_level(logging.WARNING):
        weights = channel_graphs([window], embeddings, window.channel_names)
    assert "ch1 is constant" in caplog.text
    w = weights["JDET"][0]
    assert np.isnan(w[0, 1]) and np.isnan(w[1, 2])
    assert math.isfinite(w[0, 2])


def test_none_embedding_gets_absent_weights_silently(caplog):
    window = logistic_window(3, 80, seed=14)
    embeddings = simple_embeddings(window)
    embeddings["ch2"] = None
    with caplog.at_level(logging.WARNING):
        weights = channel_graphs([window], embeddings, window.channel_names)
    assert "constant" not in caplog.text
    w = weights["JLAM"][0]
    assert np.isnan(w[0, 2]) and np.isnan(w[1, 2])
    assert math.isfinite(w[0, 1])


def test_channel_graph_input_errors():
    window = logistic_window(2, 60, seed=15)
    embeddings = simple_embeddings(window)
    incomplete = {"ch0": embeddings["ch0"]}
    with pytest.raises(InputError, match="no embedding"):
        channel_graphs([window], incomplete, window.channel_names)
    with pytest.raises(InputError, match="1 modalities for 2 channels"):
        channel_graphs([window], embeddings, ("EEG",))


def test_only_cross_modality_pairs_get_a_jrp(monkeypatch):
    # the benchmark layout: 8 channels in 4 modalities of 2, so 28 channel
    # pairs of which 4 lie within a modality
    spec = three_regime_specs(n_per_regime=1, seed=201, length_samples=256)[0][0]
    recording = generate(spec)
    windows = segment_windows(zscore_channels(recording), 2.0, 0.5)
    jrps = []
    monkeypatch.setattr(
        netbuild,
        "joint_recurrence_plot",
        lambda a, b: jrps.append(1) or joint_recurrence_plot(a, b),
    )
    window = windows[0]
    weights = channel_graphs(windows, simple_embeddings(window), recording.modalities)
    assert len(recording.modalities) == 8 and len(set(recording.modalities)) == 4
    assert len(windows) > 1 and len(jrps) == 24 * len(windows)
    same = np.equal.outer(recording.modalities, recording.modalities)
    for stack in weights.values():
        assert np.isnan(stack[:, same]).all()
        assert np.isfinite(stack[:, ~same]).all()


def oracle_graphs(windows, embeddings, modalities):
    """Per-window weights of the cross-modality pairs recomputed from
    scratch, window by window."""
    out = []
    for window in windows:
        plots = []
        for name in window.channel_names:
            emb, x = embeddings[name], window.channel(name)
            if emb is None or np.ptp(x) < CONSTANT_EPS:
                plots.append(None)
            else:
                plots.append(recurrence_plot(embed(x, emb.params), emb.epsilon))
        n = len(plots)
        jdet, jlam = np.full((n, n), np.nan), np.full((n, n), np.nan)
        for i in range(n):
            for j in range(i + 1, n):
                if modalities[i] == modalities[j]:
                    continue
                if plots[i] is not None and plots[j] is not None:
                    jrp = joint_recurrence_plot(plots[i], plots[j])
                    jdet[i, j] = jdet[j, i] = determinism(jrp)
                    jlam[i, j] = jlam[j, i] = laminarity(jrp)
        out.append({"JDET": jdet, "JLAM": jlam})
    return out


@pytest.mark.parametrize("overlap", [0.0, 0.2, 0.5, 0.9])
def test_shared_window_rows_equal_per_window_recomputation(overlap, monkeypatch):
    spec = CouplingSpec(
        n_channels=4,
        modality_map={"a": "EEG", "b": "EEG", "c": "EMG", "d": "EMG"},
        coupling_matrix=np.full((4, 4), 0.1) - 0.1 * np.eye(4),
        noise_sd=0.05,
        length_samples=640,
        sampling_rate_hz=64.0,
        seed=17,
    )
    recording = generate(spec)
    window_s = 2.0
    length, stride = window_geometry(recording, window_s, overlap)
    n_windows = (recording.duration_samples - length) // stride + 1
    # channel c is constant over exactly one middle window: its chain of
    # shared rows breaks there and restarts from scratch after it
    middle = n_windows // 2 * stride
    recording.samples[2, middle : middle + length] = 0.3
    windows = segment_windows(recording, window_s, overlap)
    assert len(windows) == n_windows
    normalized = zscore_channels(recording)
    shapes = {"a": (1, 2), "b": (2, 3), "c": (3, 2), "d": (1, 4)}
    embeddings = {}
    for name, (tau, m) in shapes.items():
        params = EmbeddingParams(delay_tau=tau, dimension_m=m)
        epsilon = threshold_for_rate(embed(normalized.channel(name), params), 0.1)
        embeddings[name] = ChannelEmbedding(params=params, epsilon=epsilon)

    shared = []

    def spy(states, epsilon, previous=None, shift=0):
        shared.append(previous is not None and 0 < shift < len(states))
        return recurrence_plot(states, epsilon, previous, shift)

    monkeypatch.setattr(netbuild, "recurrence_plot", spy)
    # every window in order, a list with uneven gaps (1 and 2 strides), one
    # whose second window does not repeat its neighbours' samples, and one
    # whose second window is shorter, so its plot has fewer states
    uneven = [w for k, w in enumerate(windows) if k % 3 != 2]
    rescaled = [windows[0], replace(windows[1], samples=1.5 * windows[1].samples), *windows[2:]]
    short = replace(windows[1], length_samples=length - 5, samples=windows[1].samples[:, :-5])
    shortened = [windows[0], short, *windows[2:]]
    for subset in (windows, uneven, rescaled, shortened):
        weights = channel_graphs(subset, embeddings, recording.modalities)
        assert weights["JDET"].shape == (len(subset), 4, 4)
        for t, want in enumerate(oracle_graphs(subset, embeddings, recording.modalities)):
            for metric in ("JDET", "JLAM"):
                assert weights[metric][t].tobytes() == want[metric].tobytes()
        for t, w in enumerate(subset):
            assert np.isnan(weights["JDET"][t, 2]).all() == (w.start_sample == middle)
    # overlapping windows share rows, disjoint ones are built from scratch
    assert any(shared) == (overlap > 0.0)




def reference_merge(weights, modalities):
    """One window's merge as built graph by graph, the exactness reference:
    each cell off the diagonal is the mean of the present pair weights,
    compacted in pair order."""
    nodes = list(dict.fromkeys(modalities))
    groups = [[i for i, m in enumerate(modalities) if m == node] for node in nodes]
    n = len(nodes)
    merged = np.full((n, n), np.nan)
    for a in range(n):
        for b in range(a + 1, n):
            pool = [weights[i, j] for i in groups[a] for j in groups[b]]
            values = np.array([w for w in pool if not np.isnan(w)])
            if values.size:
                merged[a, b] = values.mean()
                merged[b, a] = merged[a, b]
    return tuple(nodes), merged


def test_merge_equals_the_per_window_reference_bit_for_bit():
    # modalities of 1 to 4 channels, so a cross-modality pool holds up to
    # 16 values: past 8, a different summation order changes the mean
    rng = np.random.default_rng(41)
    for _ in range(20):
        sizes = rng.integers(1, 5, size=rng.integers(1, 5))
        modalities = [f"M{k}" for k, size in enumerate(sizes) for _ in range(size)]
        order = rng.permutation(len(modalities))
        modalities = tuple(modalities[i] for i in order)
        n = len(modalities)
        upper = np.triu(rng.uniform(size=(6, n, n)), k=1)
        weights = upper + upper.transpose(0, 2, 1)
        weights[rng.uniform(size=weights.shape) < 0.2] = np.nan
        weights[:, np.arange(n), np.arange(n)] = np.nan
        nodes, merged = merge_modalities(weights, modalities)
        for t in range(len(weights)):
            want_nodes, want = reference_merge(weights[t], modalities)
            assert nodes == want_nodes
            assert merged[t].tobytes() == want.tobytes()


def stack(*windows):
    """A (windows, n, n) weight stack from per-window matrices."""
    return np.array(windows, dtype=float)


def test_merge_averages_cross_modality_pairs():
    nan = np.nan
    w = stack([[nan, 0.4, 0.2], [0.4, nan, 0.6], [0.2, 0.6, nan]])
    nodes, merged = merge_modalities(w, ("EEG", "EEG", "EMG"))
    assert nodes == ("EEG", "EMG")
    assert merged[0, 0, 1] == pytest.approx(0.4)  # mean of 0.2 and 0.6
    assert merged[0, 1, 0] == merged[0, 0, 1]
    assert np.isnan(np.diagonal(merged[0])).all()  # the EEG pair is not merged


def test_merge_excludes_absent_weights():
    nan = np.nan
    w = stack([[nan, 0.4, nan], [0.4, nan, 0.6], [nan, 0.6, nan]])
    _, merged = merge_modalities(w, ("EEG", "EEG", "EMG"))
    assert merged[0, 0, 1] == pytest.approx(0.6)


def test_merge_of_uniform_weights_is_uniform():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = 6
        c = float(rng.uniform(0.1, 0.9))
        w = np.full((n, n), c)
        np.fill_diagonal(w, np.nan)
        _, merged = merge_modalities(stack(w, w), ("A",) * 3 + ("B",) * 3)
        assert np.allclose(merged[:, 0, 1], c) and np.allclose(merged[:, 1, 0], c)


def test_merge_preserves_first_seen_modality_order():
    nodes, merged = merge_modalities(stack(np.full((3, 3), 0.5)), ("B", "A", "B"))
    assert nodes == ("B", "A")
    assert merged.shape == (1, 2, 2)


def test_merge_input_errors():
    with pytest.raises(InputError, match="1 modalities for 2 channels"):
        merge_modalities(stack(np.full((2, 2), 0.5)), ("M",))


def ladder(values, n):
    """An n-node weight matrix, upper triangle filled row-major from ``values``."""
    w = np.full((n, n), np.nan)
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = next(it)
    return w


def binarize(*windows, nodes=("a", "b", "c", "d"), rho=0.5):
    return assemble_temporal_network(stack(*windows), nodes, "JDET", rho=rho)


def test_rho_one_keeps_every_present_edge():
    tn = binarize(ladder([0.1, 0.5, 0.9, 0.3, 0.7, 0.2], 4), rho=1.0)
    layer = tn.layers[0]
    assert layer.sum() == 12  # 6 undirected edges
    assert not layer.diagonal().any()
    assert np.array_equal(layer, layer.T)


def test_ties_at_the_cut_are_kept():
    tn = binarize(ladder([0.5, 0.5, 0.5], 3), nodes=("a", "b", "c"))
    assert tn.layers[0].sum() == 6  # all three edges survive


def test_distinct_weights_keep_strongest_half():
    # five distinct weights at rho = 0.5: the median survives, two fall
    tn = binarize(ladder([0.1, 0.2, 0.3, 0.4, 0.5, np.nan], 4))
    assert tn.layers[0].sum() == 2 * 3


def test_edge_set_grows_with_rho():
    rng = np.random.default_rng(31)
    for _ in range(10):
        w = ladder(rng.uniform(size=10), 5)
        previous = None
        for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
            layer = binarize(w, nodes=tuple("abcde"), rho=rho).layers[0]
            if previous is not None:
                assert (previous <= layer).all()
            previous = layer


def test_layers_follow_window_order():
    tn = binarize(
        ladder([0.1, 0.9, 0.1], 3),
        ladder([0.1, 0.1, 0.9], 3),
        ladder([0.9, 0.1, 0.1], 3),
        nodes=("a", "b", "c"),
        rho=0.4,
    )
    assert tn.n_layers == 3
    assert tn.nodes == ("a", "b", "c")
    assert tn.layers[0][0, 2]  # strongest edge of window 0 is a-c
    assert tn.layers[1][1, 2]
    assert tn.layers[2][0, 1]
    assert tn.binarize_rule == {"strategy": "proportional", "rho": 0.4}
    assert tn.metric == "JDET"


def test_all_absent_window_yields_empty_layer():
    tn = binarize(ladder([0.5] * 3, 3), ladder([np.nan] * 3, 3), nodes=("a", "b", "c"), rho=1.0)
    assert tn.layers[0].any()
    assert not tn.layers[1].any()


def test_assemble_input_errors():
    w = stack(ladder([0.5], 2))
    with pytest.raises(InputError, match="zero windows"):
        assemble_temporal_network(np.empty((0, 2, 2)), ("x", "y"), "JDET")
    with pytest.raises(InputError, match="rho"):
        assemble_temporal_network(w, ("x", "y"), "JDET", rho=0.0)
    with pytest.raises(InputError, match="for 3 nodes"):
        assemble_temporal_network(w, ("x", "y", "z"), "JDET")

