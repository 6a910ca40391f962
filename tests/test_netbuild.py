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
    WeightedGraph,
    assemble_temporal_network,
    binary_record,
    channel_graphs,
    merge_modalities,
    weighted_record,
)
from jrpnet.recurrence import NORMS, joint_recurrence_plot, recurrence_plot, threshold_for_rate
from jrpnet.rqa import determinism, laminarity
from jrpnet.synth import CouplingSpec, generate


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
    graphs = channel_graphs([window], embeddings, norm="L2")[0]
    names = window.channel_names
    for i in range(3):
        for j in range(i + 1, 3):
            emb_i, emb_j = embeddings[names[i]], embeddings[names[j]]
            rp_i = recurrence_plot(
                embed(window.channel(names[i]), emb_i.params), emb_i.epsilon, "L2"
            )
            rp_j = recurrence_plot(
                embed(window.channel(names[j]), emb_j.params), emb_j.epsilon, "L2"
            )
            jrp = joint_recurrence_plot(rp_i, rp_j)
            assert graphs["JDET"].weights[i, j] == determinism(jrp)
            assert graphs["JLAM"].weights[i, j] == laminarity(jrp)


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
    graphs = channel_graphs([window], embeddings, l_min=2, v_min=4)[0]
    rps = [
        recurrence_plot(embed(window.channel(name), embeddings[name].params), 1.5)
        for name in names
    ]
    assert len({rp.size_n for rp in rps}) == 4
    assert np.nanmax(graphs["JDET"].weights) > 0.0 and np.nanmax(graphs["JLAM"].weights) > 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            jrp = joint_recurrence_plot(rps[i], rps[j])
            assert graphs["JDET"].weights[i, j] == determinism(jrp, 2)
            assert graphs["JLAM"].weights[j, i] == laminarity(jrp, 4)


def test_six_channels_fill_all_fifteen_pairs():
    window = logistic_window(6, 100, seed=9)
    graphs = channel_graphs([window], simple_embeddings(window))[0]
    for g in graphs.values():
        w = g.weights
        assert w.shape == (6, 6)
        assert np.isnan(np.diagonal(w)).all()
        off = w[np.triu_indices(6, k=1)]
        assert np.isfinite(off).all()
        assert ((off >= 0.0) & (off <= 1.0)).all()
        assert np.array_equal(w, w.T, equal_nan=True)


def test_metrics_share_one_graph_pass():
    window = logistic_window(3, 90, seed=11)
    embeddings = simple_embeddings(window)
    both = channel_graphs([window], embeddings)[0]
    single = channel_graphs([window], embeddings, ("JLAM",))[0]["JLAM"]
    assert np.array_equal(both["JLAM"].weights, single.weights, equal_nan=True)
    assert single.metric == "JLAM"
    assert single.window_index == window.index


def test_constant_channel_gets_absent_weights(caplog):
    window = logistic_window(3, 80, seed=13)
    window.samples[1, :] = 0.7
    embeddings = simple_embeddings(window)
    with caplog.at_level(logging.WARNING):
        graphs = channel_graphs([window], embeddings)[0]
    assert "ch1 is constant" in caplog.text
    w = graphs["JDET"].weights
    assert np.isnan(w[0, 1]) and np.isnan(w[1, 2])
    assert math.isfinite(w[0, 2])


def test_none_embedding_gets_absent_weights_silently(caplog):
    window = logistic_window(3, 80, seed=14)
    embeddings = simple_embeddings(window)
    embeddings["ch2"] = None
    with caplog.at_level(logging.WARNING):
        graphs = channel_graphs([window], embeddings)[0]
    assert "constant" not in caplog.text
    w = graphs["JLAM"].weights
    assert np.isnan(w[0, 2]) and np.isnan(w[1, 2])
    assert math.isfinite(w[0, 1])


def test_channel_graph_input_errors():
    window = logistic_window(2, 60, seed=15)
    embeddings = simple_embeddings(window)
    incomplete = {"ch0": embeddings["ch0"]}
    with pytest.raises(InputError, match="no embedding"):
        channel_graphs([window], incomplete)
    with pytest.raises(InputError, match="weight metric"):
        channel_graphs([window], embeddings, metrics=("DET",))


def oracle_graphs(windows, embeddings, norm):
    """Per-window weights recomputed from scratch, window by window."""
    out = []
    for window in windows:
        plots = []
        for name in window.channel_names:
            emb, x = embeddings[name], window.channel(name)
            if emb is None or np.ptp(x) < CONSTANT_EPS:
                plots.append(None)
            else:
                plots.append(recurrence_plot(embed(x, emb.params), emb.epsilon, norm))
        n = len(plots)
        jdet, jlam = np.full((n, n), np.nan), np.full((n, n), np.nan)
        for i in range(n):
            for j in range(i + 1, n):
                if plots[i] is not None and plots[j] is not None:
                    jrp = joint_recurrence_plot(plots[i], plots[j])
                    jdet[i, j] = jdet[j, i] = determinism(jrp)
                    jlam[i, j] = jlam[j, i] = laminarity(jrp)
        out.append({"JDET": jdet, "JLAM": jlam})
    return out


@pytest.mark.parametrize("norm", sorted(NORMS))
@pytest.mark.parametrize("overlap", [0.0, 0.2, 0.5, 0.9])
def test_shared_window_rows_equal_per_window_recomputation(overlap, norm, monkeypatch):
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
        epsilon = threshold_for_rate(embed(normalized.channel(name), params), 0.1, norm)
        embeddings[name] = ChannelEmbedding(params=params, epsilon=epsilon)

    shared = []

    def spy(states, epsilon, norm, previous=None, shift=0):
        shared.append(previous is not None and 0 < shift < len(states))
        return recurrence_plot(states, epsilon, norm, previous, shift)

    monkeypatch.setattr(netbuild, "recurrence_plot", spy)
    # every window in order, a list with uneven gaps (1 and 2 strides), and
    # one whose second window does not repeat its neighbours' samples
    uneven = [w for k, w in enumerate(windows) if k % 3 != 2]
    rescaled = [windows[0], replace(windows[1], samples=1.5 * windows[1].samples), *windows[2:]]
    for subset in (windows, uneven, rescaled):
        graphs = channel_graphs(subset, embeddings, norm=norm)
        assert [g["JDET"].window_index for g in graphs] == [w.index for w in subset]
        for got, want in zip(graphs, oracle_graphs(subset, embeddings, norm)):
            for metric in ("JDET", "JLAM"):
                assert got[metric].weights.tobytes() == want[metric].tobytes()
        for g, w in zip(graphs, subset):
            assert np.isnan(g["JDET"].weights[2]).all() == (w.start_sample == middle)
    # overlapping windows share rows, disjoint ones are built from scratch
    assert any(shared) == (overlap > 0.0)


def graph_from(weights, nodes, index=0, metric="JDET"):
    return WeightedGraph(
        nodes=tuple(nodes), weights=np.asarray(weights, dtype=float), window_index=index,
        metric=metric,
    )


def test_merge_averages_cross_and_within_modalities():
    nan = np.nan
    g = graph_from(
        [[nan, 0.4, 0.2], [0.4, nan, 0.6], [0.2, 0.6, nan]],
        ["e1", "e2", "g1"],
    )
    merged = merge_modalities(g, {"e1": "EEG", "e2": "EEG", "g1": "EMG"})
    assert merged.nodes == ("EEG", "EMG")
    assert merged.weights[0, 1] == pytest.approx(0.4)  # mean of 0.2 and 0.6
    assert merged.weights[1, 0] == merged.weights[0, 1]
    assert merged.weights[0, 0] == pytest.approx(0.4)  # the single EEG pair
    assert np.isnan(merged.weights[1, 1])  # one-channel modality


def test_merge_excludes_absent_weights():
    nan = np.nan
    g = graph_from(
        [[nan, 0.4, nan], [0.4, nan, 0.6], [nan, 0.6, nan]],
        ["e1", "e2", "g1"],
    )
    merged = merge_modalities(g, {"e1": "EEG", "e2": "EEG", "g1": "EMG"})
    assert merged.weights[0, 1] == pytest.approx(0.6)


def test_merge_of_uniform_weights_is_uniform():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = 6
        c = float(rng.uniform(0.1, 0.9))
        w = np.full((n, n), c)
        np.fill_diagonal(w, np.nan)
        g = graph_from(w, [f"c{i}" for i in range(n)])
        fold = {f"c{i}": ("A" if i < 3 else "B") for i in range(n)}
        merged = merge_modalities(g, fold)
        assert np.allclose(merged.weights, c)


def test_merge_preserves_first_seen_modality_order():
    g = graph_from(np.full((3, 3), 0.5), ["x", "y", "z"])
    merged = merge_modalities(g, {"x": "B", "y": "A", "z": "B"})
    assert merged.nodes == ("B", "A")


def test_merge_input_errors():
    g = graph_from(np.full((2, 2), 0.5), ["a", "b"])
    with pytest.raises(InputError, match="without a modality"):
        merge_modalities(g, {"a": "M"})
    with pytest.raises(InputError, match="not in the graph"):
        merge_modalities(g, {"a": "M", "b": "M", "c": "M"})


def ladder_graph(values, nodes, index=0):
    """Upper-triangle weights filled row-major from ``values``."""
    n = len(nodes)
    w = np.full((n, n), np.nan)
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = next(it)
    return graph_from(w, nodes, index=index)


def test_rho_one_keeps_every_present_edge():
    g = ladder_graph([0.1, 0.5, 0.9, 0.3, 0.7, 0.2], ["a", "b", "c", "d"])
    tn = assemble_temporal_network([g], rho=1.0)
    layer = tn.layers[0]
    assert layer.sum() == 12  # 6 undirected edges
    assert not layer.diagonal().any()
    assert np.array_equal(layer, layer.T)


def test_ties_at_the_cut_are_kept():
    g = ladder_graph([0.5, 0.5, 0.5], ["a", "b", "c"])
    tn = assemble_temporal_network([g], rho=0.5)
    assert tn.layers[0].sum() == 6  # all three edges survive


def test_distinct_weights_keep_strongest_half():
    # five distinct weights at rho = 0.5: the median survives, two fall
    g = ladder_graph([0.1, 0.2, 0.3, 0.4, 0.5, np.nan], ["a", "b", "c", "d"])
    tn = assemble_temporal_network([g], rho=0.5)
    assert tn.layers[0].sum() == 2 * 3


def test_edge_set_grows_with_rho():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = ladder_graph(rng.uniform(size=10), ["a", "b", "c", "d", "e"])
        previous = None
        for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
            layer = assemble_temporal_network([g], rho=rho).layers[0]
            if previous is not None:
                assert (previous <= layer).all()
            previous = layer


def test_layers_follow_window_order():
    g2 = ladder_graph([0.9, 0.1, 0.1], ["a", "b", "c"], index=2)
    g0 = ladder_graph([0.1, 0.9, 0.1], ["a", "b", "c"], index=0)
    g1 = ladder_graph([0.1, 0.1, 0.9], ["a", "b", "c"], index=1)
    tn = assemble_temporal_network([g2, g0, g1], rho=0.4)
    assert tn.n_layers == 3
    assert tn.layers[0][0, 2]  # strongest edge of window 0 is a-c
    assert tn.layers[1][1, 2]
    assert tn.layers[2][0, 1]
    assert tn.binarize_rule == {"strategy": "proportional", "rho": 0.4}
    assert tn.metric == "JDET"


def test_all_absent_window_yields_empty_layer():
    g0 = ladder_graph([0.5, 0.5, 0.5], ["a", "b", "c"], index=0)
    g1 = ladder_graph([np.nan, np.nan, np.nan], ["a", "b", "c"], index=1)
    tn = assemble_temporal_network([g0, g1], rho=1.0)
    assert tn.layers[0].any()
    assert not tn.layers[1].any()


def test_assemble_input_errors():
    a = ladder_graph([0.5], ["x", "y"])
    b = graph_from(np.full((2, 2), 0.5), ["x", "z"], index=1)
    with pytest.raises(InputError, match="zero graphs"):
        assemble_temporal_network([])
    with pytest.raises(InputError, match="node set"):
        assemble_temporal_network([a, b])
    with pytest.raises(InputError, match="rho"):
        assemble_temporal_network([a], rho=0.0)
    c = graph_from(np.full((2, 2), 0.5), ["x", "y"], index=1, metric="JLAM")
    with pytest.raises(InputError, match="metric"):
        assemble_temporal_network([a, c])


def test_weighted_record_upper_triangle_with_nulls():
    g = graph_from(
        [[0.3, 0.4, np.nan], [0.4, np.nan, 0.6], [np.nan, 0.6, 0.1]],
        ["A", "B", "C"],
        index=7,
        metric="JLAM",
    )
    rec = weighted_record(g)
    assert rec["window"] == 7
    assert rec["metric"] == "JLAM"
    assert rec["nodes"] == ["A", "B", "C"]
    assert rec["weights"] == [0.3, 0.4, None, None, 0.6, 0.1]


def test_binary_record_lists_sorted_edges():
    g = ladder_graph([0.9, 0.1, 0.8], ["a", "b", "c"], index=0)
    tn = assemble_temporal_network([g], rho=0.7)
    rec = binary_record(tn, 0)
    assert rec == {"window": 0, "edges": [[0, 1], [1, 2]]}
