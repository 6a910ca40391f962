"""Temporal metrics against exhaustive path enumeration."""

import numpy as np
import pytest

from jrpnet.errors import InputError
from jrpnet.netbuild import TemporalNetwork
from jrpnet.tempnet import (
    FEATURE_SCHEMA_VERSION,
    feature_vector,
    reachability_and_latency,
    temporal_correlation,
    temporal_small_worldness,
)
from jrpnet import tempnet
from jrpnet.tempnet import _bounded, _edge_list, _null_layers, _words


def network(edge_lists, n, names=None):
    """Temporal network from per-window undirected edge lists."""
    layers = np.zeros((len(edge_lists), n, n), dtype=bool)
    for t, edges in enumerate(edge_lists):
        for a, b in edges:
            layers[t, a, b] = layers[t, b, a] = True
    nodes = tuple(names) if names else tuple(f"n{k}" for k in range(n))
    return TemporalNetwork(nodes=nodes, layers=layers, binarize_rule={}, metric="JDET")


def brute_reachability(layers):
    """Latency and fastest-path counts by enumerating every simple
    time-respecting path (at most one hop per window)."""
    T, n, _ = layers.shape
    latency = np.full((n, n), np.inf)
    np.fill_diagonal(latency, 0.0)
    arrivals = [[[] for _ in range(n)] for _ in range(n)]
    for source in range(n):
        stack = [(source, 0, frozenset([source]))]
        while stack:
            node, window, visited = stack.pop()
            for t in range(window + 1, T + 1):
                for nxt in np.nonzero(layers[t - 1][node])[0]:
                    nxt = int(nxt)
                    if nxt in visited:
                        continue
                    arrivals[source][nxt].append(t)
                    stack.append((nxt, t, visited | {nxt}))
    counts = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        for d in range(n):
            if s == d or not arrivals[s][d]:
                continue
            best = min(arrivals[s][d])
            latency[s, d] = best
            counts[s, d] = sum(1 for a in arrivals[s][d] if a == best)
    return latency, counts


def test_two_window_chain_by_hand():
    # A-B in window 1, B-C in window 2
    tn = network([[(0, 1)], [(1, 2)]], 3, names=("A", "B", "C"))
    report = reachability_and_latency(tn)
    want = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [np.inf, 2.0, 0.0]])
    assert np.array_equal(report.latency, want)
    assert feature_vector(tn, n_null=1).efficiency == pytest.approx(7 / 12)
    # every reachable pair has exactly one fastest path
    reachable = np.isfinite(report.latency) & ~np.eye(3, dtype=bool)
    assert (report.fastest_path_counts[reachable] == 1).all()
    assert report.fastest_path_counts[2, 0] == 0
    assert report.strong_pairs == {("A", "B"), ("B", "C")}
    assert report.weak_pairs == {("A", "C")}
    features = feature_vector(tn, n_null=2)
    assert features.mean_latency == pytest.approx(1.6)
    assert features.mean_fastest_paths == pytest.approx(1.0)
    assert features.frac_strong == pytest.approx(2 / 3)
    assert features.frac_weak == pytest.approx(1 / 3)


def test_parallel_relays_are_counted_separately():
    # A reaches D through B or C, both in two hops
    tn = network([[(0, 1), (0, 2)], [(1, 3), (2, 3)]], 4)
    report = reachability_and_latency(tn)
    assert report.fastest_path_counts[0, 3] == 2
    assert report.latency[0, 3] == 2.0


def test_matches_exhaustive_enumeration_on_random_networks():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        T = int(rng.integers(1, 6))
        layers = rng.random((T, n, n)) < float(rng.uniform(0.1, 0.6))
        layers = layers | layers.transpose(0, 2, 1)
        for t in range(T):
            np.fill_diagonal(layers[t], False)
        tn = network([[] for _ in range(T)], n)
        tn = TemporalNetwork(nodes=tn.nodes, layers=layers, binarize_rule={}, metric="JDET")
        want_latency, want_counts = brute_reachability(layers)
        report = reachability_and_latency(tn)
        assert np.array_equal(report.latency, want_latency)
        assert np.array_equal(report.fastest_path_counts, want_counts)


def test_efficiency_never_drops_when_an_edge_is_added():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n, T = 5, 3
        layers = rng.random((T, n, n)) < 0.2
        layers = layers | layers.transpose(0, 2, 1)
        for t in range(T):
            np.fill_diagonal(layers[t], False)
        tn = TemporalNetwork(
            nodes=tuple(f"n{k}" for k in range(n)), layers=layers,
            binarize_rule={}, metric="JDET",
        )
        before = feature_vector(tn, n_null=1).efficiency
        t = int(rng.integers(0, T))
        i, j = rng.choice(n, size=2, replace=False)
        grown = layers.copy()
        grown[t, i, j] = grown[t, j, i] = True
        denser = TemporalNetwork(
            nodes=tn.nodes, layers=grown, binarize_rule={}, metric="JDET"
        )
        assert feature_vector(denser, n_null=1).efficiency >= before - 1e-12


def test_latency_is_relabel_equivariant():
    rng = np.random.default_rng(44)
    n, T = 5, 4
    layers = rng.random((T, n, n)) < 0.3
    layers = layers | layers.transpose(0, 2, 1)
    for t in range(T):
        np.fill_diagonal(layers[t], False)
    nodes = tuple(f"n{k}" for k in range(n))
    tn = TemporalNetwork(nodes=nodes, layers=layers, binarize_rule={}, metric="JDET")
    perm = rng.permutation(n)
    relabeled = TemporalNetwork(
        nodes=tuple(nodes[p] for p in perm),
        layers=layers[:, perm][:, :, perm],
        binarize_rule={},
        metric="JDET",
    )
    lat = reachability_and_latency(tn).latency
    lat_rel = reachability_and_latency(relabeled).latency
    for a in range(n):
        for b in range(n):
            assert lat_rel[a, b] == lat[perm[a], perm[b]]


def test_trailing_empty_window_changes_nothing():
    tn = network([[(0, 1)], [(1, 2)]], 3)
    padded = network([[(0, 1)], [(1, 2)], []], 3)
    a = reachability_and_latency(tn)
    b = reachability_and_latency(padded)
    assert np.array_equal(a.latency, b.latency)
    assert np.array_equal(a.fastest_path_counts, b.fastest_path_counts)
    assert feature_vector(tn, n_null=1).efficiency == feature_vector(padded, n_null=1).efficiency


def test_temporal_correlation_hand_cases():
    # same single edge twice: endpoints fully preserved, bystander zero
    tn = network([[(0, 1)], [(0, 1)]], 3)
    per_node, mean = temporal_correlation(tn)
    assert per_node == pytest.approx([1.0, 1.0, 0.0])
    assert mean == pytest.approx(2 / 3)

    # hub loses one neighbor: its term is 1/sqrt(2)
    tn = network([[(0, 1), (1, 2)], [(0, 1)]], 3)
    per_node, mean = temporal_correlation(tn)
    assert per_node[0] == pytest.approx(1.0)
    assert per_node[1] == pytest.approx(1 / np.sqrt(2))
    assert per_node[2] == 0.0
    assert mean == pytest.approx((1 + 1 / np.sqrt(2)) / 3)

    # disjoint edge sets never overlap
    tn = network([[(0, 1)], [(2, 3)]], 4)
    _, mean = temporal_correlation(tn)
    assert mean == 0.0

    with pytest.raises(InputError, match="2 layers"):
        temporal_correlation(network([[(0, 1)]], 2))


def complete_network(n, T):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return network([edges] * T, n)


def test_small_worldness_is_one_on_complete_layers():
    # rewiring a complete graph is a no-op, so nulls equal the network
    tn = complete_network(4, 3)
    sw = temporal_small_worldness(tn, n_null=5, seed=3)
    assert sw == (1.0, False)


def test_small_worldness_is_deterministic_in_seed():
    rng = np.random.default_rng(45)
    layers = rng.random((3, 6, 6)) < 0.4
    layers = layers | layers.transpose(0, 2, 1)
    for t in range(3):
        np.fill_diagonal(layers[t], False)
    tn = TemporalNetwork(
        nodes=tuple(f"n{k}" for k in range(6)), layers=layers,
        binarize_rule={}, metric="JDET",
    )
    first = temporal_small_worldness(tn, n_null=4, seed=11)
    second = temporal_small_worldness(tn, n_null=4, seed=11)
    assert first == second
    assert not first.degenerate
    assert first.value > 0.0


def test_small_worldness_degenerate_cases():
    single = network([[(0, 1)]], 2)
    assert temporal_small_worldness(single) == (0.0, True)

    empty = network([[], []], 3)
    assert temporal_small_worldness(empty) == (0.0, True)

    # single-edge layers cannot rewire and never overlap: null C is zero
    disjoint = network([[(0, 1)], [(2, 3)]], 4)
    assert temporal_small_worldness(disjoint, n_null=3) == (0.0, True)

    with pytest.raises(InputError, match="n_null"):
        temporal_small_worldness(complete_network(3, 2), n_null=0)


def test_rewiring_preserves_degrees_and_simplicity():
    rng = np.random.default_rng(46)
    for _ in range(30):
        n = int(rng.integers(4, 10))
        layers = random_layers(rng, 3, n, float(rng.uniform(0.2, 0.6)))
        rewired = _null_layers(
            layers, [_edge_list(layer) for layer in layers],
            np.random.default_rng(int(rng.integers(1 << 30))),
        )
        assert rewired.dtype == bool
        assert rewired.shape == layers.shape
        assert np.array_equal(rewired, rewired.transpose(0, 2, 1))
        assert not rewired.diagonal(axis1=1, axis2=2).any()
        assert np.array_equal(rewired.sum(axis=1), layers.sum(axis=1))


def test_buffered_draws_match_generator_integers_draw_for_draw():
    # k = 3 * 2**30 rejects a quarter of the words and 2**31 + 1 about half
    rejecting = [3 << 30, (1 << 31) + 1]
    streams = [list(range(2, 41)) * 3, [(1 << 32) - 1, 1 << 32] * 25, [7, 2, 7, 7, 2] * 40]
    streams += [[k] * 200 for k in rejecting]
    for batch in (1, 2, 3):
        for seed, ks in enumerate(streams):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            consumed = []
            words = (consumed.append(w) or w for w in _words(ours, batch))
            for k in ks:
                assert _bounded(words, k) == ref.integers(0, k)
                if batch == 1:
                    assert ours.bit_generator.state == ref.bit_generator.state
            if ks[0] in rejecting:
                assert len(consumed) > len(ks)


def reference_rewire_layer(layer, rng):
    """Degree-preserving rewiring as first written, on NumPy arrays."""
    edges = [tuple(e) for e in np.argwhere(np.triu(layer, k=1))]
    m = len(edges)
    if m < 2:
        return layer.copy()
    adj = layer.copy()
    attempts = 4 * m
    for _ in range(attempts):
        k1, k2 = rng.integers(0, m, size=2)
        if k1 == k2:
            continue
        a, b = edges[k1]
        c, d = edges[k2]
        if rng.integers(0, 2):
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        if adj[a, d] or adj[c, b]:
            continue
        adj[a, b] = adj[b, a] = False
        adj[c, d] = adj[d, c] = False
        adj[a, d] = adj[d, a] = True
        adj[c, b] = adj[b, c] = True
        edges[k1] = (min(a, d), max(a, d))
        edges[k2] = (min(c, b), max(c, b))
    return adj


def random_layers(rng, T, n, density):
    layers = rng.random((T, n, n)) < density
    layers = np.triu(layers, k=1)
    return layers | layers.transpose(0, 2, 1)


def test_rewiring_matches_the_reference_draw_for_draw():
    # one generator per null, consumed by the stack's layers in order
    rng = np.random.default_rng(47)
    kinds = set()
    for n in range(2, 11):
        for density in (0.0, 0.15, 0.4, 0.7, 1.0):
            for T in (2, 3, 5):
                layers = random_layers(rng, T, n, density)
                seed = int(rng.integers(1 << 30))
                edges = [_edge_list(layer) for layer in layers]
                before = [list(e) for e in edges]
                got = _null_layers(layers, edges, np.random.default_rng(seed))
                ref = np.random.default_rng(seed)
                want = [reference_rewire_layer(layer, ref) for layer in layers]
                assert got.dtype == bool
                for t in range(T):
                    assert np.array_equal(got[t], want[t])
                assert edges == before
                for e in edges:
                    m = len(e)
                    kinds.add("m<2" if m < 2 else "complete" if 2 * m == n * (n - 1) else "partial")
    assert kinds == {"m<2", "complete", "partial"}


def test_small_worldness_matches_the_reference_rewiring(monkeypatch):
    rng = np.random.default_rng(48)
    networks = [complete_network(4, 3), network([[(0, 1)], [(0, 1), (2, 3)]], 4)]
    for n in (4, 5, 8):
        for density in (0.3, 0.6):
            layers = random_layers(rng, 5, n, density)
            networks.append(
                TemporalNetwork(
                    nodes=tuple(f"n{k}" for k in range(n)), layers=layers,
                    binarize_rule={}, metric="JDET",
                )
            )
    ours = [temporal_small_worldness(tn, n_null=6, seed=9) for tn in networks]
    monkeypatch.setattr(
        tempnet, "_null_layers",
        lambda layers, edges, rng: np.stack([reference_rewire_layer(l, rng) for l in layers]),
    )
    want = [temporal_small_worldness(tn, n_null=6, seed=9) for tn in networks]
    assert ours == want
    assert any(not sw.degenerate and sw.value != 1.0 for sw in ours)


def test_feature_vector_of_complete_network():
    tn = complete_network(3, 2)
    features = feature_vector(tn, n_null=3)
    assert features.efficiency == pytest.approx(1.0)
    assert features.mean_latency == pytest.approx(1.0)
    assert features.mean_fastest_paths == pytest.approx(1.0)
    assert features.temporal_correlation == pytest.approx(1.0)
    assert features.small_worldness == pytest.approx(1.0)
    assert not features.small_worldness_degenerate
    assert features.frac_strong == 1.0
    assert features.frac_weak == 0.0
    assert features.per_node_correlation == (1.0, 1.0, 1.0)
    names = features.names(tn.nodes)
    assert names[-3:] == ["corr_n0", "corr_n1", "corr_n2"]
    assert len(names) == len(features.values())
    assert FEATURE_SCHEMA_VERSION == 1


def test_feature_vector_of_empty_network_is_flagged_zeros():
    tn = network([[], []], 3)
    features = feature_vector(tn, n_null=2)
    assert features.efficiency == 0.0
    assert features.mean_latency == 0.0
    assert features.mean_fastest_paths == 0.0
    assert features.temporal_correlation == 0.0
    assert features.small_worldness == 0.0
    assert features.small_worldness_degenerate
    assert features.frac_strong == 0.0
    assert features.frac_weak == 0.0
    assert features.per_node_correlation == (0.0, 0.0, 0.0)
