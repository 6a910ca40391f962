"""Temporal metrics against exhaustive path enumeration."""

import numpy as np
import pytest

from jrpnet.errors import InputError
from jrpnet.netbuild import TemporalNetwork
from jrpnet.tempnet import (
    feature_vector,
    reachability_and_latency,
    temporal_correlation,
    temporal_small_worldness,
)
from jrpnet.config import PipelineConfig
from jrpnet.pipeline import stage_analyze
from jrpnet.seeding import generator
from jrpnet.synth import three_regime_specs, write_dataset
from jrpnet.tempnet import _bounded, _latency_matrix, _mean_finite_latency, _null_stack, _rewire


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
        nulls = _null_stack(layers, 4, int(rng.integers(1 << 30)))
        assert nulls.dtype == bool
        assert nulls.shape == (4, *layers.shape)
        assert np.array_equal(nulls, nulls.transpose(0, 1, 3, 2))
        assert not nulls.diagonal(axis1=2, axis2=3).any()
        assert np.array_equal(nulls.sum(axis=2), np.broadcast_to(layers.sum(axis=1), (4, 3, n)))


def test_buffered_draws_match_generator_integers_draw_for_draw():
    # k = 3 * 2**30 rejects a quarter of the words and 2**31 + 1 about half
    rejecting = [3 << 30, (1 << 31) + 1]
    streams = [list(range(2, 41)) * 3, [(1 << 32) - 1, 1 << 32] * 25, [7, 2, 7, 7, 2] * 40]
    streams += [[k] * 200 for k in rejecting]
    for spare in (0, 1, 2):
        for seed, ks in enumerate(streams):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            # one word per draw (and a spare): every rejected word must be made up for
            words = ours.integers(0, 1 << 32, size=len(ks) + spare, dtype=np.uint32).tolist()
            i = 0
            for k in ks:
                got, i = _bounded(words, i, k, ours)
                assert got == ref.integers(0, k)
            # the draws took exactly the words Generator.integers took
            following = words[i] if i < len(words) else ours.integers(0, 1 << 32, dtype=np.uint32)
            assert following == ref.integers(0, 1 << 32, dtype=np.uint32)
            if ks[0] in rejecting:
                assert i > len(ks)


def test_rewire_skips_rejected_words():
    # for m = 3 edges the word 0 is rejected: (0 * 3) % 2**32 < (2**32 - 3) % 3 == 1
    rng = np.random.default_rng(49)
    edges = [(0, 1), (2, 3), (4, 5)]
    neighbors = [2, 1, 8, 4, 32, 16]
    changed = 0
    for _ in range(40):
        words = rng.integers(1, 1 << 32, size=36, dtype=np.uint32).tolist()
        want_edges, want_neighbors = list(edges), list(neighbors)
        used = _rewire(want_edges, want_neighbors, list(words), 0, rng)
        changed += want_edges != edges
        # a rejected first or second draw of the first attempt
        for at in (0, 1):
            got_edges, got_neighbors = list(edges), list(neighbors)
            padded = words[:at] + [0] + words[at:]
            assert _rewire(got_edges, got_neighbors, padded, 0, rng) == used + 1
            assert (got_edges, got_neighbors) == (want_edges, want_neighbors)
    assert changed


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


def reference_nulls(layers, n_null, seed):
    """Null k: every layer rewired in order by the reference from generator(seed, "null:k")."""
    for k in range(n_null):
        rng = generator(seed, f"null:{k}")
        yield np.stack([reference_rewire_layer(layer, rng) for layer in layers])


def reference_small_worldness(tn, n_null, seed):
    """Small-worldness as first written: each reference null evaluated on its own."""
    if tn.n_layers < 2 or not tn.layers.any():
        return (0.0, True)
    _, c_value = temporal_correlation(tn)
    l_value = _mean_finite_latency(_latency_matrix(tn.layers))
    if not np.isfinite(l_value):
        return (0.0, True)
    c_nulls = np.empty(n_null)
    l_nulls = np.empty(n_null)
    for k, layers in enumerate(reference_nulls(tn.layers, n_null, seed)):
        null = TemporalNetwork(nodes=tn.nodes, layers=layers, binarize_rule={}, metric="")
        _, c_nulls[k] = temporal_correlation(null)
        l_nulls[k] = _mean_finite_latency(_latency_matrix(null.layers))
    l_nulls = l_nulls[np.isfinite(l_nulls)]
    if l_nulls.size == 0:
        return (0.0, True)
    c_null = c_nulls.mean()
    l_null = l_nulls.mean()
    if c_null == 0.0 or l_null == 0.0 or l_value == 0.0:
        return (0.0, True)
    return (float((c_value / c_null) / (l_value / l_null)), False)


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
                got = _null_stack(layers, 2, seed)
                assert got.dtype == bool
                for k, want in enumerate(reference_nulls(layers, 2, seed)):
                    assert np.array_equal(got[k], want)
                for m in np.triu(layers, k=1).sum(axis=(1, 2)):
                    kinds.add("m<2" if m < 2 else "complete" if 2 * m == n * (n - 1) else "partial")
    assert kinds == {"m<2", "complete", "partial"}


def sw_hex(sw):
    return (float.hex(sw[0]), sw[1])


def test_small_worldness_matches_the_reference_rewiring():
    rng = np.random.default_rng(48)
    outcomes = set()
    for _ in range(150):
        n, T = int(rng.integers(2, 11)), int(rng.integers(2, 9))
        layers = random_layers(rng, T, n, float(rng.uniform(0.0, 1.0)))
        tn = TemporalNetwork(
            nodes=tuple(f"n{k}" for k in range(n)), layers=layers, binarize_rule={}, metric="JDET"
        )
        n_null, seed = int(rng.integers(1, 8)), int(rng.integers(1 << 30))
        got = temporal_small_worldness(tn, n_null=n_null, seed=seed)
        assert sw_hex(got) == sw_hex(reference_small_worldness(tn, n_null, seed))
        outcomes.add("degenerate" if got.degenerate else "one" if got.value == 1.0 else "other")
    assert outcomes == {"degenerate", "one", "other"}


def test_small_worldness_matches_the_per_null_reference_on_degenerate_networks():
    cases = [
        network([[(0, 1)]], 2),  # one layer
        network([[], []], 3),  # nothing reachable
        network([[(0, 1)], [(2, 3)]], 4),  # single edges never overlap: zero null C
        network([[(0, 1)], [], [(1, 2)]], 3),  # zero null C around an empty layer
        complete_network(4, 3),  # nulls equal the network
    ]
    for tn in cases:
        for n_null in (1, 3):
            got = temporal_small_worldness(tn, n_null=n_null, seed=5)
            assert sw_hex(got) == sw_hex(reference_small_worldness(tn, n_null, 5))
    assert temporal_small_worldness(cases[2], n_null=3) == (0.0, True)


@pytest.fixture(scope="module")
def benchmark_networks(tmp_path_factory):
    """Every network ``stage_analyze`` builds from three_regime_specs(5, 201)."""
    root = tmp_path_factory.mktemp("bench201")
    specs, labels = three_regime_specs(5, 201)
    write_dataset(specs, labels, root / "data")
    out = {}
    for overlap in (0.2, 0.9):
        config = PipelineConfig(overlap=overlap)
        by_trial = stage_analyze(root / "data", root / f"out{overlap}", config)
        out[overlap] = [tn for trial in by_trial.values() for tn in trial.values()]
    return out


@pytest.mark.parametrize("overlap", [0.2, 0.9])
def test_small_worldness_matches_the_per_null_reference_on_benchmark_networks(
    benchmark_networks, overlap
):
    networks = benchmark_networks[overlap]
    assert len(networks) == 30
    for tn in networks:
        got = temporal_small_worldness(tn)
        assert sw_hex(got) == sw_hex(reference_small_worldness(tn, 20, 0))


def test_latency_counts_past_255_relays():
    # 0 reaches `relays` nodes in window 0, all of which reach node r + 1 in window 1
    for relays in (255, 256):
        layers = np.zeros((2, relays + 2, relays + 2), dtype=bool)
        layers[0, 0, 1 : relays + 1] = layers[0, 1 : relays + 1, 0] = True
        layers[1, relays + 1, 1 : relays + 1] = layers[1, 1 : relays + 1, relays + 1] = True
        tn = TemporalNetwork(
            nodes=tuple(f"n{k}" for k in range(relays + 2)), layers=layers,
            binarize_rule={}, metric="JDET",
        )
        report = reachability_and_latency(tn)
        assert report.latency[0, relays + 1] == 2.0
        assert report.fastest_path_counts[0, relays + 1] == relays


def test_integer_layer_stacks_read_as_their_bool_stacks():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n, T = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        upper = np.triu(rng.random((T, n, n)) < rng.uniform(0.1, 0.9), k=1)
        layers = upper | upper.transpose(0, 2, 1)
        want = _latency_matrix(layers)
        for dtype in (np.uint8, np.int64):
            np.testing.assert_array_equal(_latency_matrix(layers.astype(dtype)), want)
        tn = TemporalNetwork(
            nodes=tuple(f"n{k}" for k in range(n)), layers=layers.astype(np.uint8),
            binarize_rule={}, metric="JDET",
        )
        assert reachability_and_latency(tn).latency.tolist() == want.tolist()


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
