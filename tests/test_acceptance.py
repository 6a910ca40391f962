"""Acceptance suite: one check per headline guarantee of the package.

Each test prints a single PASS/FAIL line with the measured numbers (use
``pytest -s`` to see them inline; captured output appears on failure).
The oracles here are deliberately naive reimplementations, independent
of the library's vectorized kernels.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from jrpnet.config import PipelineConfig
from jrpnet.ingest import Window, zscore_channels
from jrpnet.learn import FeatureTable, cross_validate, fit_lasso, lambda_grid
from jrpnet.netbuild import METRICS, TemporalNetwork, channel_graphs
from jrpnet.pipeline import TARGETS, estimate_trial_embeddings, run_pipeline
from jrpnet.recurrence import joint_recurrence_plot, recurrence_plot, threshold_for_rate
from jrpnet.rqa import determinism, laminarity
from jrpnet.synth import CouplingSpec, generate, three_regime_specs, write_dataset
from jrpnet.tempnet import feature_vector, reachability_and_latency


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# oracles


def runs_of_ones(vector):
    runs, run = [], 0
    for v in vector:
        if v:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    if run:
        runs.append(run)
    return runs


def brute_det(bits, l_min):
    n = bits.shape[0]
    runs = []
    for offset in range(-(n - 1), n):
        if offset:
            runs.extend(runs_of_ones(np.diagonal(bits, offset)))
    total = sum(runs)
    return sum(r for r in runs if r >= l_min) / total if total else 0.0


def brute_lam(bits, v_min):
    work = bits.copy()
    np.fill_diagonal(work, False)
    runs = []
    for j in range(work.shape[1]):
        runs.extend(runs_of_ones(work[:, j]))
    total = sum(runs)
    return sum(r for r in runs if r >= v_min) / total if total else 0.0


def brute_reachability(layers):
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


def off_diagonal_rate(bits):
    n = bits.shape[0]
    return (int(bits.sum()) - int(np.diagonal(bits).sum())) / (n * n - n)


# ---------------------------------------------------------------------------
# acceptance checks


def test_rqa_matches_exhaustive_line_counting():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        upper = np.triu(rng.random((n, n)) < float(rng.uniform(0.05, 0.6)), k=1)
        bits = upper | upper.T | np.eye(n, dtype=bool)
        l_min = int(rng.integers(2, 5))
        v_min = int(rng.integers(2, 5))
        if determinism(bits, l_min) != brute_det(bits, l_min):
            mismatches += 1
        if laminarity(bits, v_min) != brute_lam(bits, v_min):
            mismatches += 1

    hand = np.eye(6, dtype=bool)
    for i in range(3):
        hand[i, i + 1] = hand[i + 1, i] = True
    hand[0, 5] = hand[5, 0] = True
    hand_det = determinism(hand, 3)

    wall = np.eye(5, dtype=bool)
    for i in (0, 1, 2):
        wall[i, 4] = wall[4, i] = True
    hand_lam = laminarity(wall, 3)

    ok = mismatches == 0 and hand_det == 0.75 and hand_lam == 0.5
    verdict(
        ok,
        "determinism and laminarity match exhaustive line counting",
        f"200 random matrices, {mismatches} mismatches, hand cases "
        f"det={hand_det} lam={hand_lam}, {time.perf_counter() - start:.1f}s",
    )


def test_jrp_is_the_cropped_intersection_of_its_parents():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    bad = 0
    for _ in range(100):
        na, nb = int(rng.integers(20, 81)), int(rng.integers(20, 81))
        dim = int(rng.integers(1, 4))
        a = recurrence_plot(rng.normal(size=(na, dim)), float(rng.uniform(0.3, 1.5)))
        b = recurrence_plot(rng.normal(size=(nb, dim)), float(rng.uniform(0.3, 1.5)))
        j = joint_recurrence_plot(a, b)
        m = min(na, nb)
        if not np.array_equal(j, a[:m, :m] & b[:m, :m]):
            bad += 1
        if m > 1:
            cap = min(off_diagonal_rate(a[:m, :m]), off_diagonal_rate(b[:m, :m]))
            if off_diagonal_rate(j) > cap + 1e-12:
                bad += 1
    verdict(
        bad == 0,
        "joint plots are the cropped AND of their parents",
        f"100 random pairs, {bad} violations, {time.perf_counter() - start:.1f}s",
    )


def test_calibrated_thresholds_hit_the_target_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for target in (0.05, 0.1, 0.2):
        for _ in range(10):
            n = int(rng.integers(100, 400))
            dim = int(rng.integers(1, 5))
            states = rng.normal(size=(n, dim))
            eps = threshold_for_rate(states, target)
            achieved = off_diagonal_rate(recurrence_plot(states, eps))
            worst = max(worst, abs(achieved - target))
    verdict(
        worst <= 0.02,
        "calibrated thresholds land within 0.02 of the target rate",
        f"30 trajectories, worst deviation {worst:.5f}, "
        f"{time.perf_counter() - start:.1f}s",
    )


def test_temporal_paths_match_exhaustive_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        T = int(rng.integers(1, 7))
        layers = rng.random((T, n, n)) < float(rng.uniform(0.1, 0.6))
        layers = layers | layers.transpose(0, 2, 1)
        for t in range(T):
            np.fill_diagonal(layers[t], False)
        tn = TemporalNetwork(
            nodes=tuple(f"n{k}" for k in range(n)), layers=layers,
            binarize_rule={}, metric="JDET",
        )
        want_latency, want_counts = brute_reachability(layers)
        report = reachability_and_latency(tn)
        if not np.array_equal(report.latency, want_latency):
            mismatches += 1
        if not np.array_equal(report.fastest_path_counts, want_counts):
            mismatches += 1

    chain = np.zeros((2, 3, 3), dtype=bool)
    chain[0, 0, 1] = chain[0, 1, 0] = True
    chain[1, 1, 2] = chain[1, 2, 1] = True
    eff = feature_vector(
        TemporalNetwork(nodes=("A", "B", "C"), layers=chain, binarize_rule={}, metric="JDET"),
        n_null=1,
    ).efficiency
    ok = mismatches == 0 and abs(eff - 7 / 12) <= 1e-9
    verdict(
        ok,
        "latencies and fastest-path counts match exhaustive enumeration",
        f"200 random networks, {mismatches} mismatches, chain efficiency "
        f"{eff:.10f}, {time.perf_counter() - start:.1f}s",
    )


def test_coupling_raises_joint_determinism():
    start = time.perf_counter()
    config = PipelineConfig()
    coupled, uncoupled = [], []
    for seed in range(20):
        for strength, bucket in ((0.4, coupled), (0.0, uncoupled)):
            mu = np.array([[0.0, strength], [strength, 0.0]])
            spec = CouplingSpec(
                n_channels=2,
                modality_map={"a": "EEG", "b": "EMG"},
                coupling_matrix=mu,
                noise_sd=0.05,
                length_samples=640,
                sampling_rate_hz=64.0,
                seed=seed + (0 if strength else 1000),
                trial_id=f"probe_{seed}",
            )
            recording = generate(spec)
            embeddings = estimate_trial_embeddings(recording, config)
            window = Window(
                index=0,
                start_sample=0,
                length_samples=640,
                channel_names=recording.channel_names,
                samples=zscore_channels(recording).samples,
            )
            weights = channel_graphs([window], embeddings, recording.modalities)["JDET"]
            bucket.append(weights[0, 0, 1])
    p = mannwhitneyu(coupled, uncoupled, alternative="greater").pvalue
    verdict(
        p < 0.01,
        "coupling at 0.4 separates from zero coupling in joint determinism",
        f"20 seeds per group, medians {np.median(coupled):.3f} vs "
        f"{np.median(uncoupled):.3f}, one-sided p={p:.2e}, "
        f"{time.perf_counter() - start:.1f}s",
    )


def test_three_regime_benchmark_is_classified(tmp_path):
    start = time.perf_counter()
    config = PipelineConfig()
    seeds = (101, 102, 103, 104, 105)
    sums = {(t, m): 0.0 for t in TARGETS for m in METRICS}
    for seed in seeds:
        data_dir = tmp_path / f"data_{seed}"
        out_dir = tmp_path / f"out_{seed}"
        specs, labels = three_regime_specs(n_per_regime=20, seed=seed)
        write_dataset(specs, labels, data_dir)
        report = run_pipeline(data_dir, out_dir, config)
        for t in TARGETS:
            for m in METRICS:
                sums[(t, m)] += report["results"][t][m]["accuracy"]
    means = {k: v / len(seeds) for k, v in sums.items()}
    detail = ", ".join(f"{t}/{m} {v:.3f}" for (t, m), v in sorted(means.items()))
    verdict(
        all(v >= 0.70 for v in means.values()),
        "three-regime benchmark classified at 0.70+ mean accuracy",
        f"60 trials x {len(seeds)} seeds, {detail}, "
        f"{time.perf_counter() - start:.0f}s",
    )


def test_sparse_classifier_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    n, p = 60, 6
    X = rng.normal(size=(n, p))
    classes = tuple(("low", "medium", "high")[i % 3] for i in range(n))
    shift = {"low": -2.0, "medium": 0.0, "high": 2.0}
    X[:, 0] += np.array([shift[c] for c in classes])
    table = FeatureTable(
        trial_ids=tuple(f"t{i}" for i in range(n)),
        columns=tuple(f"f{j}" for j in range(p)),
        X=X,
        labels={"valence": classes},
    )

    grid = lambda_grid(table, "valence", points=10)
    nnz = [int(np.count_nonzero(fit_lasso(table, "valence", lam).weights)) for lam in grid]
    monotone = all(a <= b for a, b in zip(nnz, nnz[1:])) and nnz[0] == 0

    huge = bool(np.all(fit_lasso(table, "valence", 1e6).weights == 0.0))

    rescaled = FeatureTable(
        trial_ids=table.trial_ids,
        columns=table.columns,
        X=X * rng.uniform(0.001, 1000.0, size=p) + rng.uniform(-5, 5, size=p),
        labels=table.labels,
    )
    a = fit_lasso(table, "valence", 0.05)
    b = fit_lasso(rescaled, "valence", 0.05)
    invariant = np.allclose(a.weights, b.weights, atol=1e-8) and np.allclose(
        a.intercepts, b.intercepts, atol=1e-8
    )

    accs = []
    for perm_seed in range(20):
        perm = np.random.default_rng(perm_seed).permutation(np.array(classes))
        broken = FeatureTable(
            trial_ids=table.trial_ids,
            columns=table.columns,
            X=X,
            labels={"valence": tuple(perm)},
        )
        accs.append(cross_validate(broken, "valence", k=5, seed=0).accuracy)
    chance = all(0.15 <= v <= 0.55 for v in accs)

    verdict(
        monotone and huge and invariant and chance,
        "sparse classifier honors its invariants",
        f"nnz path {nnz}, huge-lambda zeros {huge}, scaling invariant "
        f"{invariant}, permuted-label mean accuracy {np.mean(accs):.3f}, "
        f"{time.perf_counter() - start:.1f}s",
    )


def test_pipeline_artifacts_are_reproducible(tmp_path):
    start = time.perf_counter()
    config = PipelineConfig(k_folds=2)
    data_dir = tmp_path / "data"
    specs, labels = three_regime_specs(n_per_regime=2, seed=11, length_samples=640)
    write_dataset(specs, labels, data_dir)
    names = [
        "embedding_params.json",
        "features.csv",
        "evaluation.json",
        "model_valence_JDET.json",
        "model_valence_JLAM.json",
        "model_arousal_JDET.json",
        "model_arousal_JLAM.json",
    ]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    run_pipeline(data_dir, out1, config)
    run_pipeline(data_dir, out2, config)
    differing = [n for n in names if (out1 / n).read_bytes() != (out2 / n).read_bytes()]
    verdict(
        not differing,
        "pipeline artifacts are byte-identical across reruns",
        f"{len(names)} artifacts compared, differing: {differing or 'none'}, "
        f"{time.perf_counter() - start:.1f}s",
    )


def test_reference_analysis_defaults():
    cfg = PipelineConfig().to_dict()
    expected = {
        "window_s": 5.0,
        "overlap": 0.2,
        "l_min": 3,
        "v_min": 3,
        "k_folds": 5,
        "target_rr": 0.1,
    }
    wrong = {k: cfg[k] for k, v in expected.items() if cfg[k] != v}
    verdict(
        not wrong,
        "reference analysis defaults are wired in",
        f"checked {sorted(expected)}, wrong: {wrong or 'none'}",
    )
