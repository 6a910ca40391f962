"""Synthetic coupled dynamics and dataset materialization."""

import json

import numpy as np
import pytest

from jrpnet.errors import InputError
from jrpnet.ingest import load_labels, load_recording
from jrpnet.seeding import generator
from jrpnet.synth import (
    BURN_IN_SAMPLES,
    CouplingSpec,
    dataset_from_json,
    generate,
    three_regime_specs,
    write_dataset,
    write_recording,
)


def pair_spec(mu_ab=0.0, **kwargs):
    mu = np.array([[0.0, mu_ab], [mu_ab, 0.0]])
    defaults = dict(
        n_channels=2,
        modality_map={"a": "EEG", "b": "EMG"},
        coupling_matrix=mu,
        length_samples=200,
        seed=5,
        trial_id="pair",
    )
    defaults.update(kwargs)
    return CouplingSpec(**defaults)


def test_uncoupled_channels_follow_the_scalar_map():
    spec = pair_spec(mu_ab=0.0)
    recording = generate(spec)
    for k, name in enumerate(("a", "b")):
        x = generator(spec.seed, f"init:{name}").uniform(0.05, 0.95)
        trace = []
        for _ in range(spec.length_samples + BURN_IN_SAMPLES):
            x = 4.0 * x * (1.0 - x)
            trace.append(x)
        assert np.array_equal(recording.channel(name), trace[BURN_IN_SAMPLES:])


def test_channels_start_from_distinct_conditions():
    recording = generate(pair_spec())
    assert recording.channel("a")[0] != recording.channel("b")[0]
    assert recording.channel_names == ("a", "b")
    assert recording.modalities == ("EEG", "EMG")
    assert recording.duration_samples == 200


def test_noise_free_trajectories_stay_in_unit_interval():
    for seed in range(5):
        spec = pair_spec(mu_ab=0.3, seed=seed)
        samples = generate(spec).samples
        assert samples.min() >= 0.0
        assert samples.max() <= 1.0


def test_strong_symmetric_coupling_synchronizes_the_pair():
    # x_a and x_b both become the same mixture after a single step
    recording = generate(pair_spec(mu_ab=0.5))
    gap = np.abs(recording.channel("a") - recording.channel("b"))
    assert gap.max() == 0.0


def test_generation_is_deterministic():
    one = generate(pair_spec(mu_ab=0.2, noise_sd=0.1))
    two = generate(pair_spec(mu_ab=0.2, noise_sd=0.1))
    assert np.array_equal(one.samples, two.samples)
    other_seed = generate(pair_spec(mu_ab=0.2, noise_sd=0.1, seed=6))
    assert not np.array_equal(one.samples, other_seed.samples)


def test_observation_noise_is_reconstructible():
    clean = generate(pair_spec(mu_ab=0.2))
    noisy = generate(pair_spec(mu_ab=0.2, noise_sd=0.3))
    for name in ("a", "b"):
        draws = generator(5, f"noise:{name}").normal(0.0, 0.3, size=200)
        assert np.array_equal(noisy.channel(name), clean.channel(name) + draws)


def test_oscillator_dynamics_smoke():
    spec = pair_spec(mu_ab=0.8, dynamics="coupled_oscillator", length_samples=300)
    recording = generate(spec)
    assert recording.samples.shape == (2, 300)
    assert recording.samples.min() >= -1.0
    assert recording.samples.max() <= 1.0
    again = generate(pair_spec(mu_ab=0.8, dynamics="coupled_oscillator", length_samples=300))
    assert np.array_equal(recording.samples, again.samples)
    # oscillators tolerate row sums at or above 1, only maps forbid them
    mu = np.full((3, 3), 0.6)
    np.fill_diagonal(mu, 0.0)
    CouplingSpec(
        n_channels=3,
        modality_map={"x": "A", "y": "B", "z": "C"},
        coupling_matrix=mu,
        dynamics="coupled_oscillator",
    )


def test_spec_validation_errors():
    with pytest.raises(InputError, match="row 0 sums to 1.000"):
        pair_spec(mu_ab=1.0)
    with pytest.raises(InputError, match="symmetric"):
        pair_spec(coupling_matrix=np.array([[0.0, 0.2], [0.3, 0.0]]))
    with pytest.raises(InputError, match="diagonal"):
        pair_spec(coupling_matrix=np.array([[0.1, 0.0], [0.0, 0.1]]))
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        pair_spec(coupling_matrix=np.array([[0.0, -0.2], [-0.2, 0.0]]))
    with pytest.raises(InputError, match="at least 2 channels"):
        pair_spec(n_channels=1, modality_map={"a": "EEG"}, coupling_matrix=np.zeros((1, 1)))
    with pytest.raises(InputError, match="modality map covers"):
        pair_spec(modality_map={"a": "EEG"})
    with pytest.raises(InputError, match="shape"):
        pair_spec(coupling_matrix=np.zeros((3, 3)))
    with pytest.raises(InputError, match="dynamics"):
        pair_spec(dynamics="pendulum")
    with pytest.raises(InputError, match="noise_sd"):
        pair_spec(noise_sd=-0.1)
    with pytest.raises(InputError, match="noise_sd"):
        pair_spec(noise_sd=float("nan"))
    with pytest.raises(InputError, match="length_samples"):
        pair_spec(length_samples=1)
    with pytest.raises(InputError, match="sampling_rate_hz"):
        pair_spec(sampling_rate_hz=0.0)
    with pytest.raises(InputError, match="sampling_rate_hz"):
        pair_spec(sampling_rate_hz=float("inf"))


def test_spec_dict_roundtrip():
    spec = pair_spec(mu_ab=0.25, noise_sd=0.02, trial_id="rt")
    back = CouplingSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back.to_dict() == spec.to_dict()
    with pytest.raises(InputError, match="required key"):
        CouplingSpec.from_dict({"n_channels": 2})


def test_write_recording_roundtrips_through_ingest(tmp_path):
    recording = generate(pair_spec(mu_ab=0.2, noise_sd=0.05))
    csv_path, schema_path = write_recording(recording, tmp_path)
    loaded = load_recording(csv_path, schema_path)
    assert loaded.trial_id == "pair"
    assert loaded.channel_names == recording.channel_names
    assert loaded.modalities == recording.modalities
    assert np.array_equal(loaded.samples, recording.samples)


def test_three_regime_benchmark_layout():
    specs, labels = three_regime_specs(n_per_regime=3, seed=7)
    assert len(specs) == 9
    assert len(labels) == 9
    by_regime = {}
    for spec in specs:
        regime = spec.trial_id.rsplit("_", 1)[0]
        by_regime.setdefault(regime, []).append(spec)
        assert spec.n_channels == 8
        assert spec.length_samples == 1280
        assert spec.sampling_rate_hz == 64.0
        assert set(spec.modality_map.values()) == {"M1", "M2", "M3", "M4"}
    assert sorted(by_regime) == ["dense", "none", "sparse"]
    assert np.count_nonzero(by_regime["dense"][0].coupling_matrix) == 8
    assert np.count_nonzero(by_regime["sparse"][0].coupling_matrix) == 2
    assert np.count_nonzero(by_regime["none"][0].coupling_matrix) == 0
    assert labels["dense_000"] == (8.0, 8.0)
    assert labels["sparse_001"] == (5.0, 5.0)
    assert labels["none_002"] == (2.0, 2.0)
    seeds = [spec.seed for spec in specs]
    assert len(set(seeds)) == len(seeds)

    again, _ = three_regime_specs(n_per_regime=3, seed=7)
    assert [s.to_dict() for s in again] == [s.to_dict() for s in specs]
    with pytest.raises(InputError, match="n_per_regime"):
        three_regime_specs(n_per_regime=0, seed=7)


def test_write_dataset_materializes_everything(tmp_path):
    specs, labels = three_regime_specs(n_per_regime=1, seed=3, length_samples=64)
    write_dataset(specs, labels, tmp_path)
    for spec in specs:
        assert (tmp_path / f"{spec.trial_id}.csv").exists()
        assert (tmp_path / f"{spec.trial_id}.schema.json").exists()
        spec_file = tmp_path / f"{spec.trial_id}.spec.json"
        assert json.loads(spec_file.read_text()) == spec.to_dict()
    records = load_labels(tmp_path / "labels.csv")
    assert {r.trial_id: (r.valence, r.arousal) for r in records} == labels


def test_dataset_from_json_preset_and_overrides():
    specs, labels = dataset_from_json(
        {"preset": "three_regime", "n_per_regime": 1, "seed": 3, "length_samples": 256}
    )
    assert len(specs) == 3
    assert all(spec.length_samples == 256 for spec in specs)
    want, _ = three_regime_specs(n_per_regime=1, seed=3, length_samples=256)
    assert [s.to_dict() for s in specs] == [s.to_dict() for s in want]
    assert set(labels) == {"dense_000", "sparse_000", "none_000"}

    with pytest.raises(InputError, match="preset"):
        dataset_from_json({"preset": "four_regime"})


def test_dataset_from_json_trial_list():
    base = pair_spec(mu_ab=0.2).to_dict()
    one = {**base, "trial_id": "t1", "valence": 7.5, "arousal": 3.0}
    two = {**base, "trial_id": "t2"}
    specs, labels = dataset_from_json({"trials": [one, two]})
    assert [s.trial_id for s in specs] == ["t1", "t2"]
    assert labels == {"t1": (7.5, 3.0), "t2": (5.0, 5.0)}

    with pytest.raises(InputError, match="duplicate"):
        dataset_from_json({"trials": [one, one]})
    with pytest.raises(InputError, match="no trials"):
        dataset_from_json({"trials": []})
    with pytest.raises(InputError, match="preset.*trials|trials.*preset"):
        dataset_from_json({})


def test_spec_from_dict_rejects_what_it_cannot_use():
    required = {
        "n_channels": 2,
        "modality_map": {"a": "EEG", "b": "EMG"},
        "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]],
    }
    # absent optional keys take the dataclass defaults
    assert CouplingSpec.from_dict(required).to_dict() == CouplingSpec(**required).to_dict()
    with pytest.raises(InputError, match=r"unknown coupling spec keys: \['noise'\]"):
        CouplingSpec.from_dict({**required, "noise": 0.5})
    with pytest.raises(InputError, match="seed"):
        CouplingSpec.from_dict({**required, "seed": "x"})
    with pytest.raises(InputError, match="coupling_matrix"):
        CouplingSpec.from_dict({**required, "coupling_matrix": [[0.0, 0.2], [0.2]]})


def test_dataset_from_json_rejects_what_it_cannot_use():
    with pytest.raises(InputError, match=r"unknown preset keys: \['n_per_regim'\]"):
        dataset_from_json({"preset": "three_regime", "n_per_regime": 1, "n_per_regim": 1})
    with pytest.raises(InputError, match="n_per_regime must be an integer"):
        dataset_from_json({"preset": "three_regime", "n_per_regime": "two"})
    with pytest.raises(InputError, match="strength must be a number"):
        dataset_from_json({"preset": "three_regime", "n_per_regime": 1, "strength": True})
    entry = pair_spec(mu_ab=0.2).to_dict()
    for trials in ([entry, 1], [entry, [["trial_id", "t2"]]], {"t1": entry}):
        with pytest.raises(InputError, match="list of JSON objects"):
            dataset_from_json({"trials": trials})
    with pytest.raises(InputError, match="label"):
        dataset_from_json({"trials": [{**entry, "valence": "high"}]})
