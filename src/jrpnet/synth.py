"""Synthetic multichannel recordings with known coupling structure.

The default dynamics are diffusively coupled logistic maps

    x_i(t+1) = (1 - sum_j mu_ij) f(x_i(t)) + sum_j mu_ij f(x_j(t)),
    f(x) = 4 x (1 - x),

whose synchronization behavior under coupling is well understood, making
them a clean oracle for the whole recurrence pipeline.  A coupled phase
oscillator option covers smooth periodic regimes.  Observation noise is
added after the recursion, so the latent dynamics stay exact.

Every channel draws its initial condition and noise from its own named
substream of the master seed; adding or removing channels therefore
never reshuffles the randomness of the others.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .ingest import Recording, check_fields, check_keys, check_name, check_type, from_json
from .seeding import generator

__all__ = [
    "CouplingSpec",
    "generate",
    "write_recording",
    "write_trial",
    "three_regime_specs",
    "dataset_from_json",
    "write_dataset",
]

#: Samples dropped from the start of every simulation to shed transients.
BURN_IN_SAMPLES = 128
#: Phase oscillators draw their natural frequency from this band (Hz).
OSCILLATOR_BAND_HZ = (0.8, 1.2)
#: Coupling matrix entries translate to this angular gain (rad/s) at 1.
OSCILLATOR_GAIN = 2.0 * np.pi

DYNAMICS = ("coupled_logistic", "coupled_oscillator")

_LABELS = ("valence", "arousal")  # a trial-list entry's labels; absent ones score 5.0


@dataclass(frozen=True)
class CouplingSpec:
    """Full description of one synthetic recording."""

    n_channels: int
    modality_map: dict[str, str]
    coupling_matrix: np.ndarray
    dynamics: str = "coupled_logistic"
    noise_sd: float = 0.0
    length_samples: int = 1280
    sampling_rate_hz: float = 128.0
    seed: int = 0
    trial_id: str = "synthetic"

    def __post_init__(self) -> None:
        check_fields("coupling spec", self)
        check_name("coupling spec trial_id", self.trial_id)
        for channel, modality in self.modality_map.items():
            check_name("coupling spec channel", channel)
            check_name("coupling spec modality", modality)
        if self.n_channels < 2:
            raise InputError(f"need at least 2 channels, got {self.n_channels}")
        if len(self.modality_map) != self.n_channels:
            raise InputError(
                f"modality map covers {len(self.modality_map)} channels, "
                f"spec declares {self.n_channels}"
            )
        entries = np.asarray(self.coupling_matrix, dtype=object)
        if entries.shape != (self.n_channels, self.n_channels):
            raise InputError(
                f"coupling spec coupling_matrix shape {entries.shape} does not "
                f"match {self.n_channels} channels"
            )
        for value in entries.flat:
            check_type("coupling spec coupling_matrix entries", value, "float")
        mu = entries.astype(float)
        object.__setattr__(self, "coupling_matrix", mu)
        if not np.allclose(mu, mu.T):
            raise InputError("coupling matrix must be symmetric")
        if np.any(np.diagonal(mu) != 0.0):
            raise InputError("coupling matrix diagonal must be zero")
        if np.any((mu < 0.0) | (mu > 1.0)):
            raise InputError("coupling entries must lie in [0, 1]")
        if self.dynamics not in DYNAMICS:
            raise InputError(
                f"unknown dynamics {self.dynamics!r}; choose one of {DYNAMICS}"
            )
        if not 0.0 <= self.noise_sd < np.inf:
            raise InputError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.length_samples < 2:
            raise InputError(f"length_samples must be >= 2, got {self.length_samples}")
        if not 0.0 < self.sampling_rate_hz < np.inf:
            raise InputError(f"sampling_rate_hz must be finite and > 0, got {self.sampling_rate_hz}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.dynamics == "coupled_logistic":
            row_sums = mu.sum(axis=1)
            if np.any(row_sums >= 1.0):
                worst = int(np.argmax(row_sums))
                raise InputError(
                    f"coupling row sums must stay below 1 so each map keeps a "
                    f"positive self term; row {worst} sums to {row_sums[worst]:.3f}"
                )

    def to_dict(self) -> dict:
        return {
            "n_channels": self.n_channels,
            "modality_map": dict(self.modality_map),
            "coupling_matrix": [list(map(float, row)) for row in self.coupling_matrix],
            "dynamics": self.dynamics,
            "noise_sd": float(self.noise_sd),
            "length_samples": int(self.length_samples),
            "sampling_rate_hz": float(self.sampling_rate_hz),
            "seed": int(self.seed),
            "trial_id": self.trial_id,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CouplingSpec":
        """Spec from its JSON form, absent optional keys at their defaults."""
        return from_json(cls, raw, "coupling spec")


def _logistic(spec: CouplingSpec) -> np.ndarray:
    mu = spec.coupling_matrix
    self_share = 1.0 - mu.sum(axis=1)
    steps = spec.length_samples + BURN_IN_SAMPLES
    x = np.array(
        [
            generator(spec.seed, f"init:{name}").uniform(0.05, 0.95)
            for name in spec.modality_map
        ]
    )
    out = np.empty((spec.n_channels, steps))
    for t in range(steps):
        fx = 4.0 * x * (1.0 - x)
        x = self_share * fx + mu @ fx
        out[:, t] = x
    return out[:, BURN_IN_SAMPLES:]


def _oscillator(spec: CouplingSpec) -> np.ndarray:
    names = list(spec.modality_map)
    lo, hi = OSCILLATOR_BAND_HZ
    omega = np.array(
        [
            2.0 * np.pi * generator(spec.seed, f"freq:{name}").uniform(lo, hi)
            for name in names
        ]
    )
    theta = np.array(
        [
            generator(spec.seed, f"init:{name}").uniform(0.0, 2.0 * np.pi)
            for name in names
        ]
    )
    gain = OSCILLATOR_GAIN * spec.coupling_matrix
    dt = 1.0 / spec.sampling_rate_hz
    steps = spec.length_samples + BURN_IN_SAMPLES
    out = np.empty((spec.n_channels, steps))
    for t in range(steps):
        pull = (gain * np.sin(theta[None, :] - theta[:, None])).sum(axis=1)
        theta = theta + dt * (omega + pull)
        out[:, t] = np.sin(theta)
    return out[:, BURN_IN_SAMPLES:]


def generate(spec: CouplingSpec) -> Recording:
    """Simulate one recording; deterministic for a fixed spec."""
    data = _logistic(spec) if spec.dynamics == "coupled_logistic" else _oscillator(spec)
    if spec.noise_sd > 0.0:
        for k, name in enumerate(spec.modality_map):
            noise = generator(spec.seed, f"noise:{name}").normal(
                0.0, spec.noise_sd, size=data.shape[1]
            )
            data[k] = data[k] + noise
    names = tuple(spec.modality_map)
    return Recording(
        trial_id=spec.trial_id,
        sampling_rate_hz=spec.sampling_rate_hz,
        channel_names=names,
        modalities=tuple(spec.modality_map[n] for n in names),
        samples=data,
    )


def write_recording(recording: Recording, out_dir: str | os.PathLike) -> tuple[str, str]:
    """Write a recording as the CSV + JSON sidecar pair ingest consumes."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(os.fspath(out_dir), f"{recording.trial_id}.csv")
    schema_path = os.path.join(os.fspath(out_dir), f"{recording.trial_id}.schema.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(recording.channel_names) + "\n")
        for row in recording.samples.T:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    schema = {
        "sampling_rate_hz": float(recording.sampling_rate_hz),
        "channels": dict(zip(recording.channel_names, recording.modalities)),
    }
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, schema_path


def write_trial(spec: CouplingSpec, out_dir: str | os.PathLike) -> str:
    """Generate one trial and write its CSV, sidecar schema and
    ``<trial>.spec.json`` provenance record; returns the CSV path."""
    csv_path, _ = write_recording(generate(spec), out_dir)
    with open(csv_path[: -len(".csv")] + ".spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path


# Three-regime benchmark: four 2-channel modalities whose cross-modality
# coupling is either widespread, confined to one pair, or absent.
_REGIME_CHANNELS = ("m1a", "m1b", "m2a", "m2b", "m3a", "m3b", "m4a", "m4b")
_REGIME_MODALITIES = {
    "m1a": "M1", "m1b": "M1",
    "m2a": "M2", "m2b": "M2",
    "m3a": "M3", "m3b": "M3",
    "m4a": "M4", "m4b": "M4",
}
_DENSE_PAIRS = (("m1a", "m2a"), ("m1b", "m3a"), ("m2b", "m4a"), ("m3b", "m4b"))
_SPARSE_PAIRS = (("m1a", "m2a"),)
_REGIME_SCORES = {"dense": 8.0, "sparse": 5.0, "none": 2.0}


def _regime_coupling(pairs: tuple[tuple[str, str], ...], strength: float) -> np.ndarray:
    n = len(_REGIME_CHANNELS)
    index = {name: k for k, name in enumerate(_REGIME_CHANNELS)}
    mu = np.zeros((n, n))
    for a, b in pairs:
        mu[index[a], index[b]] = strength
        mu[index[b], index[a]] = strength
    return mu


def three_regime_specs(
    n_per_regime: int,
    seed: int,
    strength: float = 0.4,
    noise_sd: float = 0.05,
    length_samples: int = 1280,
    sampling_rate_hz: float = 64.0,
) -> tuple[list[CouplingSpec], dict[str, tuple[float, float]]]:
    """Benchmark dataset: dense / sparse / no cross-modality coupling.

    Returns the per-trial specs plus a labels map assigning each regime a
    distinct score level (dense=8, sparse=5, none=2 on both targets), so
    regime recovery doubles as a classification check.
    """
    if n_per_regime < 1:
        raise InputError(f"n_per_regime must be >= 1, got {n_per_regime}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    couplings = {
        "dense": _regime_coupling(_DENSE_PAIRS, strength),
        "sparse": _regime_coupling(_SPARSE_PAIRS, strength),
        "none": _regime_coupling((), strength),
    }
    specs: list[CouplingSpec] = []
    labels: dict[str, tuple[float, float]] = {}
    for regime, mu in couplings.items():
        for k in range(n_per_regime):
            trial_id = f"{regime}_{k:03d}"
            trial_seed = generator(seed, f"trial:{trial_id}").integers(0, 2**31 - 1)
            specs.append(
                CouplingSpec(
                    n_channels=len(_REGIME_CHANNELS),
                    modality_map=dict(_REGIME_MODALITIES),
                    coupling_matrix=mu,
                    dynamics="coupled_logistic",
                    noise_sd=noise_sd,
                    length_samples=length_samples,
                    sampling_rate_hz=sampling_rate_hz,
                    seed=int(trial_seed),
                    trial_id=trial_id,
                )
            )
            score = _REGIME_SCORES[regime]
            labels[trial_id] = (score, score)
    return specs, labels


def dataset_from_json(raw: dict) -> tuple[list[CouplingSpec], dict[str, tuple[float, float]]]:
    """Parse a dataset description: either a preset or an explicit trial list.

    Preset form: {"preset": "three_regime", "n_per_regime": 20, "seed": 0,
    ...optional overrides...}.  Trial-list form: {"trials": [spec, ...]}
    where each spec may add "valence"/"arousal" labels in [1, 9] (default
    5.0).
    """
    if "preset" in raw:
        if raw["preset"] != "three_regime":
            raise InputError(f"unknown preset {raw['preset']!r}")
        params = inspect.signature(three_regime_specs).parameters
        kwargs = {"n_per_regime": 20, "seed": 0, **raw}
        del kwargs["preset"]
        check_keys("preset", kwargs, params)
        for key, value in kwargs.items():
            check_type(key, value, params[key].annotation)
        return three_regime_specs(**kwargs)
    if "trials" in raw:
        trials = raw["trials"]
        if not isinstance(trials, list) or not all(isinstance(t, dict) for t in trials):
            raise InputError("dataset spec 'trials' must be a list of JSON objects")
        specs = []
        labels = {}
        for entry in trials:
            scores = tuple(entry.get(name, 5.0) for name in _LABELS)
            for name, score in zip(_LABELS, scores):
                check_type(f"dataset spec label {name}", score, "float")
                if not 1.0 <= score <= 9.0:
                    raise InputError(f"dataset spec label {name}={score} outside [1, 9]")
            spec = CouplingSpec.from_dict({k: v for k, v in entry.items() if k not in _LABELS})
            if spec.trial_id in labels:
                raise InputError(f"duplicate trial_id {spec.trial_id!r} in dataset spec")
            specs.append(spec)
            labels[spec.trial_id] = scores
        if not specs:
            raise InputError("dataset spec lists no trials")
        return specs, labels
    raise InputError("dataset spec needs either a 'preset' or a 'trials' list")


def write_dataset(
    specs: list[CouplingSpec],
    labels: dict[str, tuple[float, float]],
    out_dir: str | os.PathLike,
) -> None:
    """Materialize recordings, sidecar schemas, specs, and a labels CSV."""
    os.makedirs(out_dir, exist_ok=True)
    for spec in specs:
        write_trial(spec, out_dir)
    labels_path = os.path.join(os.fspath(out_dir), "labels.csv")
    with open(labels_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("trial_id,valence,arousal\n")
        for trial_id in sorted(labels):
            valence, arousal = labels[trial_id]
            fh.write(f"{trial_id},{repr(float(valence))},{repr(float(arousal))}\n")
