"""Recording and label ingestion plus window segmentation.

A recording is a CSV file (header = channel names, one sample per row)
paired with a JSON sidecar that declares the sampling rate and the
channel-to-modality map.  Labels live in a separate CSV keyed by trial
id.  Segmentation z-scores each channel over the whole trial first, so
distances and recurrence thresholds stay comparable across windows, then
slices fixed-length windows at a uniform stride and drops any trailing
partial window.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError, ParseError, SchemaError

__all__ = [
    "Recording",
    "Window",
    "LabelRecord",
    "load_recording",
    "load_labels",
    "zscore_channels",
    "window_geometry",
    "segment_windows",
]

log = logging.getLogger(__name__)

#: Peak-to-peak spread below which a channel counts as constant.
CONSTANT_EPS = 1e-12


@dataclass(frozen=True)
class Recording:
    """One multichannel trial with equal-length channels in schema order."""

    trial_id: str
    sampling_rate_hz: float
    channel_names: tuple[str, ...]
    modalities: tuple[str, ...]
    samples: np.ndarray  # shape (n_channels, duration_samples)

    @property
    def duration_samples(self) -> int:
        return self.samples.shape[1]

    def channel(self, name: str) -> np.ndarray:
        return self.samples[self.channel_names.index(name)]


@dataclass(frozen=True)
class Window:
    """One fixed-length slice shared by all channels of a trial."""

    index: int
    start_sample: int
    length_samples: int
    channel_names: tuple[str, ...]
    samples: np.ndarray  # shape (n_channels, length_samples)

    def channel(self, name: str) -> np.ndarray:
        return self.samples[self.channel_names.index(name)]


@dataclass(frozen=True)
class LabelRecord:
    """Self-reported scores for one trial, each within [1, 9]."""

    trial_id: str
    valence: float
    arousal: float


def _load_schema(schema_path: str | os.PathLike) -> tuple[float, dict[str, str]]:
    try:
        with open(schema_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read schema {schema_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"schema {schema_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"schema {schema_path} must be a JSON object")
    try:
        rate = float(raw["sampling_rate_hz"])
        channels = raw["channels"]
    except KeyError as exc:
        raise SchemaError(f"schema {schema_path} lacks required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"schema {schema_path}: bad sampling_rate_hz") from exc
    if not np.isfinite(rate) or rate <= 0:
        raise SchemaError(f"schema {schema_path}: sampling_rate_hz must be > 0")
    if not isinstance(channels, dict) or not channels:
        raise SchemaError(f"schema {schema_path}: channels must be a non-empty map")
    for name, modality in channels.items():
        if not isinstance(name, str) or not isinstance(modality, str) or not modality:
            raise SchemaError(
                f"schema {schema_path}: channel entries must map name to modality"
            )
    return rate, dict(channels)


def load_recording(path: str | os.PathLike, schema_path: str | os.PathLike) -> Recording:
    """Load one trial from a CSV file and its JSON sidecar schema.

    The CSV header must contain exactly the channels named by the schema
    (any column order); samples are returned in schema order.
    """
    rate, channel_map = _load_schema(schema_path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            rows = list(reader)
    except OSError as exc:
        raise InputError(f"cannot read recording {path}: {exc}") from exc

    missing = set(channel_map) - set(header)
    extra = set(header) - set(channel_map)
    if missing:
        raise SchemaError(f"{path}: channels in schema but not in CSV: {sorted(missing)}")
    if extra:
        raise SchemaError(f"{path}: channels in CSV but not in schema: {sorted(extra)}")
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: duplicate channel columns in header")
    if not rows:
        raise FormatError(f"{path}: no sample rows")

    n_cols = len(header)
    data = np.empty((len(rows), n_cols), dtype=float)
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise FormatError(
                f"{path}: row {i + 1} has {len(row)} cells, expected {n_cols}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i + 1}, column {header[j]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None

    # Reorder columns into schema order.
    order = [header.index(name) for name in channel_map]
    names = tuple(channel_map)
    modalities = tuple(channel_map[name] for name in names)
    trial_id = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return Recording(
        trial_id=trial_id,
        sampling_rate_hz=rate,
        channel_names=names,
        modalities=modalities,
        samples=np.ascontiguousarray(data[:, order].T),
    )


def load_labels(path: str | os.PathLike) -> list[LabelRecord]:
    """Load trial labels; scores must lie in [1, 9] and trial ids be unique."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise FormatError(f"{path}: empty file") from None
            rows = [r for r in reader if r]
    except OSError as exc:
        raise InputError(f"cannot read labels {path}: {exc}") from exc

    required = ["trial_id", "valence", "arousal"]
    if [h for h in header if h in required] != required or not set(required) <= set(header):
        raise FormatError(f"{path}: header must contain columns {required}")
    idx = {name: header.index(name) for name in required}

    out: list[LabelRecord] = []
    seen: set[str] = set()
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i + 1} has {len(row)} cells")
        trial_id = row[idx["trial_id"]].strip()
        if trial_id in seen:
            raise InputError(f"{path}: duplicate trial_id {trial_id!r}")
        seen.add(trial_id)
        scores = {}
        for key in ("valence", "arousal"):
            cell = row[idx[key]]
            try:
                scores[key] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i + 1}: cannot parse {key} value {cell!r}"
                ) from None
            if not 1.0 <= scores[key] <= 9.0:
                raise InputError(
                    f"{path}: row {i + 1}: {key}={scores[key]} outside [1, 9]"
                )
        out.append(LabelRecord(trial_id, scores["valence"], scores["arousal"]))
    return out


def zscore_channels(recording: Recording) -> Recording:
    """Return the recording with each channel standardized over the trial.

    Channels with (numerically) zero spread are replaced by all zeros and
    logged as a warning rather than producing NaNs.
    """
    data = np.array(recording.samples, dtype=float, copy=True)
    for k, name in enumerate(recording.channel_names):
        x = data[k]
        if np.ptp(x) < CONSTANT_EPS:
            log.warning(
                "trial %s: channel %s is constant, normalized to zeros",
                recording.trial_id,
                name,
            )
            data[k] = 0.0
            continue
        data[k] = (x - x.mean()) / x.std()
    return Recording(
        trial_id=recording.trial_id,
        sampling_rate_hz=recording.sampling_rate_hz,
        channel_names=recording.channel_names,
        modalities=recording.modalities,
        samples=data,
    )


def window_geometry(
    recording: Recording, window_s: float, overlap_fraction: float
) -> tuple[int, int]:
    """Window length and stride in samples; InputError unless a window fits.

    The window covers ``round(window_s * rate)`` samples and consecutive
    windows start ``round(window_s * (1 - overlap_fraction) * rate)``
    samples apart.
    """
    if not 0.0 <= overlap_fraction < 1.0:
        raise InputError(f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    length = int(round(window_s * recording.sampling_rate_hz))
    if length < 2:
        raise InputError(
            f"window of {window_s} s at {recording.sampling_rate_hz} Hz "
            f"covers {length} samples; need at least 2"
        )
    if length > recording.duration_samples:
        raise InputError(
            f"window of {length} samples exceeds recording "
            f"({recording.duration_samples} samples)"
        )
    stride = int(round(window_s * (1.0 - overlap_fraction) * recording.sampling_rate_hz))
    if stride < 1:
        raise InputError("window stride rounds to zero samples")
    return length, stride


def segment_windows(
    recording: Recording, window_s: float, overlap_fraction: float
) -> list[Window]:
    """Slice a recording into uniform overlapping windows.

    Each channel is z-scored over the whole trial first; the windows follow
    ``window_geometry`` and trailing samples that do not fill a window are
    dropped.
    """
    length, stride = window_geometry(recording, window_s, overlap_fraction)
    normalized = zscore_channels(recording)
    windows: list[Window] = []
    start = 0
    index = 0
    while start + length <= recording.duration_samples:
        windows.append(
            Window(
                index=index,
                start_sample=start,
                length_samples=length,
                channel_names=recording.channel_names,
                samples=normalized.samples[:, start : start + length].copy(),
            )
        )
        start += stride
        index += 1
    return windows
