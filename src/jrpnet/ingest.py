"""Recording and label ingestion plus window segmentation.

A recording is a CSV file (header = channel names, one sample per row)
paired with a JSON sidecar that declares the sampling rate and the
channel-to-modality map.  Labels live in a separate CSV keyed by trial
id.  Each input format has one reader: ``_read_table`` for every CSV
file (blank lines skipped, rows as wide as the header) and
``read_json_object`` for every JSON file (sidecars, configs, synth
specs; an object is required).  Every JSON value meets one type rule,
``check_type`` against the annotation of the field it fills, which
``from_json`` and ``check_fields`` apply to whole records.  Segmentation
z-scores each channel over the whole trial first, so distances and
recurrence thresholds stay comparable across windows, then slices
fixed-length windows at a uniform stride and drops any trailing partial
window.
"""

from __future__ import annotations

import csv
import json
import logging
import numbers
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .errors import FormatError, InputError, ParseError, SchemaError

__all__ = [
    "Recording",
    "Window",
    "LabelRecord",
    "read_json_object",
    "check_keys",
    "check_type",
    "check_fields",
    "from_json",
    "load_schema",
    "load_recording",
    "load_labels",
    "zscore_channels",
    "window_geometry",
    "segment_windows",
]

log = logging.getLogger(__name__)

#: Peak-to-peak spread below which a channel counts as constant.
CONSTANT_EPS = 1e-12

#: annotation -> (the types it accepts, what an error calls them)
_VALUE_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "str": (str, "a string"),
    "int | None": ((numbers.Integral, type(None)), "an integer or null"),
    "dict[str, str]": (dict, "a non-empty object whose values are non-empty strings"),
}


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


def read_json_object(path: str | os.PathLike, what: str) -> dict:
    """Parse the JSON file at ``path``, which must hold an object; ``what``
    names the file in every error."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"{what} {path} must hold a JSON object")
    return raw


def check_keys(what: str, raw: dict, known) -> None:
    """InputError listing the keys of ``raw`` that ``known`` lacks."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise InputError(f"unknown {what} keys: {unknown}")


def check_type(key: str, value, annotation: str) -> None:
    """InputError naming ``key`` unless ``value`` fits ``annotation``, a key
    of ``_VALUE_TYPES``; ``"dict[str, str]"`` is a non-empty modality map.
    Nothing is converted: a bool or a numeric string is never a number."""
    accepted, kind = _VALUE_TYPES[annotation]
    fits = not isinstance(value, bool) and isinstance(value, accepted)
    if fits and accepted is dict:
        fits = bool(value) and all(isinstance(v, str) and v for v in value.values())
    if not fits:
        raise InputError(f"{key} must be {kind}, got {value!r}")


def check_fields(what: str, record) -> None:
    """``check_type`` on each field of the dataclass ``record`` whose
    annotation it knows, named after ``what`` if given; an array field is
    left to the record's own check."""
    for f in fields(record):
        if f.type in _VALUE_TYPES:
            check_type(f"{what} {f.name}".lstrip(), getattr(record, f.name), f.type)


def from_json(cls, raw: dict, what: str):
    """The dataclass ``cls`` from the JSON object ``raw``, absent keys at
    their defaults; InputError naming an unknown or missing required key."""
    check_keys(what, raw, (f.name for f in fields(cls)))
    for f in fields(cls):
        if f.default is MISSING and f.name not in raw:
            raise InputError(f"{what} lacks required key {f.name!r}")
    return cls(**raw)


def _read_table(path: str | os.PathLike, what: str) -> tuple[list[str], list[list[str]]]:
    """The stripped header cells and the data rows of a CSV file, skipping
    blank lines; every row must be as wide as the header."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except (csv.Error, ValueError) as exc:  # a malformed field or invalid UTF-8
        raise ParseError(f"{what} {path} is not valid CSV: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(header)}")
    return header, rows[1:]


def _number(path, header: list[str], i: int, j: int, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: row {i + 1}, column {header[j]!r}: cannot parse {cell!r} as a number"
        ) from None


def load_schema(schema_path: str | os.PathLike) -> tuple[float, dict[str, str]]:
    """A sidecar's sampling rate and its map from channel name to modality,
    in the sidecar's channel order."""
    raw = read_json_object(schema_path, "schema")
    try:
        rate, channels = raw["sampling_rate_hz"], raw["channels"]
        check_type("sampling_rate_hz", rate, "float")
        check_type("channels", channels, "dict[str, str]")
    except KeyError as exc:
        raise SchemaError(f"schema {schema_path} lacks required key {exc}") from None
    except InputError as exc:
        raise SchemaError(f"schema {schema_path}: {exc}") from None
    if not np.isfinite(rate) or rate <= 0:
        raise SchemaError(f"schema {schema_path}: sampling_rate_hz must be > 0")
    return rate, channels


def load_recording(path: str | os.PathLike, schema_path: str | os.PathLike) -> Recording:
    """Load one trial from a CSV file and its JSON sidecar schema.

    The CSV header must contain exactly the channels named by the schema
    (any column order); samples are returned in schema order.
    """
    rate, channel_map = load_schema(schema_path)
    header, rows = _read_table(path, "recording")

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
    try:
        data = np.array(rows, dtype=float)
    except ValueError:  # parse again, cell by cell, to name the bad one
        data = np.array([
            [_number(path, header, i, j, cell) for j, cell in enumerate(row)]
            for i, row in enumerate(rows)
        ])

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
    """Load trial labels: the header names each required column once, in
    any order; scores must lie in [1, 9] and trial ids be unique."""
    header, rows = _read_table(path, "labels")
    required = ["trial_id", "valence", "arousal"]
    for name in required:
        if header.count(name) != 1:
            raise FormatError(f"{path}: header names {name!r} {header.count(name)} times, not once")
    t, *scored = (header.index(name) for name in required)

    out: list[LabelRecord] = []
    seen: set[str] = set()
    for i, row in enumerate(rows):
        trial_id = row[t].strip()
        if trial_id in seen:
            raise InputError(f"{path}: duplicate trial_id {trial_id!r}")
        seen.add(trial_id)
        scores = [_number(path, header, i, j, row[j]) for j in scored]
        for j, score in zip(scored, scores):
            if not 1.0 <= score <= 9.0:
                raise InputError(f"{path}: row {i + 1}: {header[j]}={score} outside [1, 9]")
        out.append(LabelRecord(trial_id, *scores))
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
    return replace(recording, samples=data)


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
    starts = range(0, recording.duration_samples - length + 1, stride)
    return [
        Window(
            index=index,
            start_sample=start,
            length_samples=length,
            channel_names=recording.channel_names,
            samples=normalized.samples[:, start : start + length].copy(),
        )
        for index, start in enumerate(starts)
    ]
