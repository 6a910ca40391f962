"""Recording/label ingestion and window segmentation."""

import json
import logging
import re

import numpy as np
import pytest

from jrpnet.errors import FormatError, InputError, ParseError, SchemaError
from jrpnet.ingest import (
    Recording,
    check_name,
    load_labels,
    load_recording,
    segment_windows,
    zscore_channels,
)


def write_trial(tmp_path, name="t01", header=("a", "b"), rows=None, rate=10.0,
                schema_channels=None):
    csv_path = tmp_path / f"{name}.csv"
    schema_path = tmp_path / f"{name}.schema.json"
    if rows is None:
        rows = [[float(i), float(2 * i)] for i in range(12)]
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    channels = schema_channels if schema_channels is not None else {h: "EEG" for h in header}
    schema_path.write_text(json.dumps({"sampling_rate_hz": rate, "channels": channels}))
    return csv_path, schema_path


def make_recording(samples, rate=10.0, names=None, modalities=None, trial_id="t"):
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    names = tuple(names or (f"c{k}" for k in range(n)))
    return Recording(
        trial_id=trial_id,
        sampling_rate_hz=rate,
        channel_names=names,
        modalities=tuple(modalities or ("EEG",) * n),
        samples=samples,
    )


def test_load_recording_roundtrip(tmp_path):
    csv_path, schema_path = write_trial(
        tmp_path, schema_channels={"a": "EEG", "b": "EMG"}
    )
    rec = load_recording(csv_path, schema_path)
    assert rec.trial_id == "t01"
    assert rec.sampling_rate_hz == 10.0
    assert rec.channel_names == ("a", "b")
    assert rec.modalities == ("EEG", "EMG")
    assert rec.duration_samples == 12
    assert np.array_equal(rec.channel("a"), np.arange(12.0))
    assert np.array_equal(rec.channel("b"), 2.0 * np.arange(12.0))


def test_csv_columns_reordered_to_schema(tmp_path):
    rows = [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]
    csv_path, schema_path = write_trial(
        tmp_path, header=("b", "a"), rows=rows,
        schema_channels={"a": "EEG", "b": "EEG"},
    )
    rec = load_recording(csv_path, schema_path)
    assert rec.channel_names == ("a", "b")
    assert np.array_equal(rec.channel("a"), [10.0, 20.0, 30.0])
    assert np.array_equal(rec.channel("b"), [1.0, 2.0, 3.0])


def test_ragged_row_is_format_error(tmp_path):
    rows = [[1.0, 2.0], [3.0, 4.0, 5.0]]
    csv_path, schema_path = write_trial(tmp_path, rows=rows)
    with pytest.raises(FormatError, match="row 2"):
        load_recording(csv_path, schema_path)


def test_non_numeric_cell_is_parse_error(tmp_path):
    rows = [[1.0, 2.0], [3.0, "oops"]]
    csv_path, schema_path = write_trial(tmp_path, rows=rows)
    with pytest.raises(ParseError, match="row 2.*'b'"):
        load_recording(csv_path, schema_path)


def test_blank_lines_are_skipped(tmp_path):
    csv_path, schema_path = write_trial(tmp_path)
    clean = load_recording(csv_path, schema_path)
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:4] + [""] + lines[4:]) + "\n\n")
    spaced = load_recording(csv_path, schema_path)
    assert np.array_equal(spaced.samples, clean.samples)


def test_recordings_and_labels_name_a_bad_cell_alike(tmp_path):
    csv_path, schema_path = write_trial(tmp_path, rows=[[1.0, 2.0], [3.0, "oops"]])
    with pytest.raises(ParseError, match="row 2, column 'b': cannot parse 'oops' as a number"):
        load_recording(csv_path, schema_path)
    labels = tmp_path / "labels.csv"
    labels.write_text("trial_id,valence,arousal\nt01,2.5,7.0\nt02,x,7.0\n")
    with pytest.raises(ParseError, match="row 2, column 'valence': cannot parse 'x' as a number"):
        load_labels(labels)


def test_unreadable_files_are_input_errors(tmp_path):
    csv_path, schema_path = write_trial(tmp_path)
    with pytest.raises(InputError, match="cannot read recording"):
        load_recording(tmp_path / "missing.csv", schema_path)
    with pytest.raises(InputError, match="cannot read labels"):
        load_labels(tmp_path / "missing.csv")
    with pytest.raises(InputError, match="cannot read schema"):
        load_recording(csv_path, tmp_path / "missing.schema.json")
    csv_path.write_bytes(b"a,b\n\xff,1\n")
    with pytest.raises(ParseError, match="not valid CSV"):
        load_recording(csv_path, schema_path)


def test_channel_set_mismatch_is_schema_error(tmp_path):
    csv_path, schema_path = write_trial(
        tmp_path, schema_channels={"a": "EEG", "b": "EEG", "c": "EEG"}
    )
    with pytest.raises(SchemaError, match="schema but not in CSV"):
        load_recording(csv_path, schema_path)
    csv_path, schema_path = write_trial(tmp_path, name="t02", schema_channels={"a": "EEG"})
    with pytest.raises(SchemaError, match="CSV but not in schema"):
        load_recording(csv_path, schema_path)


def test_empty_and_headerless_files(tmp_path):
    _, schema_path = write_trial(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="empty"):
        load_recording(empty, schema_path)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(FormatError, match="no sample rows"):
        load_recording(header_only, schema_path)


def test_schema_validation_errors(tmp_path):
    csv_path, _ = write_trial(tmp_path)
    bad = tmp_path / "bad.schema.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_recording(csv_path, bad)
    bad.write_text(json.dumps({"channels": {"a": "EEG", "b": "EEG"}}))
    with pytest.raises(SchemaError, match="sampling_rate_hz"):
        load_recording(csv_path, bad)
    bad.write_text(json.dumps({"sampling_rate_hz": -5, "channels": {"a": "EEG", "b": "EEG"}}))
    with pytest.raises(SchemaError, match="must be > 0"):
        load_recording(csv_path, bad)
    # the rate is a JSON number, never a string or a bool; each modality a
    # non-empty string
    for key, value, kind in (
        ("sampling_rate_hz", "64", "a number"),
        ("sampling_rate_hz", True, "a number"),
        ("sampling_rate_hz", None, "a number"),
        ("sampling_rate_hz", 10**400, "a number, got an integer too large for a float"),
        ("channels", {"a": "EEG", "b": 3}, "a non-empty object"),
        ("channels", {"a": "EEG", "b": ""}, "a non-empty object"),
        ("channels", {}, "a non-empty object"),
        ("channels", [["a", "EEG"], ["b", "EEG"]], "a non-empty object"),
    ):
        schema = {"sampling_rate_hz": 10.0, "channels": {"a": "EEG", "b": "EEG"}, key: value}
        bad.write_text(json.dumps(schema))
        with pytest.raises(SchemaError, match=f"^schema {re.escape(str(bad))}: {key} must be {kind}"):
            load_recording(csv_path, bad)
    # channel and modality names follow the name rule
    for channels, what in (({"a": "EEG", "b": "E,G"}, "modality 'E,G'"),
                           ({"a": "EEG", "b/c": "EEG"}, "channel 'b/c'")):
        bad.write_text(json.dumps({"sampling_rate_hz": 10.0, "channels": channels}))
        with pytest.raises(SchemaError, match=f"^schema {re.escape(str(bad))}: {what} must be"):
            load_recording(csv_path, bad)
    bad.write_text("[]")
    with pytest.raises(FormatError, match="must hold a JSON object"):
        load_recording(csv_path, bad)
    bad.write_bytes(b"\xff{}")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_recording(csv_path, bad)


def test_check_name_accepts_what_can_be_a_file_name_and_a_csv_cell():
    for name in ("t01", "dense_000", "M1", "ä b · 1", "a.b", "...", "'quoted'"):
        check_name("trial id", name)
    for name in ("", ".", "..", "a,b", 'a"b', "a\nb", "a\rb", "../x", "a/b", "a\\b"):
        with pytest.raises(InputError, match=f"^trial id {re.escape(repr(name))} must be"):
            check_name("trial id", name)


def test_load_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("trial_id,valence,arousal\nt01,2.5,7.0\nt02,9.0,1.0\n")
    records = load_labels(path)
    assert [(r.trial_id, r.valence, r.arousal) for r in records] == [
        ("t01", 2.5, 7.0),
        ("t02", 9.0, 1.0),
    ]
    # columns in any order, as a recording's channels, and others ignored
    path.write_text("arousal,notes,trial_id,valence\n7.0,x,t01,2.5\n1.0,y,t02,9.0\n")
    assert load_labels(path) == records


def test_load_labels_errors(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("trial_id,valence\nt01,2.5\n")
    with pytest.raises(FormatError, match="header"):
        load_labels(path)
    path.write_text("trial_id,valence,arousal,valence\nt01,2.5,7.0,3.0\n")
    with pytest.raises(FormatError, match="header names 'valence' 2 times"):
        load_labels(path)
    path.write_text("trial_id,valence,arousal\nt01,2.5,7.0\nt01,3.0,3.0\n")
    with pytest.raises(InputError, match="duplicate"):
        load_labels(path)
    path.write_text("trial_id,valence,arousal\nt01,9.5,7.0\n")
    with pytest.raises(InputError, match="outside"):
        load_labels(path)
    path.write_text("trial_id,valence,arousal\nt01,x,7.0\n")
    with pytest.raises(ParseError):
        load_labels(path)


def test_zscore_normalizes_each_channel():
    rng = np.random.default_rng(7)
    rec = make_recording(rng.normal(3.0, 2.5, size=(3, 400)))
    out = zscore_channels(rec)
    assert np.allclose(out.samples.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.samples.std(axis=1), 1.0, atol=1e-9)
    # the input recording is untouched
    assert rec.samples.mean() != pytest.approx(0.0, abs=1e-3)


def test_zscore_constant_channel_becomes_zeros(caplog):
    samples = np.vstack([np.full(50, 2.0), np.arange(50.0)])
    rec = make_recording(samples)
    with caplog.at_level(logging.WARNING):
        out = zscore_channels(rec)
    assert np.array_equal(out.samples[0], np.zeros(50))
    assert any("constant" in m for m in caplog.messages)


def test_segment_counts_at_reference_settings():
    # 60 s at 128 Hz, 5 s windows, 20% overlap: 640-sample windows
    # every 512 samples, 14 of them.
    rec = make_recording(np.random.default_rng(0).normal(size=(2, 7680)), rate=128.0)
    windows = segment_windows(rec, 5.0, 0.2)
    assert len(windows) == 14
    assert all(w.length_samples == 640 for w in windows)
    starts = [w.start_sample for w in windows]
    assert starts == list(range(0, 14 * 512, 512))
    assert [w.index for w in windows] == list(range(14))


def test_segment_exact_fit_gives_single_window():
    rec = make_recording(np.random.default_rng(1).normal(size=(1, 50)), rate=10.0)
    windows = segment_windows(rec, 5.0, 0.2)
    assert len(windows) == 1
    assert windows[0].start_sample == 0


def test_segment_too_short_errors():
    rec = make_recording(np.random.default_rng(2).normal(size=(1, 30)), rate=10.0)
    with pytest.raises(InputError, match="exceeds"):
        segment_windows(rec, 5.0, 0.2)


def test_segment_overlap_bounds():
    rec = make_recording(np.random.default_rng(3).normal(size=(1, 100)), rate=10.0)
    with pytest.raises(InputError):
        segment_windows(rec, 2.0, 1.0)
    with pytest.raises(InputError):
        segment_windows(rec, 2.0, -0.1)


def test_segment_count_and_bounds_property():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        rate = float(rng.integers(8, 65))
        duration = int(rng.integers(20, 600))
        window_s = float(rng.uniform(0.2, 6.0))
        overlap = float(rng.uniform(0.0, 0.875))
        length = int(round(window_s * rate))
        stride = int(round(window_s * (1.0 - overlap) * rate))
        if length < 2 or length > duration or stride < 1:
            continue
        rec = make_recording(rng.normal(size=(2, duration)), rate=rate)
        windows = segment_windows(rec, window_s, overlap)
        expected = (duration - length) // stride + 1
        assert len(windows) == expected
        for k, w in enumerate(windows):
            assert w.start_sample == k * stride
            assert w.start_sample + w.length_samples <= duration
            assert w.samples.shape == (2, length)
        # nothing more would fit
        assert windows[-1].start_sample + stride + length > duration
        checked += 1


def test_windows_slice_trial_level_zscore():
    # normalization happens once per trial, not per window
    rng = np.random.default_rng(5)
    rec = make_recording(rng.normal(5.0, 3.0, size=(2, 120)), rate=10.0)
    normalized = zscore_channels(rec)
    windows = segment_windows(rec, 3.0, 0.5)
    for w in windows:
        ref = normalized.samples[:, w.start_sample : w.start_sample + w.length_samples]
        assert np.array_equal(w.samples, ref)
