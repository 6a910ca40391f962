"""Command-line interface: exit codes, output, flag handling."""

import csv
import json
import re
import shutil

import numpy as np
import pytest

from jrpnet.cli import main
from jrpnet.config import PipelineConfig
from jrpnet.errors import (
    DegenerateInputError,
    FormatError,
    InputError,
    JrpnetError,
    NumericError,
    ParseError,
    SchemaError,
)
from jrpnet.pipeline import read_features_csv
from jrpnet.synth import three_regime_specs, write_dataset

SMALL_CONFIG = {"k_folds": 2, "n_null": 2, "lambda_points": 4, "tau_max": 8, "m_max": 6}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("cli-data")
    specs, labels = three_regime_specs(n_per_regime=2, seed=11, length_samples=640)
    write_dataset(specs, labels, data_dir)
    return data_dir


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-cfg") / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def test_error_hierarchy():
    assert issubclass(FormatError, InputError)
    assert issubclass(ParseError, InputError)
    assert issubclass(SchemaError, InputError)
    assert issubclass(DegenerateInputError, NumericError)
    assert issubclass(InputError, JrpnetError)
    assert issubclass(NumericError, JrpnetError)
    assert not issubclass(NumericError, InputError)


def test_synth_preset(tmp_path, capsys):
    spec = tmp_path / "dataset.json"
    spec.write_text(json.dumps({"preset": "three_regime", "n_per_regime": 1, "seed": 4,
                                "length_samples": 64}))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    assert "wrote 3 trials" in capsys.readouterr().out
    assert (out / "labels.csv").is_file()
    assert (out / "dense_000.csv").is_file()
    assert (out / "dense_000.schema.json").is_file()
    assert (out / "dense_000.spec.json").is_file()


def test_synth_single_spec_and_seed_override(tmp_path, capsys):
    raw = {
        "n_channels": 2,
        "modality_map": {"a": "EEG", "b": "EMG"},
        "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]],
        "length_samples": 32,
        "trial_id": "solo",
    }
    spec = tmp_path / "solo.json"
    spec.write_text(json.dumps(raw))
    out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    assert main(["synth", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["synth", "--spec", str(spec), "--out", str(out2), "--seed", "9"]) == 0
    assert main(["synth", "--spec", str(spec), "--out", str(out3)]) == 0
    capsys.readouterr()
    base = (out1 / "solo.csv").read_bytes()
    assert base == (out3 / "solo.csv").read_bytes()
    assert base != (out2 / "solo.csv").read_bytes()
    assert json.loads((out2 / "solo.spec.json").read_text())["seed"] == 9


def test_synth_seed_does_not_apply_to_a_trial_list(tmp_path, capsys):
    entry = {
        "n_channels": 2,
        "modality_map": {"a": "EEG", "b": "EMG"},
        "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]],
        "length_samples": 32,
    }
    spec = tmp_path / "list.json"
    spec.write_text(json.dumps({"trials": [{**entry, "trial_id": "t1", "seed": 3}]}))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--seed", "9"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --seed") and "its own seed" in err[0]
    assert not out.exists()
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    assert json.loads((out / "t1.spec.json").read_text())["seed"] == 3


def test_pipeline_command(dataset, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--in", str(dataset), "--out", str(out),
        "--config", str(config_file),
    ])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 4
    pattern = re.compile(
        r"^(valence|arousal)/(JDET|JLAM): accuracy [01]\.\d{3} at lambda [0-9.e+-]+$"
    )
    for line in lines:
        assert pattern.match(line), line
    assert (out / "evaluation.json").is_file()
    assert (out / "model_arousal_JLAM.json").is_file()


def _tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_stages_one_by_one_write_what_pipeline_writes(dataset, config_file, tmp_path, capsys):
    flags = ["--in", str(dataset), "--config", str(config_file), "--seed", "5"]
    staged, whole = tmp_path / "staged", tmp_path / "whole"
    for command in ("embed-params", "analyze", "features", "evaluate", "train"):
        assert main([command, "--out", str(staged)] + flags) == 0
    assert main(["pipeline", "--out", str(whole)] + flags) == 0
    capsys.readouterr()
    files = _tree(whole)
    # embedding parameters, a weighted, a JDET and a JLAM network per
    # trial, features, reachability, the report and one model per target
    # and metric
    assert len(files) == 1 + 3 * 6 + 3 + 4
    assert _tree(staged) == files


def test_embed_params_prints_the_artifact(dataset, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "embed-params", "--in", str(dataset), "--out", str(out),
        "--config", str(config_file), "--seed", "3",
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {
        "dense_000", "dense_001", "none_000", "none_001", "sparse_000", "sparse_001"
    }
    artifact = json.loads((out / "embedding_params.json").read_text())
    assert artifact["stamp"]["config"] == {
        "target_rr": 0.1, "norm": "L1", "tau_max": 8, "m_max": 6
    }
    sample = printed["dense_000"]["m1a"]
    assert set(sample) == {"tau", "m", "saturated", "epsilon"}
    # the features stage reads the seed
    code = main([
        "features", "--in", str(dataset), "--out", str(out),
        "--config", str(config_file), "--seed", "3",
    ])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {out / 'features.csv'}\n"
    stamp, _, _ = read_features_csv(out / "features.csv")
    assert stamp["config"]["seed"] == 3
    assert stamp["config"]["n_null"] == 2


def test_missing_labels_exits_2(dataset, config_file, tmp_path, capsys):
    nolabel = tmp_path / "nolabel"
    nolabel.mkdir()
    for path in dataset.iterdir():
        if path.name != "labels.csv":
            (nolabel / path.name).write_bytes(path.read_bytes())
    out = tmp_path / "out"
    code = main([
        "evaluate", "--in", str(nolabel), "--out", str(out),
        "--config", str(config_file),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "labels" in err


def test_degenerate_trial_exits_3(tmp_path, capsys):
    # 60 samples at 10 Hz: the 5 s window fits, the delay scan cannot run
    rng = np.random.default_rng(0)
    data_dir = tmp_path / "tiny"
    data_dir.mkdir()
    rows = ["a,b"] + [f"{rng.normal()!r},{rng.normal()!r}" for _ in range(60)]
    (data_dir / "t1.csv").write_text("\n".join(rows) + "\n")
    (data_dir / "t1.schema.json").write_text(
        json.dumps({"sampling_rate_hz": 10.0, "channels": {"a": "EEG", "b": "EMG"}})
    )
    (data_dir / "labels.csv").write_text("trial_id,valence,arousal\nt1,5.0,5.0\n")
    out = tmp_path / "out"
    code = main(["embed-params", "--in", str(data_dir), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "t1" in err  # stage context names the failing trial


def test_bad_invocations(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["pipeline", "--in", str(tmp_path)])  # --out is required
    with pytest.raises(SystemExit):  # every run writes both metrics
        main(["analyze", "--in", ".", "--out", ".", "--metric", "JDET"])
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):  # synth takes only --spec, --out and --seed
        main(["synth", "--spec", "s.json", "--out", ".", "--config", "c.json"])
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["features", "--in", str(tmp_path), "--out", str(out), "--jobs", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --jobs must be >= 1, got 0"]
    assert not out.exists()


def test_train_takes_no_target_flag(dataset, tmp_path, capsys):
    # train fits a model per target and metric, so it has no --target
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--in", str(dataset), "--out", str(out), "--target", "valence"])
    assert exc.value.code == 2
    assert "--target" in capsys.readouterr().err
    assert not out.exists()


def test_weight_metric_config_key_exits_2(dataset, tmp_path, capsys):
    # every run computes both weight metrics, so the key is unknown
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL_CONFIG, "weight_metric": "JDET"}))
    out = tmp_path / "out"
    code = main(["pipeline", "--in", str(dataset), "--out", str(out), "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown config keys")
    assert "weight_metric" in err[0]
    assert not out.exists()


def test_nonexistent_data_dir_exits_2(tmp_path, capsys):
    code = main(["features", "--in", str(tmp_path / "missing"), "--out", str(tmp_path)])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_config_file_validation_error_exits_2(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"overlap": 2.0}))
    code = main([
        "features", "--in", str(dataset), "--out", str(tmp_path / "out"),
        "--config", str(bad),
    ])
    assert code == 2
    assert "overlap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value", [("window_s", "5"), ("l_min", 3.0), ("k_folds", 2.5), ("n_null", True)]
)
def test_config_type_error_exits_2_before_any_trial_is_embedded(
    dataset, tmp_path, capsys, field, value
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL_CONFIG, field: value}))
    out = tmp_path / "out"
    code = main(["pipeline", "--in", str(dataset), "--out", str(out), "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} must be")
    assert not out.exists()


def test_negative_seed_exits_2_before_any_trial_is_read(dataset, tmp_path, capsys):
    # derive_seed needs a non-negative seed: the flag, the config file and a
    # synth spec are all checked when they are read
    out = tmp_path / "out"
    assert main(["features", "--in", str(dataset), "--out", str(out), "--seed", "-5"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -5"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL_CONFIG, "seed": -1}))
    assert main(["pipeline", "--in", str(dataset), "--out", str(out), "--config", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert not out.exists()
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"preset": "three_regime", "n_per_regime": 1, "seed": -1}))
    assert main(["synth", "--spec", str(preset), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert main(["synth", "--spec", str(preset), "--out", str(out), "--seed", "-3"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -3"]
    assert not out.exists()


@pytest.mark.parametrize(
    "spec,needle",
    [
        ([1, 2], "must hold a JSON object"),
        ({"preset": "three_regime", "n_per_regim": 1}, "n_per_regim"),
        ({"preset": "three_regime", "n_per_regime": "two"}, "n_per_regime"),
        ({"n_channels": 2, "modality_map": {"a": "A", "b": "B"},
          "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]], "noise": 0.5}, "noise"),
        ({"n_channels": 2, "modality_map": {"a": "A", "b": "B"},
          "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]], "seed": 2.9}, "seed must be an integer"),
        ({"trials": [{"n_channels": 2, "modality_map": {"a": "A", "b": "B"},
                      "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]], "valence": 12.0}]},
         "valence=12.0 outside [1, 9]"),
        ({"n_channels": 2, "modality_map": {"a": "A", "b": "B"},
          "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]], "seed": -1}, "seed must be >= 0"),
        ({"n_channels": 2, "modality_map": {"a": "A", "b": "B"},
          "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]], "noise_sd": True},
         "coupling spec noise_sd must be a number, got True"),
        ({"n_channels": 2, "modality_map": {"a": "A", "b": 2},
          "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]]}, "coupling spec modality_map must be"),
        ({"trials": [{"n_channels": 2, "modality_map": {"a": "A", "b": "B"},
                      "coupling_matrix": [[0.0, 0.2], [0.2, 0.0]], "valence": "7"}]},
         "dataset spec label valence must be a number, got '7'"),
    ],
)
def test_malformed_synth_spec_exits_2(tmp_path, capsys, spec, needle):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
    assert not out.exists()


@pytest.mark.parametrize("rate", [True, "64"])
def test_bad_sidecar_stops_the_pipeline_before_any_trial_is_embedded(
    dataset, config_file, tmp_path, capsys, rate
):
    # a rate of true used to run as 1 Hz and fail in analyze, after every
    # trial was embedded and embedding_params.json written
    data_dir = tmp_path / "data"
    shutil.copytree(dataset, data_dir)
    sidecar = data_dir / "none_001.schema.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "sampling_rate_hz": rate}))
    out = tmp_path / "out"
    code = main(["pipeline", "--in", str(data_dir), "--out", str(out), "--config", str(config_file)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: stage features: schema {sidecar}: ")
    assert err[0].endswith(f"sampling_rate_hz must be a number, got {rate!r}")
    assert not (out / "embedding_params.json").exists()


def test_degenerate_trial_in_a_worker_exits_3(tmp_path, capsys):
    # t1 is long enough to embed, t2 (60 samples at 10 Hz) is not; the
    # error crosses the process pool with its stage context intact
    rng = np.random.default_rng(0)
    data_dir = tmp_path / "two"
    data_dir.mkdir()
    for trial, n in (("t1", 600), ("t2", 60)):
        rows = ["a,b"] + [f"{rng.normal()!r},{rng.normal()!r}" for _ in range(n)]
        (data_dir / f"{trial}.csv").write_text("\n".join(rows) + "\n")
        (data_dir / f"{trial}.schema.json").write_text(
            json.dumps({"sampling_rate_hz": 10.0, "channels": {"a": "EEG", "b": "EMG"}})
        )
    out = tmp_path / "out"
    code = main(["embed-params", "--in", str(data_dir), "--out", str(out), "--jobs", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: stage embed-params, trial t2:")
    assert not (out / "embedding_params.json").exists()


def test_degenerate_channel_is_absent(dataset, config_file, tmp_path, capsys):
    # m1a held at 0.5 for half the trial: too many coincident states for a
    # recurrence threshold, so that channel is null and the rest unchanged
    held = tmp_path / "held"
    shutil.copytree(dataset, held)
    path = held / "dense_000.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    column = rows[0].index("m1a")
    for row in rows[1:321]:
        row[column] = "0.5"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    runs = {}
    for name, data_dir in (("base", dataset), ("held", held)):
        code = main([
            "embed-params", "--in", str(data_dir), "--out", str(tmp_path / name),
            "--config", str(config_file),
        ])
        assert code == 0
        runs[name] = json.loads(capsys.readouterr().out)
    base, changed = runs["base"], runs["held"]
    assert changed["dense_000"]["m1a"] is None
    assert base["dense_000"]["m1a"] is not None
    del base["dense_000"]["m1a"], changed["dense_000"]["m1a"]
    assert changed == base


def test_short_trial_fails_at_embed_params_with_exit_2(dataset, config_file, tmp_path, capsys):
    # 299 samples at 64 Hz: the 5 s window needs 320
    short = tmp_path / "short"
    shutil.copytree(dataset, short)
    path = short / "none_001.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:300]) + "\n")
    out = tmp_path / "out"
    code = main([
        "embed-params", "--in", str(short), "--out", str(out), "--config", str(config_file),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage embed-params, trial none_001:")
    assert "exceeds" in err
    assert not (out / "embedding_params.json").exists()


def test_window_too_long_for_embedded_trials_fails_at_analyze_with_exit_2(
    dataset, tmp_path, capsys
):
    # window_s is no embed-params field, so the embedding entries of the
    # 10 s trials stay current and the 20 s window first meets them in analyze
    out = tmp_path / "out"
    codes = []
    for command, window_s in (("embed-params", 5.0), ("analyze", 20.0)):
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "window_s": window_s}))
        argv = [command, "--in", str(dataset), "--out", str(out), "--config", str(config)]
        codes.append(main(argv))
    assert codes == [0, 2]
    err = capsys.readouterr().err
    assert err.startswith("error: stage analyze, trial dense_000:")
    assert "exceeds" in err
    assert not (out / "networks").exists()
