"""End-to-end pipeline: artifacts, reruns, stage composition."""

import builtins
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jrpnet import pipeline
from jrpnet.cli import main
from jrpnet.config import CONFIG_SCHEMA_VERSION, PipelineConfig
from jrpnet.errors import InputError
from jrpnet.ingest import load_recording
from jrpnet.learn import CLASS_ORDER, discretize_score
from jrpnet.netbuild import METRICS, assemble_temporal_network
from jrpnet.pipeline import (
    TARGETS,
    analyze_recording,
    discover_trials,
    estimate_trial_embeddings,
    read_features_csv,
    run_pipeline,
    stage_analyze,
    stage_embed_params,
    stage_evaluate,
    stage_features,
    stage_train,
)
from jrpnet.synth import three_regime_specs, write_dataset, write_recording

CONFIG = PipelineConfig(k_folds=2, n_null=2, lambda_points=4, tau_max=8, m_max=6)

ARTIFACTS = [
    "embedding_params.json",
    "features.csv",
    "reachability.json",
    "evaluation.json",
    "model_valence_JDET.json",
    "model_valence_JLAM.json",
    "model_arousal_JDET.json",
    "model_arousal_JLAM.json",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    specs, labels = three_regime_specs(n_per_regime=2, seed=11, length_samples=640)
    write_dataset(specs, labels, data_dir)
    return data_dir


@pytest.fixture(scope="module")
def pipeline_out(dataset, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("out")
    report = run_pipeline(dataset, out_dir, CONFIG)
    return out_dir, report


def trial_ids(dataset):
    return [t.trial_id for t in discover_trials(dataset)]


def trial_digests(dataset):
    """sha256 of each trial's length-prefixed CSV and sidecar bytes."""
    digests = {}
    for t in discover_trials(dataset):
        h = hashlib.sha256()
        for path in (t.csv_path, t.schema_path):
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(len(data).to_bytes(8, "big") + data)
        digests[t.trial_id] = h.hexdigest()
    return digests


def test_all_artifacts_exist(dataset, pipeline_out):
    out_dir, _ = pipeline_out
    for name in ARTIFACTS:
        assert (out_dir / name).is_file(), name
    for tid in trial_ids(dataset):
        assert (out_dir / "networks" / f"{tid}.weighted.jsonl").is_file()
        for metric in METRICS:
            assert (out_dir / "networks" / f"{tid}.{metric}.binary.jsonl").is_file()


def test_features_csv_layout(dataset, pipeline_out):
    out_dir, _ = pipeline_out
    stamp, columns, rows = read_features_csv(os.fspath(out_dir / "features.csv"))
    learn_only = ("lambda_points", "lambda_span", "k_folds")
    assert stamp == {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": {k: v for k, v in CONFIG.to_dict().items() if k not in learn_only},
        "trials": trial_digests(dataset),
    }
    assert columns[:8] == [
        "efficiency",
        "mean_latency",
        "mean_fastest_paths",
        "temporal_correlation",
        "small_worldness",
        "small_worldness_degenerate",
        "frac_strong",
        "frac_weak",
    ]
    assert columns[8:] == ["corr_M1", "corr_M2", "corr_M3", "corr_M4"]
    assert len(rows) == 6 * 2  # six trials, two metrics
    assert {r["metric"] for r in rows} == {"JDET", "JLAM"}
    for row in rows:
        assert len(row["values"]) == len(columns)


def test_features_csv_comments_are_its_digest_and_stamp(pipeline_out):
    # one comment line, the sealed header that network files start with
    out_dir, _ = pipeline_out
    path = out_dir / "features.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert len(comments) == 1
    header = json.loads(comments[0].removeprefix("# "))
    assert sorted(header) == ["digest", "stamp"]
    assert header["stamp"] == read_features_csv(path)[0]


def _golden(script="regenerate"):
    path = Path(__file__).parent / "golden" / f"{script}.py"
    spec = importlib.util.spec_from_file_location(f"golden_{script}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decisions_equal_the_golden_run(pipeline_out):
    # tests/golden/decisions.json holds this run's channel, layer and model
    # decisions; a change that moves one regenerates the file on purpose
    golden = _golden()
    with open(golden.GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert recorded["config"] == golden.CONFIG
    assert PipelineConfig(**golden.CONFIG) == CONFIG
    assert recorded["dataset"] == golden.DATASET == {
        "n_per_regime": 2, "seed": 11, "length_samples": 640
    }
    found = golden.decisions(pipeline_out[0])
    moved = sorted(k for k in found.keys() | recorded["decisions"].keys()
                   if found.get(k) != recorded["decisions"].get(k))
    assert not moved, f"decisions moved: {moved}"


# Each transformation edits a trial's channel names and samples in place
# and returns {new name: the name whose decisions it must reproduce}.
def _swap_within_a_modality(names, samples):
    i, j = names.index("m1a"), names.index("m1b")
    samples[[i, j]] = samples[[j, i]]
    return {"m1a": "m1b", "m1b": "m1a"}


def _positive_affine_map(names, samples):
    samples[names.index("m2a")] = 3.0 * samples[names.index("m2a")] + 7.0
    return {}


def _negation(names, samples):
    samples[names.index("m3b")] = -samples[names.index("m3b")]
    return {}


def _rename(names, samples):
    names[names.index("m4b")] = "m4b_renamed"
    return {"m4b_renamed": "m4b"}


@pytest.mark.parametrize(
    "transform", [_swap_within_a_modality, _positive_affine_map, _negation, _rename],
    ids=["swap", "affine", "negate", "rename"],
)
def test_features_do_not_move_under_channel_symmetries(dataset, pipeline_out, tmp_path, transform):
    # a modality pools its channels and every channel is z-scored and
    # compared by recurrence alone, so none of these may move a decision
    # or a feature value of the golden run
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    for t in discover_trials(dataset):
        recording = load_recording(t.csv_path, t.schema_path)
        names, samples = list(recording.channel_names), recording.samples.copy()
        source = transform(names, samples)
        write_recording(replace(recording, channel_names=tuple(names), samples=samples), data_dir)
    assert trial_digests(data_dir).keys() == trial_digests(dataset).keys()
    assert trial_digests(data_dir) != trial_digests(dataset)
    stage_features(data_dir, out_dir, CONFIG)

    def lines_after_the_seal(path):
        return (path / "features.csv").read_text(encoding="utf-8").splitlines()[1:]

    assert lines_after_the_seal(out_dir) == lines_after_the_seal(pipeline_out[0])

    def decisions(path):
        trials = json.loads((path / "embedding_params.json").read_text())["trials"]
        return {
            tid: {name: {k: entry[k] for k in ("tau", "m", "saturated")}
                  for name, entry in channels.items()}
            for tid, channels in trials.items()
        }

    before, after = decisions(pipeline_out[0]), decisions(out_dir)
    assert after.keys() == before.keys()
    for tid, channels in after.items():
        assert len(channels) == len(before[tid])
        for name, decided in channels.items():
            assert decided == before[tid][source.get(name, name)], (tid, name)


def test_accuracy_table_reports_the_run_it_makes(pipeline_out, tmp_path, capsys):
    # tests/golden/accuracy.py at the golden run's dataset and config
    # prints that run's accuracies and their means
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG.to_dict()))
    _golden("accuracy").main(
        ["--config", str(config), "--n-per-regime", "2", "--length-samples", "640", "11"]
    )
    header, row, mean = capsys.readouterr().out.splitlines()
    pairs = [(t, m) for t in TARGETS for m in METRICS]
    assert header.split() == ["seed"] + [f"{t}/{m}" for t, m in pairs]
    results = pipeline_out[1]["results"]
    assert row.split() == ["11"] + [f"{results[t][m]['accuracy']:.3f}" for t, m in pairs]
    assert mean.split() == ["mean"] + row.split()[1:]


def test_evaluation_report_layout(pipeline_out):
    _, report = pipeline_out
    assert report["stamp"]["config"] == CONFIG.to_dict()
    for target in TARGETS:
        for metric in METRICS:
            entry = report["results"][target][metric]
            assert 0.0 <= entry["accuracy"] <= 1.0
            confusion = entry["confusion"]
            assert sum(sum(row) for row in confusion) == 6
            assert entry["n_trials"] == 6
            assert entry["selected_lambda"] in entry["lambda_grid"]
            assert len(entry["lambda_grid"]) == CONFIG.lambda_points
            assert len(entry["fold_accuracies"]) == CONFIG.k_folds


def test_model_artifacts_parse(pipeline_out):
    out_dir, _ = pipeline_out
    raw = json.loads((out_dir / "model_valence_JDET.json").read_text())
    assert raw["target"] == "valence"
    assert raw["metric"] == "JDET"
    model = raw["model"]
    assert model["classes"] == ["low", "medium", "high"]
    assert len(model["columns"]) == 12
    assert len(model["weights"]) == 3


def test_network_files_have_headers_and_records(dataset, pipeline_out):
    out_dir, _ = pipeline_out
    tid = trial_ids(dataset)[0]
    weighted = (out_dir / "networks" / f"{tid}.weighted.jsonl").read_text().splitlines()
    header = json.loads(weighted[0])
    assert header["kind"] == "modality_weights"
    assert header["trial_id"] == tid
    assert header["nodes"] == ["M1", "M2", "M3", "M4"]
    assert len(weighted) == 1 + 2  # one record per window
    for t, line in enumerate(weighted[1:]):
        record = json.loads(line)
        assert sorted(record) == ["JDET", "JLAM", "window"]
        assert record["window"] == t
        # the upper triangle without the diagonal: the modality pairs
        assert len(record["JDET"]) == len(record["JLAM"]) == 6

    binary = (out_dir / "networks" / f"{tid}.JDET.binary.jsonl").read_text().splitlines()
    header = json.loads(binary[0])
    assert header["kind"] == "temporal_network"
    assert header["metric"] == "JDET"
    assert header["binarize_rule"] == {"strategy": "proportional", "rho": 0.5}
    assert len(binary) == 1 + 2
    for line in binary[1:]:
        rec = json.loads(line)
        assert all(0 <= a < b < 4 for a, b in rec["edges"])


def test_rerun_is_byte_identical(dataset, pipeline_out, tmp_path, monkeypatch):
    # a fresh run into a new directory; it never reads features.csv back
    out_dir, _ = pipeline_out
    again = tmp_path / "again"
    opened = _count_features_opens(monkeypatch)
    run_pipeline(dataset, again, CONFIG)
    assert opened == [0]
    for name in ARTIFACTS:
        assert (again / name).read_bytes() == (out_dir / name).read_bytes(), name
    tid = trial_ids(dataset)[0]
    for name in (f"{tid}.weighted.jsonl", f"{tid}.JDET.binary.jsonl"):
        assert (again / "networks" / name).read_bytes() == (
            out_dir / "networks" / name
        ).read_bytes()


def test_stagewise_run_matches_end_to_end(dataset, pipeline_out, tmp_path):
    out_dir, _ = pipeline_out
    staged = tmp_path / "staged"
    stage_embed_params(dataset, staged, CONFIG)
    stage_analyze(dataset, staged, CONFIG)
    stage_features(dataset, staged, CONFIG)
    stage_evaluate(dataset, staged, CONFIG)
    stage_train(dataset, staged, CONFIG)
    for name in ARTIFACTS:
        assert (staged / name).read_bytes() == (out_dir / name).read_bytes(), name


@pytest.mark.parametrize(
    "stage, written",
    [
        (stage_features, ["features.csv", "reachability.json"]),
        (stage_train, ARTIFACTS[3:]),
    ],
    ids=["features", "train"],
)
def test_missing_upstream_is_recomputed(dataset, pipeline_out, tmp_path, stage, written):
    # an empty output directory: the stage runs every upstream stage, which
    # leaves its artifacts behind, and all of them match the end-to-end run
    out_dir, _ = pipeline_out
    solo = tmp_path / "solo"
    stage(dataset, solo, CONFIG)
    for name in written:
        assert (solo / name).read_bytes() == (out_dir / name).read_bytes(), name
    upstream = ["embedding_params.json"] + [
        f"networks/{p.name}" for p in sorted((out_dir / "networks").iterdir())
    ]
    for name in upstream:
        assert (solo / name).read_bytes() == (out_dir / name).read_bytes(), name


def test_embedding_params_artifact_matches_direct_estimation(dataset, pipeline_out):
    out_dir, _ = pipeline_out
    artifact = json.loads((out_dir / "embedding_params.json").read_text())
    tid = trial_ids(dataset)[0]
    trial = discover_trials(dataset)[0]
    recording = load_recording(trial.csv_path, trial.schema_path)
    direct = estimate_trial_embeddings(recording, CONFIG)
    for name, emb in direct.items():
        stored = artifact["trials"][tid][name]
        assert stored["tau"] == emb.params.delay_tau
        assert stored["m"] == emb.params.dimension_m
        assert stored["epsilon"] == emb.epsilon
        assert stored["saturated"] == emb.saturated


def test_reachability_report_layout(dataset, pipeline_out):
    out_dir, _ = pipeline_out
    report = json.loads((out_dir / "reachability.json").read_text())
    for tid in trial_ids(dataset):
        for metric in METRICS:
            entry = report["trials"][tid][metric]
            assert entry["nodes"] == ["M1", "M2", "M3", "M4"]
            for i, row in enumerate(entry["latency"]):
                assert row[i] == 0
                assert all(v is None or isinstance(v, int) for v in row)


def test_missing_labels_is_a_clear_error(dataset, pipeline_out, tmp_path):
    out_dir, _ = pipeline_out
    bare = tmp_path / "bare"
    bare.mkdir()
    for t in discover_trials(dataset):
        os.link(t.csv_path, bare / os.path.basename(t.csv_path))
        os.link(t.schema_path, bare / os.path.basename(t.schema_path))
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "features.csv").write_bytes((out_dir / "features.csv").read_bytes())
    with pytest.raises(InputError, match="labels"):
        stage_evaluate(bare, partial, CONFIG)


@pytest.mark.parametrize("stage", [stage_evaluate, stage_train])
@pytest.mark.parametrize(
    "labels, match",
    [
        (None, "does not exist"),
        ("trial_id,valence\n", "header"),
        ("trial_id,valence,arousal\ndense_000,5.0,5.0\n", "trials without labels"),
    ],
    ids=["missing", "malformed", "incomplete"],
)
def test_bad_labels_fail_before_any_trial_is_embedded(
    dataset, tmp_path, monkeypatch, stage, labels, match
):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for t in discover_trials(dataset):
        os.link(t.csv_path, data_dir / os.path.basename(t.csv_path))
        os.link(t.schema_path, data_dir / os.path.basename(t.schema_path))
    if labels is not None:
        (data_dir / "labels.csv").write_text(labels)
    embedded, _ = _count_trial_work(monkeypatch)
    with pytest.raises(InputError, match=match):
        stage(data_dir, tmp_path / "out", CONFIG)
    assert embedded == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage", [stage_evaluate, stage_train])
@pytest.mark.parametrize(
    "arousal, k_folds, match",
    [
        # two trials per regime: two members per class, one short of 3 folds
        ("2.0", 3, "target 'valence': class 'low' has 2 members; need at least 3"),
        ("5.0", 2, "target 'arousal': class 'low' has 1 members; need at least 2"),
    ],
    ids=["three-folds", "thin-arousal"],
)
def test_labels_that_cannot_fill_the_folds_fail_before_any_trial_is_embedded(
    dataset, tmp_path, monkeypatch, stage, arousal, k_folds, match
):
    # learn's class rules apply to the discretized labels of each target
    # before the first trial is embedded, not after features.csv is written
    data_dir = tmp_path / "data"
    shutil.copytree(dataset, data_dir)
    labels = (data_dir / "labels.csv").read_text()
    assert "none_001,2.0,2.0\n" in labels
    (data_dir / "labels.csv").write_text(labels.replace("none_001,2.0,2.0", f"none_001,2.0,{arousal}"))
    embedded, _ = _count_trial_work(monkeypatch)
    with pytest.raises(InputError, match=f"^stage evaluate: {match}"):
        stage(data_dir, tmp_path / "out", CONFIG.replace(k_folds=k_folds))
    assert embedded == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage", [stage_features, stage_evaluate], ids=["features", "evaluate"])
def test_different_modality_nodes_fail_before_any_trial_is_embedded(
    dataset, tmp_path, monkeypatch, stage
):
    # a trial's nodes come from its sidecar alone: with the channel order
    # of the last sidecar reversed, its modalities come first-seen in
    # another order, and no trial is embedded before that shows
    data_dir = tmp_path / "data"
    shutil.copytree(dataset, data_dir)
    first, *_, last = discover_trials(data_dir)
    with open(last.schema_path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    sidecar["channels"] = dict(reversed(sidecar["channels"].items()))
    with open(last.schema_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    embedded, _ = _count_trial_work(monkeypatch)
    with pytest.raises(InputError, match="^stage features: .*modality nodes") as exc:
        stage(data_dir, tmp_path / "out", CONFIG)
    assert first.trial_id in str(exc.value) and last.trial_id in str(exc.value)
    assert embedded == []
    assert not (tmp_path / "out").exists()


def test_empty_data_dir_is_a_clear_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(InputError, match="no recordings"):
        discover_trials(empty)
    with pytest.raises(InputError, match="does not exist"):
        discover_trials(tmp_path / "nowhere")


def test_orphan_csv_is_a_clear_error(tmp_path):
    orphan = tmp_path / "orphan"
    orphan.mkdir()
    (orphan / "t1.csv").write_text("a,b\n1.0,2.0\n")
    with pytest.raises(InputError, match="sidecar"):
        discover_trials(orphan)


@pytest.mark.parametrize("trial_id", ["dense,000", 'say"hi', "", "."])
def test_trial_file_names_follow_the_name_rule(tmp_path, trial_id):
    # a trial id becomes a CSV cell and a file name of every output
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for tid in ("t1", trial_id):
        (data_dir / f"{tid}.csv").write_text("a,b\n1.0,2.0\n")
        (data_dir / f"{tid}.schema.json").write_text("{}")
    csv_path = re.escape(str(data_dir / f"{trial_id}.csv"))
    with pytest.raises(InputError, match=f"^recording {csv_path}: trial id {re.escape(repr(trial_id))}"):
        discover_trials(data_dir)


def _tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize(
    "stage, changed",
    [
        # networks from another overlap
        (stage_features, CONFIG.replace(overlap=0.5)),
        # embedding params scanned up to another m_max
        (stage_analyze, CONFIG.replace(m_max=4)),
        # features.csv with another number of small-worldness nulls
        (stage_evaluate, CONFIG.replace(n_null=3)),
        # evaluation.json from another lambda grid
        (stage_train, CONFIG.replace(lambda_span=0.3)),
    ],
    ids=["features", "analyze", "evaluate", "train"],
)
def test_stale_upstream_is_recomputed(dataset, pipeline_out, tmp_path, stage, changed):
    # every artifact of the end-to-end run is stamped with CONFIG; a stage
    # run under another config must write what it writes with no upstream
    out_dir, _ = pipeline_out
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    stage(dataset, fresh, changed)
    shutil.copytree(out_dir, stale)
    stage(dataset, stale, changed)
    written, after = _tree(fresh), _tree(stale)
    assert written
    assert {name: after.get(name) for name in written} == written


def test_learn_only_change_reuses_features(dataset, pipeline_out, tmp_path, monkeypatch):
    # lambda_span is read by evaluate alone: embedding params, networks and
    # features of the CONFIG run stay current, and only learning reruns
    out_dir, _ = pipeline_out
    changed = CONFIG.replace(lambda_span=0.3)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    stage_train(dataset, fresh, changed)
    shutil.copytree(out_dir, reused)
    calls = _count_calls(monkeypatch, "feature_vector")
    stage_train(dataset, reused, changed)
    assert not calls, "features.csv is current and must be reused"
    before, after, written = _tree(out_dir), _tree(reused), _tree(fresh)
    for name in before:
        if name.startswith("networks/") or name in ARTIFACTS[:3]:
            assert after[name] == before[name], name
    for name in ARTIFACTS[3:]:
        assert after[name] == written[name], name


@pytest.mark.parametrize("stage", [stage_evaluate, stage_train], ids=["evaluate", "train"])
def test_trial_removed_after_run_is_not_learned_from(nine_trials, tmp_path, stage):
    # features.csv and evaluation.json stamped with a trial the data
    # directory no longer holds are stale: the stage writes what a fresh
    # run on the remaining trials writes
    data_dir, out_dir = nine_trials
    shrunk, out, fresh = tmp_path / "shrunk", tmp_path / "out", tmp_path / "fresh"
    shrunk.mkdir()
    shutil.copy(data_dir / "labels.csv", shrunk)
    for t in discover_trials(data_dir)[:-1]:
        shutil.copy(t.csv_path, shrunk)
        shutil.copy(t.schema_path, shrunk)
    shutil.copytree(out_dir, out)
    stage(shrunk, out, CONFIG)
    stage(shrunk, fresh, CONFIG)
    written = ARTIFACTS[1:4] + (ARTIFACTS[4:] if stage is stage_train else [])
    for name in written:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize(
    "name, stage",
    [
        ("embedding_params.json", stage_analyze),
        ("networks/dense_000.JDET.binary.jsonl", stage_features),
        ("features.csv", stage_evaluate),
        ("evaluation.json", stage_train),
    ],
    ids=["embed-params", "analyze", "features", "evaluate"],
)
def test_other_schema_version_is_recomputed(
    dataset, pipeline_out, tmp_path, monkeypatch, name, stage
):
    # the edited file is resealed, so only its envelope makes it stale
    out_dir, _ = pipeline_out
    old = tmp_path / "old"
    shutil.copytree(out_dir, old)
    path = old / name
    text, n = re.subn(
        rf'"schema_version": ?{CONFIG_SCHEMA_VERSION}\b',
        f'"schema_version": {CONFIG_SCHEMA_VERSION - 1}',
        path.read_text(),
    )
    assert n == 1
    path.write_text(_resealed(text, path.suffix))
    embedded, _ = _count_trial_work(monkeypatch)
    stage(dataset, old, CONFIG)
    assert _tree(old) == _tree(out_dir)
    # entries of another schema are estimated again, though their values are the same
    assert embedded == (trial_ids(dataset) if name == "embedding_params.json" else [])


def test_stamps_that_hold_norm_are_recomputed_once(dataset, pipeline_out, tmp_path, monkeypatch):
    # artifacts from when the distance was a config field are stale by
    # their envelope alone: every file is resealed with "norm" in its stamp
    out_dir, _ = pipeline_out
    old = tmp_path / "old"
    shutil.copytree(out_dir, old)
    for path in (p for p in old.rglob("*") if p.is_file()):
        mark = "# " if path.suffix == ".csv" else ""
        text = path.read_text()
        head, newline, rest = (text, "", "") if path.suffix == ".json" else text.partition("\n")
        header = json.loads(head.removeprefix(mark))
        header["stamp"]["config"]["norm"] = "L1"
        path.write_text(_resealed(mark + json.dumps(header) + newline + rest, path.suffix))
    embedded, analyzed = _count_trial_work(monkeypatch)
    run_pipeline(dataset, old, CONFIG)
    assert _tree(old) == _tree(out_dir)
    assert embedded == analyzed == trial_ids(dataset)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _json_line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _resealed(text, suffix):
    """``text``, an edited artifact whose file name ends in ``suffix``, with
    its digest rewritten to match its content again: the edit then reaches
    the envelope check rather than the digest check.  The one rule: a
    digest field over the other fields as one JSON line, followed in a
    network file and in ``features.csv`` (whose header line starts with
    ``# ``) by the lines after the header."""
    mark = "# " if suffix == ".csv" else ""
    head, newline, rest = (text, "", "") if suffix == ".json" else text.partition("\n")
    sealed = {k: v for k, v in json.loads(head.removeprefix(mark)).items() if k != "digest"}
    sealed["digest"] = _sha256(_json_line(sealed) + newline + rest)
    return mark + _json_line(sealed) + newline + rest


def _emptied(data):
    return b""


def _rows_cut(data):
    # a row boundary: the file parses, with the last trial's two rows gone
    return b"".join(data.splitlines(keepends=True)[:-2])


def _row_duplicated(data):
    lines = data.splitlines(keepends=True)
    return b"".join(lines + lines[-1:])


def _header_replaced(data):
    # a header that parses, but to a list
    return b"".join([b"[1]\n"] + data.splitlines(keepends=True)[1:])


def _row_replaced(data):
    # as many rows as the stamp asks for, one of them twice
    lines = data.splitlines(keepends=True)
    return b"".join(lines[:-1] + lines[-2:-1])


def _last_line_cut(data):
    return b"".join(data.splitlines(keepends=True)[:-1])


def _last_window_cut(data):
    # a window boundary: every record of the last window goes, and the file
    # still holds one record per window (and metric) for the windows left
    lines = data.splitlines(keepends=True)
    last = json.loads(lines[-1])["window"]
    return b"".join(line for line in lines if json.loads(line).get("window") != last)


def _cell_changed(data):
    # the last row's last value, still a number
    head, _, cell = data.rstrip(b"\n").rpartition(b",")
    return head + b"," + repr(float(cell) + 1.0).encode() + b"\n"


def _json_edited(edit):
    """A damage that applies ``edit`` to a JSON artifact."""

    def damage(data):
        artifact = json.loads(data)
        edit(artifact)
        return json.dumps(artifact).encode()

    return damage


def _report_edited(edit):
    """A damage that applies ``edit`` to an evaluation report's results."""
    return _json_edited(lambda report: edit(report["results"]))


def _case(name, command, damage, id, removed=()):
    """A damage case: the file (or a pattern of files), the command that
    must recompute it, the damage (a function of the file's bytes, or the
    name of the file copied over it) and the output files removed besides."""
    return pytest.param(name, command, damage, removed, id=id)


DAMAGES = [
    _case("embedding_params.json", "analyze", _emptied, id="embed-params"),
    _case("networks/dense_000.JDET.binary.jsonl", "features", _emptied, id="analyze"),
    _case("features.csv", "evaluate", _emptied, id="features"),
    _case("evaluation.json", "train", _emptied, id="evaluate"),
    # the last row loses its last cell
    _case(
        "features.csv", "evaluate", lambda data: data[: data.rindex(b",")], id="features-short-row"
    ),
    _case("features.csv", "evaluate", _rows_cut, id="features-rows-cut"),
    _case("features.csv", "evaluate", _row_duplicated, id="features-row-duplicated"),
    _case("features.csv", "evaluate", _row_replaced, id="features-row-replaced"),
    # JSON that parses to something other than an object
    _case("embedding_params.json", "analyze", lambda data: b"[0]\n", id="embed-params-list"),
    _case("evaluation.json", "train", lambda data: b'"x"\n', id="evaluate-string"),
    _case(
        "networks/dense_000.JDET.binary.jsonl", "features", _header_replaced, id="analyze-list-header"
    ),
    # each stage checks its own artifact, whichever command runs it
    _case("reachability.json", "evaluate", _emptied, id="features-reachability"),
    _case("model_valence_JDET.json", "train", _emptied, id="train"),
    # a current stamp on a model that names another target
    _case(
        "model_arousal_JDET.json",
        "train",
        lambda data: _resealed(data.decode().replace('"arousal"', '"valence"'), ".json").encode(),
        id="train-other-target",
    ),
    # a current stamp on a network file of another kind or metric
    _case(
        "networks/dense_000.JDET.binary.jsonl",
        "features",
        "networks/dense_000.weighted.jsonl",
        id="analyze-weighted-as-binary",
    ),
    _case(
        "networks/dense_000.JLAM.binary.jsonl",
        "features",
        "networks/dense_000.JDET.binary.jsonl",
        id="analyze-other-metric",
    ),
    # a current header over a record that builds no network: node 9 of 4
    _case(
        "networks/dense_000.JDET.binary.jsonl",
        "features",
        lambda data: data[: data.rindex(b"{")] + b'{"edges":[[0,9]],"window":0}\n',
        id="analyze-record-out-of-range",
    ),
    # a current stamp on a report whose entries a later step cannot read
    _case(
        "evaluation.json",
        "train",
        _report_edited(lambda results: results["valence"].pop("JLAM")),
        id="evaluate-entry-missing",
    ),
    _case(
        "evaluation.json",
        "evaluate",
        _report_edited(lambda results: results["valence"]["JDET"].update(accuracy="x")),
        id="evaluate-accuracy-string",
    ),
    # every network file of a trial is checked, not only the binarized ones
    _case("networks/dense_000.weighted.jsonl", "analyze", _emptied, id="analyze-weighted"),
    # network files that decode but hold fewer windows than the trial: with
    # features.csv gone, features would be computed from what is left
    _case(
        "networks/dense_000.JDET.binary.jsonl",
        "features",
        _last_line_cut,
        id="analyze-binary-cut",
        removed=["features.csv"],
    ),
    _case(
        "networks/dense_000.JDET.binary.jsonl",
        "features",
        lambda data: data.splitlines(keepends=True)[0],
        id="analyze-binary-header-only",
        removed=["features.csv"],
    ),
    _case(
        "networks/dense_000.weighted.jsonl", "analyze", _last_line_cut, id="analyze-weighted-cut"
    ),
    # a current envelope on a model that is not fit at the selected lambda
    _case(
        "model_valence_JDET.json",
        "train",
        _json_edited(lambda model: model.pop("model")),
        id="train-model-missing",
    ),
    _case(
        "model_valence_JDET.json",
        "train",
        _json_edited(lambda model: model["model"].update({"lambda": 123.0})),
        id="train-other-lambda",
    ),
    # damage that decodes as the payload a writer could have written: every
    # network file of a trial cut consistently at a window boundary, a
    # report's accuracy replaced by another number or by NaN, and a
    # feature value replaced by another number
    _case(
        "networks/dense_000.*.jsonl",
        "features",
        _last_window_cut,
        id="analyze-all-cut-at-a-window",
        removed=["features.csv"],
    ),
    _case(
        "evaluation.json",
        "evaluate",
        _report_edited(lambda results: results["valence"]["JDET"].update(accuracy=0.125)),
        id="evaluate-other-accuracy",
    ),
    _case(
        "evaluation.json",
        "evaluate",
        _report_edited(lambda results: results["valence"]["JDET"].update(accuracy=math.nan)),
        id="evaluate-accuracy-nan",
    ),
    _case("features.csv", "evaluate", _cell_changed, id="features-value-changed"),
]


def _kind(name):
    """The kind of an output file: its name without trial id or model name."""
    return "model" if name.startswith("model_") else re.sub(r"^networks/[^.]+", "networks/*", name)


def test_every_artifact_kind_has_a_damage_case(pipeline_out):
    out_dir, _ = pipeline_out
    kinds = {_kind(name) for name in _tree(out_dir)}
    assert len(kinds) == 8
    assert kinds <= {_kind(case.values[0]) for case in DAMAGES}


@pytest.mark.parametrize("name, command, damage, removed", DAMAGES)
def test_damaged_artifact_is_recomputed(
    dataset, pipeline_out, tmp_path, name, command, damage, removed
):
    # an unreadable artifact is stale, not a crash outside the CLI's exit codes
    out_dir, _ = pipeline_out
    damaged = tmp_path / "damaged"
    shutil.copytree(out_dir, damaged)
    paths = sorted(damaged.glob(name))
    assert paths
    for path in paths:
        if callable(damage):
            path.write_bytes(damage(path.read_bytes()))
        else:
            shutil.copy(damaged / damage, path)
    for other in removed:
        (damaged / other).unlink()
    assert _cli(command, dataset, damaged, tmp_path) == 0
    assert _tree(damaged) == _tree(out_dir)


def _earlier_weighted_layout(text):
    """A weighted network file re-encoded in the earlier layout, resealed:
    one record per window and metric, each with the node list and the
    upper triangle including the (absent) diagonal."""
    head, *lines = text.splitlines()
    header = json.loads(head)
    nodes = header.pop("nodes")
    header["kind"] = "weighted_graphs"
    records = []
    for line in lines:
        record = json.loads(line)
        for metric in METRICS:
            pairs = iter(record[metric])
            weights = [
                None if i == j else next(pairs)
                for i in range(len(nodes))
                for j in range(i, len(nodes))
            ]
            records.append(
                {"window": record["window"], "metric": metric, "nodes": nodes, "weights": weights}
            )
    return _resealed("\n".join(map(_json_line, [header, *records])) + "\n", ".jsonl")


def test_weighted_file_in_the_earlier_layout_is_rewritten(
    dataset, pipeline_out, tmp_path, monkeypatch
):
    # its stamp is current and it hashes to its digest; its kind makes it stale
    out_dir, _ = pipeline_out
    old = tmp_path / "old"
    shutil.copytree(out_dir, old)
    path = old / "networks" / "dense_000.weighted.jsonl"
    path.write_text(_earlier_weighted_layout(path.read_text()))
    assert path.read_bytes() != (out_dir / "networks" / "dense_000.weighted.jsonl").read_bytes()
    _, analyzed = _count_trial_work(monkeypatch)
    run_pipeline(dataset, old, CONFIG)
    assert analyzed == ["dense_000"]
    assert _tree(old) == _tree(out_dir)


def _earlier_features_layout(text):
    """A ``features.csv`` as earlier versions wrote it: a ``# digest=`` line
    over a ``# stamp=`` line and the CSV lines."""
    head, _, rest = text.partition("\n")
    stamp = json.loads(head.removeprefix("# "))["stamp"]
    body = f"# stamp={_json_line(stamp)}\n{rest}"
    return f"# digest={_sha256(body)}\n{body}"


def test_features_file_in_the_earlier_layout_is_rewritten(
    dataset, pipeline_out, tmp_path, monkeypatch
):
    # its stamp is current and it hashes to its digest; its first line is
    # not a sealed header, which makes it stale
    out_dir, _ = pipeline_out
    old = tmp_path / "old"
    shutil.copytree(out_dir, old)
    path = old / "features.csv"
    path.write_text(_earlier_features_layout(path.read_text()))
    assert path.read_bytes() != (out_dir / "features.csv").read_bytes()
    embedded, analyzed = _count_trial_work(monkeypatch)
    calls = _count_calls(monkeypatch, "feature_vector", "cross_validate", "fit_lasso")
    run_pipeline(dataset, old, CONFIG)
    assert embedded == analyzed == []
    assert calls == {"feature_vector": 2 * len(trial_ids(dataset))}
    assert _tree(old) == _tree(out_dir)


def test_failed_write_leaves_no_tmp_file(dataset, pipeline_out, tmp_path, monkeypatch):
    # the rename of the first network file written fails; the rerun then
    # writes what a clean run writes and nothing else
    out_dir, _ = pipeline_out
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    (out / "networks" / "dense_000.weighted.jsonl").unlink()

    def failing(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr(pipeline.os, "replace", failing)
    with pytest.raises(OSError, match="no space left"):
        stage_analyze(dataset, out, CONFIG)
    monkeypatch.undo()
    assert not list((out / "networks").glob("*.tmp"))
    stage_analyze(dataset, out, CONFIG)
    assert _tree(out) == _tree(out_dir)


@pytest.mark.parametrize(
    "names",
    [
        ["networks/dense_000.weighted.jsonl.tmp", "networks/dense_000.JDET.binary.jsonl.tmp"],
        *([name + ".tmp"] for name in ARTIFACTS),
    ],
    ids=["networks", *ARTIFACTS],
)
def test_rerun_removes_the_tmp_files_of_a_killed_run(dataset, pipeline_out, tmp_path, names):
    out_dir, _ = pipeline_out
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    for name in names:
        (out / name).write_text('{"partial')
    run_pipeline(dataset, out, CONFIG)
    assert _tree(out) == _tree(out_dir)


def test_weighted_record_upper_triangle_with_nulls():
    nan = np.nan
    jdet = np.array([
        [[nan, 0.1, 0.2], [0.1, nan, 0.3], [0.2, 0.3, nan]],
        [[nan, 0.4, 0.5], [0.4, nan, 0.6], [0.5, 0.6, nan]],
    ])
    jlam = jdet.copy()
    # the diagonal is not recorded, whatever it holds
    jlam[1] = [[0.3, 0.4, np.nan], [0.4, np.nan, 0.6], [np.nan, 0.6, 0.1]]
    records = pipeline._weighted_records({"JDET": jdet, "JLAM": jlam})
    assert records == [
        {"window": 0, "JDET": [0.1, 0.2, 0.3], "JLAM": [0.1, 0.2, 0.3]},
        {"window": 1, "JDET": [0.4, 0.5, 0.6], "JLAM": [0.4, None, 0.6]},
    ]
    assert all(type(v) is float for v in records[0]["JDET"])


def test_binary_record_lists_sorted_edges():
    nan = np.nan
    weights = np.array([[[nan, 0.9, 0.1], [0.9, nan, 0.8], [0.1, 0.8, nan]]])
    tn = assemble_temporal_network(weights, ("a", "b", "c"), "JDET", rho=0.7)
    rec = pipeline._binary_record(tn, 0)
    assert rec == {"window": 0, "edges": [[0, 1], [1, 2]]}


def test_edited_embedding_entry_is_reembedded(dataset, pipeline_out, tmp_path):
    # the entry's stamp slice is current, but the file no longer hashes to
    # its digest: the trial is embedded and analyzed again, not a crash
    out_dir, _ = pipeline_out
    damaged = tmp_path / "damaged"
    shutil.copytree(out_dir, damaged)
    path = damaged / "embedding_params.json"
    artifact = json.loads(path.read_text())
    artifact["trials"]["dense_000"] = 5
    path.write_text(json.dumps(artifact))
    for network in (damaged / "networks").glob("dense_000.*"):
        network.unlink()
    assert _cli("analyze", dataset, damaged, tmp_path) == 0
    assert _tree(damaged) == _tree(out_dir)


def _cli(command, data_dir, out_dir, tmp_path):
    """Exit code of ``jrpnet command`` on ``data_dir`` under CONFIG."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG.to_dict()))
    return main([command, "--in", str(data_dir), "--out", str(out_dir), "--config", str(config)])


def test_confusion_rows_count_each_targets_classes(dataset, pipeline_out, tmp_path):
    # arousal classes distributed unlike valence ones: a mix-up of the two
    # targets shows in the row sums, the true class counts of each target
    out_dir, _ = pipeline_out
    relabeled, out = tmp_path / "relabeled", tmp_path / "out"
    relabeled.mkdir()
    out.mkdir()
    ids = trial_ids(dataset)
    for t in discover_trials(dataset):
        shutil.copy(t.csv_path, relabeled)
        shutil.copy(t.schema_path, relabeled)
    scores = {
        "valence": dict(zip(ids, [8.0, 8.0, 2.0, 2.0, 5.0, 5.0])),
        "arousal": dict(zip(ids, [2.0, 2.0, 2.0, 8.0, 8.0, 2.0])),
    }
    rows = [f"{tid},{scores['valence'][tid]!r},{scores['arousal'][tid]!r}" for tid in ids]
    (relabeled / "labels.csv").write_text("\n".join(["trial_id,valence,arousal"] + rows) + "\n")
    shutil.copy(out_dir / "features.csv", out)
    report = stage_evaluate(relabeled, out, CONFIG)
    for target in TARGETS:
        counts = Counter(discretize_score(score) for score in scores[target].values())
        for metric in METRICS:
            confusion = report["results"][target][metric]["confusion"]
            assert [sum(row) for row in confusion] == [counts[c] for c in CLASS_ORDER]


def test_trial_added_after_embed_params_is_embedded(dataset, pipeline_out, tmp_path):
    # embedding_params.json holds a current entry for the first trial and
    # none for the others: analyze embeds those, keeps the first one's, and
    # writes what a run on every trial writes
    out_dir, _ = pipeline_out
    grown, out = tmp_path / "grown", tmp_path / "out"
    grown.mkdir()
    first, *rest = discover_trials(dataset)
    shutil.copy(first.csv_path, grown)
    shutil.copy(first.schema_path, grown)
    stage_embed_params(grown, out, CONFIG)
    for t in rest:
        shutil.copy(t.csv_path, grown)
        shutil.copy(t.schema_path, grown)
    stage_analyze(grown, out, CONFIG)
    name = "embedding_params.json"
    assert (out / name).read_bytes() == (out_dir / name).read_bytes()
    assert _tree(out / "networks") == _tree(out_dir / "networks")


@pytest.fixture(scope="module")
def nine_trials(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("nine")
    specs, labels = three_regime_specs(n_per_regime=3, seed=11, length_samples=640)
    write_dataset(specs, labels, data_dir)
    out_dir = tmp_path_factory.mktemp("nine_out")
    run_pipeline(data_dir, out_dir, CONFIG)
    return data_dir, out_dir


@pytest.mark.parametrize("stage", [stage_evaluate, stage_train], ids=["evaluate", "train"])
def test_trial_added_after_features_is_learned_from(nine_trials, tmp_path, stage):
    # features.csv and evaluation.json stamped with CONFIG but lacking a
    # trial count as stale: the stage writes what a fresh run writes
    data_dir, out_dir = nine_trials
    grown, out = tmp_path / "grown", tmp_path / "out"
    grown.mkdir()
    *first, last = discover_trials(data_dir)
    shutil.copy(data_dir / "labels.csv", grown)
    for t in first:
        shutil.copy(t.csv_path, grown)
        shutil.copy(t.schema_path, grown)
    run_pipeline(grown, out, CONFIG)
    shutil.copy(last.csv_path, grown)
    shutil.copy(last.schema_path, grown)
    stage(grown, out, CONFIG)
    after, fresh = _tree(out), _tree(out_dir)
    if stage is stage_evaluate:
        # the models of the 8-trial run are not the evaluate stage's to rewrite
        after = {k: v for k, v in after.items() if not k.startswith("model_")}
        fresh = {k: v for k, v in fresh.items() if not k.startswith("model_")}
    assert after == fresh


def test_trial_added_after_analyze_is_the_only_one_analyzed(nine_trials, tmp_path, monkeypatch):
    # embedding entries and network files are stamped per trial: the 8
    # trials of the earlier run keep theirs, and the stage writes what a
    # fresh 9-trial run writes
    data_dir, out_dir = nine_trials
    grown, out = tmp_path / "grown", tmp_path / "out"
    grown.mkdir()
    *first, last = discover_trials(data_dir)
    shutil.copy(data_dir / "labels.csv", grown)
    for t in first:
        shutil.copy(t.csv_path, grown)
        shutil.copy(t.schema_path, grown)
    run_pipeline(grown, out, CONFIG)
    shutil.copy(last.csv_path, grown)
    shutil.copy(last.schema_path, grown)
    embedded, analyzed = _count_trial_work(monkeypatch)
    stage_features(grown, out, CONFIG)
    assert embedded == [last.trial_id]
    assert analyzed == [last.trial_id]
    _assert_features_outputs_match(out, out_dir, n_trials=9)


@pytest.mark.parametrize(
    "stage",
    [run_pipeline, stage_features, stage_evaluate, stage_train],
    ids=["run", "features", "evaluate", "train"],
)
def test_unchanged_rerun_reuses_every_trial(nine_trials, tmp_path, monkeypatch, stage):
    # every artifact of the earlier run is current: the stage and every
    # stage before it compute nothing and write no file
    data_dir, out_dir = nine_trials
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    embedded, analyzed = _count_trial_work(monkeypatch)
    calls = _count_calls(
        monkeypatch, "feature_vector", "cross_validate", "fit_lasso", "_write_text"
    )
    stage(data_dir, out, CONFIG)
    assert embedded == analyzed == []
    assert not calls
    assert _tree(out) == _tree(out_dir)


def test_unchanged_rerun_reads_labels_and_features_once(nine_trials, tmp_path, monkeypatch):
    # the command lists and hashes its trials once, and the features stage
    # and evaluate pass the content they read on to evaluate, train and
    # run_pipeline, so nothing reads labels.csv, features.csv or a JSON
    # artifact again
    data_dir, out_dir = nine_trials
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    calls = _count_calls(monkeypatch, "load_labels", "discover_trials")
    read_json, reads = pipeline._read_json, Counter()

    def counted(path):
        reads[os.path.basename(path)] += 1
        return read_json(path)

    monkeypatch.setattr(pipeline, "_read_json", counted)
    opened = _count_features_opens(monkeypatch)
    run_pipeline(data_dir, out, CONFIG)
    assert calls == {"load_labels": 1, "discover_trials": 1}
    assert reads == {name: 1 for name in ARTIFACTS if name.endswith(".json")}
    assert opened == [1]
    assert _tree(out) == _tree(out_dir)


def _count_features_opens(monkeypatch):
    """A one-item list counting the times ``pipeline`` then opens an
    existing ``features.csv`` to read it."""
    opened = [0]

    def counted(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        opened[0] += os.path.basename(file) == "features.csv" and "r" in mode
        return fh

    monkeypatch.setattr(pipeline, "open", counted, raising=False)
    return opened


@pytest.mark.parametrize(
    "stage",
    [stage_embed_params, stage_analyze, stage_features, stage_evaluate, stage_train, run_pipeline],
    ids=["embed-params", "analyze", "features", "evaluate", "train", "run"],
)
def test_each_command_lists_its_trials_once(dataset, tmp_path, monkeypatch, stage):
    calls = _count_calls(monkeypatch, "discover_trials")
    stage(dataset, tmp_path, CONFIG)
    assert calls == {"discover_trials": 1}


@pytest.fixture(scope="module")
def eight_trials(nine_trials, tmp_path_factory):
    """``nine_trials`` without its last trial (recording, sidecar, spec and
    label), and a fresh run on it."""
    data_dir, _ = nine_trials
    removed = discover_trials(data_dir)[-1].trial_id
    eight = tmp_path_factory.mktemp("eight")
    for path in data_dir.iterdir():
        if not path.name.startswith(f"{removed}."):
            shutil.copy(path, eight)
    lines = (data_dir / "labels.csv").read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(f"{removed},")]
    (eight / "labels.csv").write_text("".join(kept))
    fresh = tmp_path_factory.mktemp("eight_out")
    run_pipeline(eight, fresh, CONFIG)
    return eight, fresh, removed


def test_removed_trial_leaves_no_file_behind(nine_trials, eight_trials, tmp_path):
    # a build is correct when it equals a clean one: the rerun deletes the
    # removed trial's network files along with rewriting every stale artifact
    _, out_dir = nine_trials
    eight, fresh, removed = eight_trials
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    assert f"networks/{removed}.weighted.jsonl" in _tree(out)
    run_pipeline(eight, out, CONFIG)
    assert _tree(out) == _tree(fresh)


def test_trial_added_mid_command_belongs_to_the_next(
    nine_trials, eight_trials, tmp_path, monkeypatch
):
    # the command lists its trials when it starts: a trial copied in while
    # the first trial is embedded is not one of them
    data_dir, _ = nine_trials
    eight, fresh, removed = eight_trials
    grown, out = tmp_path / "grown", tmp_path / "out"
    shutil.copytree(eight, grown)
    shutil.copy(data_dir / "labels.csv", grown)

    def copy_in_first(recording, config):
        if not (grown / f"{removed}.csv").exists():
            for suffix in (".csv", ".schema.json"):
                shutil.copy(data_dir / f"{removed}{suffix}", grown)
        return estimate_trial_embeddings(recording, config)

    monkeypatch.setattr(pipeline, "estimate_trial_embeddings", copy_in_first)
    run_pipeline(grown, out, CONFIG)
    assert (grown / f"{removed}.csv").exists()
    assert _tree(out) == _tree(fresh)


def _count_calls(monkeypatch, *names):
    """A Counter of the calls then made to each of the ``pipeline`` functions ``names``."""
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    return calls


def _counted(calls, task):
    """``task`` that first appends the trial id of its recording to ``calls``."""

    def counted(recording, *args):
        calls.append(recording.trial_id)
        return task(recording, *args)

    return counted


def _count_trial_work(monkeypatch):
    """Lists of the trials that then run ``estimate_trial_embeddings`` and
    ``analyze_recording``, in call order."""
    embedded, analyzed = [], []
    monkeypatch.setattr(
        pipeline, "estimate_trial_embeddings", _counted(embedded, estimate_trial_embeddings)
    )
    monkeypatch.setattr(pipeline, "analyze_recording", _counted(analyzed, analyze_recording))
    return embedded, analyzed


def _assert_features_outputs_match(out, fresh_dir, n_trials):
    """The networks and the artifacts up to the features stage in ``out``
    equal those of ``fresh_dir``."""
    after, fresh = _tree(out), _tree(fresh_dir)
    written = [k for k in fresh if k.startswith("networks/") or k in ARTIFACTS[:3]]
    assert len(written) == 3 + 3 * n_trials
    assert {k: after.get(k) for k in written} == {k: fresh[k] for k in written}


@pytest.fixture(scope="module")
def rerecorded(nine_trials, tmp_path_factory):
    """``nine_trials`` with its first trial's recording replaced by other
    data under the same id, and a fresh run on that data."""
    data_dir, _ = nine_trials
    other, edited = tmp_path_factory.mktemp("other"), tmp_path_factory.mktemp("edited")
    specs, labels = three_regime_specs(n_per_regime=3, seed=12, length_samples=640)
    write_dataset(specs, labels, other)
    shutil.copytree(data_dir, edited, dirs_exist_ok=True)
    changed = discover_trials(data_dir)[0].trial_id
    for suffix in (".csv", ".schema.json"):
        shutil.copy(other / f"{changed}{suffix}", edited)
    fresh = tmp_path_factory.mktemp("edited_out")
    run_pipeline(edited, fresh, CONFIG)
    return edited, fresh, changed


@pytest.mark.parametrize(
    "stage", [run_pipeline, stage_features, stage_evaluate], ids=["run", "features", "evaluate"]
)
def test_rerun_after_a_recording_changes_matches_a_fresh_run(
    nine_trials, rerecorded, tmp_path, monkeypatch, stage
):
    # every stamp maps each trial to a digest of its recording: the stage
    # embeds and analyzes the rewritten trial alone, keeps the other
    # trials' entries and networks, and writes what a fresh run writes
    _, out_dir = nine_trials
    edited, fresh, changed = rerecorded
    name = f"networks/{changed}.JDET.binary.jsonl"
    assert _tree(fresh)[name] != _tree(out_dir)[name]
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    embedded, analyzed = _count_trial_work(monkeypatch)
    stage(edited, out, CONFIG)
    assert embedded == analyzed == [changed]
    if stage is stage_features:
        _assert_features_outputs_match(out, fresh, n_trials=9)
        return
    after, expected = _tree(out), _tree(fresh)
    if stage is stage_evaluate:
        # the models of the earlier run are not the evaluate stage's to rewrite
        after = {k: v for k, v in after.items() if not k.startswith("model_")}
        expected = {k: v for k, v in expected.items() if not k.startswith("model_")}
    assert after == expected


def test_rerecorded_trial_is_reanalyzed_with_an_added_one(
    nine_trials, rerecorded, tmp_path, monkeypatch
):
    # one trial added and another's recording rewritten: their digests are
    # new, so those two are embedded and analyzed, and no other
    data_dir, _ = nine_trials
    edited, fresh, changed = rerecorded
    grown, out = tmp_path / "grown", tmp_path / "out"
    grown.mkdir()
    *first, last = discover_trials(data_dir)
    shutil.copy(data_dir / "labels.csv", grown)
    for t in first:
        shutil.copy(t.csv_path, grown)
        shutil.copy(t.schema_path, grown)
    run_pipeline(grown, out, CONFIG)
    for t in discover_trials(edited):
        if t.trial_id in (changed, last.trial_id):
            shutil.copy(t.csv_path, grown)
            shutil.copy(t.schema_path, grown)
    _, analyzed = _count_trial_work(monkeypatch)
    stage_features(grown, out, CONFIG)
    assert sorted(analyzed) == sorted([changed, last.trial_id])
    _assert_features_outputs_match(out, fresh, n_trials=9)


def _rescored(data_dir, dest, arousal):
    """A copy of ``data_dir`` with every arousal score s replaced by arousal(s)."""
    shutil.copytree(data_dir, dest)
    lines = (dest / "labels.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows = [[tid, valence, repr(arousal(float(score)))] for tid, valence, score in rows]
    (dest / "labels.csv").write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    return dest


def test_relabeled_trials_are_learned_from_again(nine_trials, tmp_path):
    # evaluation.json and the models are stamped with the classes they
    # learned from: after every arousal class changes, stage_train writes
    # what a fresh run on the new labels writes
    data_dir, out_dir = nine_trials
    relabeled = _rescored(data_dir, tmp_path / "relabeled", lambda s: 10.0 - s)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    shutil.copytree(out_dir, out)
    stage_train(relabeled, out, CONFIG)
    stage_train(relabeled, fresh, CONFIG)
    for name in ARTIFACTS[3:]:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    before = json.loads((out_dir / "evaluation.json").read_text())
    after = json.loads((out / "evaluation.json").read_text())
    assert after["results"]["arousal"] != before["results"]["arousal"]


def test_rescore_that_keeps_every_class_reuses_the_report(nine_trials, tmp_path, monkeypatch):
    data_dir, out_dir = nine_trials
    rescored = _rescored(data_dir, tmp_path / "rescored", lambda s: s + 0.5)
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    calls = _count_calls(monkeypatch, "cross_validate")
    stage_train(rescored, out, CONFIG)
    assert not calls, "evaluation.json learned from the same classes"
    assert _tree(out) == _tree(out_dir)


def test_pool_is_capped_at_the_trial_count(dataset, pipeline_out, tmp_path, monkeypatch):
    out_dir, _ = pipeline_out
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SerialPool)
    stage_embed_params(dataset, tmp_path, CONFIG, jobs=64)
    assert sizes == [len(trial_ids(dataset))]
    name = "embedding_params.json"
    assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()


def test_two_jobs_write_what_one_job_writes(dataset, pipeline_out, tmp_path):
    out_dir, _ = pipeline_out
    pooled = tmp_path / "pooled"
    run_pipeline(dataset, pooled, CONFIG, jobs=2)
    assert _tree(pooled) == _tree(out_dir)

    raw = tmp_path / "raw"
    stage_features(dataset, raw, CONFIG, jobs=2)
    for name in ("features.csv", "reachability.json"):
        assert (raw / name).read_bytes() == (out_dir / name).read_bytes(), name
