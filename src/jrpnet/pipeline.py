"""Directory-level pipeline stages.

A data directory holds one CSV + JSON-sidecar pair per trial plus a
``labels.csv``; an output directory accumulates the artifacts:

- ``embedding_params.json``: per-channel delay, dimension, threshold
- ``networks/<trial>.weighted.jsonl``: merged modality graphs per window
- ``networks/<trial>.<metric>.binary.jsonl``: binarized temporal network
- ``features.csv``: one row per (trial, weight metric)
- ``reachability.json``: latency / fastest-path audit per trial
- ``model_<target>_<metric>.json``: final fitted models
- ``evaluation.json``: cross-validation report

Every artifact carries a stamp of what it depends on: the config fields
of its stage and of every earlier stage (``config.STAGE_FIELDS``), the
schema version, and a map from each trial it covers to the sha256 of
that trial's CSV and sidecar bytes.  The evaluation report and the
models also carry a digest of every trial's discretized class per
target, so relabeling a trial makes them stale while a rescore that
keeps every class does not.

One rule decides reuse: a piece is current when its stamp equals the
stamp its stage would write now.  Each stage runs the stage before it,
returns its own artifact if that is current, and otherwise computes and
writes it; so each check sits in the stage that writes the artifact,
and a command first brings every earlier stage up to date.  The
per-trial pieces are a trial's network files and its entry in
``embedding_params.json`` (current when the slice of the file's stamp
for that trial is, and the entry is a channel map).  ``features.csv`` with
``reachability.json``, ``evaluation.json`` and each model are current
or stale as a whole; so is a ``features.csv`` whose rows are not one per
stamped trial and metric.  An unchanged rerun computes and writes
nothing, and running stages one by one writes what one run writes.
Writes are atomic (tmp file + rename), so interrupted runs never leave
partial artifacts behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import CONFIG_SCHEMA_VERSION, STAGE_FIELDS, PipelineConfig
from .embedding import EmbeddingParams, embed, estimate_delay, estimate_dimension
from .errors import DegenerateInputError, InputError, JrpnetError
from .ingest import (
    Recording,
    load_labels,
    load_recording,
    segment_windows,
    window_geometry,
    zscore_channels,
)
from .learn import (
    FeatureTable,
    cross_validate,
    discretize_score,
    fit_lasso,
    lambda_grid,
    model_to_dict,
)
from .netbuild import (
    ChannelEmbedding,
    TemporalNetwork,
    assemble_temporal_network,
    binary_record,
    channel_graphs,
    merge_modalities,
    weighted_record,
)
from .recurrence import threshold_for_rate
from .seeding import derive_seed
from .tempnet import (
    FEATURE_SCHEMA_VERSION,
    ReachabilityReport,
    feature_vector,
    reachability_and_latency,  # noqa: F401  (bound here for perfbench/tracing.py)
)

__all__ = [
    "TrialPaths",
    "discover_trials",
    "estimate_trial_embeddings",
    "analyze_recording",
    "stage_embed_params",
    "stage_analyze",
    "stage_features",
    "stage_train",
    "stage_evaluate",
    "run_pipeline",
    "TARGETS",
]

TARGETS = ("valence", "arousal")


@dataclass(frozen=True)
class TrialPaths:
    trial_id: str
    csv_path: str
    schema_path: str


# ---------------------------------------------------------------------------
# plumbing


@contextmanager
def _stage(stage: str, trial: str | None = None):
    """Re-raise package errors with stage and trial context."""
    try:
        yield
    except JrpnetError as exc:
        where = f"stage {stage}" + (f", trial {trial}" if trial else "")
        raise type(exc)(f"{where}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))


def _write_jsonl(path: str, header: dict, records: list[dict]) -> None:
    _write_text(path, "".join(_json_line(obj) + "\n" for obj in [header, *records]))


def _write_json(path: str, obj: dict) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, allow_nan=False, indent=2) + "\n")


def discover_trials(data_dir: str | os.PathLike) -> list[TrialPaths]:
    """All (CSV, sidecar) recording pairs in a directory, sorted by id."""
    data_dir = os.fspath(data_dir)
    if not os.path.isdir(data_dir):
        raise InputError(f"data directory {data_dir} does not exist")
    trials = []
    for name in sorted(os.listdir(data_dir)):
        if not name.endswith(".csv") or name == "labels.csv":
            continue
        trial_id = name[: -len(".csv")]
        schema = os.path.join(data_dir, f"{trial_id}.schema.json")
        if not os.path.isfile(schema):
            raise InputError(f"recording {name} has no sidecar schema {schema}")
        trials.append(TrialPaths(trial_id, os.path.join(data_dir, name), schema))
    if not trials:
        raise InputError(f"no recordings found in {data_dir}")
    return trials


# ---------------------------------------------------------------------------
# per-trial computation


def estimate_trial_embeddings(
    recording: Recording, config: PipelineConfig
) -> dict[str, ChannelEmbedding | None]:
    """Per-channel embedding params and recurrence threshold for one trial.

    A channel whose delay, dimension or threshold estimate is degenerate
    (a constant channel, one with too many coincident states) comes back
    as None and ends up with absent weights everywhere; a trial with no
    channel left raises.  The delay search range is capped so the
    dimension scan always keeps enough samples.
    """
    normalized = zscore_channels(recording)
    length = recording.duration_samples
    tau_cap = max(1, (length - 2) // config.m_max)
    tau_max = min(config.tau_max or max(2, length // 4), tau_cap)
    out: dict[str, ChannelEmbedding | None] = {}
    reasons: dict[str, str] = {}
    for name in recording.channel_names:
        x = normalized.channel(name)
        try:
            tau = estimate_delay(x, tau_max=tau_max)
            dim = estimate_dimension(x, tau, m_max=config.m_max)
            params = EmbeddingParams(delay_tau=tau, dimension_m=dim.dimension)
            epsilon = threshold_for_rate(embed(x, params), config.target_rr, config.norm)
        except DegenerateInputError as exc:
            out[name], reasons[name] = None, str(exc)
            continue
        out[name] = ChannelEmbedding(
            params=params, epsilon=epsilon, saturated=dim.saturated
        )
    if len(reasons) == len(out):
        raise DegenerateInputError(
            "no channel can be embedded: "
            + "; ".join(f"{name}: {why}" for name, why in reasons.items())
        )
    return out


def _embeddings_to_json(embeddings: dict[str, ChannelEmbedding | None]) -> dict:
    return {
        name: None if emb is None else {
            "tau": emb.params.delay_tau,
            "m": emb.params.dimension_m,
            "saturated": bool(emb.saturated),
            "epsilon": float(emb.epsilon),
        }
        for name, emb in embeddings.items()
    }


def _embeddings_from_json(raw: dict) -> dict[str, ChannelEmbedding | None]:
    return {
        name: None if entry is None else ChannelEmbedding(
            params=EmbeddingParams(delay_tau=int(entry["tau"]), dimension_m=int(entry["m"])),
            epsilon=float(entry["epsilon"]),
            saturated=bool(entry["saturated"]),
        )
        for name, entry in raw.items()
    }


@dataclass(frozen=True)
class TrialAnalysis:
    """Weighted graphs and binarized temporal networks of one trial."""

    weighted_records: list[dict]
    networks: dict[str, TemporalNetwork]


def analyze_recording(
    recording: Recording,
    config: PipelineConfig,
    embeddings: dict[str, ChannelEmbedding | None],
) -> TrialAnalysis:
    """Coupling graphs per window and temporal networks of one recording."""
    modality_map = dict(zip(recording.channel_names, recording.modalities))
    windows = segment_windows(recording, config.window_s, config.overlap)
    per_window = channel_graphs(
        windows,
        embeddings,
        metrics=config.metrics,
        l_min=config.l_min,
        v_min=config.v_min,
        norm=config.norm,
    )

    weighted_records: list[dict] = []
    merged: dict[str, list] = {m: [] for m in config.metrics}
    for graphs in per_window:
        for metric in config.metrics:
            graph = merge_modalities(graphs[metric], modality_map)
            merged[metric].append(graph)
            weighted_records.append(weighted_record(graph))

    networks = {
        metric: assemble_temporal_network(merged[metric], rho=config.binarize_rho)
        for metric in config.metrics
    }
    return TrialAnalysis(weighted_records=weighted_records, networks=networks)


# Per-trial tasks: (recording, config, stored embeddings or None) -> result.
# analyze_recording is the analyze task.  Tasks look up the names a tracer
# may rebind, such as estimate_trial_embeddings, at call time.


def _embed_task(recording: Recording, config: PipelineConfig, embeddings) -> dict:
    # the window must fit before any estimate is worth making
    window_geometry(recording, config.window_s, config.overlap)
    return _embeddings_to_json(estimate_trial_embeddings(recording, config))


def _trial_call(args: tuple):
    stage, task, paths, config_dict, stored_params = args
    with _stage(stage, paths.trial_id):
        recording = load_recording(paths.csv_path, paths.schema_path)
        embeddings = None if stored_params is None else _embeddings_from_json(stored_params)
        return task(recording, PipelineConfig.from_dict(config_dict), embeddings)


def _run_trials(
    stage: str,
    task,
    trials: list[TrialPaths],
    config: PipelineConfig,
    jobs: int,
    params_by_trial: dict[str, dict] | None = None,
) -> dict:
    """``task`` over every trial, in up to ``jobs`` processes, keyed by trial id."""
    tasks = [
        (stage, task, t, config.to_dict(), (params_by_trial or {}).get(t.trial_id))
        for t in trials
    ]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [_trial_call(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_call, tasks))
    return {t.trial_id: result for t, result in zip(trials, results)}


# ---------------------------------------------------------------------------
# artifacts


def _trial_digests(trials: list[TrialPaths]) -> dict[str, str]:
    """sha256 of each trial's length-prefixed CSV and sidecar bytes, by trial id."""
    digests = {}
    for t in trials:
        h = hashlib.sha256()
        for path in (t.csv_path, t.schema_path):
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(len(data).to_bytes(8, "big") + data)
        digests[t.trial_id] = h.hexdigest()
    return digests


def _stamp(stage: str, config: PipelineConfig, digests: dict, classes: str | None = None) -> dict:
    """What an artifact of ``stage`` over the trials in :func:`_trial_digests`
    ``digests`` depends on.

    A learned artifact also depends on the labels it learned from, given
    as the :func:`_class_digest` ``classes``.
    """
    stages = list(STAGE_FIELDS)
    names = [k for s in stages[: stages.index(stage) + 1] for k in STAGE_FIELDS[s]]
    values = config.to_dict()
    stamp = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": {k: values[k] for k in names},
        "trials": dict(digests),
    }
    if classes is not None:
        stamp["classes"] = classes
    return stamp


def _is_current(stamp, stage: str, config: PipelineConfig, digests: dict, classes=None) -> bool:
    """The one staleness rule: a stored stamp must equal the one ``stage`` writes now."""
    return stamp == _stamp(stage, config, digests, classes)


def _artifact(stage: str, config: PipelineConfig, digests: dict, classes=None, **fields) -> dict:
    """The envelope of every JSON artifact and network-file header."""
    return {"stamp": _stamp(stage, config, digests, classes), **fields}


def _read_json(path: str) -> dict | None:
    """A JSON artifact as stored, or None if it is missing or unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            artifact = json.load(fh)
    except (OSError, ValueError):  # missing or unparseable
        return None
    return artifact if isinstance(artifact, dict) else None


def _read_artifact(
    path: str, stage: str, config: PipelineConfig, digests: dict, classes=None
) -> dict | None:
    """A JSON artifact, or None if it is missing, unreadable or stale."""
    artifact = _read_json(path) or {}
    return artifact if _is_current(artifact.get("stamp"), stage, config, digests, classes) else None


def _network_paths(out_dir: str, trial_id: str, config: PipelineConfig) -> dict[str, str]:
    """A trial's network files: weighted graphs, and binarized per metric."""
    kinds = {"weighted": "weighted", **{m: f"{m}.binary" for m in config.metrics}}
    return {k: os.path.join(out_dir, "networks", f"{trial_id}.{v}.jsonl") for k, v in kinds.items()}


def _read_jsonl(path: str, stamp: dict) -> list | None:
    """A network file's header and records, or None if it is missing,
    unreadable or stamped other than ``stamp``."""
    try:
        with open(path, encoding="utf-8") as fh:
            header, *records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError):  # missing, unparseable, or no header line
        return None
    if not isinstance(header, dict) or header.get("stamp") != stamp:
        return None
    return [header, *records]


def _binary_network(header: dict, *records: dict) -> TemporalNetwork:
    nodes = tuple(header["nodes"])
    n = len(nodes)
    layers = np.zeros((len(records), n, n), dtype=bool)
    for rec in records:
        t = rec["window"]
        for i, j in rec["edges"]:
            layers[t, i, j] = layers[t, j, i] = True
    return TemporalNetwork(
        nodes=nodes,
        layers=layers,
        binarize_rule=dict(header["binarize_rule"]),
        metric=header["metric"],
    )


def _read_networks(
    out_dir: str, trial_id: str, config: PipelineConfig, digest: str
) -> dict[str, TemporalNetwork] | None:
    """A trial's binarized networks from disk, or None if one of its
    network files is missing, unreadable or stale."""
    stamp = _stamp("analyze", config, {trial_id: digest})
    paths = _network_paths(out_dir, trial_id, config)
    files = {kind: _read_jsonl(path, stamp) for kind, path in paths.items()}
    if any(lines is None for lines in files.values()):
        return None
    return {m: _binary_network(*files[m]) for m in config.metrics}


def read_features_csv(path: str) -> tuple[dict, list[str], list[dict]]:
    """Parse a features artifact: (stamp, feature column names, rows)."""
    if not os.path.isfile(path):
        raise InputError(f"features file {path} does not exist")
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    stamps = [line.partition("=")[2] for line in lines if line.startswith("# stamp=")]
    body = [line.split(",") for line in lines if not line.startswith("# ")]
    header = body[0] if body else []
    if header[:2] != ["trial_id", "metric"]:
        raise InputError(f"features file {path} has unexpected columns {header[:2]}")
    rows = [
        {"trial_id": cells[0], "metric": cells[1], "values": [float(c) for c in cells[2:]]}
        for cells in body[1:]
    ]
    if any(len(r["values"]) != len(header) - 2 for r in rows):
        raise InputError(f"features file {path} has rows of the wrong length")
    return (json.loads(stamps[0]) if stamps else {}), header[2:], rows


def _reachability_json(rep: ReachabilityReport) -> dict:
    return {
        "nodes": list(rep.nodes),
        "latency": [[None if np.isinf(v) else int(v) for v in row] for row in rep.latency],
        "fastest_path_counts": [[int(v) for v in row] for row in rep.fastest_path_counts],
        "strong_pairs": sorted(map(list, rep.strong_pairs)),
        "weak_pairs": sorted(map(list, rep.weak_pairs)),
    }


def _class_digest(table: FeatureTable) -> str:
    """sha256 of every trial's discretized class per target."""
    classes = {target: dict(zip(table.trial_ids, table.labels[target])) for target in TARGETS}
    return hashlib.sha256(_json_line(classes).encode()).hexdigest()


def _features_current(path: str, config: PipelineConfig, digests: dict) -> bool:
    """Whether ``features.csv`` is current and holds the rows
    ``stage_features`` writes: one per stamped trial and configured
    metric, in that order."""
    try:
        stamp, _, rows = read_features_csv(path)
    except (InputError, ValueError):  # missing or unreadable
        return False
    keys = [(tid, metric) for tid in sorted(digests) for metric in config.metrics]
    return _is_current(stamp, "features", config, digests) and [
        (r["trial_id"], r["metric"]) for r in rows
    ] == keys


def _labeled_tables(
    data_dir: str, out_dir: str, config: PipelineConfig
) -> tuple[dict[str, FeatureTable], dict[str, str]]:
    """Per-metric feature tables from the current ``features.csv`` with
    discretized labels attached, and the trial digests of its stamp."""
    stamp, columns, rows = read_features_csv(os.path.join(out_dir, "features.csv"))
    labels_path = os.path.join(os.fspath(data_dir), "labels.csv")
    with _stage("evaluate"):
        if not os.path.isfile(labels_path):
            raise InputError(f"labels file {labels_path} does not exist")
        labels = {rec.trial_id: rec for rec in load_labels(labels_path)}

        tables: dict[str, FeatureTable] = {}
        for metric in config.metrics:
            subset = [r for r in rows if r["metric"] == metric]
            missing = [r["trial_id"] for r in subset if r["trial_id"] not in labels]
            if missing:
                raise InputError(f"trials without labels: {missing}")
            classes = {
                target: tuple(
                    discretize_score(getattr(labels[r["trial_id"]], target)) for r in subset
                )
                for target in TARGETS
            }
            tables[metric] = FeatureTable(
                trial_ids=tuple(r["trial_id"] for r in subset),
                columns=tuple(columns),
                X=np.array([r["values"] for r in subset], dtype=float),
                labels=classes,
            )
    return tables, stamp["trials"]


def _current_entry(stored: dict, trial_id: str, config: PipelineConfig, digest: str):
    """A trial's entry in a stored ``embedding_params.json``, or None if
    the slice of the file's stamp for that trial is stale or the entry is
    not a map of channel embeddings."""
    try:
        stamp = {**stored["stamp"], "trials": {trial_id: stored["stamp"]["trials"][trial_id]}}
        entry = stored["trials"][trial_id]
        _embeddings_from_json(entry)
    except (AttributeError, KeyError, TypeError, ValueError):  # no such slice or entry
        return None
    return entry if _is_current(stamp, "embed-params", config, {trial_id: digest}) else None


# ---------------------------------------------------------------------------
# stages


def stage_embed_params(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Estimate and persist per-channel embedding parameters of every
    trial whose entry is not current; current entries are kept, and an
    unchanged file is not rewritten."""
    trials = discover_trials(data_dir)
    digests = _trial_digests(trials)
    path = os.path.join(os.fspath(out_dir), "embedding_params.json")
    stored = _read_json(path) or {}
    params = {tid: _current_entry(stored, tid, config, d) for tid, d in digests.items()}
    todo = [t for t in trials if params[t.trial_id] is None]
    params.update(_run_trials("embed-params", _embed_task, todo, config, jobs))
    artifact = _artifact("embed-params", config, digests, trials=params)
    if artifact != stored:
        _write_json(path, artifact)
    return artifact


def stage_analyze(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict[str, dict[str, TemporalNetwork]]:
    """Binarized temporal networks of every trial, by trial id and metric.

    Only the trials whose network files are not current are analyzed and
    their files written; the others are read back from their files.
    """
    out_dir = os.fspath(out_dir)
    embedded = stage_embed_params(data_dir, out_dir, config, jobs)
    digests = embedded["stamp"]["trials"]
    networks = {tid: _read_networks(out_dir, tid, config, d) for tid, d in digests.items()}
    todo = [t for t in discover_trials(data_dir) if networks[t.trial_id] is None]
    results = _run_trials("analyze", analyze_recording, todo, config, jobs, embedded["trials"])
    for tid, r in results.items():
        paths = _network_paths(out_dir, tid, config)
        envelope = _artifact("analyze", config, {tid: digests[tid]}, trial_id=tid)
        _write_jsonl(paths["weighted"], {**envelope, "kind": "weighted_graphs"}, r.weighted_records)
        for metric, tn in r.networks.items():
            header = {**envelope, "kind": "temporal_network", "metric": metric}
            header.update(nodes=list(tn.nodes), binarize_rule=tn.binarize_rule)
            _write_jsonl(paths[metric], header, [binary_record(tn, w) for w in range(tn.n_layers)])
        networks[tid] = r.networks
    return networks


def stage_features(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> str:
    """Write the feature CSV and the reachability audit report, unless
    both are current."""
    out_dir = os.fspath(out_dir)
    networks = stage_analyze(data_dir, out_dir, config, jobs)
    digests = _read_json(os.path.join(out_dir, "embedding_params.json"))["stamp"]["trials"]
    path = os.path.join(out_dir, "features.csv")
    reach_path = os.path.join(out_dir, "reachability.json")
    if _features_current(path, config, digests) and _read_artifact(
        reach_path, "features", config, digests
    ):
        return path
    trial_ids = sorted(networks)
    first = config.metrics[0]
    nodes = networks[trial_ids[0]][first].nodes
    for tid in trial_ids:
        if networks[tid][first].nodes != nodes:
            raise InputError(
                f"trial {tid} has modality nodes {networks[tid][first].nodes}, "
                f"expected {nodes} as in trial {trial_ids[0]}"
            )
    # Serial on purpose: temporal features are cheap next to the resident
    # memory a worker pool would add to the run.
    features = {
        tid: {
            metric: feature_vector(
                tn,
                n_null=config.n_null,
                seed=derive_seed(config.seed, f"smallworld:{tid}:{metric}"),
            )
            for metric, tn in networks[tid].items()
        }
        for tid in trial_ids
    }

    names = features[trial_ids[0]][first].names(nodes)
    lines = [
        f"# schema_version={FEATURE_SCHEMA_VERSION}",
        f"# stamp={_json_line(_stamp('features', config, digests))}",
        ",".join(["trial_id", "metric"] + names),
    ]
    for tid in trial_ids:
        for metric in config.metrics:
            values = features[tid][metric].values()
            lines.append(",".join([tid, metric] + [repr(float(v)) for v in values]))
    _write_text(path, "\n".join(lines) + "\n")

    reach = {
        tid: {metric: _reachability_json(f.reachability) for metric, f in features[tid].items()}
        for tid in trial_ids
    }
    _write_json(reach_path, _artifact("features", config, digests, trials=reach))
    return path


def stage_evaluate(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Cross-validate every (target, metric) pair and write the report,
    unless it is current."""
    out_dir = os.fspath(out_dir)
    stage_features(data_dir, out_dir, config, jobs)
    tables, digests = _labeled_tables(data_dir, out_dir, config)
    classes = _class_digest(tables[config.metrics[0]])
    path = os.path.join(out_dir, "evaluation.json")
    report = _read_artifact(path, "evaluate", config, digests, classes)
    if report is not None:
        return report
    results: dict[str, dict[str, dict]] = {}
    with _stage("evaluate"):
        for target in TARGETS:
            results[target] = {}
            for metric in config.metrics:
                table = tables[metric]
                grid = lambda_grid(
                    table, target, points=config.lambda_points, span=config.lambda_span
                )
                seed = derive_seed(config.seed, f"cv:{target}:{metric}")
                cv = cross_validate(table, target, lambdas=grid, k=config.k_folds, seed=seed)
                results[target][metric] = {
                    "accuracy": cv.accuracy,
                    "confusion": [[int(v) for v in row] for row in cv.confusion],
                    "selected_lambda": cv.selected_lambda,
                    "fold_accuracies": list(cv.fold_accuracies),
                    "lambda_grid": list(cv.lambda_grid),
                    "mean_accuracy_per_lambda": list(cv.mean_accuracy_per_lambda),
                    "n_trials": len(table.trial_ids),
                }
    report = _artifact("evaluate", config, digests, classes, results=results)
    _write_json(path, report)
    return report


def stage_train(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    targets: tuple[str, ...] = TARGETS,
    jobs: int = 1,
) -> list[str]:
    """Fit final models at the cross-validated lambda and write those
    that are not current."""
    with _stage("train"):
        for target in targets:
            if target not in TARGETS:
                raise InputError(f"unknown target {target!r}; choose from {TARGETS}")
    out_dir = os.fspath(out_dir)
    report = stage_evaluate(data_dir, out_dir, config, jobs)
    tables, digests = _labeled_tables(data_dir, out_dir, config)
    classes = _class_digest(tables[config.metrics[0]])

    written = []
    with _stage("train"):
        for target in targets:
            for metric in config.metrics:
                path = os.path.join(out_dir, f"model_{target}_{metric}.json")
                stored = _read_artifact(path, "train", config, digests, classes) or {}
                if (stored.get("target"), stored.get("metric")) != (target, metric):
                    lam = float(report["results"][target][metric]["selected_lambda"])
                    model = model_to_dict(fit_lasso(tables[metric], target, lam))
                    artifact = _artifact(
                        "train", config, digests, classes, target=target, metric=metric, model=model
                    )
                    _write_json(path, artifact)
                written.append(path)
    return written


def run_pipeline(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Every stage, through the last one's chain; returns the evaluation report."""
    stage_train(data_dir, out_dir, config, TARGETS, jobs)
    return _read_json(os.path.join(os.fspath(out_dir), "evaluation.json"))
