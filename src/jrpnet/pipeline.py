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

Stages compose: each one reads the upstream artifact when present and
recomputes it in memory when not, so running stages one by one writes
byte-for-byte what a single end-to-end run writes.  Every artifact
embeds the config and a schema version; writes are atomic (tmp file +
rename), so interrupted runs never leave partial artifacts behind.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import CONFIG_SCHEMA_VERSION, PipelineConfig
from .embedding import EmbeddingParams, embed, estimate_delay, estimate_dimension
from .errors import InputError, JrpnetError
from .ingest import (
    CONSTANT_EPS,
    Recording,
    load_labels,
    load_recording,
    segment_windows,
    zscore_channels,
)
from .learn import (
    CrossValResult,
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
    TemporalFeatures,
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


def _write_json(path: str, obj: dict) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, allow_nan=False, indent=2) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


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

    Channels that are constant over the trial come back as None and end
    up with absent weights everywhere.  The delay search range is capped
    so the dimension scan always keeps enough samples.
    """
    normalized = zscore_channels(recording)
    length = recording.duration_samples
    tau_cap = max(1, (length - 2) // config.m_max)
    tau_max = min(config.tau_max or max(2, length // 4), tau_cap)
    out: dict[str, ChannelEmbedding | None] = {}
    for name in recording.channel_names:
        x = normalized.channel(name)
        if np.ptp(x) < CONSTANT_EPS:
            out[name] = None
            continue
        tau = estimate_delay(x, tau_max=tau_max)
        dim = estimate_dimension(x, tau, m_max=config.m_max)
        params = EmbeddingParams(delay_tau=tau, dimension_m=dim.dimension)
        trajectory = embed(x, params, source_channel=name)
        epsilon = threshold_for_rate(trajectory, config.target_rr, config.norm)
        out[name] = ChannelEmbedding(
            params=params, epsilon=epsilon, saturated=dim.saturated
        )
    return out


def _embeddings_to_json(
    recording: Recording, embeddings: dict[str, ChannelEmbedding | None]
) -> dict:
    channels = {}
    for name in recording.channel_names:
        emb = embeddings[name]
        if emb is None:
            channels[name] = None
            continue
        channels[name] = {
            "tau": emb.params.delay_tau,
            "m": emb.params.dimension_m,
            "saturated": bool(emb.saturated),
            "epsilon": float(emb.epsilon),
        }
    return channels


def _embeddings_from_json(raw: dict) -> dict[str, ChannelEmbedding | None]:
    out: dict[str, ChannelEmbedding | None] = {}
    for name, entry in raw.items():
        if entry is None:
            out[name] = None
        else:
            out[name] = ChannelEmbedding(
                params=EmbeddingParams(delay_tau=int(entry["tau"]), dimension_m=int(entry["m"])),
                epsilon=float(entry["epsilon"]),
                saturated=bool(entry.get("saturated", False)),
            )
    return out


@dataclass(frozen=True)
class TrialAnalysis:
    """Everything one trial contributes to the artifact set."""

    trial_id: str
    nodes: tuple[str, ...]
    params_json: dict
    weighted_records: list[dict]
    networks: dict[str, TemporalNetwork]
    features: dict[str, TemporalFeatures]


def _trial_features(
    trial_id: str, networks: dict[str, TemporalNetwork], config: PipelineConfig
) -> dict[str, TemporalFeatures]:
    """Features per metric of one trial, each carrying its reachability report."""
    return {
        metric: feature_vector(
            tn,
            n_null=config.n_null,
            seed=derive_seed(config.seed, f"smallworld:{trial_id}:{metric}"),
        )
        for metric, tn in networks.items()
    }


def analyze_recording(
    recording: Recording,
    config: PipelineConfig,
    embeddings: dict[str, ChannelEmbedding | None] | None = None,
    with_features: bool = True,
) -> TrialAnalysis:
    """Run the per-trial part of the pipeline on one loaded recording."""
    if embeddings is None:
        embeddings = estimate_trial_embeddings(recording, config)
    modality_map = dict(zip(recording.channel_names, recording.modalities))
    windows = segment_windows(recording, config.window_s, config.overlap)

    weighted_records: list[dict] = []
    merged: dict[str, list] = {m: [] for m in config.metrics}
    for window in windows:
        graphs = channel_graphs(
            window,
            embeddings,
            metrics=config.metrics,
            l_min=config.l_min,
            v_min=config.v_min,
            norm=config.norm,
        )
        for metric in config.metrics:
            graph = merge_modalities(graphs[metric], modality_map)
            merged[metric].append(graph)
            weighted_records.append(weighted_record(graph))

    networks = {
        metric: assemble_temporal_network(merged[metric], rho=config.binarize_rho)
        for metric in config.metrics
    }
    features = _trial_features(recording.trial_id, networks, config) if with_features else {}

    nodes = networks[config.metrics[0]].nodes
    return TrialAnalysis(
        trial_id=recording.trial_id,
        nodes=nodes,
        params_json=_embeddings_to_json(recording, embeddings),
        weighted_records=weighted_records,
        networks=networks,
        features=features,
    )


def _trial_task(args: tuple) -> TrialAnalysis:
    paths, config_dict, want, params_json = args
    config = PipelineConfig.from_dict(config_dict)
    with _stage(want, paths.trial_id):
        recording = load_recording(paths.csv_path, paths.schema_path)
        embeddings = _embeddings_from_json(params_json) if params_json is not None else None
        if want == "embed-params":
            embeddings = embeddings or estimate_trial_embeddings(recording, config)
            return TrialAnalysis(
                trial_id=recording.trial_id,
                nodes=(),
                params_json=_embeddings_to_json(recording, embeddings),
                weighted_records=[],
                networks={},
                features={},
            )
        return analyze_recording(
            recording, config, embeddings, with_features=(want == "features")
        )


def _run_trials(
    trials: list[TrialPaths],
    config: PipelineConfig,
    want: str,
    params_by_trial: dict[str, dict] | None,
    jobs: int,
) -> list[TrialAnalysis]:
    tasks = [
        (
            t,
            config.to_dict(),
            want,
            params_by_trial.get(t.trial_id) if params_by_trial else None,
        )
        for t in trials
    ]
    if jobs <= 1 or len(tasks) <= 1:
        results = [_trial_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trial_task, tasks))
    return sorted(results, key=lambda r: r.trial_id)


# ---------------------------------------------------------------------------
# artifact readers


def _read_embedding_params(out_dir: str) -> dict[str, dict] | None:
    path = os.path.join(out_dir, "embedding_params.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["trials"]


def _read_binary_network(path: str) -> TemporalNetwork:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    header, records = lines[0], lines[1:]
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


def _load_networks(
    out_dir: str, trials: list[TrialPaths], config: PipelineConfig
) -> dict[str, dict[str, TemporalNetwork]] | None:
    """Binarized networks from disk, or None if any file is missing."""
    networks: dict[str, dict[str, TemporalNetwork]] = {}
    for t in trials:
        networks[t.trial_id] = {}
        for metric in config.metrics:
            path = os.path.join(out_dir, "networks", f"{t.trial_id}.{metric}.binary.jsonl")
            if not os.path.isfile(path):
                return None
            networks[t.trial_id][metric] = _read_binary_network(path)
    return networks


def read_features_csv(path: str) -> tuple[dict, list[str], list[dict]]:
    """Parse a features artifact: (config, feature column names, rows)."""
    if not os.path.isfile(path):
        raise InputError(f"features file {path} does not exist")
    config_raw: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body: list[str] = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            if key == "config":
                config_raw = json.loads(value)
            continue
        if line:
            body.append(line)
    header = body[0].split(",")
    if header[:2] != ["trial_id", "metric"]:
        raise InputError(f"features file {path} has unexpected columns {header[:2]}")
    columns = header[2:]
    rows = []
    for line in body[1:]:
        cells = line.split(",")
        rows.append(
            {
                "trial_id": cells[0],
                "metric": cells[1],
                "values": [float(c) for c in cells[2:]],
            }
        )
    return config_raw, columns, rows


def _feature_tables(
    path: str, labels_path: str, config: PipelineConfig
) -> dict[str, FeatureTable]:
    """Per-metric feature tables with discretized labels attached."""
    _, columns, rows = read_features_csv(path)
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
    return tables


# ---------------------------------------------------------------------------
# stages


def stage_embed_params(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Estimate and persist per-channel embedding parameters."""
    out_dir = os.fspath(out_dir)
    trials = discover_trials(data_dir)
    results = _run_trials(trials, config, "embed-params", None, jobs)
    artifact = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": config.to_dict(),
        "trials": {r.trial_id: r.params_json for r in results},
    }
    _write_json(os.path.join(out_dir, "embedding_params.json"), artifact)
    return artifact


def stage_analyze(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> None:
    """Write weighted graphs and binarized temporal networks per trial."""
    out_dir = os.fspath(out_dir)
    trials = discover_trials(data_dir)
    params = _read_embedding_params(out_dir)
    results = _run_trials(trials, config, "analyze", params, jobs)
    for r in results:
        header = {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "kind": "weighted_graphs",
            "config": config.to_dict(),
            "trial_id": r.trial_id,
        }
        lines = [_json_line(header)] + [_json_line(rec) for rec in r.weighted_records]
        _write_text(
            os.path.join(out_dir, "networks", f"{r.trial_id}.weighted.jsonl"),
            "\n".join(lines) + "\n",
        )
        for metric, tn in r.networks.items():
            header = {
                "schema_version": CONFIG_SCHEMA_VERSION,
                "kind": "temporal_network",
                "config": config.to_dict(),
                "trial_id": r.trial_id,
                "metric": metric,
                "nodes": list(tn.nodes),
                "binarize_rule": tn.binarize_rule,
            }
            lines = [_json_line(header)] + [
                _json_line(binary_record(tn, w)) for w in range(tn.n_layers)
            ]
            _write_text(
                os.path.join(out_dir, "networks", f"{r.trial_id}.{metric}.binary.jsonl"),
                "\n".join(lines) + "\n",
            )


def stage_features(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> str:
    """Write the feature CSV and the reachability audit report."""
    out_dir = os.fspath(out_dir)
    trials = discover_trials(data_dir)
    stored = _load_networks(out_dir, trials, config)
    if stored is not None:
        features = {tid: _trial_features(tid, stored[tid], config) for tid in sorted(stored)}
        nodes_by_trial = {
            tid: stored[tid][config.metrics[0]].nodes for tid in stored
        }
    else:
        results = _run_trials(trials, config, "features", _read_embedding_params(out_dir), jobs)
        features = {r.trial_id: r.features for r in results}
        nodes_by_trial = {r.trial_id: r.nodes for r in results}

    trial_ids = sorted(features)
    nodes = nodes_by_trial[trial_ids[0]]
    for tid in trial_ids:
        if nodes_by_trial[tid] != nodes:
            raise InputError(
                f"trial {tid} has modality nodes {nodes_by_trial[tid]}, "
                f"expected {nodes} as in trial {trial_ids[0]}"
            )

    names = features[trial_ids[0]][config.metrics[0]].names(nodes)
    lines = [
        f"# schema_version={FEATURE_SCHEMA_VERSION}",
        f"# config={_json_line(config.to_dict())}",
        ",".join(["trial_id", "metric"] + names),
    ]
    for tid in trial_ids:
        for metric in config.metrics:
            values = features[tid][metric].values()
            lines.append(",".join([tid, metric] + [_fmt(v) for v in values]))
    path = os.path.join(out_dir, "features.csv")
    _write_text(path, "\n".join(lines) + "\n")

    reach = {tid: {m: f.reachability for m, f in features[tid].items()} for tid in trial_ids}
    report = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": config.to_dict(),
        "trials": {
            tid: {
                metric: {
                    "nodes": list(rep.nodes),
                    "latency": [
                        [None if np.isinf(v) else int(v) for v in row]
                        for row in rep.latency
                    ],
                    "fastest_path_counts": [
                        [int(v) for v in row] for row in rep.fastest_path_counts
                    ],
                    "strong_pairs": sorted(map(list, rep.strong_pairs)),
                    "weak_pairs": sorted(map(list, rep.weak_pairs)),
                }
                for metric, rep in reach[tid].items()
            }
            for tid in trial_ids
        },
    }
    _write_json(os.path.join(out_dir, "reachability.json"), report)
    return path


def _cv_for(
    tables: dict[str, FeatureTable], config: PipelineConfig, target: str, metric: str
) -> CrossValResult:
    table = tables[metric]
    grid = lambda_grid(table, target, points=config.lambda_points, span=config.lambda_span)
    seed = derive_seed(config.seed, f"cv:{target}:{metric}")
    return cross_validate(table, target, lambdas=grid, k=config.k_folds, seed=seed)


def stage_evaluate(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Cross-validate every (target, metric) pair and write the report."""
    out_dir = os.fspath(out_dir)
    features_path = os.path.join(out_dir, "features.csv")
    if not os.path.isfile(features_path):
        stage_features(data_dir, out_dir, config, jobs)
    with _stage("evaluate"):
        tables = _feature_tables(features_path, os.path.join(os.fspath(data_dir), "labels.csv"), config)
        results: dict[str, dict[str, dict]] = {}
        for target in TARGETS:
            results[target] = {}
            for metric in config.metrics:
                cv = _cv_for(tables, config, target, metric)
                results[target][metric] = {
                    "accuracy": cv.accuracy,
                    "confusion": [[int(v) for v in row] for row in cv.confusion],
                    "selected_lambda": cv.selected_lambda,
                    "fold_accuracies": list(cv.fold_accuracies),
                    "lambda_grid": list(cv.lambda_grid),
                    "mean_accuracy_per_lambda": list(cv.mean_accuracy_per_lambda),
                    "n_trials": len(tables[metric].trial_ids),
                }
    report = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": config.to_dict(),
        "results": results,
    }
    _write_json(os.path.join(out_dir, "evaluation.json"), report)
    return report


def stage_train(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    targets: tuple[str, ...] = TARGETS,
    jobs: int = 1,
) -> list[str]:
    """Fit final models at the cross-validated lambda and write them."""
    out_dir = os.fspath(out_dir)
    features_path = os.path.join(out_dir, "features.csv")
    if not os.path.isfile(features_path):
        stage_features(data_dir, out_dir, config, jobs)
    eval_path = os.path.join(out_dir, "evaluation.json")
    selected: dict[tuple[str, str], float] = {}
    if os.path.isfile(eval_path):
        with open(eval_path, encoding="utf-8") as fh:
            report = json.load(fh)
        for target, per_metric in report.get("results", {}).items():
            for metric, entry in per_metric.items():
                selected[(target, metric)] = float(entry["selected_lambda"])

    written = []
    with _stage("train"):
        tables = _feature_tables(features_path, os.path.join(os.fspath(data_dir), "labels.csv"), config)
        for target in targets:
            if target not in TARGETS:
                raise InputError(f"unknown target {target!r}; choose from {TARGETS}")
            for metric in config.metrics:
                lam = selected.get((target, metric))
                if lam is None:
                    lam = _cv_for(tables, config, target, metric).selected_lambda
                model = fit_lasso(tables[metric], target, lam)
                artifact = {
                    "schema_version": CONFIG_SCHEMA_VERSION,
                    "config": config.to_dict(),
                    "target": target,
                    "metric": metric,
                    "model": model_to_dict(model),
                }
                path = os.path.join(out_dir, f"model_{target}_{metric}.json")
                _write_json(path, artifact)
                written.append(path)
    return written


def run_pipeline(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """All stages in order; returns the evaluation report."""
    stage_embed_params(data_dir, out_dir, config, jobs)
    stage_analyze(data_dir, out_dir, config, jobs)
    stage_features(data_dir, out_dir, config, jobs)
    report = stage_evaluate(data_dir, out_dir, config, jobs)
    stage_train(data_dir, out_dir, config, TARGETS, jobs)
    return report
