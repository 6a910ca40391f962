"""Directory-level pipeline stages.

A data directory holds one CSV + JSON-sidecar pair per trial plus a
``labels.csv``; an output directory accumulates the artifacts:

- ``embedding_params.json``: per-channel delay, dimension, threshold
- ``networks/<trial>.weighted.jsonl``: cross-modality weights per window
- ``networks/<trial>.<metric>.binary.jsonl``: binarized temporal network
- ``features.csv``: one row per (trial, weight metric)
- ``reachability.json``: latency / fastest-path audit per trial
- ``model_<target>_<metric>.json``: final fitted models
- ``evaluation.json``: cross-validation report

Every artifact carries an envelope: a stamp of what it depends on (the
config fields of its stage and of every earlier stage, as in
``config.STAGE_FIELDS``, the schema version, and a map from each trial
it covers to the sha256 of that trial's CSV and sidecar bytes), and the
fields that name it (trial, kind, metric, target).  The stamps of the
evaluation report and the models also carry a digest of every trial's
discretized class per target, so relabeling a trial makes them stale
while a rescore that keeps every class does not.  Every artifact is
also sealed with the sha256 of its content: a ``digest`` field over the
rest of a JSON artifact as one canonical line, and in the header line
of a network file and of ``features.csv`` (after a ``# ``) over the
header without it as one canonical line and every line after it.

One rule decides reuse: a stored artifact is current when it holds every
field of the envelope its stage would write now and its content hashes
to its digest.  A file that does not parse or does not hash is stale,
never an error.  Each stage checks the inputs that only it reads
(``features`` compares the trials' modality nodes in their sidecars,
``evaluate`` loads ``labels.csv`` and checks that each target's classes
can support the configured cross-validation), runs the stage before it,
returns its own artifact if that is current, and otherwise computes and
writes it; so trials with different modality nodes and a missing,
malformed or too thinly labeled labels file fail before any trial is
embedded, and a command first brings every earlier stage up to date.  A
command lists and hashes its trials once, when it starts, and every
stage it runs covers that one trial set: a trial added or removed during
a command belongs to the next command (a removed trial whose files the
command still has to read stops it with an input error).  The per-trial
pieces are a trial's network files, current only all together, and its
entry in ``embedding_params.json``, current when the slice of the file's
stamp for that trial is.  ``features.csv`` with ``reachability.json``,
``evaluation.json`` and each model are current or stale as a whole.
Networks reach the features stage only through their files: a freshly
analyzed trial is read back as a reused one is.  The network files of a
trial no longer in the data directory are deleted.  ``evaluate`` takes
its tables from the ``features.csv`` lines the features stage verified
or wrote, and ``train`` refits from them.  An unchanged rerun computes
and writes nothing, and running stages one by one writes what one run
writes.  Writes are atomic (tmp file + rename), so interrupted runs
never leave partial artifacts behind; a failed write removes its tmp
file, and a command removes the tmp files a killed one left.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .config import CONFIG_SCHEMA_VERSION, STAGE_FIELDS, PipelineConfig
from .embedding import EmbeddingParams, embed, estimate_delay, estimate_dimension
from .errors import DegenerateInputError, InputError, JrpnetError
from .ingest import (
    Recording,
    load_labels,
    load_recording,
    load_schema,
    segment_windows,
    window_geometry,
    zscore_channels,
)
from .learn import (
    FeatureTable,
    _label_codes,
    cross_validate,
    discretize_score,
    fit_lasso,
    lambda_grid,
    model_to_dict,
)
from .netbuild import (
    METRICS,
    ChannelEmbedding,
    TemporalNetwork,
    assemble_temporal_network,
    channel_graphs,
    merge_modalities,
)
from .recurrence import threshold_for_rate
from .seeding import derive_seed
from .tempnet import (
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
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:  # a failed write leaves no tmp file behind
        if os.path.exists(tmp):
            os.remove(tmp)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_sealed(path: str, header: dict, lines: list[str], mark: str = "") -> None:
    """``mark``, then ``header`` as one JSON line sealed with the digest of
    the file as it reads without the mark and the digest, then ``lines``."""
    body = "".join("\n" + line for line in lines) + "\n"
    sealed = {**header, "digest": _sha256(_json_line(header) + body)}
    _write_text(path, mark + _json_line(sealed) + body)


def _write_json(path: str, obj: dict) -> None:
    sealed = {**obj, "digest": _sha256(_json_line(obj))}
    _write_text(path, json.dumps(sealed, sort_keys=True, allow_nan=False, indent=2) + "\n")


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


def analyze_recording(
    recording: Recording,
    config: PipelineConfig,
    embeddings: dict[str, ChannelEmbedding | None],
) -> dict[str, tuple[dict, list[dict]]]:
    """The network files of one recording by kind: header fields and records.

    Kind ``"weighted"`` holds the merged coupling graphs per window, and
    each metric's kind its binarized temporal network.  The analyze stage
    writes these files and reads the networks back from them, so networks
    reach the features stage only through their files.
    """
    windows = segment_windows(recording, config.window_s, config.overlap)
    channel_weights = channel_graphs(
        windows, embeddings, recording.modalities, config.l_min, config.v_min, config.norm
    )
    merged = {}
    for metric, weights in channel_weights.items():
        nodes, merged[metric] = merge_modalities(weights, recording.modalities)

    files = {"weighted": ({"nodes": list(nodes)}, _weighted_records(merged))}
    for metric, weights in merged.items():
        tn = assemble_temporal_network(weights, nodes, metric, rho=config.binarize_rho)
        fields = {"nodes": list(tn.nodes), "binarize_rule": tn.binarize_rule}
        files[metric] = (fields, [_binary_record(tn, w) for w in range(tn.n_layers)])
    return files


# Per-trial tasks: (recording, config, stored embeddings or None) -> result.
# analyze_recording is the analyze task.  Tasks look up the names a tracer
# may rebind, such as estimate_trial_embeddings, at call time.


def _embed_task(recording: Recording, config: PipelineConfig, embeddings) -> dict:
    # the window must fit before any estimate is worth making
    window_geometry(recording, config.window_s, config.overlap)
    return _embeddings_to_json(estimate_trial_embeddings(recording, config))


def _trial_call(args: tuple):
    stage, task, paths, config, stored_params = args
    with _stage(stage, paths.trial_id):
        recording = load_recording(paths.csv_path, paths.schema_path)
        embeddings = None if stored_params is None else _embeddings_from_json(stored_params)
        return task(recording, config, embeddings)


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
        (stage, task, t, config, (params_by_trial or {}).get(t.trial_id))
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


@dataclass
class _Run:
    """What one command covers: the trials of its data directory and their
    digests, taken once when it starts; and what ``evaluate`` passes on,
    the labeled feature tables it read and its report."""

    data_dir: str
    trials: list[TrialPaths]
    digests: dict[str, str]
    tables: dict[str, FeatureTable] | None = None
    report: dict | None = None


#: The artifacts a run writes at the top of its output directory.
_TOP_LEVEL = (
    "embedding_params.json", "features.csv", "reachability.json", "evaluation.json",
    *(f"model_{target}_{metric}.json" for target in TARGETS for metric in METRICS),
)


def _run(source: str | os.PathLike | _Run, out_dir: str | os.PathLike) -> _Run:
    """The caller's run, or a new one over the data directory ``source``
    that first removes the tmp files a killed run left in ``out_dir``."""
    if isinstance(source, _Run):
        return source
    trials = discover_trials(source)
    for name in _TOP_LEVEL:
        with suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name + ".tmp"))
    return _Run(os.fspath(source), trials, _trial_digests(trials))


def _envelope(stage: str, config: PipelineConfig, digests: dict, classes=None, **names) -> dict:
    """What an artifact of ``stage`` over the :func:`_trial_digests`
    ``digests`` is written with and checked against: the stamp of what it
    depends on (for a learned artifact also ``classes``, the sha256 of the
    classes :func:`_read_labels` returns), and ``names`` that name it
    (``trial_id``, ``kind``, ``metric``, ``target``)."""
    stages = list(STAGE_FIELDS)
    fields = [k for s in stages[: stages.index(stage) + 1] for k in STAGE_FIELDS[s]]
    stamp = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": {k: getattr(config, k) for k in fields},
        "trials": dict(digests),
    }
    if classes is not None:
        stamp["classes"] = classes
    return {"stamp": stamp, **names}


def _current(stored, envelope: dict) -> bool:
    """The envelope half of the one reuse check: a stored artifact, or
    network-file header, as its read helper returns it once it hashes to
    its digest, holds every field of the envelope its stage writes now."""
    return isinstance(stored, dict) and all(stored.get(k) == v for k, v in envelope.items())


def _unsealed(obj, tail: str = "") -> dict | None:
    """``obj`` without its digest, or None unless it is a map whose
    ``digest`` is the sha256 of its other fields' JSON line and ``tail``.
    Raises ValueError if those fields hold a NaN or infinity."""
    if not isinstance(obj, dict):
        return None
    rest = {k: v for k, v in obj.items() if k != "digest"}
    return rest if obj.get("digest") == _sha256(_json_line(rest) + tail) else None


def _read_json(path: str) -> dict | None:
    """A JSON artifact as written, or None if it is missing, unreadable or
    does not hash to its digest."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _unsealed(json.load(fh))
    except (OSError, ValueError):  # missing, unparseable, or holds a NaN
        return None


def _read_sealed(path: str, mark: str = "") -> tuple[dict, list[str]] | None:
    """The header and the lines after it of a file :func:`_write_sealed`
    wrote with ``mark``, or None if it is missing, unreadable, does not
    start with ``mark`` or does not hash to the digest in its header."""
    try:
        with open(path, encoding="utf-8") as fh:
            head, newline, rest = fh.read().partition("\n")
        header = head.startswith(mark) and _unsealed(json.loads(head[len(mark):]), newline + rest)
    except (OSError, ValueError):  # missing, unparseable, or holds a NaN
        return None
    return (header, rest.splitlines()) if header else None


def _network_files(
    out_dir: str, trial_id: str, config: PipelineConfig, digest: str
) -> dict[str, tuple[str, dict]]:
    """A trial's network files by kind, weighted graphs and the binarized
    network of each metric: path and envelope."""

    def file(suffix: str, **names) -> tuple[str, dict]:
        path = os.path.join(out_dir, "networks", f"{trial_id}.{suffix}.jsonl")
        return path, _envelope("analyze", config, {trial_id: digest}, trial_id=trial_id, **names)

    files = {"weighted": file("weighted", kind="modality_weights")}
    for metric in METRICS:
        files[metric] = file(f"{metric}.binary", kind="temporal_network", metric=metric)
    return files


def _weighted_records(weights: dict[str, np.ndarray]) -> list[dict]:
    """JSON-ready records of a trial's weight stacks by metric, one per
    window: the upper triangle without the diagonal, row-major, with
    absent entries as null, under each metric's name."""
    n_windows, n, _ = next(iter(weights.values())).shape
    rows, cols = np.triu_indices(n, k=1)
    upper = {metric: stack[:, rows, cols].tolist() for metric, stack in weights.items()}
    return [
        {"window": t, **{m: [None if np.isnan(v) else v for v in u[t]] for m, u in upper.items()}}
        for t in range(n_windows)
    ]


def _binary_record(tn: TemporalNetwork, window_index: int) -> dict:
    """JSON-ready record of one binarized layer: sorted edge list."""
    i, j = np.nonzero(np.triu(tn.layers[window_index], k=1))
    return {"window": int(window_index), "edges": [[int(a), int(b)] for a, b in zip(i, j)]}


def _read_networks(files: dict[str, tuple[str, dict]]) -> dict[str, TemporalNetwork] | None:
    """A trial's binarized networks by metric, read back from its
    :func:`_network_files` ``files``; or None unless all of them are
    current.  The weighted file is only hashed; the records of each
    binarized file, one per window in order, are its layers."""
    networks = {}
    for kind, (path, envelope) in files.items():
        stored = _read_sealed(path)
        if stored is None or not _current(stored[0], envelope):
            return None
        header, records = stored
        if kind != "weighted":
            nodes = tuple(header["nodes"])
            layers = np.zeros((len(records), len(nodes), len(nodes)), dtype=bool)
            for t, record in enumerate(records):
                for i, j in json.loads(record)["edges"]:
                    layers[t, i, j] = layers[t, j, i] = True
            networks[kind] = TemporalNetwork(
                nodes, layers, header["binarize_rule"], header["metric"]
            )
    return networks


def _features_content(header: dict, lines: list[str]) -> tuple[dict, list[str], list[dict]]:
    """(stamp, feature column names, rows) of a ``features.csv`` header
    and the CSV lines after it."""
    columns, *body = [line.split(",") for line in lines]
    rows = [{"trial_id": tid, "metric": metric, "values": [float(v) for v in values]}
            for tid, metric, *values in body]
    return header["stamp"], columns[2:], rows


def read_features_csv(path: str) -> tuple[dict, list[str], list[dict]]:
    """Parse a features artifact: (stamp, feature column names, rows)."""
    stored = _read_sealed(path, "# ")
    if stored is None:
        why = "does not hash to its digest" if os.path.isfile(path) else "does not exist"
        raise InputError(f"features file {path} {why}")
    return _features_content(*stored)


def _reachability_json(rep: ReachabilityReport) -> dict:
    return {
        "nodes": list(rep.nodes),
        "latency": [[None if np.isinf(v) else int(v) for v in row] for row in rep.latency],
        "fastest_path_counts": [[int(v) for v in row] for row in rep.fastest_path_counts],
        "strong_pairs": sorted(map(list, rep.strong_pairs)),
        "weak_pairs": sorted(map(list, rep.weak_pairs)),
    }


def _common_nodes(trials: list[TrialPaths]) -> tuple[str, ...]:
    """The modality nodes of every trial, read from its sidecar alone: the
    sidecar's modalities in first-seen channel order.  InputError naming
    the first trial whose nodes differ from the first trial's."""
    first = trials[0].trial_id
    nodes = {
        t.trial_id: tuple(dict.fromkeys(load_schema(t.schema_path)[1].values())) for t in trials
    }
    for tid, own in nodes.items():
        if own != nodes[first]:
            raise InputError(
                f"trial {tid} has modality nodes {own}, "
                f"expected {nodes[first]} as in trial {first}"
            )
    return nodes[first]


def _read_labels(run: _Run, k_folds: int) -> dict[str, dict[str, str]]:
    """The discretized class of every trial of ``run``, by target and trial
    id, once each target's classes can fill ``k_folds``-fold cross-validation."""
    path = os.path.join(run.data_dir, "labels.csv")
    with _stage("evaluate"):
        if not os.path.isfile(path):
            raise InputError(f"labels file {path} does not exist")
        records = {rec.trial_id: rec for rec in load_labels(path)}
        missing = [t.trial_id for t in run.trials if t.trial_id not in records]
        if missing:
            raise InputError(f"trials without labels: {missing}")
        classes = {}
        for target in TARGETS:
            classes[target] = {
                t.trial_id: discretize_score(getattr(records[t.trial_id], target))
                for t in run.trials
            }
            _label_codes(classes[target].values(), target, k_folds)
    return classes


def _labeled_tables(features: tuple, classes: dict[str, dict[str, str]]) -> dict[str, FeatureTable]:
    """Per-metric feature tables from the ``features.csv`` content
    :func:`stage_features` returns, with the trials' ``classes`` attached."""
    _, columns, rows = features
    tables: dict[str, FeatureTable] = {}
    for metric in METRICS:
        subset = [r for r in rows if r["metric"] == metric]
        tables[metric] = FeatureTable(
            trial_ids=tuple(r["trial_id"] for r in subset),
            columns=tuple(columns),
            X=np.array([r["values"] for r in subset], dtype=float),
            labels={
                target: tuple(by_trial[r["trial_id"]] for r in subset)
                for target, by_trial in classes.items()
            },
        )
    return tables


def _current_entry(stored: dict, trial_id: str, config: PipelineConfig, digest: str):
    """A trial's entry in a stored ``embedding_params.json``, or None if
    the slice of the file's stamp for that trial is stale."""
    try:
        stamp = {**stored["stamp"], "trials": {trial_id: stored["stamp"]["trials"][trial_id]}}
    except KeyError:  # no stored file, or no entry for the trial
        return None
    envelope = _envelope("embed-params", config, {trial_id: digest})
    return stored["trials"][trial_id] if _current({"stamp": stamp}, envelope) else None


# ---------------------------------------------------------------------------
# stages


def stage_embed_params(
    data_dir: str | os.PathLike | _Run,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Estimate and persist per-channel embedding parameters of every
    trial whose entry is not current; current entries are kept, and an
    unchanged file is not rewritten."""
    run = _run(data_dir, out_dir)
    path = os.path.join(os.fspath(out_dir), "embedding_params.json")
    stored = _read_json(path) or {}
    params = {tid: _current_entry(stored, tid, config, d) for tid, d in run.digests.items()}
    todo = [t for t in run.trials if params[t.trial_id] is None]
    params.update(_run_trials("embed-params", _embed_task, todo, config, jobs))
    artifact = {**_envelope("embed-params", config, run.digests), "trials": params}
    if artifact != stored:
        _write_json(path, artifact)
    return artifact


def stage_analyze(
    data_dir: str | os.PathLike | _Run,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict[str, dict[str, TemporalNetwork]]:
    """Binarized temporal networks of every trial, by trial id and metric.

    Only the trials whose network files are not current are analyzed and
    their files written, and the network files of any other trial are
    deleted, as are the temporary files of interrupted writes.  Every
    trial's networks, fresh or reused, are read back from its files.
    """
    run, out_dir = _run(data_dir, out_dir), os.fspath(out_dir)
    embedded = stage_embed_params(run, out_dir, config, jobs)
    files = {tid: _network_files(out_dir, tid, config, d) for tid, d in run.digests.items()}
    networks = {tid: _read_networks(by_kind) for tid, by_kind in files.items()}
    todo = [t for t in run.trials if networks[t.trial_id] is None]
    results = _run_trials("analyze", analyze_recording, todo, config, jobs, embedded["trials"])
    for tid, produced in results.items():
        for kind, (path, envelope) in files[tid].items():
            fields, records = produced[kind]
            _write_sealed(path, {**envelope, **fields}, [_json_line(r) for r in records])
        networks[tid] = _read_networks(files[tid])
    kept = {path for by_kind in files.values() for path, _ in by_kind.values()}
    for name in os.listdir(os.path.join(out_dir, "networks")):
        path = os.path.join(out_dir, "networks", name)
        if name.endswith((".jsonl", ".jsonl.tmp")) and path not in kept:
            os.remove(path)
    return networks


def stage_features(
    data_dir: str | os.PathLike | _Run,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> tuple[dict, list[str], list[dict]]:
    """Write the feature CSV and the reachability audit report, unless
    both are current.  Returns the CSV's content as
    :func:`read_features_csv` does, from the lines verified or written."""
    run, out_dir = _run(data_dir, out_dir), os.fspath(out_dir)
    with _stage("features"):
        nodes = _common_nodes(run.trials)
    networks = stage_analyze(run, out_dir, config, jobs)
    path = os.path.join(out_dir, "features.csv")
    reach_path = os.path.join(out_dir, "reachability.json")
    envelope = _envelope("features", config, run.digests)
    stored = _read_sealed(path, "# ")
    if stored and _current(stored[0], envelope) and _current(_read_json(reach_path), envelope):
        return _features_content(*stored)
    trial_ids = sorted(networks)
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

    names = features[trial_ids[0]][METRICS[0]].names(nodes)
    lines = [",".join(["trial_id", "metric"] + names)]
    for tid in trial_ids:
        for metric in METRICS:
            values = features[tid][metric].values()
            lines.append(",".join([tid, metric] + [repr(float(v)) for v in values]))
    _write_sealed(path, envelope, lines, "# ")

    reach = {
        tid: {metric: _reachability_json(f.reachability) for metric, f in features[tid].items()}
        for tid in trial_ids
    }
    _write_json(reach_path, {**envelope, "trials": reach})
    return _features_content(envelope, lines)


def stage_evaluate(
    data_dir: str | os.PathLike | _Run,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Cross-validate every (target, metric) pair and write the report,
    unless it is current."""
    run, out_dir = _run(data_dir, out_dir), os.fspath(out_dir)
    classes = _read_labels(run, config.k_folds)
    features = stage_features(run, out_dir, config, jobs)
    tables = run.tables = _labeled_tables(features, classes)
    envelope = _envelope("evaluate", config, run.digests, _sha256(_json_line(classes)))
    path = os.path.join(out_dir, "evaluation.json")
    run.report = _read_json(path)
    if _current(run.report, envelope):
        return run.report
    results: dict[str, dict[str, dict]] = {}
    with _stage("evaluate"):
        for target in TARGETS:
            results[target] = {}
            for metric in METRICS:
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
    run.report = {**envelope, "results": results}
    _write_json(path, run.report)
    return run.report


def stage_train(
    data_dir: str | os.PathLike | _Run,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> list[str]:
    """Fit a final model per (target, metric) at the cross-validated
    lambda and write those that are not current.

    A model is stamped with the trials and classes of the report it takes
    its lambda from, and refit from the feature tables that ``evaluate``
    read.
    """
    run, out_dir = _run(data_dir, out_dir), os.fspath(out_dir)
    report = stage_evaluate(run, out_dir, config, jobs)
    digests, classes = run.digests, report["stamp"]["classes"]
    written = []
    for target in TARGETS:
        for metric in METRICS:
            path = os.path.join(out_dir, f"model_{target}_{metric}.json")
            envelope = _envelope("train", config, digests, classes, target=target, metric=metric)
            if not _current(_read_json(path), envelope):
                lam = report["results"][target][metric]["selected_lambda"]
                with _stage("train"):
                    model = fit_lasso(run.tables[metric], target, lam)
                _write_json(path, {**envelope, "model": model_to_dict(model)})
            written.append(path)
    return written


def run_pipeline(
    data_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    config: PipelineConfig,
    jobs: int = 1,
) -> dict:
    """Every stage, through the last one's chain; returns the evaluation report."""
    run = _run(data_dir, out_dir)
    stage_train(run, out_dir, config, jobs)
    return run.report
