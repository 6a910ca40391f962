"""The discrete decisions of one pipeline run, and the script that records them.

Usage: python3 tests/golden/regenerate.py

Runs the pipeline on ``three_regime_specs(n_per_regime=2, seed=11,
length_samples=640)`` under the tier-1 test config, in a temporary
directory, and writes its decisions to ``tests/golden/decisions.json``:

- ``channels``: per trial and channel, the delay τ, the dimension m and
  whether the dimension scan saturated (null for an absent channel)
- ``layers``: per trial and weight metric, the edge list of every layer
  of the binarized temporal network
- ``models``: per target and weight metric, the index of the selected
  lambda in the grid, the confusion matrix and the fold accuracies

``tests/test_pipeline.py`` compares the same run's decisions to the
file exactly.  Only a change that means to move a decision regenerates
it, and says which decisions moved.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "decisions.json")

#: the dataset and config of the recorded run, as the tier-1 tests build them
DATASET = {"n_per_regime": 2, "seed": 11, "length_samples": 640}
CONFIG = {"k_folds": 2, "n_null": 2, "lambda_points": 4, "tau_max": 8, "m_max": 6}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def decisions(out_dir) -> dict:
    """The decisions of the run whose artifacts are in ``out_dir``, each
    under a flat key such as ``channels/<trial>/<channel>``."""
    out_dir = os.fspath(out_dir)
    found = {}
    params = _read_json(os.path.join(out_dir, "embedding_params.json"))["trials"]
    for tid, channels in params.items():
        for name, entry in channels.items():
            kept = None if entry is None else {k: entry[k] for k in ("tau", "m", "saturated")}
            found[f"channels/{tid}/{name}"] = kept
    networks = os.path.join(out_dir, "networks")
    for file_name in sorted(os.listdir(networks)):
        if file_name.endswith(".binary.jsonl"):
            tid, metric = file_name[: -len(".binary.jsonl")].rsplit(".", 1)
            with open(os.path.join(networks, file_name), encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh.read().splitlines()[1:]]
            found[f"layers/{tid}/{metric}"] = [record["edges"] for record in records]
    results = _read_json(os.path.join(out_dir, "evaluation.json"))["results"]
    for target, per_metric in results.items():
        for metric, entry in per_metric.items():
            found[f"models/{target}/{metric}"] = {
                "selected_index": entry["lambda_grid"].index(entry["selected_lambda"]),
                "confusion": entry["confusion"],
                "fold_accuracies": entry["fold_accuracies"],
            }
    return dict(sorted(found.items()))


def main() -> None:
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    from jrpnet.config import PipelineConfig
    from jrpnet.pipeline import run_pipeline
    from jrpnet.synth import three_regime_specs, write_dataset

    with tempfile.TemporaryDirectory() as tmp:
        data_dir, out_dir = os.path.join(tmp, "data"), os.path.join(tmp, "out")
        write_dataset(*three_regime_specs(**DATASET), data_dir)
        run_pipeline(data_dir, out_dir, PipelineConfig(**CONFIG))
        found = decisions(out_dir)
    # one decision per line, so a diff names the decisions that moved
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in found.items()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(f'{{"dataset": {json.dumps(DATASET)},\n "config": {json.dumps(CONFIG)},\n')
        fh.write(' "decisions": {\n' + ",\n".join(lines) + "\n }}\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
