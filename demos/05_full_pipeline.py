"""
End-to-end run on a synthetic benchmark
=======================================

The full pipeline goes from raw multichannel recordings to a
cross-validated classifier in five stages: per-trial embedding
parameters, windowed joint-recurrence analysis, temporal-network
features, cross-validated evaluation, and final sparse models.

The benchmark dataset has three coupling regimes (dense, sparse, none)
whose affect-style score labels map onto the classes low, medium and
high, so a pipeline that recovers coupling structure from the signals
alone classifies the trials well above the 1/3 chance level.

The command-line equivalent of this script is:

    echo '{"preset": "three_regime", "n_per_regime": 4, "seed": 0,
           "length_samples": 640}' > bench.json
    jrpnet synth --spec bench.json --out data/
    jrpnet pipeline --in data/ --out results/
"""

import json
import tempfile
from pathlib import Path

from jrpnet.config import PipelineConfig
from jrpnet.pipeline import read_features_csv, run_pipeline
from jrpnet.synth import three_regime_specs, write_dataset

root = Path(tempfile.mkdtemp(prefix="jrpnet_demo_"))
data_dir, out_dir = root / "data", root / "results"

# 12 trials, 4 per coupling regime, 10 s each at 64 Hz.
specs, labels = three_regime_specs(n_per_regime=4, seed=0, length_samples=640)
write_dataset(specs, labels, data_dir)
print(f"dataset: {len(specs)} trials under {data_dir}")

# A light configuration so the whole run takes seconds.  The defaults
# (20 lambdas, 20 null networks, 5 folds) are what the benchmark uses.
config = PipelineConfig(k_folds=3, n_null=5, lambda_points=8, tau_max=8, m_max=6)
report = run_pipeline(data_dir, out_dir, config)

print()
print("cross-validated accuracy (chance is 0.333):")
for target, per_metric in sorted(report["results"].items()):
    for metric, res in sorted(per_metric.items()):
        print(
            f"  {target}/{metric}: {res['accuracy']:.3f} "
            f"at lambda {res['selected_lambda']:.4g}"
        )
print("  (12 trials is a smoke run; at 60 trials with the default")
print("   configuration the same pipeline reaches roughly 0.8)")

# The feature table: one row per (trial, metric), one column per
# temporal-network feature.
_, columns, rows = read_features_csv(str(out_dir / "features.csv"))
print()
print(f"features.csv: {len(rows)} rows, {len(columns)} feature columns")
print(f"  columns: {', '.join(columns)}")

# Each final model is sparse by construction.  The surviving weights
# name the features that separate the regimes.
model = json.loads((out_dir / "model_valence_JDET.json").read_text())["model"]
print()
print("valence/JDET model, nonzero weights per class:")
for cls, weights in zip(model["classes"], model["weights"]):
    live = [(col, w) for col, w in zip(model["columns"], weights) if w != 0.0]
    live.sort(key=lambda kv: -abs(kv[1]))
    desc = ", ".join(f"{k}={v:+.2f}" for k, v in live[:4]) or "(intercept only)"
    print(f"  {cls:<7} {desc}")

print()
print(f"artifacts under {out_dir}:")
for p in sorted(out_dir.iterdir()):
    if p.is_file():
        print(f"  {p.name}")
n_net = len(list((out_dir / "networks").iterdir()))
print(f"  networks/ ({n_net} files: weighted + one binary per metric, per trial)")
