"""Per-seed cross-validated accuracy on the gate test's dataset.

Usage: python3 tests/golden/accuracy.py [--config CONFIG.json] SEED [SEED ...]

For each seed, runs ``run_pipeline`` on ``three_regime_specs(20, seed)``,
the dataset of ``test_three_regime_benchmark_is_classified``, in a
temporary directory, at the default config or the JSON config given.  It
prints one row per seed with the accuracy of every (target, weight
metric) pair, then a row with their means over the seeds.  A change that
moves an artifact's values runs it before and after, on the gate seeds
101-105 and on held-out seeds such as 301-305.  ``--n-per-regime`` and
``--length-samples`` shrink the dataset for a quick check.  Nothing is
written outside the temporary directory.
"""

import argparse
import os
import sys
import tempfile


def accuracies(seeds, config, n_per_regime=20, length_samples=1280) -> dict:
    """Each seed's {(target, metric): accuracy} of one pipeline run."""
    from jrpnet.netbuild import METRICS
    from jrpnet.pipeline import TARGETS, run_pipeline
    from jrpnet.synth import three_regime_specs, write_dataset

    found = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            data_dir, out_dir = os.path.join(tmp, "data"), os.path.join(tmp, "out")
            specs, labels = three_regime_specs(n_per_regime, seed, length_samples=length_samples)
            write_dataset(specs, labels, data_dir)
            results = run_pipeline(data_dir, out_dir, config)["results"]
        found[seed] = {
            (target, metric): results[target][metric]["accuracy"]
            for target in TARGETS
            for metric in METRICS
        }
    return found


def table(found: dict) -> str:
    """One row per seed and a row of means, one column per (target, metric)."""
    pairs = list(next(iter(found.values())))
    rows = [["seed"] + [f"{target}/{metric}" for target, metric in pairs]]
    for seed, accuracy in found.items():
        rows.append([str(seed)] + [f"{accuracy[pair]:.3f}" for pair in pairs])
    means = [sum(accuracy[pair] for accuracy in found.values()) / len(found) for pair in pairs]
    rows.append(["mean"] + [f"{mean:.3f}" for mean in means])
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def main(argv=None) -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))
    from jrpnet.config import load_config

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--config", help="JSON config file (default: the default config)")
    parser.add_argument("--n-per-regime", type=int, default=20)
    parser.add_argument("--length-samples", type=int, default=1280)
    args = parser.parse_args(argv)
    config = load_config(args.config)
    print(table(accuracies(args.seeds, config, args.n_per_regime, args.length_samples)))


if __name__ == "__main__":
    main()
