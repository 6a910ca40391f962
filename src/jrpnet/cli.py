"""Command-line driver.

One subcommand per pipeline stage (``embed-params``, ``analyze``,
``features``, ``evaluate``, ``train``), ``pipeline`` for the whole chain,
and ``synth`` for generating labeled synthetic datasets, which takes
only ``--spec``, ``--out`` and ``--seed``.  Every stage command takes
the same flags: ``--in``, ``--out``, ``--config``, ``--seed`` and
``--jobs``.  A JSON config file (via ``--config``) feeds every stage
alike, and ``--seed`` overrides its seed, so running the stages one by
one writes what ``pipeline`` writes: both weight metrics, and a model
per target and metric.

Exit codes: 0 success, 2 malformed input, 3 numeric or degenerate data.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config
from .errors import InputError, JrpnetError
from .ingest import read_json_object
from .pipeline import (
    run_pipeline,
    stage_analyze,
    stage_embed_params,
    stage_evaluate,
    stage_features,
    stage_train,
)
from . import synth

__all__ = ["main", "build_parser"]


def _evaluation_lines(report: dict, out: str) -> str:
    return "\n".join(
        f"{target}/{metric}: accuracy {entry['accuracy']:.3f} "
        f"at lambda {entry['selected_lambda']:.5g}"
        for target, per_metric in sorted(report["results"].items())
        for metric, entry in sorted(per_metric.items())
    )


#: stage command -> (help text, stage function, the text to print given
#: the stage's result and the output directory)
_STAGES = {
    "embed-params": (
        "estimate embedding parameters per channel",
        stage_embed_params,
        lambda artifact, out: json.dumps(artifact["trials"], indent=2, sort_keys=True),
    ),
    "analyze": (
        "build weighted and binarized networks",
        stage_analyze,
        lambda networks, out: f"networks of {len(networks)} trials in {out}/networks",
    ),
    "features": (
        "compute temporal features per trial",
        stage_features,
        lambda path, out: f"wrote {path}",
    ),
    "train": (
        "fit final models at the cross-validated lambda",
        stage_train,
        lambda paths, out: "\n".join(f"wrote {path}" for path in paths),
    ),
    "evaluate": (
        "cross-validate and write the evaluation report",
        stage_evaluate,
        _evaluation_lines,
    ),
    "pipeline": ("run every stage end to end", run_pipeline, _evaluation_lines),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrpnet",
        description=(
            "Multichannel coupling analysis: joint recurrence plots, temporal "
            "networks, and sparse classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON coupling spec (single trial, trial list, or preset)")
    p.add_argument("--seed", type=int, help="override the seed of a single spec or preset")
    p.add_argument("--out", required=True, help="output directory")
    for command, (help_text, _, _) in _STAGES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--in", dest="data_dir", required=True, help="data directory")
    return parser


def _cmd_synth(args: argparse.Namespace) -> None:
    raw = read_json_object(args.spec, "spec")
    if args.seed is not None:
        if "trials" in raw:
            raise InputError(
                "--seed does not apply to a trial list: each listed trial carries its own seed"
            )
        raw["seed"] = args.seed
    if "preset" in raw or "trials" in raw:
        specs, labels = synth.dataset_from_json(raw)
        synth.write_dataset(specs, labels, args.out)
        print(f"wrote {len(specs)} trials to {args.out}")
        return
    print(f"wrote {synth.write_trial(synth.CouplingSpec.from_dict(raw), args.out)}")


def _cmd_stage(args: argparse.Namespace) -> None:
    _, stage, show = _STAGES[args.command]
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    config = load_config(args.config, seed=args.seed)
    print(show(stage(args.data_dir, args.out, config, jobs=args.jobs), args.out))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        (_cmd_synth if args.command == "synth" else _cmd_stage)(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JrpnetError as exc:  # NumericError and anything else numeric
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
