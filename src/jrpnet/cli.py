"""Command-line driver.

One subcommand per pipeline stage plus ``synth`` for generating labeled
synthetic datasets and ``pipeline`` for the whole chain.  A JSON config
file (via ``--config``) feeds every stage; individual flags override
config fields, which override the built-in defaults.

Exit codes: 0 success, 2 malformed input, 3 numeric or degenerate data.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import WEIGHT_METRICS, PipelineConfig, load_config
from .errors import InputError, JrpnetError
from .pipeline import (
    TARGETS,
    run_pipeline,
    stage_analyze,
    stage_embed_params,
    stage_evaluate,
    stage_features,
    stage_train,
)
from . import synth

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrpnet",
        description=(
            "Multichannel coupling analysis: joint recurrence plots, temporal "
            "networks, and sparse classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_in: bool = True) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
        p.add_argument("--out", required=True, help="output directory")
        if with_in:
            p.add_argument("--in", dest="data_dir", required=True, help="data directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON coupling spec (single trial, trial list, or preset)")
    add_common(p, with_in=False)

    p = sub.add_parser("embed-params", help="estimate embedding parameters per channel")
    add_common(p)

    p = sub.add_parser("analyze", help="build weighted and binarized networks")
    p.add_argument("--metric", choices=WEIGHT_METRICS, help="override weight metric")
    add_common(p)

    p = sub.add_parser("features", help="compute temporal features per trial")
    add_common(p)

    p = sub.add_parser("train", help="fit final models at the cross-validated lambda")
    p.add_argument("--target", choices=TARGETS + ("both",), default="both")
    add_common(p)

    p = sub.add_parser("evaluate", help="cross-validate and write the evaluation report")
    add_common(p)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--metric", choices=WEIGHT_METRICS, help="override weight metric")
    add_common(p)
    return parser


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    overrides = {"seed": args.seed}
    if getattr(args, "metric", None) is not None:
        overrides["weight_metric"] = args.metric
    return load_config(args.config, **overrides)


def _cmd_synth(args: argparse.Namespace) -> None:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read spec {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"spec {args.spec} is not valid JSON: {exc}") from exc
    if args.seed is not None and isinstance(raw, dict) and "trials" not in raw:
        raw["seed"] = args.seed
    if isinstance(raw, dict) and ("preset" in raw or "trials" in raw):
        specs, labels = synth.dataset_from_json(raw)
        synth.write_dataset(specs, labels, args.out)
        print(f"wrote {len(specs)} trials to {args.out}")
        return
    spec = synth.CouplingSpec.from_dict(raw)
    recording = synth.generate(spec)
    csv_path, _ = synth.write_recording(recording, args.out)
    spec_path = csv_path[: -len(".csv")] + ".spec.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path}")


def _cmd_embed_params(args: argparse.Namespace) -> None:
    config = _config_from(args)
    artifact = stage_embed_params(args.data_dir, args.out, config, args.jobs)
    print(json.dumps(artifact["trials"], indent=2, sort_keys=True))


def _cmd_analyze(args: argparse.Namespace) -> None:
    config = _config_from(args)
    networks = stage_analyze(args.data_dir, args.out, config, args.jobs)
    print(f"networks of {len(networks)} trials in {args.out}/networks")


def _cmd_features(args: argparse.Namespace) -> None:
    config = _config_from(args)
    path = stage_features(args.data_dir, args.out, config, args.jobs)
    print(f"wrote {path}")


def _cmd_train(args: argparse.Namespace) -> None:
    config = _config_from(args)
    targets = TARGETS if args.target == "both" else (args.target,)
    written = stage_train(args.data_dir, args.out, config, targets, args.jobs)
    for path in written:
        print(f"wrote {path}")


def _print_evaluation(report: dict) -> None:
    for target, per_metric in sorted(report["results"].items()):
        for metric, entry in sorted(per_metric.items()):
            print(
                f"{target}/{metric}: accuracy {entry['accuracy']:.3f} "
                f"at lambda {entry['selected_lambda']:.5g}"
            )


def _cmd_evaluate(args: argparse.Namespace) -> None:
    _print_evaluation(stage_evaluate(args.data_dir, args.out, _config_from(args), args.jobs))


def _cmd_pipeline(args: argparse.Namespace) -> None:
    _print_evaluation(run_pipeline(args.data_dir, args.out, _config_from(args), args.jobs))


_COMMANDS = {
    "synth": _cmd_synth,
    "embed-params": _cmd_embed_params,
    "analyze": _cmd_analyze,
    "features": _cmd_features,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JrpnetError as exc:  # NumericError and anything else numeric
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
