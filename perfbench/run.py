#!/usr/bin/env python3
"""End-to-end benchmark of the jrpnet pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark synthesizes the workload's dataset from ``--seed`` with
``jrpnet.synth.three_regime_specs``, prepares any stored artifacts the
workload reads, then runs the workload's command (a sequence of
``jrpnet.pipeline`` functions) in a fresh process, again and again for
about ``--seconds`` seconds.  One client drives all load in a closed
loop, with BLAS and OpenMP pinned to one thread and ``jobs`` at most the
number of usable cores.

trials_per_s counts the command's own wall time, from its first stage
call to its last return, without interpreter start-up; setup_s is the
median of SETUP_REPEATS identical set-ups; peak_rss_mb samples the
command's process tree.

Every execution's artifacts are hashed and checked: repeated executions
must write identical bytes, and the stored-network workload must write
what the same stages write at jobs=1.  An execution that raises or fails
a check counts as failed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics under ``--trace 0``, the per-layer metrics of one
extra traced execution under ``--trace 1``.  The lines before it give the
environment, each execution's sha256 and the check outcomes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, HERE)
from tracing import PER_LAYER, per_layer_metrics, tree_bytes  # noqa: E402

# End-to-end metrics: name -> (unit, better).  cv_accuracy is the mean
# cross-validated accuracy over the 4 (target, metric) results; it is a
# deterministic function of the seed and guards against speed-ups that
# change results.
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cv_accuracy": ("ratio", "higher"),
}

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Seconds between memory samples of a running command.
RSS_SAMPLE_S = 0.02
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

TARGETS = ("valence", "arousal")
METRICS = ("JDET", "JLAM")
LEARN_STAGES = ("stage_evaluate", "stage_train")
LEARN_FILES = {"evaluation.json"} | {f"model_{t}_{m}.json" for t in TARGETS for m in METRICS}

# At the default lambda_span of 1e-3 the evaluate stage took 4.7 to 31 s
# on 15 trials depending on the seed (single core of a 2-vCPU VM; fits at
# the small-lambda end of the grid run towards MAX_SWEEPS), a spread no
# affordable run can average out.  At 0.1 it took 1.1 to 3.2 s with the
# same accuracy on each of the five seeds tried, so every workload
# evaluates at that span.
LEARN_CONFIG = {"lambda_span": 0.1}


@dataclass(frozen=True)
class Workload:
    why: str
    n_per_regime: int
    jobs: int
    #: the timed command: jrpnet.pipeline functions called in order
    stages: tuple[str, ...]
    config: dict = field(default_factory=dict)
    #: set-up writes embedding params and binarized networks to read
    stored: bool = False


WORKLOADS = {
    "three_regime": Workload(
        why="run_pipeline on 15 trials at jobs=1: every layer runs and writes "
        "its artifacts, embedding dominates",
        n_per_regime=5,
        jobs=1,
        stages=("run_pipeline",),
        config=LEARN_CONFIG,
    ),
    "dense_windows": Workload(
        why="stage_features from raw data at overlap 0.9 (31 windows per trial): "
        "per-window recurrence and RQA dominate, learn is bypassed",
        n_per_regime=5,
        jobs=1,
        stages=("stage_features",),
        config={**LEARN_CONFIG, "overlap": 0.9},
    ),
    "resume_from_networks": Workload(
        why="stage_features at jobs=2 from stored networks: artifact reads and "
        "temporal features, bypasses embedding, recurrence and RQA",
        n_per_regime=5,
        jobs=2,
        stages=("stage_features",),
        config=LEARN_CONFIG,
        stored=True,
    ),
}


# ---------------------------------------------------------------------------
# artifacts and checks


def digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def combined(files: dict[str, str]) -> str:
    text = "".join(f"{path} {sha}\n" for path, sha in files.items())
    return hashlib.sha256(text.encode()).hexdigest()


def expected_files(stages: tuple[str, ...], trial_ids: list[str]) -> set[str]:
    files = {"features.csv", "reachability.json"}
    if stages == ("run_pipeline",):
        files |= LEARN_FILES | {"embedding_params.json"}
        files |= {
            os.path.join("networks", f"{tid}.{kind}.jsonl")
            for tid in trial_ids
            for kind in ("weighted", "JDET.binary", "JLAM.binary")
        }
    elif "stage_evaluate" in stages:
        files |= LEARN_FILES
    return files


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(out_dir: str, files: dict, stages: tuple, trial_ids: list[str]) -> list[str]:
    """Problems with one execution's artifacts (empty when correct)."""
    missing = sorted(expected_files(stages, trial_ids) - set(files))
    if missing:
        return [f"missing artifacts {missing}"]
    problems = []
    with open(os.path.join(out_dir, "features.csv"), encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    if len(rows) != 1 + len(METRICS) * len(trial_ids):
        problems.append(f"features.csv has {len(rows) - 1} rows for {len(trial_ids)} trials")
    if sorted(read_json(os.path.join(out_dir, "reachability.json"))["trials"]) != trial_ids:
        problems.append("reachability.json does not cover every trial")
    if "evaluation.json" in files:
        results = read_json(os.path.join(out_dir, "evaluation.json"))["results"]
        for target in TARGETS:
            for metric in METRICS:
                entry = results[target][metric]
                if entry["n_trials"] != len(trial_ids) or not 0.0 <= entry["accuracy"] <= 1.0:
                    problems.append(f"evaluation {target}/{metric} is malformed")
                model = read_json(os.path.join(out_dir, f"model_{target}_{metric}.json"))
                if model["model"]["lambda"] != entry["selected_lambda"]:
                    problems.append(f"model {target}/{metric} is not fit at the selected lambda")
    return problems


def mean_accuracy(out_dir: str) -> float:
    results = read_json(os.path.join(out_dir, "evaluation.json"))["results"]
    return statistics.fmean(results[t][m]["accuracy"] for t in TARGETS for m in METRICS)


# ---------------------------------------------------------------------------
# executing one command


def tree_rss_bytes(pid: int) -> int:
    """Resident memory of a process and all its descendants right now."""
    total = 0
    pending = [pid]
    while pending:
        p = pending.pop()
        try:
            with open(f"/proc/{p}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * PAGE_BYTES
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    pending.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue  # the process exited while being read
    return total


@dataclass
class Execution:
    name: str
    out_dir: str
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    trace: dict | None = None
    files: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return combined(self.files)


def execute(name: str, stages, data_dir: str, out_dir: str, config: dict, jobs: int,
            trace: bool = False) -> Execution:
    """Run one command in a fresh process, sampling its tree's memory."""
    spec_path, result_path, log_path = (out_dir + ext for ext in (".spec.json", ".result.json", ".log"))
    spec = {
        "src": SRC,
        "data": data_dir,
        "out": out_dir,
        "config": config,
        "jobs": jobs,
        "stages": list(stages),
        "trace": trace,
        "result": result_path,
    }
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    run = Execution(name, out_dir)
    peak = 0
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, WORKER, spec_path], stdout=log, stderr=log)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                peak = max(peak, tree_rss_bytes(proc.pid))
                time.sleep(RSS_SAMPLE_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:] or ["no output"]
        run.problems.append(f"command exited with {proc.returncode}: {tail[0]}")
        return run
    result = read_json(result_path)
    run.wall_s = result["wall_s"]
    run.trace = result["trace"]
    # ru_maxrss (KiB) is exact for the command's own process; the samples
    # also add up worker processes running alongside it
    run.peak_rss_mb = max(peak, usage.ru_maxrss * 1024) / 2**20
    run.files = digests(out_dir)
    return run


# ---------------------------------------------------------------------------
# one benchmark run


class Bench:
    def __init__(self, workload: Workload, seed: int, jobs: int, work: str) -> None:
        from jrpnet.config import PipelineConfig

        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.work = work
        self.config = PipelineConfig().replace(**workload.config)
        self.attempted = 0
        self.failed = 0
        self.data_dir = os.path.join(work, "data0")
        self.stored_dir = os.path.join(work, "stored0")
        self.trial_ids: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        if problems:
            emit("failure", {"operation": name, "problems": problems})

    def setup(self) -> list[float]:
        """Synthesize (and for stored workloads, embed and analyze) the
        dataset SETUP_REPEATS times; returns the set-up times."""
        from jrpnet.pipeline import stage_analyze, stage_embed_params
        from jrpnet.synth import three_regime_specs, write_dataset

        times, fingerprints = [], []
        for k in range(SETUP_REPEATS):
            data_dir = os.path.join(self.work, f"data{k}")
            stored_dir = os.path.join(self.work, f"stored{k}")
            start = time.perf_counter()
            specs, labels = three_regime_specs(self.workload.n_per_regime, self.seed)
            write_dataset(specs, labels, data_dir)
            if self.workload.stored:
                stage_embed_params(data_dir, stored_dir, self.config, self.jobs)
                stage_analyze(data_dir, stored_dir, self.config, self.jobs)
            times.append(time.perf_counter() - start)
            fingerprint = combined(digests(data_dir))
            if self.workload.stored:
                fingerprint += combined(digests(stored_dir))
            fingerprints.append(fingerprint)
        self.trial_ids = sorted(spec.trial_id for spec in specs)
        self.record("setup", [] if len(set(fingerprints)) == 1 else ["repeated set-ups differ"])
        return times

    def fresh_out(self, name: str) -> str:
        out = os.path.join(self.work, name)
        if self.workload.stored:
            shutil.copytree(self.stored_dir, out)
        else:
            os.makedirs(out)
        return out

    def run(self, name: str, stages, jobs: int, trace: bool = False, out_dir: str | None = None,
            same_as: Execution | None = None) -> Execution:
        """One checked execution; ``same_as`` demands byte-identical artifacts."""
        out_dir = out_dir or self.fresh_out(name)
        config = self.config.to_dict()
        run = execute(name, stages, self.data_dir, out_dir, config, jobs, trace)
        if not run.problems:
            try:
                run.problems = check_outputs(out_dir, run.files, tuple(stages), self.trial_ids)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                run.problems = [f"unreadable artifact: {exc!r}"]
        if same_as is not None and run.files and run.files != same_as.files:
            differing = sorted(p for p in set(run.files) | set(same_as.files)
                               if run.files.get(p) != same_as.files.get(p))
            run.problems.append(f"artifacts differ from {same_as.name}: {differing[:6]}")
        emit("execution", {
            "name": name,
            "jobs": jobs,
            "traced": trace,
            "wall_s": run.wall_s,
            "peak_rss_mb": run.peak_rss_mb,
            "sha256": run.digest,
            "problems": run.problems,
        })
        self.record(name, run.problems)
        return run

    def measure(self, seconds: float) -> list[Execution]:
        """Timed executions, closed loop, until the next one would overrun."""
        runs: list[Execution] = []
        start = time.perf_counter()
        while True:
            runs.append(self.run(f"run{len(runs)}", self.workload.stages, self.jobs,
                                 same_as=runs[0] if runs else None))
            elapsed = time.perf_counter() - start
            if elapsed * (len(runs) + 1) / len(runs) > seconds:
                return runs

    def learn_outcome(self, first: Execution) -> float:
        """Mean cross-validated accuracy for the first execution's features.

        Workloads whose command stops before evaluate finish the pipeline
        untimed on a copy; the stored-network workload also checks that
        it wrote what the stages write at jobs=1."""
        if "evaluation.json" in first.files:
            return mean_accuracy(first.out_dir)
        finished_dir = os.path.join(self.work, "finished")
        shutil.copytree(first.out_dir, finished_dir)
        finished = self.run("finished", LEARN_STAGES, self.jobs, out_dir=finished_dir)
        if self.workload.stored:
            self.run("reference_jobs1", self.workload.stages + LEARN_STAGES, 1, same_as=finished)
        return mean_accuracy(finished_dir) if not finished.problems else 0.0


def emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the jrpnet pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jrpnet", "__init__.py")):
        print(f"error: no jrpnet source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # a terminated benchmark still stops its command and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads, and inherited by every command
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    jobs = min(workload.jobs, nproc)
    emit("env", {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    })

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return report(args, Bench(workload, args.seed, jobs, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def report(args: argparse.Namespace, bench: Bench) -> int:
    setup_times = bench.setup()
    runs = bench.measure(args.seconds)
    good = [r for r in runs if not r.problems]
    if not good:
        print("error: no timed execution succeeded", file=sys.stderr)
        return 1
    n_trials = len(bench.trial_ids)
    e2e = {
        "trials_per_s": statistics.median(n_trials / r.wall_s for r in good),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        "cv_accuracy": bench.learn_outcome(runs[0]),
    }
    emit("end_to_end", {name: [value, END_TO_END[name][0]] for name, value in e2e.items()})

    metrics, declared = e2e, END_TO_END
    if args.trace:
        traced = bench.run("traced_jobs1", bench.workload.stages, 1, trace=True, same_as=runs[0])
        if traced.trace is None:
            print("error: the traced execution failed", file=sys.stderr)
            return 1
        metrics, unmeasured = per_layer_metrics(
            traced.trace, traced.wall_s, tree_bytes(traced.out_dir)
        )
        metrics["trace.overhead_trials_per_s"] = e2e["trials_per_s"] - n_trials / traced.wall_s
        declared = PER_LAYER
        emit("unmeasured", unmeasured)

    emit("checks", {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_frac": bench.failed / bench.attempted,
    })
    units = {name: unit for name, (unit, _) in declared.items()}
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
