"""Smoke test of the benchmark itself.

Checks that BENCHMARK.json and the benchmark code declare the same
well-formed names, that an untraced and a traced run print every metric
they declare with its unit and pass their output checks, and that the
benchmark refuses to report anything without the jrpnet sources.

Run from the repository root (about a minute):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_names_are_well_formed_and_match_the_code():
    bench = load_benchmark()
    workloads = {w["name"]: w["why"] for w in bench["workloads"]}
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    names = list(workloads) + list(e2e) + list(per_layer)
    bad = [n for n in names if not NAME.fullmatch(n) or len(n) > 64]
    assert not bad
    assert len(set(names)) == len(names)
    assert workloads == {name: w.why for name, w in run.WORKLOADS.items()}
    assert e2e == run.END_TO_END
    assert per_layer == tracing.PER_LAYER
    assert "setup_s" in e2e and all(m["bound"] <= 0.25 for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_prints_every_declared_metric(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "three_regime",
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = tracing.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, (unit, _) in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"metric {name} ") for line in lines)
    assert not os.path.exists(run.WORK_ROOT)


def test_refuses_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "three_regime",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
