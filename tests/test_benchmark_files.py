"""The benchmark's artifact check names the files the pipeline writes.

``perfbench/run.py`` counts an execution of ``run_pipeline`` as failed
unless every file of its ``expected_files`` exists; a change to the set
of artifacts the pipeline writes would otherwise fail only in a
benchmark run.
"""

import importlib.util
import os
import sys
from pathlib import Path

from jrpnet.config import PipelineConfig
from jrpnet.pipeline import discover_trials, run_pipeline
from jrpnet.synth import three_regime_specs, write_dataset

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_run_pipeline_writes_exactly_the_expected_files(tmp_path):
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    specs, labels = three_regime_specs(n_per_regime=2, seed=5, length_samples=640)
    write_dataset(specs, labels, data_dir)
    config = PipelineConfig(k_folds=2, n_null=2, lambda_points=4, tau_max=8, m_max=6)
    run_pipeline(data_dir, out_dir, config)
    written = {
        os.path.relpath(os.path.join(root, name), out_dir)
        for root, _, names in os.walk(out_dir)
        for name in names
    }
    trial_ids = [t.trial_id for t in discover_trials(data_dir)]
    assert written == _run_module().expected_files(("run_pipeline",), trial_ids)
