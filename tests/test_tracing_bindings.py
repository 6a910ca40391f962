"""The benchmark tracer's bindings name callables that exist.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` in its
``BINDINGS`` with a timing wrapper; a renamed or deleted function would
otherwise fail only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from jrpnet import tempnet
from jrpnet.netbuild import TemporalNetwork

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_to_a_callable():
    bindings = _tracing_module().BINDINGS
    assert bindings
    for module_name, attr, _span, _count in bindings:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_feature_vector_reaches_the_traced_tempnet_functions_once_per_network(monkeypatch):
    # the tracer times tempnet's own functions only when feature_vector looks
    # them up as module attributes; a direct reference would read as zero time
    traced = [attr for module, attr, _span, _count in _tracing_module().BINDINGS
              if module == "jrpnet.tempnet"]
    assert sorted(traced) == ["reachability_and_latency", "temporal_small_worldness"]
    calls = {attr: 0 for attr in traced}
    for attr in traced:
        def counted(*args, _attr=attr, _fn=getattr(tempnet, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(tempnet, attr, counted)
    rng = np.random.default_rng(0)
    for _ in range(3):
        layers = np.triu(rng.random((3, 5, 5)) < 0.5, k=1)
        tn = TemporalNetwork(
            nodes=tuple("abcde"), layers=layers | layers.transpose(0, 2, 1), binarize_rule={}
        )
        tempnet.feature_vector(tn, n_null=2)
    assert calls == {attr: 3 for attr in traced}
