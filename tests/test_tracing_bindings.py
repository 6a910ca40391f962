"""The benchmark tracer's bindings name callables that exist.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` in its
``BINDINGS`` with a timing wrapper; a renamed or deleted function would
otherwise fail only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

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
