"""Every boundary the benchmark tracer wraps still exists under its name.

The tracer (``perfbench/tracer.py``) patches c0ops functions by module and
attribute name and only lists the ones it cannot find. Resolving the same
table here makes a rename of a traced boundary fail the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize("layer, module, attr", _boundaries(), ids=str)
def test_traced_boundary_resolves(layer, module, attr):
    target = importlib.import_module(module)
    for name in attr.split("."):
        assert hasattr(target, name), f"{layer}: {module}.{attr} has no {name}"
        target = getattr(target, name)
    assert callable(target)
