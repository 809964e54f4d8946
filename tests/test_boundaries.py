"""The benchmark still runs against the package.

The tracer (``perfbench/tracer.py``) patches c0ops functions by module and
attribute name and only lists the ones it cannot find. Resolving the same
table here makes a rename of a traced boundary fail the test suite. One
checked pass of the in-process workloads (``perfbench/workloads.py``) makes
a change that would add failed benchmark operations fail it too.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


# Boundaries whose function the package no longer has, so the tracer lists
# them as missing: the search enumerates each span once and keys none, and it
# compares closed-form orbit types, so no pair is decided in the commutant.
# The rational restriction matrix and the Jordan model of a rational matrix
# are the tests' references, kept in ``commutant_oracle``: no verb runs them.
RETIRED = {
    ("verify.signature", "c0ops.verify", "_subspace_signature"),
    ("verify.decide", "c0ops.verify", "decide_commutant_orbit"),
    ("exact_nilpotent.restriction", "c0ops.exact_nilpotent", "restriction_on_basis"),
    ("exact_nilpotent.model", "c0ops.exact_nilpotent", "nilpotent_jordan_model"),
}


@pytest.mark.parametrize("layer, module, attr", [b for b in _boundaries() if b not in RETIRED], ids=str)
def test_traced_boundary_resolves(layer, module, attr):
    target = importlib.import_module(module)
    for name in attr.split("."):
        assert hasattr(target, name), f"{layer}: {module}.{attr} has no {name}"
        target = getattr(target, name)
    assert callable(target)


def test_retired_boundaries_are_gone():
    for _, module, attr in RETIRED:
        assert not hasattr(importlib.import_module(module), attr)


def test_workloads_pass_their_checks(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in ("orbit-sweep", "exact-search", "model-scan"):
        workload = workloads.WORKLOADS[name](1, tmp_path)
        for item in workload.items() + workload.probe():
            try:
                item.run(Counter())
            except workloads.CheckFailed as exc:
                pytest.fail(f"{name} {item.name}: {exc}")
