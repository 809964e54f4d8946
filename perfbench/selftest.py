"""Small-size self-test of the benchmark harness.

    python3 -m pytest perfbench/selftest.py

Shrinks the workloads through their module constants, so it takes seconds,
and checks that every metric named in BENCHMARK.json is emitted with its
unit and that a wrong expected output is counted as a failure.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SCAN_DEGREES", (8, 16))
    monkeypatch.setattr(workloads, "ORBIT_SWEEP", (8, 12))


def test_declared_metrics_match_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: spec[:2] for name, spec in harness.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace, declared", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_emitted_with_unit(small, trace, declared):
    report = harness.run(ROOT, "model-scan", 3, 0.0, trace, perf_counter())
    metrics = report["result"]["metrics"]
    assert report["result"]["failed"] == 0
    assert set(metrics) == {m["name"] for m in SPEC[declared]}
    for spec in SPEC[declared]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))
    # the probe holds the families that fail at the defining commit
    assert {f["item"] for f in report["known_failures"]} <= set(report["probe_items"])


def test_wrong_expected_verdict_is_counted(small, monkeypatch):
    class WrongExpectation(workloads.OrbitSweep):
        def __init__(self, seed, workdir):
            super().__init__(seed, workdir)
            equal, m1, m2 = self.pairs[2]  # a no-orbit pair, now expected to be an orbit
            self.pairs[2] = (not equal, m1, m2)

    monkeypatch.setitem(workloads.WORKLOADS, "orbit-sweep", WrongExpectation)
    result = harness.run(ROOT, "orbit-sweep", 5, 0.0, False, perf_counter())["result"]
    assert result["correct"] is False
    assert result["failed"] == harness.MIN_PASSES  # once in each of the passes of a zero-second window
    assert result["attempted"] == harness.MIN_PASSES * len(workloads.ORBIT_PAIRS)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    summary = tracer.summarize(0, 2)
    assert inner[3] == 0
    assert summary["outer"]["self_s"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert summary["inner"]["calls"] == 1
