"""Closed-loop runner: set-up, checked passes, metrics and the run report.

One process runs the items of a workload back to back, in passes repeated
while the next pass is expected to end inside the ``--seconds`` window. The
first pass warms lazy state up; it is checked but not timed. ``wall_s``
aggregates the timed passes and ``item_p50_s`` each pass's median item
latency, by the workload's ``timing``: the mean, or for a workload of
millisecond items the fastest pass (see ``AGGREGATE``). With tracing on,
timed passes alternate traced and untraced; per-layer metrics are medians
over the traced passes, and the tracing overhead is the aggregated traced
pass minus the aggregated untraced one.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import sympy

import workloads
from tracer import Tracer

MIN_PASSES = 3  # the warm-up, then at least one traced and one untraced pass
SETUP_SAMPLES = 5  # this process plus four fresh processes
IMPORT_SAMPLES = 3
# On a shared host the speed of this process swings by up to 60 % for seconds
# to minutes at a time. Over a whole window the mean of passes repeats best
# from run to run, except for passes of millisecond items, where the fastest
# pass does: measured over ten seeds, model-scan spread 0.06-0.31 (IQR over
# median) with the mean and 0.06-0.24 with the fastest pass.
AGGREGATE = {"mean": statistics.mean, "fastest": min}
CLI_VERBS = ("jordan-model", "verify-orbit", "density-sweep", "counterexample", "cordiag-demo")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "inner.calls": ("count", "lower", "item_p50_s on model-scan (guard row)"),
    "inner.self_s": ("s", "lower", "item_p50_s on model-scan (guard row)"),
    "model_space.build.calls": ("count", "lower", "item_p50_s on model-scan; wall_s on orbit-sweep"),
    "model_space.build.self_s": ("s", "lower", "item_p50_s on model-scan; wall_s on orbit-sweep"),
    "model_space.build.failed": ("count", "lower", "fail_share on model-scan"),
    "model_space.calculus.calls": ("count", "lower", "item_p50_s on model-scan"),
    "model_space.calculus.self_s": ("s", "lower", "item_p50_s on model-scan"),
    "subspaces.block_frame.calls": ("count", "lower", "wall_s on orbit-sweep; item_p50_s on model-scan"),
    "subspaces.block_frame.self_s": ("s", "lower", "wall_s on orbit-sweep; item_p50_s on model-scan"),
    "subspaces.block_frame.distinct_share": ("ratio", "higher", "wall_s on orbit-sweep; item_p50_s on model-scan"),
    "subspaces.distance.self_s": ("s", "lower", "wall_s on orbit-sweep"),
    "subspaces.image_closure.self_s": ("s", "lower", "wall_s on orbit-sweep"),
    "subspaces.invariance.calls": ("count", "lower", "wall_s on orbit-sweep"),
    "subspaces.ambient_build.calls": ("count", "lower", "wall_s on orbit-sweep"),
    "jordan.models.calls": ("count", "lower", "item_p50_s on model-scan"),
    "jordan.models.self_s": ("s", "lower", "item_p50_s on model-scan"),
    "jordan.rank.calls": ("count", "lower", "item_p50_s on model-scan"),
    "jordan.rank.self_s": ("s", "lower", "item_p50_s on model-scan"),
    "jordan.canonical.self_s": ("s", "lower", "wall_s on orbit-sweep"),
    "quasiaffine.build_Y.calls": ("count", "lower", "wall_s on orbit-sweep"),
    "quasiaffine.build_Y.self_s": ("s", "lower", "wall_s on orbit-sweep"),
    "quasiaffine.build_X.self_s": ("s", "lower", "item_p50_s on model-scan"),
    "quasiaffine.solve.calls": ("count", "lower", "item_p50_s on model-scan"),
    "quasiaffine.solve.self_s": ("s", "lower", "item_p50_s on model-scan"),
    "quasiaffine.density.self_s": ("s", "lower", "item_p50_s on model-scan"),
    "exact_nilpotent.orbit_closure.calls": ("count", "lower", "wall_s on exact-search (witness case)"),
    "exact_nilpotent.orbit_closure.self_s": ("s", "lower", "wall_s on exact-search (witness case)"),
    "exact_nilpotent.restriction.calls": ("count", "lower", "wall_s on exact-search (witness case)"),
    "exact_nilpotent.restriction.self_s": ("s", "lower", "wall_s on exact-search (witness case)"),
    "exact_nilpotent.model.calls": ("count", "lower", "wall_s on exact-search (witness case)"),
    "exact_nilpotent.model.self_s": ("s", "lower", "wall_s on exact-search (witness case)"),
    "verify.signature.calls": ("count", "lower", "wall_s on exact-search (witness case)"),
    "verify.signature.self_s": ("s", "lower", "wall_s on exact-search (witness case)"),
    "verify.decide.calls": ("count", "lower", "wall_s on exact-search (control case)"),
    "verify.decide.self_s": ("s", "lower", "wall_s on exact-search (control case)"),
    "verify.pairs_checked": ("count", "lower", "wall_s on exact-search (control case)"),
    "verify.subspaces_enumerated": ("count", "lower", "wall_s on exact-search (control case)"),
    "verify.orbit.self_s": ("s", "lower", "wall_s on orbit-sweep (orchestration only)"),
    "linalg.svd.calls": ("count", "lower", "wall_s on orbit-sweep; item_p50_s on model-scan"),
    "linalg.svd.self_s": ("s", "lower", "wall_s on orbit-sweep; item_p50_s on model-scan"),
    "linalg.svd.gflop_computed": ("GFLOP", "lower", "wall_s on orbit-sweep; item_p50_s on model-scan"),
    "cli.import_s": ("s", "lower", "item_p50_s and wall_s on cli-verbs"),
    **{f"cli.verb_s.{verb}": ("s", "lower", "item_p50_s and wall_s on cli-verbs") for verb in CLI_VERBS},
    "cli.traceback.count": ("count", "lower", "fail_share on cli-verbs"),
    "fail_share": ("ratio", "lower", "the workload's own failures, known-failure probe included"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s of one pass"),
}


@dataclass
class Pass:
    wall: float
    times: dict[str, float]
    failures: list[tuple[str, str, str]]
    counters: Counter
    layers: dict | None = None  # per-layer span summary of a traced pass


def run_items(items, tracer: Tracer | None, label: str) -> Pass:
    """Run items back to back; failures are recorded, never raised."""
    times, failures, counters = {}, [], Counter()
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        try:
            if tracer is None:
                item.run(counters)
            else:
                tracer.item = f"{label}:{item.name}"
                with tracer.span("item"):
                    item.run(counters)
        except Exception as exc:
            failures.append((item.name, type(exc).__name__, str(exc)[:300]))
            times[item.name] = math.inf
        else:
            times[item.name] = perf_counter() - t0
    return Pass(perf_counter() - start, times, failures, counters)


def traced_pass(items, tracer: Tracer, label: str) -> Pass:
    tracer.install()
    first = len(tracer.spans)
    try:
        result = run_items(items, tracer, label)
    finally:
        tracer.uninstall()
    result.layers = tracer.summarize(first, len(tracer.spans))
    return result


def layer_values(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass (span- and counter-based)."""
    out: dict[str, float] = {}
    empty = {"calls": 0, "self_s": 0.0, "failed": 0, "notes": []}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        agg = p.layers.get(layer, empty)
        if stat in ("calls", "self_s", "failed"):
            out[name] = agg[stat]
    frames = p.layers.get("subspaces.block_frame", empty)
    out["subspaces.block_frame.distinct_share"] = (
        len(set(frames["notes"])) / frames["calls"] if frames["calls"] else 0.0
    )
    out["linalg.svd.gflop_computed"] = sum(p.layers.get("linalg.svd", empty)["notes"]) / 1e9
    out["verify.pairs_checked"] = p.counters["verify.pairs_checked"]
    out["verify.subspaces_enumerated"] = p.counters["verify.subspaces_enumerated"]
    return out


def _number(value: float, unit: str):
    """A JSON-safe value: counts as integers, non-finite values as null."""
    if not math.isfinite(value):
        return None
    return int(value) if unit == "count" and float(value).is_integer() else value


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "peak_rss_method": "resource.getrusage ru_maxrss (KiB) / 1024 of this process; "
        "on cli-verbs RUSAGE_CHILDREN, read right after the timed passes",
    }


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, t0: float) -> dict:
    """One benchmark run; returns the report, whose ``result`` is printed as the last line."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workload = workloads.WORKLOADS[name](seed, Path(tmp))
        setup_main = perf_counter() - t0
        return _measure(root, out_dir, workload, seed, seconds, trace, setup_main)


def _measure(root, out_dir, workload, seed, seconds, trace, setup_main) -> dict:
    tracer = Tracer() if trace else None
    items = workload.items()
    passes: list[Pass] = []
    window = perf_counter()
    while True:
        label = f"pass{len(passes)}"
        if tracer is not None and len(passes) % 2 == 1:  # pass 0 is the warm-up
            passes.append(traced_pass(items, tracer, label))
        else:
            passes.append(run_items(items, None, label))
        expected = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - window + expected > seconds:
            break
    usage = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliVerbs) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    probe_items = workload.probe()
    probe = traced_pass(probe_items, tracer, "probe") if tracer else run_items(probe_items, None, "probe")

    run_py = str(Path(__file__).resolve().parent / "run.py")
    setup_argv = [sys.executable, run_py, "--workload", workload.name, "--seed", str(seed), "--setup-only"]
    setups = [setup_main]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(setup_argv, cwd=root, capture_output=True, text=True, timeout=120, check=True)
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    untraced = [p for p in passes[1:] if p.layers is None]
    aggregate = AGGREGATE[workload.timing]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": aggregate(p.wall for p in untraced),
        "item_p50_s": aggregate(statistics.median(p.times.values()) for p in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    if tracer is not None:
        metrics = _layer_metrics(root, passes, probe, items, probe_items, aggregate)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        tracer.dump(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")

    failed = sum(len(p.failures) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": len(items) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": _number(v, units[k]), "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": tracer is not None,
        "environment": environment(),
        "loop": "closed loop: one process, items back to back, passes repeated over the window; pass 0 is the untimed warm-up",
        "passes": [{"wall_s": p.wall, "traced": p.layers is not None, "item_s": p.times} for p in passes],
        "setup_samples_s": setups,
        "failures": [
            {"pass": i, "item": it, "type": typ, "message": msg}
            for i, p in enumerate(passes)
            for it, typ, msg in p.failures
        ],
        "known_failures": [{"item": it, "type": typ, "message": msg} for it, typ, msg in probe.failures],
        "probe_items": [item.name for item in probe_items],
        "moves": {k: PER_LAYER[k][2] for k in metrics if k in PER_LAYER},
        "missing_boundaries": tracer.missing if tracer else [],
        "result": result,
    }
    path = out_dir / f"report-{workload.name}-seed{seed}-trace{int(tracer is not None)}.json"
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    report["path"] = str(path.relative_to(root))
    return report


def _layer_metrics(root, passes, probe, items, probe_items, aggregate) -> dict[str, float]:
    traced = [p for p in passes if p.layers is not None]
    untraced = [p for p in passes[1:] if p.layers is None]
    per_pass = [layer_values(p) for p in traced]
    out = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    out["model_space.build.failed"] += probe.layers.get("model_space.build", {}).get("failed", 0)

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imports = []
    for _ in range(IMPORT_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import c0ops.cli"], cwd=root, env=env, check=True, timeout=120)
        imports.append(perf_counter() - t0)
    out["cli.import_s"] = statistics.median(imports)
    for verb in CLI_VERBS:
        samples = [p.times[verb] for p in passes[1:] if verb in p.times]
        out[f"cli.verb_s.{verb}"] = statistics.mean(samples) if samples else 0.0

    failed_per_pass = statistics.median(len(p.failures) for p in passes)
    out["fail_share"] = (failed_per_pass + len(probe.failures)) / (len(items) + len(probe_items))
    out["cli.traceback.count"] = statistics.median(p.counters["cli.traceback.count"] for p in passes)
    out["cli.traceback.count"] += probe.counters["cli.traceback.count"]
    out["trace.overhead_s"] = aggregate(p.wall for p in traced) - aggregate(p.wall for p in untraced)
    return {k: out[k] for k in PER_LAYER}


def setup_only(name: str, seed: int, t0: float, root: Path) -> float:
    """Import plus input generation, as a fresh process sees it."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workloads.WORKLOADS[name](seed, Path(tmp))
        return perf_counter() - t0
