"""Benchmark entry point.

    python3 perfbench/run.py --workload orbit-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; c0ops is imported from ``src/`` of
that checkout, never from an installed copy. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A fuller report, and with tracing the spans, go
to ``.bench_out/``. The exit code is 0 when the run completed, whatever its
checks found, and 2 when the benchmark cannot run at all.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("orbit-sweep", "exact-search", "model-scan", "cli-verbs")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may run on, before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time import and input generation only")
    args = parser.parse_args(argv)

    package = ROOT / "src" / "c0ops" / "__init__.py"
    if not package.is_file():
        print(f"benchmark: no c0ops source at {package.relative_to(ROOT)}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import c0ops

    if Path(c0ops.__file__).resolve() != package.resolve():
        print(f"benchmark: c0ops imported from {c0ops.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import harness

    if args.setup_only:
        print(json.dumps({"setup_s": harness.setup_only(args.workload, args.seed, T0, ROOT)}))
        return 0
    report = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), T0)
    result = report["result"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} items checked, {result['failed']} failed")
    for item in report["failures"]:
        print(f"  FAILED {item['item']} (pass {item['pass']}): {item['type']}: {item['message']}")
    for item in report["known_failures"]:
        print(f"  known failure {item['item']}: {item['type']}: {item['message']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  report: {report['path']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
