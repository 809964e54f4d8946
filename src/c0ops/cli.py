"""Command-line front end.

Verbs: jordan-model, verify-orbit, density-sweep, counterexample,
cordiag-demo.  Exit codes: 0 ok, 2 parse error, 3 invariance failure,
4 hypothesis violation, 5 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .errors import (
    C0OpsError,
    HypothesisViolated,
    IllConditioned,
    NotInSubspace,
    NotInvariant,
)
from .inner import InnerFunction
from .jordan import subspace_models
from .quasiaffine import WeightSchedule, density_sweep, random_density_targets
from .subspaces import AmbientSpace, load_subspace
from .verify import (
    DEFAULT_GATE,
    DEFAULT_SWEEP,
    cordiag_demo,
    counterexample_search,
    verify_orbit,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANCE = 3
EXIT_HYPOTHESIS = 4
EXIT_BUDGET = 5


class ParseFailure(Exception):
    pass


def fmt(x: float) -> str:
    """Floating output at 12 significant digits."""
    return f"{float(x):.12g}"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _ambient_from_dict(data: dict) -> AmbientSpace:
    try:
        theta = InnerFunction.from_dict(data["theta"])
        copies = int(data["copies"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad ambient spec: {exc}") from exc
    return AmbientSpace.build(theta, copies)


def _subspace_from_file(path: str):
    try:
        return load_subspace(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad subspace file {path}: {exc}") from exc


def _schedule_from_config(config: dict, length: int) -> WeightSchedule:
    sched = config.get("schedule", {"kind": "factorial"})
    if isinstance(sched, str):
        sched = {"kind": sched}
    try:
        kind = sched.get("kind", "factorial")
        if kind == "factorial":
            return WeightSchedule.factorial(sched.get("length", length))
        if kind == "custom":
            return WeightSchedule.custom(sched["values"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad schedule: {exc}") from exc
    raise ParseFailure(f"unknown schedule kind {kind!r}")


def _write_out(path: str | None, payload) -> None:
    if path is None:
        return
    with open(path, "w") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def cmd_jordan_model(args) -> int:
    frame, adjust = _subspace_from_file(args.input)
    if args.ambient:
        ambient = _ambient_from_dict(_load_json(args.ambient))
    else:
        ambient = frame.ambient
        frame = type(frame)(ambient, frame.frame)
    if adjust > 1e-6:
        print(f"frame re-orthonormalization adjustment {fmt(adjust)}", file=sys.stderr)
    try:
        rest, comp = subspace_models(ambient, frame)
    except NotInvariant as exc:
        print(f"subspace is not invariant: {exc}")
        return EXIT_INVARIANCE
    print(f"restriction model: {rest}")
    print(f"compression model: {comp}")
    _write_out(args.out, {"restriction": rest.to_dict(), "compression": comp.to_dict()})
    return EXIT_OK


def cmd_verify_orbit(args) -> int:
    config = _load_json(args.config) if args.config else {}
    paths = args.input if isinstance(args.input, list) else [args.input]
    if len(paths) != 2:
        raise ParseFailure("verify-orbit needs two subspace files (--input M1 M2)")
    m1, _ = _subspace_from_file(paths[0])
    m2, _ = _subspace_from_file(paths[1])
    if args.ambient:
        ambient = _ambient_from_dict(_load_json(args.ambient))
    else:
        ambient = m1.ambient
    m1 = type(m1)(ambient, m1.frame)
    m2 = type(m2)(ambient, m2.frame)
    sweep = tuple(config.get("sweep", DEFAULT_SWEEP))
    gate = float(config.get("gate", DEFAULT_GATE))
    if "schedule" in config:
        raise ParseFailure("verify-orbit does not take a schedule")
    try:
        report = verify_orbit(ambient, m1, m2, sweep, gate)
    except NotInvariant as exc:
        print(f"subspace is not invariant: {exc}")
        return EXIT_INVARIANCE
    print(f"restriction models equal: {report.restriction_models_equal}")
    print(f"compression divisibility: {report.compression_divisibility}")
    for n, dist in report.distance_curve:
        print(f"N={n} distance {fmt(dist)}")
    print(f"verdict: {report.verdict}")
    _write_out(args.out, report.to_dict())
    return EXIT_OK


def density_csv(rows, schedule: WeightSchedule) -> str:
    lines = ["m,residual,bound,sigma_min,intertwine,K"]
    for row in rows:
        k_m = schedule.condition_value(row.m)
        lines.append(
            ",".join(
                [str(row.m)]
                + [fmt(v) for v in (row.residual, row.bound, row.sigma_min, row.intertwine, k_m)]
            )
        )
    return "\n".join(lines) + "\n"


def cmd_density_sweep(args) -> int:
    if not args.config:
        raise ParseFailure("density-sweep requires --config")
    config = _load_json(args.config)
    try:
        theta = InnerFunction.from_dict(config["theta"])
        copies = int(config["copies"])
        if "phi" in config:
            phi_list = [InnerFunction.from_dict(d) for d in config["phi"]]
        else:
            phi_list = [InnerFunction.from_dict(config["phi_all"])] * copies
        psi1 = InnerFunction.from_dict(config["psi1"])
        psi2 = InnerFunction.from_dict(config["psi2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad density config: {exc}") from exc
    schedule = _schedule_from_config(config, length=max(copies + 1, 8))
    from .model_space import build_model_space

    space = build_model_space(theta)
    seed = int(config.get("seed", 0))
    support = int(config.get("target_support", 6))
    g_vec, f_vecs = random_density_targets(space, copies, phi_list, psi2, seed, support)
    if schedule.looks_divergent():
        print("schedule warning: condition sequence K(m) is not decreasing", file=sys.stderr)
    try:
        rows = density_sweep(space, copies, phi_list, psi1, psi2, g_vec, f_vecs, schedule)
    except (HypothesisViolated, NotInSubspace) as exc:
        print(f"hypothesis violated: {exc}")
        return EXIT_HYPOTHESIS
    csv_text = density_csv(rows, schedule)
    sys.stdout.write(csv_text)
    _write_out(args.out, csv_text)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    config = _load_json(args.config) if args.config else {}
    blocks = list(config.get("blocks", [2, 1]))
    step = Fraction(1, int(config.get("grid_denominator", 64)))
    budget = int(config.get("budget", 100000))
    report = counterexample_search(blocks, step, budget)
    print(f"subspaces enumerated: {report.subspace_count}")
    print(f"pairs decided: {report.pairs_checked}")
    if report.witness is not None:
        print("witness found:")
        print(json.dumps(report.witness, indent=2))
    elif report.exhausted:
        print("no witness: search exhausted")
    _write_out(args.out, report.to_dict())
    if report.budget_exhausted:
        print("budget exhausted before a decisive answer")
        return EXIT_BUDGET
    return EXIT_OK


def cmd_cordiag_demo(args) -> int:
    if not args.config:
        raise ParseFailure("cordiag-demo requires --config")
    config = _load_json(args.config)
    try:
        theta = InnerFunction.from_dict(config["theta"])
        copies = int(config["copies"])
        sim = config["similarity"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad demo config: {exc}") from exc
    if isinstance(sim, dict) and "diag" in sim:
        similarity = np.diag([float(v) for v in sim["diag"]])
    else:
        similarity = np.array(sim, dtype=complex)
    pairs = int(config.get("pairs", 20))
    seed = int(config.get("seed", 0))
    sweep = tuple(config.get("sweep", DEFAULT_SWEEP))
    gate = float(config.get("gate", DEFAULT_GATE))
    try:
        runs = cordiag_demo(theta, copies, similarity, pairs, seed, sweep, gate)
    except IllConditioned as exc:
        print(f"hypothesis violated: {exc}")
        return EXIT_HYPOTHESIS
    disagreements = 0
    for run in runs:
        mark = "agree" if run.agrees else "DISAGREE"
        print(
            f"pair {run.pair_index}: jordan={run.jordan_verdict} "
            f"conjugated={run.conjugated_verdict} [{mark}]"
        )
        disagreements += 0 if run.agrees else 1
    print(f"disagreements: {disagreements} / {len(runs)}")
    _write_out(
        args.out,
        {
            "pairs": [
                {
                    "index": r.pair_index,
                    "jordan": r.jordan_verdict,
                    "conjugated": r.conjugated_verdict,
                }
                for r in runs
            ],
            "disagreements": disagreements,
        },
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="c0ops")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs=0):
        if inputs == 1:
            p.add_argument("--input", required=True)
        elif inputs == 2:
            p.add_argument("--input", nargs=2, required=True, metavar=("M1", "M2"))
        p.add_argument("--ambient")
        p.add_argument("--out")
        p.add_argument("--config")

    p = sub.add_parser("jordan-model", help="Jordan models of a restriction/compression pair")
    common(p, inputs=1)
    p.set_defaults(func=cmd_jordan_model)

    p = sub.add_parser("verify-orbit", help="two-condition orbit test with distance sweep")
    common(p, inputs=2)
    p.set_defaults(func=cmd_verify_orbit)

    p = sub.add_parser("density-sweep", help="approximant residual sweep as CSV")
    common(p)
    p.set_defaults(func=cmd_density_sweep)

    p = sub.add_parser("counterexample", help="search a non-uniform direct sum for a witness pair")
    common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("cordiag-demo", help="paired verdicts under a conjugated ambient")
    common(p)
    p.set_defaults(func=cmd_cordiag_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotInvariant as exc:
        print(f"invariance failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANCE
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except C0OpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
