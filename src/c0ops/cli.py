"""Command-line front end.

Verbs: jordan-model, verify-orbit, density-sweep, counterexample,
cordiag-demo. Each takes only the flags it reads, and ``read_config``
refuses any config key its verb does not read (``CONFIG_KEYS``). Exit
codes: 0 ok, 2 parse error, 3 invariance failure, 4 hypothesis
violation, 5 budget exhausted, 6 numerical refusal. Codes 2, 3, 4 and 6
each report one error type (``EXIT_CODES``), whose message names the
condition that failed. Every failure message goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from enum import IntEnum
from fractions import Fraction

import numpy as np

from . import errors
from .inner import MAX_DEGREE, InnerFunction
from .jordan import subspace_models
from .model_space import build_model_space
from .quasiaffine import WeightSchedule, density_sweep, random_density_targets
from .subspaces import load_subspace
from .verify import DEFAULT_GATE, DEFAULT_SWEEP, cordiag_demo, counterexample_search, verify_orbit


class Exit(IntEnum):
    OK = 0
    PARSE = 2
    INVARIANCE = 3
    HYPOTHESIS = 4
    BUDGET = 5
    NUMERICAL = 6


class ParseFailure(errors.C0OpsError):
    """Malformed command line, input file or config."""


# exit code -> the one error type it reports
EXIT_CODES = {
    Exit.PARSE: ParseFailure,
    Exit.INVARIANCE: errors.NotInvariant,
    Exit.HYPOTHESIS: errors.HypothesisViolated,
    Exit.NUMERICAL: errors.IllConditioned,
}

# a converter of outside input returns its value or raises one of these
BAD_INPUT = (ArithmeticError, KeyError, TypeError, ValueError)


def fmt(x: float) -> str:
    """Floating output at 12 significant digits."""
    return f"{float(x):.12g}"


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _read(path: str, convert=None):
    """The JSON document in path, passed through convert if one is given."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        return data if convert is None else convert(data)
    except (OSError, *BAD_INPUT) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _integer(value, least: int = 1) -> int:
    if type(value) is not int or value < least:
        raise ValueError(f"{value!r} is not an integer >= {least}")
    return value


def _block_degree(value) -> int:
    if _integer(value) > MAX_DEGREE:
        raise ValueError(f"{value!r} exceeds the degree cap {MAX_DEGREE}")
    return value


def _number(value) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _list_of(convert):
    def read(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError(f"{value!r} is not a non-empty list")
        return [convert(v) for v in value]

    return read


def _theta(value) -> InnerFunction:
    theta = InnerFunction.from_dict(value)
    if theta.is_one():
        raise ValueError("theta has no zeros")
    return theta


def _schedule(value) -> WeightSchedule | None:
    """None for the factorial schedule, whose length follows copies."""
    if value == "factorial" or value == {"kind": "factorial"}:
        return None
    if isinstance(value, dict) and value.keys() == {"kind", "values"} and value["kind"] == "custom":
        schedule = WeightSchedule.custom(_list_of(_number)(value["values"]))
        schedule.condition_sequence()  # refuses a schedule whose K(m) overflows
        return schedule
    raise ValueError(f"unknown schedule {value!r}")


REQUIRED = object()

# verb -> {key: (converter, default)}; REQUIRED marks a key without default
CONFIG_KEYS = {
    "verify-orbit": {
        "sweep": (_list_of(_integer), DEFAULT_SWEEP),
        "gate": (_number, DEFAULT_GATE),
    },
    "density-sweep": {
        "theta": (_theta, REQUIRED),
        "copies": (_integer, REQUIRED),
        "phi": (_list_of(InnerFunction.from_dict), None),
        "phi_all": (InnerFunction.from_dict, None),
        "psi1": (InnerFunction.from_dict, REQUIRED),
        "psi2": (InnerFunction.from_dict, REQUIRED),
        "schedule": (_schedule, None),
        "seed": (lambda v: _integer(v, least=0), 0),
        "target_support": (_integer, 6),
    },
    "counterexample": {
        "blocks": (_list_of(_block_degree), [2, 1]),
        "grid_denominator": (_integer, 64),
        "budget": (_integer, 100000),
    },
    "cordiag-demo": {
        "theta": (_theta, REQUIRED),
        "copies": (_integer, REQUIRED),
        "similarity": (lambda v: np.array(_list_of(_list_of(_number))(v), dtype=complex), REQUIRED),
        "pairs": (_integer, 20),
        "seed": (lambda v: _integer(v, least=0), 0),
        "sweep": (_list_of(_integer), DEFAULT_SWEEP),
        "gate": (_number, DEFAULT_GATE),
    },
}


def read_config(path: str | None, verb: str) -> dict:
    """The verb's config with every key converted or defaulted; no file reads as {}."""
    keys = CONFIG_KEYS[verb]
    data = {} if path is None else _read(path)
    if not isinstance(data, dict):
        raise ParseFailure(f"{path} is not a JSON object")
    for key in data:
        if key not in keys:
            raise ParseFailure(f"{verb} does not take a {key}")
    config = {}
    for key, (convert, default) in keys.items():
        if key not in data and default is REQUIRED:
            raise ParseFailure(f"{verb} needs a {key}")
        try:
            config[key] = convert(data[key]) if key in data else default
        except BAD_INPUT as exc:
            raise ParseFailure(f"bad {key}: {exc}") from exc
    return config


def _write_out(path: str | None, payload) -> None:
    if path is None:
        return
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc}") from exc


def _read_subspace(path: str):
    """The subspace in path, with a note on stderr if its stored columns were not orthonormal."""
    frame, adjust, stored = _read(path, lambda data: (*load_subspace(data), len(data["frame"])))
    stored //= frame.ambient.total_dim
    if frame.dim < stored:
        print(f"{path}: {stored} stored columns are rank deficient, kept dimension {frame.dim}", file=sys.stderr)
    elif adjust > 1e-6:
        print(f"{path}: frame re-orthonormalization adjustment {fmt(adjust)}", file=sys.stderr)
    return frame


def cmd_jordan_model(args) -> int:
    frame = _read_subspace(args.input)
    rest, comp = subspace_models(frame.ambient, frame)
    print(f"restriction model: {rest}")
    print(f"compression model: {comp}")
    _write_out(args.out, {"restriction": rest.to_dict(), "compression": comp.to_dict()})
    return Exit.OK


def cmd_verify_orbit(args) -> int:
    config = read_config(args.config, args.command)
    m1, m2 = (_read_subspace(path) for path in args.input)
    ambient = m1.ambient
    if (m2.ambient.theta, m2.ambient.copies) != (ambient.theta, ambient.copies):
        raise ParseFailure(f"{args.input[1]} lives in another ambient than {args.input[0]}")
    report = verify_orbit(ambient, m1, m2, config["sweep"], config["gate"])
    print(f"restriction models equal: {report.restriction_models_equal}")
    print(f"compression divisibility: {report.compression_divisibility}")
    for n, dist in report.distance_curve:
        print(f"N={n} distance {fmt(dist)}")
    print(f"verdict: {report.verdict}")
    _write_out(args.out, report.to_dict())
    return Exit.OK


def cmd_density_sweep(args) -> int:
    config = read_config(args.config, args.command)
    copies, psi1, psi2 = config["copies"], config["psi1"], config["psi2"]
    if (config["phi"] is None) == (config["phi_all"] is None):
        raise ParseFailure("density-sweep takes exactly one of phi and phi_all")
    phi_list = config["phi"] or [config["phi_all"]] * copies
    if len(phi_list) != copies:
        raise ParseFailure(f"phi lists {len(phi_list)} inner functions for {copies} copies")
    schedule = config["schedule"] or WeightSchedule.factorial(max(copies + 1, 8))
    space = build_model_space(config["theta"])
    g_vec, f_vecs = random_density_targets(
        space, copies, phi_list, psi2, config["seed"], config["target_support"]
    )
    if schedule.looks_divergent():
        print("schedule warning: condition sequence K(m) is not decreasing", file=sys.stderr)
    lines, ks = ["m,residual,bound,sigma_min,intertwine,K"], schedule.condition_sequence()
    for row in density_sweep(space, copies, phi_list, psi1, psi2, g_vec, f_vecs, schedule):
        values = (row.residual, row.bound, row.sigma_min, row.intertwine, ks[row.m - 1])
        lines.append(",".join([str(row.m), *map(fmt, values)]))
    csv_text = "\n".join(lines) + "\n"
    sys.stdout.write(csv_text)
    _write_out(args.out, csv_text)
    return Exit.OK


def cmd_counterexample(args) -> int:
    config = read_config(args.config, args.command)
    report = counterexample_search(
        config["blocks"], Fraction(1, config["grid_denominator"]), config["budget"]
    )
    print(f"subspaces enumerated: {report.subspace_count}")
    print(f"pairs decided: {report.pairs_checked}")
    if report.witness is not None:
        print("witness found:")
        print(json.dumps(report.witness, indent=2))
        for name, model in zip(("M1", "M2"), report.witness_compression_models):
            print(f"{name} compression model: {model}")
    elif report.exhausted:
        print("no witness: search exhausted")
    _write_out(args.out, report.to_dict())
    if report.budget_exhausted:
        print("budget exhausted before a decisive answer", file=sys.stderr)
        return Exit.BUDGET
    return Exit.OK


def cmd_cordiag_demo(args) -> int:
    config = read_config(args.config, args.command)
    theta, similarity = config["theta"], config["similarity"]
    if similarity.shape != (theta.degree, theta.degree):
        raise ParseFailure(f"similarity is not {theta.degree} x {theta.degree}")
    runs = cordiag_demo(
        theta, config["copies"], similarity, config["pairs"],
        config["seed"], config["sweep"], config["gate"],
    )
    for run in runs:
        mark = "agree" if run.agrees else "DISAGREE"
        print(
            f"pair {run.pair_index}: jordan={run.jordan_verdict} "
            f"conjugated={run.conjugated_verdict} [{mark}]"
        )
    disagreements = sum(not run.agrees for run in runs)
    print(f"disagreements: {disagreements} / {len(runs)}")
    pairs = [
        {"index": r.pair_index, "jordan": r.jordan_verdict, "conjugated": r.conjugated_verdict}
        for r in runs
    ]
    _write_out(args.out, {"pairs": pairs, "disagreements": disagreements})
    return Exit.OK


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ParseFailure, so they exit through EXIT_CODES."""

    def error(self, message):
        raise ParseFailure(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="c0ops")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = verb("jordan-model", cmd_jordan_model, "Jordan models of a restriction/compression pair")
    p.add_argument("--input", required=True, metavar="M")

    p = verb("verify-orbit", cmd_verify_orbit, "two-condition orbit test with distance sweep")
    p.add_argument("--input", nargs=2, required=True, metavar=("M1", "M2"))
    p.add_argument("--config", metavar="FILE")

    p = verb("density-sweep", cmd_density_sweep, "approximant residual sweep as CSV")
    p.add_argument("--config", required=True, metavar="FILE")

    p = verb(
        "counterexample", cmd_counterexample, "search a non-uniform direct sum for a witness pair"
    )
    p.add_argument("--config", metavar="FILE")

    p = verb("cordiag-demo", cmd_cordiag_demo, "paired verdicts under a conjugated ambient")
    p.add_argument("--config", required=True, metavar="FILE")
    for p in sub.choices.values():
        p.add_argument("--out", metavar="FILE")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except errors.C0OpsError as exc:
        code = next(code for code, kind in EXIT_CODES.items() if isinstance(exc, kind))
        print(f"{code.name.lower()} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
