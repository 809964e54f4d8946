"""The four benchmark workloads: inputs made from a seed, and checked items.

A workload builds its inputs once from the seed and names how its pass times
are aggregated (``timing``, see ``harness.AGGREGATE``). ``items()`` lists the
items of one pass; each item calls public c0ops functions and raises
``CheckFailed`` when an output is wrong. ``probe()`` lists the items that
fail at the commit that defined this benchmark. They are run once per run,
outside the timed passes, so that their failures stay visible in the report
and in ``fail_share`` without making the timed passes depend on which
defects are fixed.

Program functions are always looked up through their module at call time
(``model_space.build_model_space``, not a local alias), so that a traced run
sees them through the tracer's patches.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import sympy

import c0ops.cli
from c0ops import inner, jordan, model_space, quasiaffine, subspaces, verify

ORACLE_TOL = 1e-10  # ||theta(S)|| gate of acceptance criterion 1
DENSITY_SLACK = 1e-9  # residual <= bound + slack, as in acceptance criterion 6


class CheckFailed(Exception):
    """An item finished but its output is wrong."""


@dataclass
class Item:
    name: str
    run: Callable[[dict], None]  # gets the pass counters; raises on failure


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# orbit-sweep
# ---------------------------------------------------------------------------

ORBIT_THETA = ((0.3, 2), (-0.25, 2), (0.2 + 0.35j, 2), (-0.1 - 0.4j, 2))
ORBIT_COPIES = 4
ORBIT_SWEEP = (16, 32, 64, 128)
# (generators of M1, generators of M2). Orbit closures of k generic vectors
# have restriction model (theta,)*k, so equal k must give "orbit" and
# unequal k "no-orbit" before any truncation is built. Positive pairs are
# the majority, so the median item is a full sweep, not a millisecond exit.
ORBIT_PAIRS = ((1, 1), (2, 2), (1, 2))


class OrbitSweep:
    timing = "mean"
    name = "orbit-sweep"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.ambient = subspaces.AmbientSpace.build(inner.InnerFunction(ORBIT_THETA), ORBIT_COPIES)
        self.pairs = [
            (
                k1 == k2,
                jordan.random_invariant_subspace(self.ambient, rng, num_vectors=k1),
                jordan.random_invariant_subspace(self.ambient, rng, num_vectors=k2),
            )
            for k1, k2 in ORBIT_PAIRS
        ]

    def items(self) -> list[Item]:
        return [
            Item(f"pair{i}-{'orbit' if equal else 'no-orbit'}", self._check(equal, m1, m2))
            for i, (equal, m1, m2) in enumerate(self.pairs)
        ]

    def _check(self, equal, m1, m2):
        def run(counters):
            rep = verify.verify_orbit(self.ambient, m1, m2, sweep=ORBIT_SWEEP)
            if equal:
                _require(rep.verdict == "orbit", f"verdict {rep.verdict}, expected orbit")
                _require(
                    [n for n, _ in rep.distance_curve] == list(ORBIT_SWEEP),
                    f"curve covers {[n for n, _ in rep.distance_curve]}",
                )
                final = rep.distance_curve[-1][1]
                _require(final <= verify.DEFAULT_GATE, f"final distance {final:.3e} above gate")
            else:
                _require(rep.verdict == "no-orbit", f"verdict {rep.verdict}, expected no-orbit")
                _require(not rep.restriction_models_equal, "restriction models reported equal")
                _require(rep.distance_curve == (), "no-orbit verdict did not exit early")

        return run

    def probe(self) -> list[Item]:
        return []


# ---------------------------------------------------------------------------
# exact-search
# ---------------------------------------------------------------------------

# (blocks, grid step, expected outcome). The inputs do not depend on the seed.
# The control case is decision-bound (35 pair decisions over 16 subspaces),
# the witness case enumeration-bound (129 subspaces, one decision). They are
# the grid-1 and grid-1/16 versions of [2,2]@1/2 (219 decisions, ~2 s) and
# [2,1]@1/64 (513 subspaces, ~1.5 s): a pass of ~0.7 s gives the window
# dozens of passes to average over.
EXACT_CASES = (([2, 2], Fraction(1), "exhausted"), ([2, 1], Fraction(1, 16), "witness"))


class ExactSearch:
    timing = "mean"
    name = "exact-search"

    def __init__(self, seed: int, workdir: Path):
        self.cases = EXACT_CASES

    def items(self) -> list[Item]:
        return [
            Item(f"{blocks}@{step}-{outcome}", self._check(blocks, step, outcome))
            for blocks, step, outcome in self.cases
        ]

    @staticmethod
    def _check(blocks, step, outcome):
        def run(counters):
            # every search starts from an empty sympy cache, as a fresh
            # `c0ops counterexample` process does
            sympy.core.cache.clear_cache()
            rep = verify.counterexample_search(list(blocks), step)
            counters["verify.pairs_checked"] += rep.pairs_checked
            counters["verify.subspaces_enumerated"] += rep.subspace_count
            _require(not rep.budget_exhausted, "search budget exhausted")
            if outcome == "exhausted":
                _require(rep.exhausted and rep.witness is None, "expected an exhausted search")
            else:
                _require(rep.witness is not None, "expected a witness")
                degrees = rep.witness["restriction_model_degrees"]
                _require(sum(degrees) == len(rep.witness["m1_basis"]), "witness model/basis mismatch")

        return run

    def probe(self) -> list[Item]:
        return []


# ---------------------------------------------------------------------------
# model-scan
# ---------------------------------------------------------------------------

SCAN_DEGREES = (8, 16, 32, 64)
SCAN_COPIES = 2


def _spread(d: int) -> inner.InnerFunction:
    """d simple zeros evenly spaced on the circle of radius 0.9."""
    return inner.InnerFunction(tuple((0.9 * np.exp(2j * np.pi * k / d), 1) for k in range(d)))


def _clustered(d: int, rng) -> inner.InnerFunction:
    """Four points of radius 0.5 at a seeded rotation, each of multiplicity d/4."""
    phase = 2 * np.pi * rng.uniform()
    return inner.InnerFunction(tuple((0.5 * np.exp(1j * (phase + np.pi * k / 2)), d // 4) for k in range(4)))


def _random_simple(d: int, rng) -> inner.InnerFunction:
    """d seeded simple zeros uniform in the disc of radius 0.6, 0.05 apart."""
    zeros: list[complex] = []
    while len(zeros) < d:
        a = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(a - b) >= 0.05 for b in zeros):
            zeros.append(a)
    return inner.InnerFunction(tuple((a, 1) for a in zeros))


class ModelScan:
    timing = "fastest"  # its median item takes milliseconds
    name = "model-scan"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        thetas = [(f"monomial-{d}", inner.monomial(d)) for d in SCAN_DEGREES]
        thetas += [(f"spread-{d}", _spread(d)) for d in SCAN_DEGREES]
        thetas += [(f"clustered-8.{k}", _clustered(8, rng)) for k in range(3)]
        # Known failures at the defining commit: the Gram path raises
        # DegenerateGram or misses the oracle on these families.
        known = [(f"clustered-{d}", _clustered(d, rng)) for d in SCAN_DEGREES[1:]]
        known += [(f"random-{d}", _random_simple(d, rng)) for d in SCAN_DEGREES]
        self.thetas = [(name, theta, int(rng.integers(2**32))) for name, theta in thetas]
        self.known = [(name, theta, int(rng.integers(2**32))) for name, theta in known]
        # (name, theta, copies, phi_n for every n, psi1, psi2)
        z, z2 = inner.monomial(1), inner.monomial(2)
        b = inner.InnerFunction(((0.3, 2), (-0.2, 1)))
        density = [
            ("density-z2x40", z2, 40, z, z2, z),
            ("density-blaschke-x12", b, 12, inner.blaschke(0.3), b, inner.InnerFunction(((0.3, 1), (-0.2, 1)))),
        ]
        self.density = [(spec, int(rng.integers(2**32))) for spec in density]

    def items(self) -> list[Item]:
        out = [Item(name, self._theta_item(theta, seed)) for name, theta, seed in self.thetas]
        out += [Item(spec[0], self._density_item(*spec[1:], seed)) for spec, seed in self.density]
        return out

    def probe(self) -> list[Item]:
        return [Item(name, self._theta_item(theta, seed)) for name, theta, seed in self.known]

    @staticmethod
    def _theta_item(theta, seed):
        def run(counters):
            space = model_space.build_model_space(theta)
            oracle = float(np.linalg.norm(model_space.functional_calculus(space, theta), 2))
            _require(oracle <= ORACLE_TOL, f"oracle ||theta(S)|| = {oracle:.2e}")
            ambient = subspaces.AmbientSpace(space, SCAN_COPIES)
            m = jordan.random_invariant_subspace(ambient, np.random.default_rng(seed))
            rest, comp = jordan.subspace_models(ambient, m)
            total = rest.total_degree + comp.total_degree
            _require(total == SCAN_COPIES * theta.degree, f"model degree {total} != {SCAN_COPIES * theta.degree}")

        return run

    @staticmethod
    def _density_item(theta, copies, phi, psi1, psi2, seed):
        phi_list = [phi] * copies

        def run(counters):
            space = model_space.build_model_space(theta)
            g, fs = quasiaffine.random_density_targets(space, copies, phi_list, psi2, seed)
            schedule = quasiaffine.WeightSchedule.factorial(copies + 1)
            rows = quasiaffine.density_sweep(space, copies, phi_list, psi1, psi2, g, fs, schedule)
            _require(len(rows) == copies - 1, f"{len(rows)} rows for {copies} copies")
            worst = max(row.residual - row.bound for row in rows)
            _require(worst <= DENSITY_SLACK, f"residual exceeds bound by {worst:.2e}")

        return run


# ---------------------------------------------------------------------------
# cli-verbs
# ---------------------------------------------------------------------------

Z2 = {"zeros": [{"re": 0.0, "im": 0.0, "mult": 2}]}
Z1 = {"zeros": [{"re": 0.0, "im": 0.0, "mult": 1}]}
CLI_COPIES = 4
DEMO_PAIRS = 2
TRACEBACK = "Traceback (most recent call last)"


class CliVerbs:
    timing = "mean"
    name = "cli-verbs"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.src = Path(c0ops.cli.__file__).resolve().parent.parent
        self.dir = workdir
        ambient = subspaces.AmbientSpace.build(inner.monomial(2), CLI_COPIES)
        m1 = jordan.random_invariant_subspace(ambient, rng).to_dict()
        m2 = jordan.random_invariant_subspace(ambient, rng).to_dict()
        # the README's subspace example writes zeros as [re, im] pairs
        readme = json.loads(json.dumps(m1))
        readme["ambient"]["theta"] = {"zeros": [[0.0, 0.0], [0.0, 0.0]]}
        files = {
            "m1.json": m1,
            "m2.json": m2,
            "readme.json": readme,
            "density.json": {
                "theta": Z2, "copies": 12, "schedule": "factorial", "phi_all": Z1,
                "psi1": Z2, "psi2": Z1, "seed": int(rng.integers(2**31)),
            },
            "search.json": {"blocks": [2, 1], "grid_denominator": 8},
            "demo.json": {
                "theta": Z2, "copies": CLI_COPIES, "similarity": [[1.0, 0.35], [0.15, 1.4]],
                "pairs": DEMO_PAIRS, "seed": int(rng.integers(2**31)),
            },
        }
        for name, payload in files.items():
            (workdir / name).write_text(json.dumps(payload))

    def _verb(self, verb: str, args: list[str], check: Callable[[str], None]):
        def run(counters):
            proc = subprocess.run(
                [sys.executable, "-m", "c0ops.cli", verb, *args],
                cwd=self.dir, env=dict(os.environ, PYTHONPATH=str(self.src)),
                capture_output=True, text=True, timeout=120,
            )
            if TRACEBACK in proc.stderr:
                counters["cli.traceback.count"] += 1
                last = proc.stderr.strip().splitlines()[-1]
                raise CheckFailed(f"exit {proc.returncode} with traceback: {last}")
            _require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            check(proc.stdout)

        return run

    def items(self) -> list[Item]:
        return [
            Item("jordan-model", self._verb("jordan-model", ["--input", "m1.json"], _models_printed)),
            Item("verify-orbit", self._verb("verify-orbit", ["--input", "m1.json", "m2.json"], _verdict_orbit)),
            Item("density-sweep", self._verb("density-sweep", ["--config", "density.json"], _density_csv)),
            Item("counterexample", self._verb("counterexample", ["--config", "search.json"], _witness_found)),
            Item("cordiag-demo", self._verb("cordiag-demo", ["--config", "demo.json"], _demo_agrees)),
        ]

    def probe(self) -> list[Item]:
        return [Item("jordan-model-readme-format", self._verb("jordan-model", ["--input", "readme.json"], _models_printed))]


def _models_printed(out: str) -> None:
    _require("restriction model:" in out and "compression model:" in out, "models not printed")


def _verdict_orbit(out: str) -> None:
    _require("verdict: orbit\n" in out, "verdict line is not 'verdict: orbit'")


def _density_csv(out: str) -> None:
    rows = list(csv.DictReader(io.StringIO(out)))
    _require(len(rows) == 11, f"{len(rows)} CSV rows, expected 11")
    worst = max(float(r["residual"]) - float(r["bound"]) for r in rows)
    _require(worst <= DENSITY_SLACK, f"residual exceeds bound by {worst:.2e}")


def _witness_found(out: str) -> None:
    _require("witness found:" in out, "search found no witness")


def _demo_agrees(out: str) -> None:
    _require(re.search(rf"^disagreements: 0 / {DEMO_PAIRS}$", out, re.M) is not None, "conjugated verdicts disagree")


WORKLOADS = {w.name: w for w in (OrbitSweep, ExactSearch, ModelScan, CliVerbs)}
