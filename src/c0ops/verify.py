"""Harness logic: orbit verification, counterexample search, diagonal demo."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy as sp

from . import inner
from .errors import (
    DivisibilityFailure,
    HypothesisViolated,
    IllConditioned,
    ModelTooLong,
)
from .exact_nilpotent import (
    direct_sum_nilpotent,
    nilpotent_jordan_model,
    orbit_closure,
    restriction_on_basis,
)
from .inner import InnerFunction
from .jordan import (
    JordanModel,
    canonical_subspace,
    subspace_models,
)
from .model_space import build_model_space
from .quasiaffine import WeightSchedule, build_Y_main
from .subspaces import (
    AmbientSpace,
    SubspaceFrame,
    image_closure,
    orthonormalize,
    principal_distance,
)

DEFAULT_SWEEP = (4, 8, 12, 16)
DEFAULT_GATE = 0.05
CONVERGED_TOL = 1e-8
CURVE_SLACK = 1e-10


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the two-condition orbit test plus the distance sweep."""

    restriction_models_equal: bool
    compression_divisibility: bool
    orbit_constructed: bool
    distance_curve: tuple[tuple[int, float], ...]
    verdict: str  # "orbit" | "no-orbit" | "inconclusive"
    restriction_models: tuple[JordanModel, JordanModel] = (JordanModel(), JordanModel())
    compression_models: tuple[JordanModel, JordanModel] = (JordanModel(), JordanModel())

    def to_dict(self) -> dict:
        return {
            "restriction_models_equal": self.restriction_models_equal,
            "compression_divisibility": self.compression_divisibility,
            "orbit_constructed": self.orbit_constructed,
            "distance_curve": [[n, d] for n, d in self.distance_curve],
            "verdict": self.verdict,
            "restriction_models": [m.to_dict() for m in self.restriction_models],
            "compression_models": [m.to_dict() for m in self.compression_models],
        }


def _curve_accepts(curve, gate: float) -> bool:
    """Final distance under the gate and a non-increasing tail.

    A curve that is already at roundoff level everywhere counts as
    converged without a monotonicity requirement.
    """
    if not curve:
        return False
    values = [d for _, d in curve]
    if values[-1] > gate:
        return False
    if all(v <= CONVERGED_TOL for v in values):
        return True
    tail = values[-3:]
    return all(b <= a + CURVE_SLACK for a, b in zip(tail, tail[1:]))


def verify_orbit(
    ambient: AmbientSpace,
    m1: SubspaceFrame,
    m2: SubspaceFrame,
    sweep=DEFAULT_SWEEP,
    gate: float = DEFAULT_GATE,
    schedule: WeightSchedule | None = None,
) -> VerifyReport:
    """Test whether M2 lies in the quasiaffine orbit of M1 for T_N."""
    theta = ambient.theta
    rest1, comp1 = subspace_models(ambient, m1)
    rest2, comp2 = subspace_models(ambient, m2)
    models_equal = rest1 == rest2
    # psi = compression model of M1, tau = compression model of M2;
    # injectability of the compressions is termwise divisibility tau_n | psi_n
    chain = max(len(comp1), len(comp2))
    divisibility = all(
        inner.divides(comp2.part(n), comp1.part(n)) for n in range(chain)
    )
    base = dict(
        restriction_models_equal=models_equal,
        compression_divisibility=divisibility,
        restriction_models=(rest1, rest2),
        compression_models=(comp1, comp2),
    )
    if not (models_equal and divisibility):
        return VerifyReport(
            orbit_constructed=False,
            distance_curve=(),
            verdict="no-orbit",
            **base,
        )
    if schedule is None:
        schedule = WeightSchedule.factorial(64)
    needed = 2 * max(len(rest1), len(comp1), len(comp2))
    curve = []
    for n_copies in sweep:
        if n_copies < max(needed, 2):
            continue
        model_ambient = AmbientSpace(ambient.model, n_copies)
        try:
            y_rec = build_Y_main(model_ambient, rest1, comp1, comp2, schedule)
        except DivisibilityFailure:
            return VerifyReport(
                orbit_constructed=False,
                distance_curve=tuple(curve),
                verdict="no-orbit",
                **base,
            )
        except (HypothesisViolated, ModelTooLong):
            return VerifyReport(
                orbit_constructed=False,
                distance_curve=tuple(curve),
                verdict="inconclusive",
                **base,
            )
        m1_canon = canonical_subspace(theta, rest1, comp1, n_copies, model_ambient)
        m2_canon = canonical_subspace(theta, rest1, comp2, n_copies, model_ambient)
        dist = principal_distance(image_closure(y_rec.matrix, m1_canon), m2_canon)
        curve.append((n_copies, dist))
    ok = _curve_accepts(curve, gate)
    return VerifyReport(
        orbit_constructed=bool(curve),
        distance_curve=tuple(curve),
        verdict="orbit" if ok else "inconclusive",
        **base,
    )


# ---------------------------------------------------------------------------
# Counterexample search over exact nilpotent direct sums
# ---------------------------------------------------------------------------


def commutant_basis(t_mat: sp.Matrix) -> list[sp.Matrix]:
    """Exact basis of {X : XT = TX}."""
    n = t_mat.rows
    syms = sp.symbols(f"x0:{n * n}")
    x_mat = sp.Matrix(n, n, syms)
    eqs = (x_mat @ t_mat - t_mat @ x_mat).vec()
    sol_basis = sp.linear_eq_to_matrix(list(eqs), list(syms))[0].nullspace()
    return [sp.Matrix(n, n, list(v)) for v in sol_basis]


def _subspace_signature(basis: sp.Matrix):
    rref, _ = basis.T.rref()
    rows = [tuple(rref.row(i)) for i in range(rref.rows) if any(rref.row(i))]
    return tuple(rows)


def _lattice_elements(block_degrees: list[int]) -> list[sp.Matrix]:
    """Products of per-block divisor subspaces z^k H^2 (-) z^d H^2."""
    n = sum(block_degrees)
    per_block = []
    offset = 0
    for d in block_degrees:
        choices = []
        for k in range(d + 1):
            cols = [offset + j for j in range(k, d)]
            choices.append(cols)
        per_block.append(choices)
        offset += d
    elements = []
    for combo in itertools.product(*per_block):
        cols = [c for block in combo for c in block]
        mat = sp.zeros(n, len(cols))
        for j, c in enumerate(cols):
            mat[c, j] = 1
        elements.append(mat)
    return elements


def _grid_vectors(n: int, step: Fraction, reach: int):
    """e_i and e_i + t e_j for grid values t, as exact rational vectors."""
    vals = [
        Fraction(k) * step
        for k in range(-reach, reach + 1)
        if k != 0
    ]
    vecs = [sp.Matrix([1 if r == i else 0 for r in range(n)]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for t in vals:
                v = sp.zeros(n, 1)
                v[i] = 1
                v[j] = sp.Rational(t.numerator, t.denominator)
                vecs.append(v)
    return vecs


def decide_commutant_orbit(
    comm_basis: list[sp.Matrix], b1: sp.Matrix, b2: sp.Matrix
) -> bool:
    """Exact decision: does an invertible commutant element map M1 onto M2?

    At these dimensions a quasiaffinity is invertible, so membership in
    the orbit reduces to solving linear mapping constraints inside the
    commutant and testing whether the solution family contains an
    invertible element (determinant not identically zero).
    """
    if b1.cols != b2.cols:
        return False
    n = b1.rows
    left_null = b2.H.nullspace()  # rows annihilating M2
    rows = []
    for c_i in comm_basis:
        col = []
        for b_col in range(b1.cols):
            image = c_i @ b1.col(b_col)
            for ell in left_null:
                col.append((ell.H @ image)[0, 0])
        rows.append(col)
    if left_null and b1.cols:
        coeff = sp.Matrix(rows).T  # constraints x params
        params = coeff.nullspace()
    else:
        params = [sp.eye(len(comm_basis)).col(i) for i in range(len(comm_basis))]
    if not params:
        return False
    family = [
        sum((v[i] * comm_basis[i] for i in range(len(comm_basis))), sp.zeros(n, n))
        for v in params
    ]
    # fast path: random exact samples usually certify invertibility
    rng = np.random.default_rng(12345)
    for _ in range(4):
        weights = [int(w) for w in rng.integers(-5, 6, size=len(family))]
        x_mat = sum((w * f for w, f in zip(weights, family)), sp.zeros(n, n))
        if x_mat.det() != 0:
            return True
    # symbolic certificate that no invertible element exists
    syms = sp.symbols(f"t0:{len(family)}")
    x_sym = sum((s * f for s, f in zip(syms, family)), sp.zeros(n, n))
    return sp.expand(x_sym.det()) != 0


@dataclass
class CounterexampleReport:
    block_degrees: tuple[int, ...]
    subspace_count: int
    pairs_checked: int
    witness: dict | None
    exhausted: bool
    budget_exhausted: bool

    def to_dict(self) -> dict:
        return {
            "block_degrees": list(self.block_degrees),
            "subspace_count": self.subspace_count,
            "pairs_checked": self.pairs_checked,
            "witness": self.witness,
            "exhausted": self.exhausted,
            "budget_exhausted": self.budget_exhausted,
        }


def counterexample_search(
    block_degrees: list[int],
    grid_step: Fraction = Fraction(1, 64),
    budget: int = 100000,
) -> CounterexampleReport:
    """Search for equal restriction models outside a common commutant orbit.

    Enumerates orbit closures of grid vectors plus the exact lattice
    elements, groups subspaces by the Jordan model of the restriction and
    decides commutant-orbit membership pair by pair, stopping at the
    first witness.
    """
    t_mat = direct_sum_nilpotent(block_degrees)
    n = t_mat.rows
    max_deg = max(block_degrees)
    reach = int(1 / grid_step) if grid_step <= 1 else 1
    seen = {}
    for vec in _grid_vectors(n, grid_step, reach):
        basis = orbit_closure(t_mat, [vec])
        seen.setdefault(_subspace_signature(basis), basis)
    for basis in _lattice_elements(block_degrees):
        if basis.cols == 0:
            continue
        seen.setdefault(_subspace_signature(basis), basis)
    groups: dict[tuple, list[sp.Matrix]] = {}
    for basis in seen.values():
        if basis.cols in (0, n):
            continue
        model = nilpotent_jordan_model(
            restriction_on_basis(t_mat, basis), max_deg
        )
        key = tuple(p.degree for p in model.parts)
        groups.setdefault(key, []).append(basis)

    comm = commutant_basis(t_mat)
    pairs_checked = 0
    budget_exhausted = False
    witness = None
    for key in sorted(groups, key=lambda k: sum(k)):
        members = groups[key]
        for b1, b2 in itertools.combinations(members, 2):
            if pairs_checked >= budget:
                budget_exhausted = True
                break
            pairs_checked += 1
            if not decide_commutant_orbit(comm, b1, b2):
                witness = {
                    "restriction_model_degrees": list(key),
                    "m1_basis": [[str(v) for v in b1.col(j)] for j in range(b1.cols)],
                    "m2_basis": [[str(v) for v in b2.col(j)] for j in range(b2.cols)],
                }
                break
        if witness or budget_exhausted:
            break
    return CounterexampleReport(
        tuple(block_degrees),
        len(seen),
        pairs_checked,
        witness,
        exhausted=not budget_exhausted and witness is None,
        budget_exhausted=budget_exhausted,
    )


# ---------------------------------------------------------------------------
# Diagonal similarity demonstration
# ---------------------------------------------------------------------------


@dataclass
class DemoRun:
    pair_index: int
    jordan_verdict: str
    conjugated_verdict: str

    @property
    def agrees(self) -> bool:
        return self.jordan_verdict == self.conjugated_verdict


def conjugated_ambient(
    theta: InnerFunction, copies: int, similarity: np.ndarray
) -> AmbientSpace:
    """Ambient for (+)_{n<copies} (S S(theta) S^{-1})."""
    similarity = np.asarray(similarity, dtype=complex)
    if np.linalg.cond(similarity) > 1e6:
        raise IllConditioned("similarity condition number exceeds 1e6")
    model = build_model_space(theta)
    block = similarity @ model.shift_matrix @ np.linalg.inv(similarity)
    return AmbientSpace(model, copies, block)


def cordiag_demo(
    theta: InnerFunction,
    copies: int,
    similarity: np.ndarray,
    num_pairs: int,
    seed: int = 0,
    sweep=DEFAULT_SWEEP,
    gate: float = DEFAULT_GATE,
) -> list[DemoRun]:
    """Paired verdicts in the Jordan ambient and its conjugated copy."""
    from .jordan import random_invariant_subspace

    similarity = np.asarray(similarity, dtype=complex)
    jordan_amb = AmbientSpace.build(theta, copies)
    conj_amb = conjugated_ambient(theta, copies, similarity)
    big_s = np.kron(np.eye(copies), similarity)
    rng = np.random.default_rng(seed)
    runs = []
    for idx in range(num_pairs):
        m1 = random_invariant_subspace(jordan_amb, rng, num_vectors=1 + idx % 2)
        m2 = random_invariant_subspace(jordan_amb, rng)
        v1 = verify_orbit(jordan_amb, m1, m2, sweep, gate)
        m1c = SubspaceFrame(conj_amb, orthonormalize(big_s @ m1.frame))
        m2c = SubspaceFrame(conj_amb, orthonormalize(big_s @ m2.frame))
        v2 = verify_orbit(conj_amb, m1c, m2c, sweep, gate)
        runs.append(DemoRun(idx, v1.verdict, v2.verdict))
    return runs
