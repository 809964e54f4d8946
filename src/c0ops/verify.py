"""Harness logic: orbit verification, counterexample search, diagonal demo.

The float verdict and the diagonal demo run on numpy.  The exact search
runs on ``exact_nilpotent``: it knows each subspace's restriction model
from its construction and enumerates each span once, its orbit decisions
are integer eliminations, and only its grid vectors and bases hold
fractions.

At each N of its sweep the verdict maps the per-copy canonical frame of
(phi, psi) by the orbit map Y, whose all-theta rows are per-copy weights,
and measures the gap back to that frame one copy group at a time; no
(N d)-row frame or square matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import inner
from .errors import HypothesisViolated
from .exact_nilpotent import (
    NilpotentSum,
    Polynomial,
    _basis_strings,
    _dot,
    _echelon,
    _grid_vectors,
    _integral,
    _lattice_elements,
    _nullspace_den,
    commutant_basis,
    complement_basis,
    compression_model,
    direct_sum_nilpotent,
    linear_forms,
    orbit_closure,
)
from .inner import InnerFunction
from .jordan import (
    JordanModel,
    canonical_subspace,
    random_invariant_subspace,
    subspace_models,
)
from .quasiaffine import WeightSchedule, build_Y_main
from .subspaces import (
    AmbientSpace,
    SubspaceFrame,
    copywise,
    image_closure,
    orthonormalize,
    principal_distance,
)

DEFAULT_SWEEP = (4, 8, 12, 16)
DEFAULT_GATE = 0.05
CONVERGED_TOL = 1e-8
CURVE_SLACK = 1e-10
Y_SCHEDULE = WeightSchedule.factorial(64)  # the diagonal weights of every Y


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
) -> VerifyReport:
    """Test whether M2 lies in the quasiaffine orbit of M1 for T_N.

    The verdict reads the Jordan models of M1 and M2. A compression model
    is the complement of its restriction model, so compression_divisibility
    holds whenever restriction_models_equal does, and every no-orbit comes
    from unequal restriction models. The distance curve compares
    Y canon(rest1, comp1) with canon(rest1, comp1), not M1 and M2.
    """
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
    needed = 2 * max(len(rest1), len(comp1))
    curve = []
    for n_copies in sweep:
        if n_copies < max(needed, 2):
            continue
        model_ambient = AmbientSpace(ambient.model, n_copies)
        try:
            y_rec = build_Y_main(model_ambient, rest1, comp1, comp1, Y_SCHEDULE)
        except HypothesisViolated:
            return VerifyReport(
                orbit_constructed=False,
                distance_curve=tuple(curve),
                verdict="inconclusive",
                **base,
            )
        canon = canonical_subspace(theta, rest1, comp1, n_copies, model_ambient)
        dist = principal_distance(image_closure(y_rec.operator, canon), canon)
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


def _enumerated_subspaces(t_op: NilpotentSum, grid_step: Fraction) -> list[tuple[tuple, list[list]]]:
    """(restriction model degrees, basis) of the distinct grid orbit closures, then lattice elements.

    Each model is known from the construction: the orbit closure of one
    vector is a single Krylov chain, so its model is (len(basis),), and
    ``_lattice_elements`` gives the parts of a lattice element.  Each span
    comes once: ``_grid_vectors`` gives one vector per distinct closure, a
    lattice element with one nonempty block is a unit's chain and is left
    out, and one with two or more is not cyclic, so it is no grid span,
    and distinct coordinate sets span distinct subspaces.
    """
    grid = (orbit_closure(t_op, [vec]) for vec in _grid_vectors(t_op.block_degrees, grid_step))
    lattice = _lattice_elements(t_op.block_degrees)
    return [((len(basis),), basis) for basis in grid] + [(key, basis) for key, basis in lattice if len(key) > 1]


def _support(vec: list) -> list[tuple[int, object]]:
    return [(i, x) for i, x in enumerate(vec) if x]


@cache
def _sample_weights(count: int) -> tuple[tuple[int, ...], ...]:
    """Four fixed integer weight vectors of the given length, for sampling a family."""
    rng = np.random.default_rng(12345)
    return tuple(tuple(int(w) for w in rng.integers(-5, 6, size=count)) for _ in range(4))


def decide_commutant_orbit(comm_basis: list, b1: list[list], b2: list[list]) -> bool:
    """Exact decision: does an invertible commutant element map M1 onto M2?

    At these dimensions a quasiaffinity is invertible, so membership in
    the orbit reduces to solving linear mapping constraints inside the
    commutant and testing whether the solution family contains an
    invertible element (determinant not identically zero). X = sum y_i C_i
    maps M1 into M2 iff L^T X B1 = 0, where the columns of L span the
    orthogonal complement of M2. The C_i of ``commutant_basis`` are 0/1
    matrices with disjoint supports, so X holds y_i wherever C_i has a
    one, and entry (a, b) of L^T C_i B1 sums L[r, a] B1[c, b] over those
    positions (r, c). Everything is in integers: the columns of B1 are
    scaled to integers, L and the parameter vectors y that span the
    family are integer nullspaces, and a few fixed integer combinations
    of them are tried before the determinant certificate.
    """
    if len(b1) != len(b2):
        return False
    if not b1:
        return True  # the zero subspace is its own orbit
    n = len(b1[0])
    slot = [[None] * n for _ in range(n)]  # slot[r][c] = i where C_i has a one at (r, c)
    for i, ones in enumerate(comm_basis):
        for r, c in ones:
            slot[r][c] = i
    b1_supports = [_support(_integral(b)) for b in b1]
    constraints = []
    for left in map(_support, complement_basis(b2, n)):
        for right in b1_supports:
            row = [0] * len(comm_basis)
            for r, x in left:
                for c, y in right:
                    if slot[r][c] is not None:
                        row[slot[r][c]] += x * y
            constraints.append(row)
    params = _nullspace_den(constraints, len(comm_basis))[0]
    if not params:
        return False

    def member(coeffs, zero=0):
        """sum_i coeffs[i] C_i as an n x n matrix."""
        return [[zero if i is None else coeffs[i] for i in row] for row in slot]

    # fast path: integer samples usually certify invertibility (full rank)
    for w in _sample_weights(len(params)):
        if len(_echelon(member([_dot(w, col) for col in zip(*params)]))[1]) == n:
            return True
    # exact certificate that no invertible element exists: det(sum t_j X_j) over Z[t_0, ...],
    # X_j the member of the j-th parameter vector
    return len(_echelon(member(linear_forms(params), Polynomial()))[1]) == n


@dataclass
class CounterexampleReport:
    block_degrees: tuple[int, ...]
    subspace_count: int
    pairs_checked: int
    witness: dict | None
    exhausted: bool
    budget_exhausted: bool
    # compression models of the witness's M1 and M2: why the pair is a witness
    witness_compression_models: tuple[JordanModel, JordanModel] | None = None

    def to_dict(self) -> dict:
        comp = self.witness_compression_models
        return {
            "block_degrees": list(self.block_degrees),
            "subspace_count": self.subspace_count,
            "pairs_checked": self.pairs_checked,
            "witness": self.witness,
            "witness_compression_models": None if comp is None else [m.to_dict() for m in comp],
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
    elements and groups subspaces by the Jordan model of the restriction,
    which each subspace is built with. Same orbit is an equivalence
    relation (the invertible commutant elements form a group), so each
    group decides its first member against every later one and stops at
    the first witness. The first failing pair of the group in combination
    order always holds the first member, so this is the witness a
    pair-by-pair search finds. A witness comes with the compression models
    of both subspaces.
    """
    t_op = direct_sum_nilpotent(block_degrees)
    subspaces = _enumerated_subspaces(t_op, grid_step)
    groups: dict[tuple, list[list[list]]] = {}
    for key, basis in subspaces:
        if len(basis) not in (0, t_op.n):
            groups.setdefault(key, []).append(basis)

    comm = commutant_basis(t_op)
    pairs_checked = 0
    budget_exhausted = False
    witness = None
    compression_models = None
    for key in sorted(groups, key=lambda k: sum(k)):
        b1, *others = groups[key]
        for b2 in others:
            if pairs_checked >= budget:
                budget_exhausted = True
                break
            pairs_checked += 1
            if not decide_commutant_orbit(comm, b1, b2):
                witness = {
                    "restriction_model_degrees": list(key),
                    "m1_basis": _basis_strings(b1),
                    "m2_basis": _basis_strings(b2),
                }
                compression_models = (compression_model(t_op, b1), compression_model(t_op, b2))
                break
        if witness or budget_exhausted:
            break
    return CounterexampleReport(
        tuple(block_degrees),
        len(subspaces),
        pairs_checked,
        witness,
        exhausted=not budget_exhausted and witness is None,
        budget_exhausted=budget_exhausted,
        witness_compression_models=compression_models,
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
    jordan_amb = AmbientSpace.build(theta, copies)
    conj_amb = AmbientSpace(jordan_amb.model, copies, similarity)

    def conjugated(m: SubspaceFrame) -> SubspaceFrame:
        """M carried by I (x) S, applied copy by copy."""
        return SubspaceFrame(conj_amb, orthonormalize(copywise(conj_amb.similarity, m.frame)))

    rng = np.random.default_rng(seed)
    runs = []
    for idx in range(num_pairs):
        m1 = random_invariant_subspace(jordan_amb, rng, num_vectors=1 + idx % 2)
        m2 = random_invariant_subspace(jordan_amb, rng)
        v1 = verify_orbit(jordan_amb, m1, m2, sweep, gate)
        v2 = verify_orbit(conj_amb, conjugated(m1), conjugated(m2), sweep, gate)
        runs.append(DemoRun(idx, v1.verdict, v2.verdict))
    return runs
