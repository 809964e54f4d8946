"""Harness logic: orbit verification, counterexample search, diagonal demo.

The float verdict and the diagonal demo run on numpy.  The exact search
runs on ``exact_nilpotent``: it knows each subspace's restriction model
from its construction and enumerates each span once.  It compares
closed-form orbit types read off each basis, so it builds no commutant:
the order ideals of Dutta & Prasad (J. Combin. Theory A 118, 2011) for
cyclic closures, Krull-Schmidt for pickets (Ringel & Schmidmeier,
J. reine angew. Math. 614, 2008) for lattice elements.  Only its grid
vectors and bases hold fractions.

At each N of its sweep the verdict maps the per-copy canonical frame of
(phi, psi) by the orbit map Y, whose all-theta rows are per-copy weights,
and measures the gap back to that frame one copy group at a time; no
(N d)-row frame or square matrix is formed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import inner
from .errors import HypothesisViolated
from .exact_nilpotent import (
    NilpotentSum,
    _basis_strings,
    _grid_vectors,
    _lattice_elements,
    compression_model,
    direct_sum_nilpotent,
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


def _orbit_type(block_degrees: tuple[int, ...], key: tuple, basis: list[list]) -> set | Counter:
    """The orbit of an enumerated subspace under the invertible commutant, in closed form.

    - A cyclic closure (key of length 1) is C[T]v for its grid vector
      v = basis[0], and two closures share an orbit iff their vectors do.
      Each block i where v is nonzero gives the pair (e_i, d_i): the offset
      of v's first nonzero entry there and the block's degree.  An
      automorphism can carry (e, d) to (e', d') iff e' >= e and
      d' - e' <= d - e, so the orbit is fixed by the pairs that no other
      pair of v dominates: the order ideals of Dutta & Prasad, J. Combin.
      Theory A 118 (2011), carried over to C[t]/(t^d) modules.
    - A lattice element (+)_i z^{k_i}H^2 (-) z^{d_i}H^2 is a sum of pickets,
      and their category has Krull-Schmidt (Ringel & Schmidmeier,
      J. reine angew. Math. 614, 2008), so the orbit is the multiset of
      (d_i, d_i - k_i), d_i - k_i the number of its unit basis vectors in
      block i.
    """
    blocks = [(d, slice(start, start + d)) for d, start in zip(block_degrees, accumulate(block_degrees, initial=0))]
    if len(key) > 1:
        return Counter((d, sum(any(col[part]) for col in basis)) for d, part in blocks)
    v = basis[0]
    pairs = {(next(e for e, x in enumerate(v[part]) if x), d) for d, part in blocks if any(v[part])}
    return {(e, d) for e, d in pairs if not any((f, c) != (e, d) and f <= e and d - e <= c - f for f, c in pairs)}


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
    which each subspace is built with.  Two subspaces share an orbit iff
    their closed-form orbit types agree (``_orbit_type``), so each group
    compares its first member's type with every later member's and stops
    at the first that differs; ``pairs_checked`` counts these comparisons
    and ``budget`` bounds them.  Sharing an orbit is an equivalence
    relation, so the first pair of the group in combination order that
    lies in two orbits always holds the first member: this is the witness
    a pair-by-pair search finds.  A witness comes with the compression
    models of both subspaces.
    """
    t_op = direct_sum_nilpotent(block_degrees)
    subspaces = _enumerated_subspaces(t_op, grid_step)
    groups: dict[tuple, list[list[list]]] = {}
    for key, basis in subspaces:
        if len(basis) not in (0, t_op.n):
            groups.setdefault(key, []).append(basis)

    pairs_checked = 0
    budget_exhausted = False
    witness = None
    compression_models = None
    for key in sorted(groups, key=lambda k: sum(k)):
        b1, *others = groups[key]
        first = None  # b1's type, read at the group's first comparison
        for b2 in others:
            if pairs_checked >= budget:
                budget_exhausted = True
                break
            pairs_checked += 1
            if first is None:
                first = _orbit_type(t_op.block_degrees, key, b1)
            if _orbit_type(t_op.block_degrees, key, b2) != first:
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
