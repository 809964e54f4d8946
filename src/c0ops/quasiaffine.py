"""Quasiaffinity constructions on truncations of H(theta) (+) ... (+) H(theta).

Implements the norm-preserving solver, the triangular quasiaffinity X
with weighted diagonal, the density-approximant sweep with its explicit
error bound, and the globally assembled quasiaffinity Y built from a
pairing of copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import inner
from .errors import (
    HypothesisViolated,
    NotInSubspace,
    DivisibilityFailure,
    PreconditionViolated,
    TruncationTooSmall,
)
from .inner import InnerFunction, quotient
from .jordan import JordanModel
from .model_space import (
    ModelSpace,
    ModelVector,
    functional_calculus,
    project_onto_submodel,
)
from .subspaces import (
    AmbientSpace,
    SubspaceFrame,
    image_closure,
    invariant_subspace_of_block,
    orthocomplement,
    principal_distance,
)

SOLVER_TOL = 1e-9


@dataclass(frozen=True)
class WeightSchedule:
    """Positive diagonal weights c_n with their convergence diagnostic."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values or any(c <= 0 for c in self.values):
            raise ValueError("weights must be positive")

    @classmethod
    def factorial(cls, length: int) -> "WeightSchedule":
        return cls(tuple(1.0 / math.factorial(n + 1) for n in range(length)))

    @classmethod
    def custom(cls, values) -> "WeightSchedule":
        return cls(tuple(float(v) for v in values))

    def value(self, n: int) -> float:
        return self.values[n]

    def condition_value(self, m: int) -> float:
        """K(m) = (m+1) c_m (sum_{n<m} 1/((n+1)c_n)^2)^(1/2)."""
        if not 1 <= m < len(self.values):
            raise IndexError("m outside the materialized range")
        acc = sum(1.0 / ((n + 1) * self.values[n]) ** 2 for n in range(m))
        return (m + 1) * self.values[m] * math.sqrt(acc)

    def condition_sequence(self) -> list[float]:
        """K(m) for m = 1..length-1."""
        return [self.condition_value(m) for m in range(1, len(self.values))]

    def looks_divergent(self) -> bool:
        """True when the tail of K(m) is not decreasing (schedule warning)."""
        ks = self.condition_sequence()
        if len(ks) < 6:
            return False
        tail = ks[4:]
        return any(b > a for a, b in zip(tail, tail[1:]))


@dataclass(frozen=True)
class QuasiaffinityRecord:
    """A constructed intertwiner with its measured quality numbers."""

    matrix: np.ndarray = field(repr=False)
    intertwining_residual: float
    sigma_min: float
    pairing: tuple[tuple[int, int, int], ...] = ()  # (copy, row, slot)


def solve_norm_preserving(
    space: ModelSpace,
    phi: InnerFunction,
    psi: InnerFunction,
    g: ModelVector,
) -> ModelVector:
    """Solve omega(S(theta)) f = g with norm(f) = norm(g).

    omega = psi / (theta/phi); f is the projection onto H(theta/omega) of
    a least-squares preimage taken inside (theta/phi)H^2 (-) theta H^2.
    """
    theta = space.theta
    if not inner.divides(phi, theta):
        raise HypothesisViolated("phi must divide theta")
    if not inner.divides(psi, theta):
        raise HypothesisViolated("psi must divide theta")
    theta_over_phi = quotient(theta, phi)
    if not inner.divides(theta_over_phi, psi):
        raise HypothesisViolated("theta/phi must divide psi")
    omega = quotient(psi, theta_over_phi)

    target_frame = invariant_subspace_of_block(space, psi)
    g_proj = target_frame.frame @ (target_frame.frame.conj().T @ g.coords)
    if np.linalg.norm(g.coords - g_proj) > SOLVER_TOL * max(1.0, g.norm):
        raise NotInSubspace("g lies outside psi H^2 (-) theta H^2")

    domain = invariant_subspace_of_block(space, theta_over_phi)
    w_mat = functional_calculus(space, omega)
    restricted = w_mat @ domain.frame
    sol, *_ = np.linalg.lstsq(restricted, g.coords, rcond=None)
    f0 = ModelVector(space, domain.frame @ sol)
    return project_onto_submodel(space, f0, omega)


def build_X(
    space: ModelSpace,
    copies: int,
    omega_list: list[InnerFunction],
    schedule: WeightSchedule,
) -> QuasiaffinityRecord:
    """The quasiaffinity X = [[I, omega_m(S)/(m+1), ...], [0, diag(c_m I)]].

    It acts on H(theta) (+) (+)_{m<copies} H(theta), the head then slot m.
    """
    if copies < 1:
        raise TruncationTooSmall("need at least one summand")
    if len(omega_list) != copies:
        raise HypothesisViolated("omega list length must equal copies")
    for omega in omega_list:
        if not inner.divides(omega, space.theta):
            raise HypothesisViolated(f"{omega!r} does not divide theta")
    if len(schedule.values) < copies:
        raise HypothesisViolated("schedule shorter than the truncation")
    d = space.dim
    x_mat = np.zeros(((copies + 1) * d, (copies + 1) * d), dtype=complex)
    x_mat[:d, :d] = np.eye(d)
    for m, omega in enumerate(omega_list):
        blk = slice((m + 1) * d, (m + 2) * d)
        x_mat[:d, blk] = functional_calculus(space, omega) / (m + 1)
        x_mat[blk, blk] = schedule.value(m) * np.eye(d)
    big_op = AmbientSpace(space, copies + 1).operator_matrix
    residual = float(np.linalg.norm(x_mat @ big_op - big_op @ x_mat, 2))
    sigma_min = float(np.linalg.svd(x_mat, compute_uv=False)[-1])
    return QuasiaffinityRecord(x_mat, residual, sigma_min)


@dataclass(frozen=True)
class DensityRow:
    m: int
    residual: float
    bound: float
    sigma_min: float
    intertwine: float


def density_sweep(
    space: ModelSpace,
    copies: int,
    phi_list: list[InnerFunction],
    psi1: InnerFunction,
    psi2: InnerFunction,
    target_g: ModelVector,
    target_f: list[ModelVector],
    schedule: WeightSchedule,
) -> list[DensityRow]:
    """Approximant residuals for filling N_{psi2} (+) M from N_{psi1} (+) M.

    For each m the approximant reproduces the head and the first m slots
    exactly; the reported bound dominates the leftover slot defect plus
    the tail of the target.
    """
    theta = space.theta
    if copies < 2:
        raise TruncationTooSmall("need copies >= 2 for a sweep")
    if len(phi_list) != copies or len(target_f) != copies:
        raise HypothesisViolated("phi list and targets must match copies")
    if not inner.divides(psi2, psi1):
        raise HypothesisViolated("psi2 must divide psi1")
    if not inner.divides(psi1, theta):
        raise HypothesisViolated("psi1 must divide theta")
    for a, b in zip(phi_list, phi_list[1:]):
        if not inner.divides(b, a):
            raise HypothesisViolated("phi_{n+1} must divide phi_n")
    omegas = []
    for phi in phi_list:
        if not inner.divides(phi, theta):
            raise HypothesisViolated("each phi_n must divide theta")
        tof = quotient(theta, phi)
        if not inner.divides(tof, psi2):
            raise HypothesisViolated("theta/phi_n must divide psi2")
        omegas.append(quotient(psi2, tof))

    head_frame = invariant_subspace_of_block(space, psi2)
    if np.linalg.norm(
        target_g.coords - head_frame.frame @ (head_frame.frame.conj().T @ target_g.coords)
    ) > SOLVER_TOL * max(1.0, target_g.norm):
        raise NotInSubspace("G lies outside psi2 H^2 (-) theta H^2")
    for n, f_n in enumerate(target_f):
        blk = invariant_subspace_of_block(space, quotient(theta, phi_list[n]))
        if np.linalg.norm(
            f_n.coords - blk.frame @ (blk.frame.conj().T @ f_n.coords)
        ) > SOLVER_TOL * max(1.0, f_n.norm):
            raise NotInSubspace(f"F_{n} lies outside (theta/phi_{n})H^2 (-) theta H^2")

    x_rec = build_X(space, copies, omegas, schedule)
    omega_ops = [functional_calculus(space, w) for w in omegas]
    f_norms = [f.norm for f in target_f]
    f_total = math.sqrt(sum(v * v for v in f_norms))
    # the head slot of a preimage lands in the target head unscaled, so it
    # can carry the part of G already in psi1 H^2 (-) theta H^2 exactly
    psi1_frame = invariant_subspace_of_block(space, psi1).frame
    g_work = target_g.coords - psi1_frame @ (psi1_frame.conj().T @ target_g.coords)
    rows = []
    for m in range(1, copies):
        g_res = g_work.copy()
        for n in range(m):
            g_res -= omega_ops[n] @ target_f[n].coords / ((n + 1) * schedule.value(n))
        h_m = solve_norm_preserving(
            space, phi_list[m], psi2, ModelVector(space, (m + 1) * g_res)
        )
        # approximant = G (+) (F_0,...,F_{m-1}, c_m h_m, 0, ...)
        defect = np.linalg.norm(
            target_f[m].coords - schedule.value(m) * h_m.coords
        )
        tail = sum(v * v for v in f_norms[m + 1 :])
        residual = math.sqrt(defect**2 + tail)
        s_m = math.sqrt(
            sum(1.0 / ((n + 1) * schedule.value(n)) ** 2 for n in range(m))
        )
        bound = (m + 1) * schedule.value(m) * (target_g.norm + f_total * s_m)
        bound += math.sqrt(sum(v * v for v in f_norms[m:]))
        rows.append(
            DensityRow(m, float(residual), float(bound), x_rec.sigma_min, x_rec.intertwining_residual)
        )
    return rows


def random_density_targets(
    space: ModelSpace,
    copies: int,
    phi_list: list[InnerFunction],
    psi2: InnerFunction,
    seed: int,
    support: int = 6,
) -> tuple[ModelVector, list[ModelVector]]:
    """Seeded admissible targets (G, F) with F supported on the first slots.

    G is a unit vector of psi2 H^2 (-) theta H^2 and F has unit total norm
    spread over slots n < support; the zero tail keeps the truncated sweep
    residual meaningful (no fixed leftover mass beyond the last solvable
    slot).
    """
    theta = space.theta
    rng = np.random.default_rng(seed)

    def _draw(frame):
        k = frame.shape[1]
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return frame @ v

    head = invariant_subspace_of_block(space, psi2).frame
    if head.shape[1] == 0:
        g = np.zeros(space.dim, dtype=complex)
    else:
        g = _draw(head)
        g = g / np.linalg.norm(g)
    f_list = []
    for n in range(copies):
        if n < support:
            blk = invariant_subspace_of_block(space, quotient(theta, phi_list[n])).frame
            f_list.append(_draw(blk))
        else:
            f_list.append(np.zeros(space.dim, dtype=complex))
    total = math.sqrt(sum(float(np.linalg.norm(v)) ** 2 for v in f_list))
    f_vecs = [ModelVector(space, v / total) for v in f_list]
    return ModelVector(space, g), f_vecs


def _cantor_unpair(j: int) -> tuple[int, int]:
    w = int((math.isqrt(8 * j + 1) - 1) // 2)
    t = w * (w + 1) // 2
    m = j - t
    return w - m, m


def build_Y_main(
    ambient: AmbientSpace,
    restriction_model: JordanModel,
    psi_model: JordanModel,
    tau_model: JordanModel,
    schedule: WeightSchedule,
) -> QuasiaffinityRecord:
    """Global quasiaffinity on (+)_{n<N} H(theta) from the per-row operators.

    Odd copy 2r+1 heads row r; the Cantor pairing hands the row the even
    copies of its slots 0..k-1. Row r is build_X over these copies divided
    by its 2-norm, and copies no row uses keep the identity. Defined for
    the Jordan ambient, whose T_N repeats S(theta) on every copy, so
    sigma_min(Y) and the residual of Y T_N - T_N Y are extremes over rows.
    """
    theta = ambient.theta
    n_copies = ambient.copies
    d = ambient.model.dim
    if not np.array_equal(ambient.block, ambient.model.shift_matrix):
        raise HypothesisViolated("build_Y_main needs the Jordan ambient block S(theta)")
    chain_len = max(len(psi_model), len(tau_model))
    for n in range(chain_len):
        if not inner.divides(tau_model.part(n), psi_model.part(n)):
            raise DivisibilityFailure(
                f"tau_{n} does not divide psi_{n}"
            )
    for model in (restriction_model, psi_model, tau_model):
        if model.parts and not inner.divides(model.parts[0], theta):
            raise HypothesisViolated("leading model part must divide theta")
    if n_copies < 2:
        raise TruncationTooSmall("need at least two copies")

    n_heads = n_copies // 2  # odd copies 1, 3, ..., one head per row
    # j = w(w+1)/2 + slot grows with the slot: rows[r][slot] is its copy
    rows: list[list[int]] = [[] for _ in range(n_heads)]
    for j in range(0, (n_copies + 1) // 2):
        row, _ = _cantor_unpair(j)
        if row < n_heads:
            rows[row].append(2 * j)

    y_mat = np.eye(n_copies * d, dtype=complex)
    pairing_log: list[tuple[int, int, int]] = []
    sigma_min, residual = 1.0, 0.0  # the numbers of an identity copy
    for row, paired in enumerate(rows):
        if not paired:
            continue
        tau_n = tau_model.part(row)
        omegas = []
        for slot, copy in enumerate(paired):
            phi_part = restriction_model.part(slot)
            if phi_part.is_one() or row >= len(tau_model):
                # padded slot or padded row: the corresponding canonical
                # summand is zero, so the safe symbol is theta (zero block)
                omega = theta
            else:
                theta_over_phi = quotient(theta, phi_part)
                if not inner.divides(theta_over_phi, tau_n):
                    raise HypothesisViolated(
                        f"theta/phi_{slot} does not divide tau_{row}"
                    )
                omega = quotient(tau_n, theta_over_phi)
            omegas.append(omega)
            pairing_log.append((copy, row, slot))
        x_rec = build_X(ambient.model, len(paired), omegas, schedule)
        scale = float(np.linalg.norm(x_rec.matrix, 2))
        idx = np.concatenate([np.arange(c * d, (c + 1) * d) for c in [2 * row + 1, *paired]])
        y_mat[np.ix_(idx, idx)] = x_rec.matrix / scale
        sigma_min = min(sigma_min, x_rec.sigma_min / scale)
        residual = max(residual, x_rec.intertwining_residual / scale)
    return QuasiaffinityRecord(y_mat, residual, sigma_min, tuple(pairing_log))


def compression_intertwiner(
    ambient1: AmbientSpace,
    m1: SubspaceFrame,
    ambient2: AmbientSpace,
    m2: SubspaceFrame,
    x_mat: np.ndarray,
) -> np.ndarray:
    """A = P_{M2^perp} X | M1^perp in complement frame coordinates."""
    x_mat = np.asarray(x_mat, dtype=complex)
    t1, t2 = ambient1.operator_matrix, ambient2.operator_matrix
    scale = max(1.0, float(np.linalg.norm(x_mat, 2)))
    if np.linalg.norm(x_mat @ t1 - t2 @ x_mat, 2) > 1e-9 * scale:
        raise PreconditionViolated("X does not intertwine the ambients")
    if principal_distance(image_closure(x_mat, m1), m2) > 1e-6:
        raise PreconditionViolated("closure of X M1 is not M2")
    q1 = orthocomplement(m1).frame
    q2 = orthocomplement(m2).frame
    a_mat = q2.conj().T @ x_mat @ q1
    c1 = q1.conj().T @ t1 @ q1
    c2 = q2.conj().T @ t2 @ q2
    if np.linalg.norm(a_mat @ c1 - c2 @ a_mat, 2) > 1e-8 * scale:
        raise PreconditionViolated("compressions are not intertwined")
    if a_mat.shape[0] > 0:
        s = np.linalg.svd(a_mat, compute_uv=False)
        if s.size < a_mat.shape[0] or s[a_mat.shape[0] - 1] <= 1e-8 * max(1.0, s[0]):
            raise PreconditionViolated("A does not have full row rank")
    return a_mat
