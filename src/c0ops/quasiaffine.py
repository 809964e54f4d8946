"""Quasiaffinity constructions on truncations of H(theta) (+) ... (+) H(theta).

Implements the norm-preserving solver, the triangular quasiaffinity X
with weighted diagonal, the density-approximant sweep with its explicit
error bound, and the globally assembled quasiaffinity Y built from a
pairing of copies. X is one copy row (``CopyBlocks``): its weights
(1, c_0, ..., c_{k-1}) and a head block omega_m(S)/(m+1) per slot whose
symbol is not theta, since theta(S(theta)) = 0. Y is one normalised X per
pairing row on that row's copies, applied to frames block by block; a
row whose symbols are all theta is its weights alone, with no functional
calculus or SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import inner
from .errors import HypothesisViolated
from .inner import InnerFunction, quotient
from .jordan import JordanModel
from .model_space import ModelSpace, ModelVector, functional_calculus
from .subspaces import (
    AmbientSpace,
    CopyBlocks,
    SubspaceFrame,
    copywise,
    image_closure,
    invariant_subspace_of_block,
    orthocomplement,
    principal_distance,
)

SOLVER_TOL = 1e-9
# compression_intertwiner's checks; the norms are relative to max(1, ||X||)
INTERTWINE_TOL = 1e-9  # ||X T1 - T2 X||
IMAGE_GAP_TOL = 1e-6  # gap from the closure of X M1 to M2
COMPRESSION_TOL = 1e-8  # ||A C1 - C2 A|| on the complements
FULL_ROW_RANK_TOL = 1e-8  # the last of A's row-count singular values


@dataclass(frozen=True)
class WeightSchedule:
    """Positive diagonal weights c_n with their convergence diagnostic."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values or not all(0 < c < math.inf for c in self.values):
            raise ValueError("weights must be positive and finite")

    @classmethod
    def factorial(cls, length: int) -> "WeightSchedule":
        """c_n = 1/(n+1)!; 1/171! is below the smallest float, so at most 170 weights."""
        if length > 170:
            raise HypothesisViolated(f"the factorial schedule has at most 170 weights, not {length}")
        return cls(tuple(1.0 / math.factorial(n + 1) for n in range(length)))

    @classmethod
    def custom(cls, values) -> "WeightSchedule":
        return cls(tuple(float(v) for v in values))

    def value(self, n: int) -> float:
        return self.values[n]

    def condition_sequence(self) -> list[float]:
        """K(m) = (m+1) c_m (sum_{n<m} 1/((n+1)c_n)^2)^(1/2) for m = 1..length-1.

        Read from K(0) = 0 and K(m+1) = (m+2) c_{m+1} / ((m+1) c_m) (K(m)^2 + 1)^(1/2),
        which squares no weight; refused once a K(m) overflows.
        """
        ks, k = [], 0.0
        for m, (c, c_next) in enumerate(zip(self.values, self.values[1:])):
            k = (m + 2) * c_next / ((m + 1) * c) * math.hypot(k, 1.0)
            if k == math.inf:
                raise OverflowError(f"K({m + 1}) overflows")
            ks.append(k)
        return ks

    def looks_divergent(self) -> bool:
        """True when the tail of K(m) is not decreasing (schedule warning)."""
        ks = self.condition_sequence()
        if len(ks) < 6:
            return False
        tail = ks[4:]
        return any(b > a for a, b in zip(tail, tail[1:]))


@dataclass(frozen=True)
class QuasiaffinityRecord:
    """A constructed intertwiner with its measured quality numbers.

    ``operator`` is copy rows, one for X and one per pairing row for Y;
    they are never expanded, and ``image_closure`` applies them row by row.
    """

    operator: CopyBlocks = field(repr=False)
    intertwining_residual: float
    sigma_min: float
    norm: float  # the 2-norm of the operator


def _symbol(theta: InnerFunction, phi: InnerFunction, psi: InnerFunction) -> InnerFunction:
    """omega = psi / (theta/phi), refused unless theta/phi divides psi.

    omega(S) maps (theta/phi)H^2 (-) theta H^2 onto psi H^2 (-) theta H^2.
    """
    theta_over_phi = quotient(theta, phi)
    if not inner.divides(theta_over_phi, psi):
        raise HypothesisViolated(f"theta/phi = {theta_over_phi!r} does not divide {psi!r}")
    return quotient(psi, theta_over_phi)


def _require_member(frame: np.ndarray, v: ModelVector, message: str) -> None:
    """Refuse v unless it lies in the span of the orthonormal frame; a non-finite v never does.

    The test ||v - P v|| <= SOLVER_TOL max(1, ||v||) is made on u = v / s,
    s = max |v_i|, so no norm overflows however large v is; a zero v is a member.
    """
    scale = float(np.max(np.abs(v.coords), initial=0.0))
    if scale == 0.0:
        return
    if not math.isfinite(scale):
        raise HypothesisViolated(message)
    u = v.coords / scale
    if not np.linalg.norm(u - frame @ (frame.conj().T @ u)) <= SOLVER_TOL * max(1.0 / scale, np.linalg.norm(u)):
        raise HypothesisViolated(message)


def _solve(
    space: ModelSpace, domain: np.ndarray, w_mat: np.ndarray, off: np.ndarray, g: ModelVector
) -> ModelVector:
    """A least-squares preimage of g under w_mat inside span(domain), minus its part in span(off).

    The frames are orthonormal; ``off`` spans (theta/omega)H^2 (-) theta H^2,
    so the result is the projection onto H(theta/omega).
    """
    sol, *_ = np.linalg.lstsq(w_mat @ domain, g.coords, rcond=None)
    f0 = domain @ sol
    return ModelVector(space, f0 - off @ (off.conj().T @ f0))


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
    omega = _symbol(theta, phi, psi)
    _require_member(
        invariant_subspace_of_block(space, psi).frame, g, "g lies outside psi H^2 (-) theta H^2"
    )
    return _solve(
        space,
        invariant_subspace_of_block(space, quotient(theta, phi)).frame,
        functional_calculus(space, omega),
        invariant_subspace_of_block(space, quotient(theta, omega)).frame,
        g,
    )


def build_X(
    space: ModelSpace,
    copies: int,
    omega_list: list[InnerFunction],
    schedule: WeightSchedule,
) -> QuasiaffinityRecord:
    """The quasiaffinity X = [[I, omega_m(S)/(m+1), ...], [0, diag(c_m I)]].

    It acts on H(theta) (+) (+)_{m<copies} H(theta), the head then slot m,
    kept as one copy row: the weights (1, c_0, ...) and a head block per
    slot whose symbol is not theta. A theta slot has the exact zero head
    block theta(S(theta)) = 0, so it decouples: its weight is a singular
    value of X, only X reduced to the head and the other slots takes an
    SVD, and only their commutators enter the residual of XT - TX; with
    every symbol theta there is no functional calculus and no SVD.
    """
    if copies < 1:
        raise HypothesisViolated("need at least one summand")
    if len(omega_list) != copies:
        raise HypothesisViolated("omega list length must equal copies")
    theta = space.theta
    # slot m has symbol w; most symbols are theta itself, so identity goes first
    slots = [(m, w) for m, w in enumerate(omega_list, 1) if w is not theta and w != theta]
    distinct = dict.fromkeys(w for _, w in slots)
    for omega in distinct:
        if not inner.divides(omega, theta):
            raise HypothesisViolated(f"{omega!r} does not divide theta")
    if len(schedule.values) < copies:
        raise HypothesisViolated("schedule shorter than the truncation")
    d, s_mat = space.dim, space.shift_matrix
    # a divisor of theta of full degree is theta
    ops = {w: functional_calculus(space, w) for w in distinct if w.degree < theta.degree}
    head = tuple((m, ops[w] / m) for m, w in slots if w in ops)
    values = (1.0, *schedule.values[:copies])
    weights = np.array(values)
    sigma_min, norm, residual = min(values), max(values), 0.0
    if head:
        coupled = [0, *(m for m, _ in head)]
        reduced = np.diag(np.repeat(weights[coupled], d).astype(complex))
        reduced[:d, d:] = np.hstack([blk for _, blk in head])
        s = np.linalg.svd(reduced, compute_uv=False)
        decoupled = np.delete(weights, coupled)  # singular values of X
        sigma_min, norm = min((s[-1], *decoupled)), max((s[0], *decoupled))
        # with T = I (x) S, XT - TX vanishes outside the head row, whose slot-m
        # block is (omega_m(S) S - S omega_m(S)) / (m+1)
        comm = {w: op @ s_mat - s_mat @ op for w, op in ops.items()}
        residual = float(np.linalg.norm(np.hstack([comm[omega_list[m - 1]] / m for m, _ in head]), 2))
    operator = CopyBlocks(copies + 1, d, ((tuple(range(copies + 1)), weights, head),))
    return QuasiaffinityRecord(operator, residual, float(sigma_min), float(norm))


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
        raise HypothesisViolated("need copies >= 2 for a sweep")
    if len(phi_list) != copies or len(target_f) != copies:
        raise HypothesisViolated("phi list and targets must match copies")
    if not inner.divides(psi2, psi1):
        raise HypothesisViolated("psi2 must divide psi1")
    if not inner.divides(psi1, theta):
        raise HypothesisViolated("psi1 must divide theta")
    for a, b in zip(phi_list, phi_list[1:]):
        if not inner.divides(b, a):
            raise HypothesisViolated("phi_{n+1} must divide phi_n")
    distinct = dict.fromkeys(phi_list)
    if not all(inner.divides(phi, theta) for phi in distinct):
        raise HypothesisViolated("each phi_n must divide theta")
    symbol = {phi: _symbol(theta, phi, psi2) for phi in distinct}
    slot_frame = {phi: invariant_subspace_of_block(space, quotient(theta, phi)).frame for phi in distinct}
    psi2_frame = invariant_subspace_of_block(space, psi2).frame
    _require_member(psi2_frame, target_g, "G lies outside psi2 H^2 (-) theta H^2")
    for n, (phi, f_n) in enumerate(zip(phi_list, target_f)):
        _require_member(slot_frame[phi], f_n, f"F_{n} lies outside (theta/phi_{n})H^2 (-) theta H^2")

    omegas = [symbol[phi] for phi in phi_list]
    x_rec = build_X(space, copies, omegas, schedule)
    omega_op = {w: functional_calculus(space, w) for w in dict.fromkeys(omegas)}
    off_frame = {w: invariant_subspace_of_block(space, quotient(theta, w)).frame for w in omega_op}
    f_norms = [f.norm for f in target_f]
    f_total = math.sqrt(sum(v * v for v in f_norms))
    # the head slot of a preimage lands in the target head unscaled, so it
    # can carry the part of G already in psi1 H^2 (-) theta H^2 exactly
    psi1_frame = invariant_subspace_of_block(space, psi1).frame
    g_res = target_g.coords - psi1_frame @ (psi1_frame.conj().T @ target_g.coords)
    # g_res carries its sum over n < m from one m to the next, adding term
    # m - 1 in the order a per-m recompute adds it
    ks, rows = schedule.condition_sequence(), []
    for m in range(1, copies):
        weight = m * schedule.value(m - 1)
        g_res -= omega_op[omegas[m - 1]] @ target_f[m - 1].coords / weight
        # h_m solves omega_m(S) h = (m+1) g_res as solve_norm_preserving does,
        # on the frames and omega_m(S) built once above
        g_m = ModelVector(space, (m + 1) * g_res)
        _require_member(psi2_frame, g_m, "g lies outside psi H^2 (-) theta H^2")
        h_m = _solve(space, slot_frame[phi_list[m]], omega_op[omegas[m]], off_frame[omegas[m]], g_m)
        # approximant = G (+) (F_0,...,F_{m-1}, c_m h_m, 0, ...)
        defect = np.linalg.norm(
            target_f[m].coords - schedule.value(m) * h_m.coords
        )
        tail = sum(v * v for v in f_norms[m + 1 :])
        residual = math.sqrt(defect**2 + tail)
        # (m+1) c_m (||G|| + ||F|| s_m) with s_m^2 = sum_{n<m} 1/((n+1)c_n)^2, as K(m) = (m+1) c_m s_m
        bound = (m + 1) * schedule.value(m) * target_g.norm + f_total * ks[m - 1]
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
    slots = phi_list[: min(copies, support)]
    slot_frame = {phi: invariant_subspace_of_block(space, quotient(theta, phi)).frame for phi in dict.fromkeys(slots)}
    f_list = [_draw(slot_frame[phi]) for phi in slots]
    f_list += [np.zeros(space.dim, dtype=complex)] * (copies - len(slots))
    total = math.sqrt(sum(float(np.linalg.norm(v)) ** 2 for v in f_list))
    if total == 0:
        raise HypothesisViolated(
            f"every target slot is empty: (theta/phi_n)H^2 (-) theta H^2 = 0 for each n < {len(slots)}"
        )
    f_vecs = [ModelVector(space, v / total) for v in f_list]
    return ModelVector(space, g), f_vecs


def build_Y_main(
    ambient: AmbientSpace,
    restriction_model: JordanModel,
    psi_model: JordanModel,
    tau_model: JordanModel,
    schedule: WeightSchedule,
) -> QuasiaffinityRecord:
    """Global quasiaffinity on (+)_{n<N} H(theta), kept as its row blocks.

    Odd copy 2r+1 heads row r; the Cantor pairing hands the row the even
    copies of its slots 0..k-1. Row r is build_X over these copies divided
    by its 2-norm, recorded on the copy list (2r+1, then the paired
    copies in slot order), so ``operator.rows`` holds the pairing. Copies
    no row uses keep the identity, and no (N d)-square matrix is formed.
    Defined for the Jordan ambient, whose T_N repeats S(theta) on every
    copy, so sigma_min(Y) and the residual of Y T_N - T_N Y are extremes
    over rows.
    """
    theta = ambient.theta
    n_copies = ambient.copies
    d = ambient.model.dim
    if not ambient.is_jordan:
        raise HypothesisViolated("build_Y_main needs the Jordan ambient block S(theta)")
    chain_len = max(len(psi_model), len(tau_model))
    for n in range(chain_len):
        if not inner.divides(tau_model.part(n), psi_model.part(n)):
            raise HypothesisViolated(f"tau_{n} does not divide psi_{n}")
    for model in (restriction_model, psi_model, tau_model):
        if model.parts and not inner.divides(model.parts[0], theta):
            raise HypothesisViolated("leading model part must divide theta")
    if n_copies < 2:
        raise HypothesisViolated("need at least two copies")
    # row 0 is the longest row: slot w sits at Cantor index w(w+3)/2 on even
    # copy 2j, j < ceil(N/2), so it has the largest k with k(k+1)/2 <= ceil(N/2)
    if len(schedule.values) < (math.isqrt(8 * ((n_copies + 1) // 2) + 1) - 1) // 2:
        raise HypothesisViolated("schedule shorter than the truncation")

    n_heads = n_copies // 2  # odd copies 1, 3, ..., one head per row
    # Cantor pair j = w(w+1)/2 + slot is (row, slot) = (w - slot, slot) and goes
    # to even copy 2j; j grows with the slot, so rows[r][slot] is its copy
    cantor_rows = [w - m for w in range(math.isqrt(n_copies) + 2) for m in range(w + 1)]
    rows: list[list[int]] = [[] for _ in range(n_heads)]
    for copy, row in zip(range(0, n_copies, 2), cantor_rows):
        if row < n_heads:
            rows[row].append(copy)

    blocks = []
    sigma_min, residual = 1.0, 0.0  # the numbers of an identity copy
    symbols: dict[tuple[InnerFunction, InnerFunction], InnerFunction] = {}
    for row, paired in enumerate(rows):
        if not paired:
            continue
        # a padded slot or padded row has a zero canonical summand, so the
        # safe symbol is theta (zero block)
        omegas = [theta] * len(paired)
        if row < len(tau_model):
            tau_n = tau_model.parts[row]
            for slot, phi_part in enumerate(restriction_model.parts[: len(paired)]):
                key = (phi_part, tau_n)
                if key not in symbols:
                    symbols[key] = _symbol(theta, phi_part, tau_n)
                omegas[slot] = symbols[key]
        x_rec = build_X(ambient.model, len(paired), omegas, schedule)
        (_, weights, head), scale = x_rec.operator.rows[0], x_rec.norm
        head = tuple((i, b / scale) for i, b in head) if head else ()
        blocks.append(((2 * row + 1, *paired), weights / scale, head))
        sigma_min = min(sigma_min, x_rec.sigma_min / scale)
        residual = max(residual, x_rec.intertwining_residual / scale)
    # each row is divided by its 2-norm and the other copies carry I_d
    return QuasiaffinityRecord(CopyBlocks(n_copies, d, tuple(blocks)), residual, sigma_min, 1.0)


def compression_intertwiner(
    ambient1: AmbientSpace,
    m1: SubspaceFrame,
    ambient2: AmbientSpace,
    m2: SubspaceFrame,
    x_mat: np.ndarray,
) -> np.ndarray:
    """A = P_{M2^perp} X | M1^perp in complement frame coordinates."""
    x_mat = np.asarray(x_mat, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(x_mat, 2)))
    x_t1 = copywise(ambient1.block.T, x_mat.T).T  # X T1 = ((I (x) B1^T) X^T)^T
    if np.linalg.norm(x_t1 - ambient2.apply(x_mat), 2) > INTERTWINE_TOL * scale:
        raise HypothesisViolated("X does not intertwine the ambients")
    if principal_distance(image_closure(x_mat, m1), m2) > IMAGE_GAP_TOL:
        raise HypothesisViolated("closure of X M1 is not M2")
    q1 = orthocomplement(m1).frame
    q2 = orthocomplement(m2).frame
    a_mat = q2.conj().T @ x_mat @ q1
    c1 = q1.conj().T @ ambient1.apply(q1)
    c2 = q2.conj().T @ ambient2.apply(q2)
    if np.linalg.norm(a_mat @ c1 - c2 @ a_mat, 2) > COMPRESSION_TOL * scale:
        raise HypothesisViolated("compressions are not intertwined")
    if a_mat.shape[0] > 0:
        s = np.linalg.svd(a_mat, compute_uv=False)
        if s.size < a_mat.shape[0] or s[a_mat.shape[0] - 1] <= FULL_ROW_RANK_TOL * max(1.0, s[0]):
            raise HypothesisViolated("A does not have full row rank")
    return a_mat
