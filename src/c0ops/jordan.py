"""Minimal functions, Jordan models and the canonical interleaved subspace.

Jordan structure is read off from rank sequences of (A - a I)^k, with the
eigenvalue locations anchored to the zero list of the reference inner
function instead of computed spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inner
from .errors import (
    IllConditioned,
    ModelTooLong,
    NotAnnihilated,
    NotInvariant,
)
from .inner import InnerFunction, ONE, blaschke, quotient
from .model_space import blaschke_of_matrix
from .subspaces import (
    AmbientSpace,
    SubspaceFrame,
    invariant_subspace_of_block,
    is_invariant,
    orthocomplement,
)

ANNIHILATION_TOL = 1e-8
RANK_GAP_MIN = 1e2


@dataclass(frozen=True)
class JordanModel:
    """Divisibility-nonincreasing list of inner functions (phi_0, phi_1, ...)."""

    parts: tuple[InnerFunction, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        while parts and parts[-1].is_one():
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if not inner.divides(b, a):
                raise ValueError("parts must form a divisibility chain")
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)

    def part(self, n: int) -> InnerFunction:
        """phi_n, with the constant 1 beyond the recorded length."""
        return self.parts[n] if n < len(self.parts) else ONE

    @property
    def total_degree(self) -> int:
        return sum(p.degree for p in self.parts)

    def to_dict(self) -> dict:
        return {"parts": [p.to_dict() for p in self.parts]}

    @classmethod
    def from_dict(cls, data: dict) -> "JordanModel":
        return cls(tuple(InnerFunction.from_dict(p) for p in data["parts"]))


def _rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    thr = 1e-8 * max(1.0, float(s[0]))
    r = int(np.sum(s > thr))
    if 0 < r < s.size and s[r] > 0.0:
        if s[r - 1] / s[r] < RANK_GAP_MIN:
            raise IllConditioned(
                f"singular values {s[r-1]:.3e} / {s[r]:.3e} bracket the rank "
                "threshold without a clear gap"
            )
    return r


def _rank_sequence(a_mat, zero, mult):
    """Ranks of (A - zero I)^k for k = 0..mult."""
    n = a_mat.shape[0]
    base = a_mat - zero * np.eye(n, dtype=complex)
    ranks = [n]
    power = np.eye(n, dtype=complex)
    for _ in range(mult):
        power = power @ base
        ranks.append(_rank(power))
    return ranks


def chain_lengths(ranks: list[int]) -> list[int]:
    """Jordan chain lengths, largest first, from the ranks of N^0, ..., N^m.

    The number of chains of length >= k is ranks[k-1] - ranks[k], so the
    drops never increase; ranks whose drops do increase belong to no
    nilpotent and are refused.
    """
    counts = [r0 - r1 for r0, r1 in zip(ranks, ranks[1:])]
    if any(b > a for a, b in zip(counts, counts[1:])):
        raise IllConditioned(f"ranks {list(ranks)} fit no nilpotent: their drops increase")
    longest = counts[0] if counts else 0
    return [sum(1 for c in counts if c > n) for n in range(longest)]


def _check_annihilated(a_mat: np.ndarray, theta_ref: InnerFunction):
    if a_mat.shape[0] == 0:
        return
    res = float(np.linalg.norm(blaschke_of_matrix(theta_ref, a_mat), 2))
    if res > ANNIHILATION_TOL:
        raise NotAnnihilated(
            f"theta_ref(A) has norm {res:.3e} > {ANNIHILATION_TOL}"
        )


def minimal_function(a_mat: np.ndarray, theta_ref: InnerFunction) -> InnerFunction:
    """Smallest divisor of theta_ref annihilating A: the first part of its Jordan model."""
    return jordan_model_of(a_mat, theta_ref).part(0)


def jordan_model_of(a_mat: np.ndarray, theta_ref: InnerFunction) -> JordanModel:
    """Jordan model of A, anchored to the zeros of theta_ref."""
    a_mat = np.asarray(a_mat, dtype=complex)
    _check_annihilated(a_mat, theta_ref)
    if a_mat.shape[0] == 0:
        return JordanModel()
    # per_zero[i] = (zero, chain length) pairs at the i-th zero, largest first
    per_zero: list[list[tuple[complex, int]]] = []
    for a, m in theta_ref.zeros:
        sizes = chain_lengths(_rank_sequence(a_mat, a, m))
        per_zero.append([(a, s) for s in sizes])
    length = max((len(s) for s in per_zero), default=0)
    parts = []
    for n_th in range(length):
        p = ONE
        for sizes in per_zero:
            if n_th < len(sizes):
                a, s = sizes[n_th]
                p = p * blaschke(a, s)
        parts.append(p)
    return JordanModel(tuple(parts))


def _require_invariant(m_frame: SubspaceFrame) -> None:
    ok, residual = is_invariant(m_frame)
    if not ok:
        raise NotInvariant(f"invariance residual {residual:.3e}")


def _compress(ambient: AmbientSpace, q: np.ndarray) -> np.ndarray:
    """Matrix of P_Q T | span(Q) in the orthonormal frame Q."""
    return q.conj().T @ ambient.operator_matrix @ q


def restriction_matrix(ambient: AmbientSpace, m_frame: SubspaceFrame) -> np.ndarray:
    """Matrix of T|M in the frame coordinates of M."""
    _require_invariant(m_frame)
    return _compress(ambient, m_frame.frame)


def compression_matrix(ambient: AmbientSpace, m_frame: SubspaceFrame) -> np.ndarray:
    """Matrix of the compression of T to the orthocomplement of M."""
    _require_invariant(m_frame)
    return _compress(ambient, orthocomplement(m_frame).frame)


def subspace_models(
    ambient: AmbientSpace, m_frame: SubspaceFrame
) -> tuple[JordanModel, JordanModel]:
    """Jordan models of the restriction T|M and the compression T_{M^perp}.

    The invariance of M is checked once, by restriction_matrix.
    """
    theta = ambient.theta
    rest = jordan_model_of(restriction_matrix(ambient, m_frame), theta)
    comp = jordan_model_of(_compress(ambient, orthocomplement(m_frame).frame), theta)
    return rest, comp


def interleaved_divisors(
    theta: InnerFunction,
    restriction_model: JordanModel,
    compression_model: JordanModel,
    copies: int,
) -> list[InnerFunction]:
    """The gamma_n list: theta/phi_{n/2} for n even, psi_{(n-1)/2} for n odd.

    Beyond the interleave length each gamma_n is theta (a zero summand).
    """
    interleave = 2 * max(len(restriction_model), len(compression_model))
    if interleave > copies:
        raise ModelTooLong(
            f"need at least {interleave} copies, ambient has {copies}"
        )
    gammas = []
    for n in range(copies):
        if n >= interleave:
            gammas.append(theta)
        elif n % 2 == 0:
            gammas.append(quotient(theta, restriction_model.part(n // 2)))
        else:
            k = (n - 1) // 2
            gammas.append(
                compression_model.parts[k]
                if k < len(compression_model)
                else theta
            )
    return gammas


def canonical_subspace(
    theta: InnerFunction,
    restriction_model: JordanModel,
    compression_model: JordanModel,
    copies: int,
    ambient: AmbientSpace | None = None,
) -> SubspaceFrame:
    """Frame for the canonical interleaved subspace in (+)_{n<copies} H(theta)."""
    if restriction_model.parts and not inner.divides(
        restriction_model.parts[0], theta
    ):
        raise ValueError("phi_0 must divide theta")
    if compression_model.parts and not inner.divides(
        compression_model.parts[0], theta
    ):
        raise ValueError("psi_0 must divide theta")
    if ambient is None:
        ambient = AmbientSpace.build(theta, copies)
    gammas = interleaved_divisors(theta, restriction_model, compression_model, copies)
    d = ambient.model.dim
    blocks = [invariant_subspace_of_block(ambient.model, g) for g in gammas]
    total_k = sum(b.dim for b in blocks)
    frame = np.zeros((copies * d, total_k), dtype=complex)
    col = 0
    for n, b in enumerate(blocks):
        frame[n * d : (n + 1) * d, col : col + b.dim] = b.frame
        col += b.dim
    return SubspaceFrame(ambient, frame)


def random_invariant_subspace(
    ambient: AmbientSpace,
    rng: np.random.Generator,
    num_vectors: int = 1,
    integer: bool = False,
) -> SubspaceFrame:
    """Orbit closure of random vectors: span of T^k x over all k and x."""
    from .subspaces import orthonormalize

    n = ambient.total_dim
    cols = []
    for _ in range(num_vectors):
        if integer:
            x = rng.integers(-3, 4, size=n).astype(complex)
        else:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range(n):
            cols.append(x.copy())
            x = ambient.operator_matrix @ x
    return SubspaceFrame(ambient, orthonormalize(np.column_stack(cols)))
