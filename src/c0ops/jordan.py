"""Jordan models and the canonical interleaved subspace.

Jordan structure is read off from the ranks of b_a(A)^k, the powers of the
Blaschke factor at each zero a of the reference inner function, so the
eigenvalues are anchored to its zero list instead of computed spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

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
    orthonormalize,
)

ANNIHILATION_TOL = 1e-8
RANK_TOL = 1e-8  # singular values above RANK_TOL * max(1, s_max) count toward a rank
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

    def complement(self, theta: InnerFunction, copies: int) -> "JordanModel":
        """(theta/phi_{N-1-n})_{n<N}: the model left over in N = copies copies of S(theta).

        Klein's rule: at a zero of theta of multiplicity m, C^{Nd} is a free
        C[z]/(z^m)-module of rank N, and a submodule of type lambda has as
        cotype the complement of lambda in the N x m rectangle (T. Klein,
        J. London Math. Soc. 43, 1968). So when T|M has model self, the
        compression of T_N to M^perp has this one.
        """
        if len(self) > copies:
            raise ValueError(f"a model of length {len(self)} does not fit {copies} copies")
        return JordanModel(tuple(quotient(theta, self.part(copies - 1 - n)) for n in range(copies)))

    def to_dict(self) -> dict:
        return {"parts": [p.to_dict() for p in self.parts]}

    @classmethod
    def from_dict(cls, data: dict) -> "JordanModel":
        return cls(tuple(InnerFunction.from_dict(p) for p in data["parts"]))


def _rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    thr = RANK_TOL * max(1.0, float(s[0]))
    r = int(np.sum(s > thr))
    if 0 < r < s.size and s[r] > 0.0:
        if s[r - 1] / s[r] < RANK_GAP_MIN:
            raise IllConditioned(
                f"singular values {s[r-1]:.3e} / {s[r]:.3e} bracket the rank "
                "threshold without a clear gap"
            )
    return r


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


def jordan_model_of(a_mat: np.ndarray, theta_ref: InnerFunction) -> JordanModel:
    """Jordan model of A, anchored to the zeros of theta_ref.

    Each b_a(A) gives the ranks of its powers up to the multiplicity m of a
    (on S(theta) they are partial isometries, so every rank has a clear
    gap), and b_a(A)^m joins theta_ref(A), which must vanish. The chains
    must fill dim A.
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    n = a_mat.shape[0]
    if n == 0:
        return JordanModel()
    value = np.eye(n, dtype=complex)  # theta_ref(A), one zero at a time
    # per_zero[i] = (zero, chain length) pairs at the i-th zero, largest first
    per_zero: list[list[tuple[complex, int]]] = []
    for a, m in theta_ref.zeros:
        factor = blaschke_of_matrix(blaschke(a), a_mat)
        power, ranks = factor, [n, _rank(factor)]
        for _ in range(m - 1):
            power = power @ factor
            ranks.append(_rank(power))
        value = value @ power
        per_zero.append([(a, s) for s in chain_lengths(ranks)])
    # ||.||_2 <= ||.||_F, so the 2-norm (an SVD) is needed only above the tolerance
    if np.linalg.norm(value) > ANNIHILATION_TOL:
        res = float(np.linalg.norm(value, 2))
        if res > ANNIHILATION_TOL:
            raise NotAnnihilated(f"theta_ref(A) has norm {res:.3e} > {ANNIHILATION_TOL}")
    # part n holds the n-th chain of every zero that has one
    model = JordanModel(tuple(InnerFunction(tuple(filter(None, row))) for row in zip_longest(*per_zero)))
    if model.total_degree != n:
        raise IllConditioned(f"Jordan chains of total length {model.total_degree} do not fill dim A = {n}")
    return model


def restriction_matrix(ambient: AmbientSpace, m_frame: SubspaceFrame) -> np.ndarray:
    """Matrix of T|M in the frame coordinates of M, which must be invariant."""
    ok, residual = is_invariant(m_frame)
    if not ok:
        raise NotInvariant(f"invariance residual {residual:.3e}")
    q = m_frame.frame
    return q.conj().T @ ambient.apply(q)


def subspace_models(
    ambient: AmbientSpace, m_frame: SubspaceFrame
) -> tuple[JordanModel, JordanModel]:
    """Jordan models of the restriction T|M and the compression T_{M^perp}.

    Only T|M is read; restriction_matrix checks that M is invariant. The
    compression model is its rectangle complement (JordanModel.complement),
    by Klein's rule wherever each copy's block is similar to S(theta): in
    the uniform ambient and in any conjugated copy of it.
    """
    rest = jordan_model_of(restriction_matrix(ambient, m_frame), ambient.theta)
    return rest, rest.complement(ambient.theta, ambient.copies)


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
    """Frame for the canonical interleaved subspace in (+)_{n<copies} H(theta).

    It is the direct sum of gamma_n H^2 (-) theta H^2 over the copies, so
    the frame is kept per copy, one block per gamma_n. Copy n adds
    S(theta/gamma_n) to the restriction and S(gamma_n) to the compression,
    so a proper divisor phi_k or psi_k adds parts beyond the given models.
    Past the interleave length gamma_n = theta, and those copies share one
    empty block.
    """
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
    head = gammas[: 2 * max(len(restriction_model), len(compression_model))]
    frame = {g: invariant_subspace_of_block(ambient.model, g).frame for g in dict.fromkeys(head)}
    empty = np.zeros((ambient.model.dim, 0), dtype=complex)
    return SubspaceFrame.per_copy(ambient, [frame[g] for g in head] + [empty] * (copies - len(head)))


def random_invariant_subspace(
    ambient: AmbientSpace,
    rng: np.random.Generator,
    num_vectors: int = 1,
) -> SubspaceFrame:
    """Orbit closure of random vectors: span of T^k x over all k and x."""
    n = ambient.total_dim
    cols = []
    for _ in range(num_vectors):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range(n):
            cols.append(x.copy())
            x = ambient.apply(x)
    return SubspaceFrame(ambient, orthonormalize(np.column_stack(cols)))
