"""Orthonormal frames for subspaces of (sums of) model spaces."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import inner
from .errors import AmbientMismatch, NotADivisor
from .inner import InnerFunction
from .model_space import ModelSpace, ModelVector, build_model_space, functional_calculus

INVARIANCE_TOL = 1e-9
RANK_REL_TOL = 1e-8


@dataclass(frozen=True)
class AmbientSpace:
    """N copies of H(theta) carrying T_N = B (+) ... (+) B.

    The per-copy block B defaults to S(theta). A block similar to it, such
    as S S(theta) S^{-1}, hosts a conjugated operator on the same
    coordinate space. T_N = I_N (x) B is derived here and nowhere else.
    """

    model: ModelSpace
    copies: int
    block: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        block = self.model.shift_matrix if self.block is None else self.block
        block = np.array(block, dtype=complex)
        d = self.model.dim
        if block.shape != (d, d):
            raise ValueError(f"block shape {block.shape} is not ({d}, {d})")
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

    @cached_property
    def operator_matrix(self) -> np.ndarray:
        op = np.kron(np.eye(self.copies), self.block)
        op.setflags(write=False)
        return op

    @property
    def theta(self) -> InnerFunction:
        return self.model.theta

    @property
    def total_dim(self) -> int:
        return self.copies * self.model.dim

    @classmethod
    def build(cls, theta: InnerFunction, copies: int) -> "AmbientSpace":
        return cls(build_model_space(theta), copies)


@dataclass(frozen=True)
class CopyBlocks:
    """An operator on (+)_{n<copies} C^dim that is the identity off a few copy groups.

    Each row ``(copy list, block)`` maps the listed copies, stacked in list
    order, by the square block; the lists are disjoint, and a copy in none
    of them passes unchanged. ``X @ frame`` applies it row by row, so no
    (copies*dim)-square matrix is formed unless ``dense`` is read.
    """

    copies: int
    dim: int
    rows: tuple[tuple[tuple[int, ...], np.ndarray], ...] = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.copies * self.dim
        return n, n

    def _index(self, copy_list: tuple[int, ...]) -> np.ndarray:
        return (self.dim * np.asarray(copy_list)[:, None] + np.arange(self.dim)).ravel()

    def __matmul__(self, frame: np.ndarray) -> np.ndarray:
        out = np.array(frame, dtype=complex)
        for copy_list, block in self.rows:
            idx = self._index(copy_list)
            out[idx] = block @ out[idx]
        return out

    def dense(self) -> np.ndarray:
        out = np.eye(self.shape[0], dtype=complex)
        for copy_list, block in self.rows:
            idx = self._index(copy_list)
            out[np.ix_(idx, idx)] = block
        return out


def orthonormalize(columns: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis for the column space, rank by singular threshold."""
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2 or columns.shape[1] == 0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    if rank is None:
        rank = 0 if s.size == 0 or s[0] == 0.0 else int(
            np.sum(s > RANK_REL_TOL * s[0])
        )
    return u[:, :rank]


@dataclass(frozen=True)
class SubspaceFrame:
    """A closed subspace given by a matrix with orthonormal columns."""

    ambient: AmbientSpace
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[0] != self.ambient.total_dim:
            raise ValueError("frame shape does not match ambient dimension")
        object.__setattr__(self, "frame", frame)
        self.frame.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_columns(cls, ambient: AmbientSpace, columns, rank=None):
        return cls(ambient, orthonormalize(np.asarray(columns, dtype=complex), rank))

    def to_dict(self) -> dict:
        flat = []
        for j in range(self.dim):
            for i in range(self.ambient.total_dim):
                v = self.frame[i, j]
                flat.append([v.real, v.imag])
        return {
            "ambient": {
                "theta": self.ambient.theta.to_dict(),
                "copies": self.ambient.copies,
            },
            "frame": flat,
        }


def load_subspace(data: dict) -> tuple[SubspaceFrame, float]:
    """Rebuild a subspace from its serialized form.

    Returns the frame together with the norm of the re-orthonormalization
    adjustment that was applied to the stored columns.
    """
    if set(data) != {"ambient", "frame"} or set(data["ambient"]) != {"theta", "copies"}:
        raise ValueError('a subspace has the keys "ambient" ("theta", "copies") and "frame"')
    copies = data["ambient"]["copies"]
    if type(copies) is not int or copies < 1:
        raise ValueError(f"copies {copies!r} is not an integer >= 1")
    theta = InnerFunction.from_dict(data["ambient"]["theta"])
    ambient = AmbientSpace.build(theta, copies)
    n = ambient.total_dim
    flat = data["frame"]
    if len(flat) % n:
        raise ValueError("frame length not a multiple of the ambient dimension")
    k = len(flat) // n
    cols = np.empty((n, k), dtype=complex)
    for j in range(k):
        for i in range(n):
            re, im = flat[j * n + i]
            cols[i, j] = complex(re, im)
    if not np.all(np.isfinite(cols)):
        raise ValueError("frame has non-finite entries")
    frame = SubspaceFrame.from_columns(ambient, cols)
    if frame.dim == k:
        # Gram defect of the stored columns: zero iff they were already
        # an orthonormal frame for the subspace they span.
        adjustment = float(np.linalg.norm(cols.conj().T @ cols - np.eye(k)))
    else:
        adjustment = float("nan")
    return frame, adjustment


def invariant_subspace_of_block(
    space: ModelSpace, phi: InnerFunction
) -> SubspaceFrame:
    """Frame for phi H^2 (-) theta H^2 = ran phi(S(theta))."""
    if not inner.divides(phi, space.theta):
        raise NotADivisor(f"{phi!r} does not divide theta")
    ambient = AmbientSpace(space, 1)
    k = space.theta.degree - phi.degree
    if k == 0:
        return SubspaceFrame(ambient, np.zeros((space.dim, 0), dtype=complex))
    op = functional_calculus(space, phi)
    return SubspaceFrame.from_columns(ambient, op, rank=k)


def project_onto_submodel(
    space: ModelSpace, f: ModelVector, divisor: InnerFunction
) -> ModelVector:
    """Orthogonal projection of f onto H(theta/divisor) inside H(theta).

    H(theta/d) is the orthocomplement in H(theta) of the invariant
    subspace (theta/d) H^2 (-) theta H^2 = ran (theta/d)(S(theta)).
    """
    if f.space is not space and f.space.theta != space.theta:
        raise ValueError("vector does not live in the given space")
    frame = invariant_subspace_of_block(space, inner.quotient(space.theta, divisor)).frame
    return ModelVector(space, f.coords - frame @ (frame.conj().T @ f.coords))


def is_invariant(m_frame: SubspaceFrame) -> tuple[bool, float]:
    """Residual of T M inside M; invariant iff the residual is tiny."""
    p = m_frame.frame
    if p.shape[1] == 0:
        return True, 0.0
    tp = m_frame.ambient.operator_matrix @ p
    residual = float(np.linalg.norm(tp - p @ (p.conj().T @ tp), 2))
    return residual <= INVARIANCE_TOL, residual


def _check_same_ambient(a: SubspaceFrame, b: SubspaceFrame):
    if a.ambient.total_dim != b.ambient.total_dim or a.ambient.theta != b.ambient.theta:
        raise AmbientMismatch("frames live in different ambient spaces")


def principal_distance(a: SubspaceFrame, b: SubspaceFrame) -> float:
    """2-norm gap between the orthogonal projections onto the subspaces.

    Read off the frames: for equal dimensions the gap is the sine of the
    largest principal angle, ||B - A (A^H B)||; for unequal dimensions it
    is 1, since the larger subspace holds a unit vector orthogonal to the
    smaller one.
    """
    _check_same_ambient(a, b)
    if a.dim != b.dim:
        return 1.0
    if a.dim == 0:
        return 0.0
    return float(np.linalg.norm(b.frame - a.frame @ (a.frame.conj().T @ b.frame), 2))


def image_closure(x_mat: np.ndarray | CopyBlocks, m_frame: SubspaceFrame) -> SubspaceFrame:
    """Frame for the column space of X restricted to M; X is a matrix or copy-row blocks.

    Copy-row blocks are taken to be injective, as every row of the orbit
    map Y is an invertible X, so their image is orthonormalised at rank
    dim M; at large N the weights of Y put its smallest singular values
    under RANK_REL_TOL. A matrix image keeps the RANK_REL_TOL rule.
    """
    if isinstance(x_mat, CopyBlocks):
        rank = m_frame.dim
    else:
        x_mat, rank = np.asarray(x_mat, dtype=complex), None
    if x_mat.shape[1] != m_frame.ambient.total_dim:
        raise ValueError("operator does not act on the ambient space")
    return SubspaceFrame.from_columns(m_frame.ambient, x_mat @ m_frame.frame, rank)


def orthocomplement(m_frame: SubspaceFrame) -> SubspaceFrame:
    n, k = m_frame.frame.shape
    if k == 0:
        return SubspaceFrame(m_frame.ambient, np.eye(n, dtype=complex))
    u, _, _ = np.linalg.svd(m_frame.frame, full_matrices=True)
    return SubspaceFrame(m_frame.ambient, u[:, k:])
