"""Orthonormal frames for subspaces of (sums of) model spaces.

T_N is applied copy by copy. A frame holds one block per group of copies:
a matrix is the one group of all copies, and canonical frames are per copy.
The quasiaffinities X and Y are kept as copy rows (``CopyBlocks``), so
Y M and the gap between two frames go group by group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import inner
from .errors import HypothesisViolated, IllConditioned
from .inner import InnerFunction
from .model_space import ModelSpace, build_model_space, functional_calculus

INVARIANCE_TOL = 1e-9
RANK_REL_TOL = 1e-8


@dataclass(frozen=True)
class AmbientSpace:
    """N copies of H(theta) carrying T_N = B (+) ... (+) B.

    Each copy carries B = C S(theta) C^{-1} for the similarity C, or
    S(theta) itself when C is None: the Jordan ambient. C is d x d with
    condition number at most 1e6. T_N is applied here copy by copy and
    never formed.
    """

    model: ModelSpace
    copies: int
    similarity: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        if self.similarity is None:
            return
        sim = np.array(self.similarity, dtype=complex)
        d = self.model.dim
        if sim.shape != (d, d):
            raise ValueError(f"similarity shape {sim.shape} is not ({d}, {d})")
        if not np.linalg.cond(sim) <= 1e6:
            raise IllConditioned("similarity condition number exceeds 1e6")
        sim.setflags(write=False)
        object.__setattr__(self, "similarity", sim)

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """T_N cols, for a vector or the columns of a matrix."""
        cols = np.asarray(cols)
        if cols.shape[0] != self.total_dim:
            raise ValueError("columns do not live in the ambient space")
        return copywise(self.block, cols)

    @cached_property
    def block(self) -> np.ndarray:
        """The block B of each copy."""
        if self.is_jordan:
            return self.model.shift_matrix
        block = self.similarity @ self.model.shift_matrix @ np.linalg.inv(self.similarity)
        block.setflags(write=False)
        return block

    @property
    def is_jordan(self) -> bool:
        """Whether every copy carries S(theta) itself: T_N is the Jordan operator of theta."""
        return self.similarity is None

    @property
    def theta(self) -> InnerFunction:
        return self.model.theta

    @property
    def total_dim(self) -> int:
        return self.copies * self.model.dim

    @classmethod
    def build(cls, theta: InnerFunction, copies: int) -> "AmbientSpace":
        return cls(build_model_space(theta), copies)


def copywise(block: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(I_N (x) block) cols: the square block applied to the rows of each copy."""
    d = block.shape[0]
    k = cols.shape[1] if cols.ndim == 2 else 1
    return (block @ cols.reshape(cols.shape[0] // d, d, k)).reshape(cols.shape)


def _rows(copy_list, dim: int) -> np.ndarray:
    """Coordinate indices of the listed copies, stacked in list order."""
    return (dim * np.asarray(copy_list)[:, None] + np.arange(dim)).ravel()


@dataclass(frozen=True)
class CopyBlocks:
    """An operator on (+)_{n<copies} C^dim that is the identity off a few copy groups.

    Each row ``(copy list, weights, head)`` scales each listed copy by its
    positive weight, and for each ``(i, block)`` in ``head`` adds
    ``block @ (copy list[i])`` to the first listed copy; a row with an
    empty head only scales. The lists are disjoint, and a copy in none of
    them passes unchanged. ``image_closure`` applies it row by row, so no
    (copies*dim)-square matrix is formed.
    """

    copies: int
    dim: int
    rows: tuple[tuple[tuple[int, ...], np.ndarray, tuple[tuple[int, np.ndarray], ...]], ...] = field(repr=False)


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


Part = tuple[tuple[int, ...], np.ndarray]  # (copy list, block on those copies)


def _stack(parts, order: tuple[int, ...], dim: int) -> np.ndarray:
    """The blocks of ``parts`` side by side, rows placed at the copies of ``order``.

    The copies of the parts are those of ``order``; a single part listed in
    that order is returned as it is.
    """
    if len(parts) == 1 and parts[0][0] == order:
        return parts[0][1]
    pos = {c: i for i, c in enumerate(order)}
    out = np.zeros((len(order) * dim, sum(b.shape[1] for _, b in parts)), dtype=complex)
    col = 0
    for copy_list, block in parts:
        out[_rows([pos[c] for c in copy_list], dim), col : col + block.shape[1]] = block
        col += block.shape[1]
    return out


def _join(first, second):
    """Yield (order, parts of first, parts of second) over the finest copy
    partition that both layouts refine.

    ``first`` covers every copy that ``second`` lists, and ``order`` lists
    a joined group's copies part by part of ``first``; the lists of each
    layout are disjoint.
    """
    owner = {c: g for g, (copy_list, _) in enumerate(first) for c in copy_list}
    root = list(range(len(first)))

    def find(g):
        while root[g] != g:
            g = root[g]
        return g

    for copy_list, _ in second:
        tops = {find(owner[c]) for c in copy_list}
        top = min(tops)
        for g in tops:
            root[g] = top
    joined: dict[int, tuple[list, list]] = {}
    for g, part in enumerate(first):
        joined.setdefault(find(g), ([], []))[0].append(part)
    for part in second:
        joined[find(owner[part[0][0]])][1].append(part)
    for firsts, seconds in joined.values():
        yield tuple(c for copy_list, _ in firsts for c in copy_list), firsts, seconds


class SubspaceFrame:
    """A closed subspace, a direct sum over disjoint groups of copies.

    ``groups`` holds one part (copy tuple, block) per group, the block an
    orthonormal frame on the group's copies stacked in tuple order, and the
    parts cover every copy. A frame given as a matrix with orthonormal
    columns is the one part on all copies in order; canonical frames are
    per copy, one part per copy. The dense ``frame`` puts the blocks side
    by side, part by part, and is built on its first read; a lone part in
    order is its own frame.
    """

    def __init__(self, ambient: AmbientSpace, frame: np.ndarray | None = None, groups=None):
        self.ambient = ambient
        if frame is not None:
            groups = [(tuple(range(ambient.copies)), np.asarray(frame, dtype=complex))]
        groups, d, covered = tuple(groups), ambient.model.dim, []
        for copy_list, block in groups:
            covered += copy_list
            if block.ndim != 2 or block.shape[0] != len(copy_list) * d:
                raise ValueError("a block does not have dim rows per copy of its group")
            block.setflags(write=False)
        if sorted(covered) != list(range(ambient.copies)):
            raise ValueError("groups do not cover each copy once")
        self.groups: tuple[Part, ...] = groups

    @classmethod
    def per_copy(cls, ambient: AmbientSpace, blocks) -> "SubspaceFrame":
        """The direct sum of one orthonormal (dim x k_n) block per copy."""
        return cls(ambient, groups=[((n,), b) for n, b in enumerate(blocks)])

    @cached_property
    def frame(self) -> np.ndarray:
        frame = _stack(self.groups, tuple(range(self.ambient.copies)), self.ambient.model.dim)
        frame.setflags(write=False)
        return frame

    @property
    def dim(self) -> int:
        return sum(b.shape[1] for _, b in self.groups)

    def distinct_groups(self) -> list[tuple[int, np.ndarray, int]]:
        """(copy count, block, repeats) once per distinct nonempty block.

        T_N acts on each group's copies as the same block, so the subspace
        and T_N restricted to it are the direct sum of these, each taken
        ``repeats`` times.
        """
        seen: dict = {}
        for copy_list, block in self.groups:
            if block.shape[1]:
                key = (len(copy_list), block.shape, block.tobytes())
                count, _, repeats = seen.get(key, (len(copy_list), block, 0))
                seen[key] = (count, block, repeats + 1)
        return list(seen.values())

    @classmethod
    def from_columns(cls, ambient: AmbientSpace, columns, rank=None):
        return cls(ambient, orthonormalize(np.asarray(columns, dtype=complex), rank))

    def to_dict(self) -> dict:
        frame = self.frame
        flat = np.stack((frame.real, frame.imag), -1).transpose(1, 0, 2).reshape(-1, 2).tolist()
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
    # stored column by column; copied to C order, which fixes the rounding of the adjustment below
    cols = np.array([complex(re, im) for re, im in flat], dtype=complex).reshape(k, n).T.copy()
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
        raise HypothesisViolated(f"{phi!r} does not divide theta")
    ambient = AmbientSpace(space, 1)
    k = space.theta.degree - phi.degree
    if k == 0:
        return SubspaceFrame(ambient, np.zeros((space.dim, 0), dtype=complex))
    op = functional_calculus(space, phi)
    return SubspaceFrame.from_columns(ambient, op, rank=k)


def is_invariant(m_frame: SubspaceFrame) -> tuple[bool, float]:
    """Residual of T M inside M; invariant iff the residual is tiny.

    (I - P_M) T_N P_M is block diagonal over the groups, so the residual is
    the largest of a distinct group.
    """
    residual = 0.0
    for _, p, _ in m_frame.distinct_groups():
        tp = copywise(m_frame.ambient.block, p)
        residual = max(residual, float(np.linalg.norm(tp - p @ (p.conj().T @ tp), 2)))
    return residual <= INVARIANCE_TOL, residual


def _check_same_ambient(a: SubspaceFrame, b: SubspaceFrame):
    if a.ambient.total_dim != b.ambient.total_dim or a.ambient.theta != b.ambient.theta:
        raise HypothesisViolated("frames live in different ambient spaces")


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    """Gap between the spans of two orthonormal frames of one space."""
    if a.shape[1] != b.shape[1]:
        return 1.0
    if a.shape[1] == 0 or a is b or np.array_equal(a, b):
        return 0.0
    return float(np.linalg.norm(b - a @ (a.conj().T @ b), 2))


def principal_distance(a: SubspaceFrame, b: SubspaceFrame) -> float:
    """2-norm gap between the orthogonal projections onto the subspaces.

    Read off the frames: for equal dimensions the gap is the sine of the
    largest principal angle, ||B - A (A^H B)||; for unequal dimensions it
    is 1, since the larger subspace holds a unit vector orthogonal to the
    smaller one. Both subspaces are direct sums over the groups of copies
    that their layouts refine, so their gap is the largest gap of a group,
    and 1 where a group's dimensions differ.
    """
    _check_same_ambient(a, b)
    if a.dim != b.dim:
        return 1.0
    if a is b:
        return 0.0
    d = a.ambient.model.dim
    return max(
        _gap(_stack(a_parts, order, d), _stack(b_parts, order, d))
        for order, a_parts, b_parts in _join(a.groups, b.groups)
    )


def _grouped_image(y: CopyBlocks, m_frame: SubspaceFrame) -> SubspaceFrame:
    """Y M for a grouped M, one group at a time.

    Positive weights keep the span of a block on one copy; a block on
    several copies, or a group that a row with a head couples, is mapped
    and orthonormalised at its own column count.
    """
    d = y.dim
    scale = np.ones(y.copies)
    for copy_list, weights, _ in y.rows:
        scale[list(copy_list)] = weights
    coupled = [(copy_list, head) for copy_list, _, head in y.rows if head]
    # a block on one copy outside every coupled row keeps its span
    touched = {c for copy_list, _ in coupled for c in copy_list}
    groups, work = [], []
    for part in m_frame.groups:
        (groups if len(part[0]) == 1 and part[0][0] not in touched else work).append(part)
    if not work:
        return m_frame
    for order, m_parts, rows in _join(work, coupled):
        frame = _stack(m_parts, order, d)
        image = frame * np.repeat(scale[list(order)], d)[:, None]
        pos = {c: i for i, c in enumerate(order)}
        for copy_list, head in rows:
            first = d * pos[copy_list[0]]
            for i, blk in head:
                image[first : first + d] += blk @ frame[d * pos[copy_list[i]] :][:d]
        groups.append((order, orthonormalize(image, image.shape[1])))
    return SubspaceFrame(m_frame.ambient, groups=groups)


def image_closure(x_mat: np.ndarray | CopyBlocks, m_frame: SubspaceFrame) -> SubspaceFrame:
    """Frame for the column space of X restricted to M; X is a matrix or copy-row blocks.

    Copy-row blocks are taken to be injective, as every row of the orbit
    map Y is an invertible X, so their image is orthonormalised at rank
    dim M; at large N the weights of Y put its smallest singular values
    under RANK_REL_TOL. Their image is grouped, built one group of M at a
    time, and they must be laid out on the ambient's copies. A matrix
    image keeps the RANK_REL_TOL rule.
    """
    ambient = m_frame.ambient
    if isinstance(x_mat, CopyBlocks):
        if (x_mat.copies, x_mat.dim) != (ambient.copies, ambient.model.dim):
            raise ValueError("copy blocks are not laid out on the ambient's copies")
        return _grouped_image(x_mat, m_frame)
    x_mat = np.asarray(x_mat, dtype=complex)
    if x_mat.shape[1] != ambient.total_dim:
        raise ValueError("operator does not act on the ambient space")
    return SubspaceFrame.from_columns(ambient, x_mat @ m_frame.frame)


def orthocomplement(m_frame: SubspaceFrame) -> SubspaceFrame:
    n, k = m_frame.frame.shape
    if k == 0:
        return SubspaceFrame(m_frame.ambient, np.eye(n, dtype=complex))
    u, _, _ = np.linalg.svd(m_frame.frame, full_matrices=True)
    return SubspaceFrame(m_frame.ambient, u[:, k:])
