"""Exact rational backend for the nilpotent case theta = z^d.

Everything here is plain Python rationals, ``fractions.Fraction`` and
``int``: a vector is a list of its n entries, a basis is a list of column
vectors and a matrix is a list of rows.  The operator
S(z^{d_0}) (+) S(z^{d_1}) (+) ... is a ``NilpotentSum``, which shifts a
vector block by block and is never stored as a matrix.  The module builds
orbit-closure subspaces and the Jordan models of their restrictions and
compressions.  The counterexample search (``verify``) carries the model
and orbit type of each subspace it enumerates, closes a grid vector here
only for a witness and reads the witness's compression models from its
type in closed form, so it runs no elimination of this module and
nothing here builds the commutant.

A restriction model is read from the ranks of images: rank (T|M)^k =
dim T^k M.  Each basis vector is scaled to integers once, and one
fraction-free elimination (Bareiss, Math. Comp. 22, 1968) forms no
fraction: it gives the ranks and the Krylov pivots.  On a uniform sum the
compression model is the rectangle complement of the restriction model
(Klein's rule, ``JordanModel.complement``), as in the floating
``subspace_models``.  The elimination works over any ring with exact
division; the tests' commutant oracle runs it over Z[t_0, ...] for its
determinant certificate, and keeps the elimination read of the
compression, the reduced forms and the rational restriction matrices that
are the tests' reference for these models.  The models cross-check the
floating pipeline.  ``exact_subspace_models`` alone takes and returns
symbolic matrices, and it imports their package when it runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .inner import monomial
from .jordan import JordanModel, chain_lengths


class NilpotentSum:
    """S(z^{d_0}) (+) S(z^{d_1}) (+) ... on Q^n in the bases 1, z, ..., z^{d-1}.

    Within each block it sends e_k to e_{k+1} and the block's last basis
    vector to 0.
    """

    def __init__(self, block_degrees: list[int]):
        self.block_degrees = tuple(block_degrees)
        self.n = sum(self.block_degrees)

    def apply(self, vec: list) -> list:
        """T vec: each block's entries move down one place and its first entry becomes 0."""
        out, start = [], 0
        for d in self.block_degrees:
            out.append(0)
            out += vec[start : start + d - 1]
            start += d
        return out


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _integral(vec: list) -> list[int]:
    """vec times the lcm of its denominators: integer entries spanning the same line."""
    scale = lcm(*(x.denominator for x in vec))
    return [x.numerator * (scale // x.denominator) for x in vec]


def _echelon(rows: list[list]) -> tuple[list[list], list[int]]:
    """Pivot rows and pivot columns of a matrix over Z or Z[t_0, ...] by Bareiss elimination.

    The pivot rows come in pivot order and keep their full length, zero
    left of the pivot.  After each step every entry is a minor of the
    input, so the division by the previous pivot is exact.
    """
    tops, pivots, rest = [], [], list(rows)
    for c in range(len(rest[0]) if rest else 0):
        for i, top in enumerate(rest):
            if top[c]:
                break
        else:
            continue
        del rest[i]
        p, tail, zero = top[c], top[c + 1 :], [top[c] - top[c]]  # zero: column c after this step
        if tops:
            prev = tops[-1][pivots[-1]]
            rest = [r[:c] + zero + [(p * x - r[c] * y) // prev for x, y in zip(r[c + 1 :], tail)] for r in rest]
        else:  # the first step divides by 1, which a polynomial ring may not define
            rest = [r[:c] + zero + [p * x - r[c] * y for x, y in zip(r[c + 1 :], tail)] for r in rest]
        tops.append(top)
        pivots.append(c)
        if not rest:
            break
    return tops, pivots


# ---------------------------------------------------------------------------
# Subspaces, their restrictions and compressions, and their Jordan models
# ---------------------------------------------------------------------------


def orbit_closure(t_op: NilpotentSum, vectors: list[list]) -> list[list]:
    """Basis of the smallest invariant subspace containing the vectors.

    Of one vector v it is the Krylov chain v, Tv, ..., T^{l-1} v, where
    T^l v = 0: for a nilpotent T the chain is independent, so no
    elimination is needed, and T restricted to it is one Jordan block of
    size l.  Of several vectors it is the pivot columns of the Krylov
    matrix [x, Tx, T^2 x, ...], found by Bareiss elimination.
    """
    cols = []
    for v in vectors:
        while any(v):  # T is nilpotent; zero columns are never pivots
            cols.append(v)
            v = t_op.apply(v)
    if len(vectors) == 1:
        return cols
    krylov = [list(r) for r in zip(*map(_integral, cols))]
    return [cols[j] for j in _echelon(krylov)[1]]


def restriction_model(t_op: NilpotentSum, basis: list[list]) -> JordanModel:
    """Jordan model of T|M for an invariant M = span(basis).

    rank (T|M)^k = dim T^k M, the Bareiss rank of the images, for k = 0
    up to the largest block degree or the first rank 0.
    """
    vectors, ranks = [_integral(b) for b in basis], []
    for _ in range(max(t_op.block_degrees) + 1):
        ranks.append(len(_echelon(vectors)[1]))
        if not ranks[-1]:
            break
        vectors = [w for w in map(t_op.apply, vectors) if any(w)]
    return JordanModel(tuple(monomial(s) for s in chain_lengths(ranks)))


def exact_subspace_models(d: int, copies: int, vectors: list):
    """Restriction and compression models of an orbit-closure subspace in ``copies`` copies of S(z^d).

    The compression model is the rectangle complement of the restriction
    model (Klein's rule).

    Each vector is a ``sympy.Matrix`` or a sequence whose entries are
    ``int``, ``Fraction`` or sympy ``Rational``; any other entry is refused
    with ``TypeError`` rather than rounded.  Returns (restriction_model,
    compression_model, rational_basis), the basis as an n x k
    ``sympy.Matrix``.
    """
    import sympy as sp

    def exact(x) -> Fraction:
        if isinstance(x, (int, Fraction, sp.Rational)):
            return Fraction(x)
        raise TypeError(f"exact_subspace_models takes rational entries, not {x!r}")

    t_op = NilpotentSum([d] * copies)
    basis = orbit_closure(t_op, [[exact(x) for x in v] for v in vectors])
    rest = restriction_model(t_op, basis)
    return rest, rest.complement(monomial(d), copies), sp.Matrix(t_op.n, len(basis), lambda i, j: basis[j][i])
