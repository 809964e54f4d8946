"""Exact rational backend for the nilpotent case theta = z^d.

Every matrix here is a sparse ``sympy.polys.matrices.DomainMatrix`` over
QQ, whose adjoint is the transpose: orbit-closure subspaces of rational
vectors, restriction and compression matrices in rational bases, and
Jordan models from exact rank sequences, the commutant of a nilpotent
direct sum, and the grid and lattice subspaces the counterexample search
enumerates.  Only ``exact_subspace_models`` takes and returns
``sympy.Matrix``.  Used to cross-check the floating pipeline.  Loading
this module loads sympy, so ``verify`` imports it inside the functions
of the exact search and the float verbs never do.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product

import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from .inner import monomial
from .jordan import JordanModel, chain_lengths


def rational(mat: sp.Matrix) -> DomainMatrix:
    """A rational sympy Matrix as a sparse DomainMatrix over QQ."""
    return DomainMatrix.from_Matrix(mat).convert_to(QQ)


def rref(mat: DomainMatrix) -> tuple[DomainMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Plain Gauss-Jordan: on these small sparse rational matrices it is about
    2.5x faster than sympy's automatic choice of method.
    """
    return mat.rref(method="GJ")


def nullspace(mat: DomainMatrix) -> DomainMatrix:
    """The rows of the result span {x : mat x = 0}."""
    reduced, pivots = rref(mat)
    return reduced.nullspace_from_rref(pivots)


def kron(a: DomainMatrix, b: DomainMatrix) -> DomainMatrix:
    """Kronecker product a (x) b."""
    (p, q), (r, s) = a.shape, b.shape
    b_items = b.to_dok().items()
    return DomainMatrix.from_dok(
        {
            (i * r + k, j * s + l): x * y
            for (i, j), x in a.to_dok().items()
            for (k, l), y in b_items
        },
        (p * r, q * s),
        a.domain,
    )


def commutant_basis(t_mat: DomainMatrix) -> DomainMatrix:
    """Exact basis of {X : XT = TX}, one row-major vec X per row: the nullspace of I (x) T^T - T (x) I."""
    eye = DomainMatrix.eye(t_mat.shape[0], QQ)
    return nullspace(kron(eye, t_mat.transpose()) - kron(t_mat, eye))


def _unvec(rows: DomainMatrix, n: int) -> list[DomainMatrix]:
    """The n x n matrices whose row-major vecs are the rows."""
    doks = [{} for _ in range(rows.shape[0])]
    for (i, c), v in rows.to_dok().items():
        doks[i][divmod(c, n)] = v
    return [DomainMatrix.from_dok(dok, (n, n), rows.domain) for dok in doks]


def direct_sum_nilpotent(block_degrees: list[int]) -> DomainMatrix:
    """Exact matrix of S(z^{d_0}) (+) S(z^{d_1}) (+) ..."""
    n = sum(block_degrees)
    ends = set(accumulate(block_degrees))
    return DomainMatrix.from_dod(
        {k + 1: {k: QQ.one} for k in range(n - 1) if k + 1 not in ends}, (n, n), QQ
    )


def orbit_closure(t_mat: DomainMatrix, vectors: list[DomainMatrix]) -> DomainMatrix:
    """Basis of the smallest invariant subspace containing the vectors.

    The basis is the pivot columns of the Krylov matrix [x, Tx, T^2 x, ...].
    """
    n = t_mat.shape[0]
    cols = []
    for v in vectors:
        for _ in range(n):
            if v.is_zero_matrix:  # so are all later T^k x; zero columns are never pivots
                break
            cols.append(v)
            v = t_mat * v
    if not cols:
        return DomainMatrix.zeros((n, 0), QQ)
    krylov = DomainMatrix.hstack(*cols)
    return krylov.extract(range(n), rref(krylov)[1])


def restriction_on_basis(t_mat: DomainMatrix, basis: DomainMatrix) -> DomainMatrix:
    """Matrix of P_span T | span(basis) in that (rational) basis: T|M on an invariant span."""
    if basis.shape[1] == 0:
        return DomainMatrix.zeros((0, 0), QQ)
    basis_t = basis.transpose()
    return (basis_t * basis).lu_solve(basis_t * t_mat * basis)


def complement_basis(basis: DomainMatrix) -> DomainMatrix:
    """Exact basis of the orthogonal complement of span(basis)."""
    n, k = basis.shape
    if k == 0:
        return DomainMatrix.eye(n, QQ)
    return nullspace(basis.transpose()).transpose()


def compression_on_complement(t_mat: DomainMatrix, basis: DomainMatrix) -> DomainMatrix:
    """Matrix of P_{M^perp} T | M^perp in a rational complement basis."""
    return restriction_on_basis(t_mat, complement_basis(basis))


def nilpotent_jordan_model(a_mat: DomainMatrix, max_power: int) -> JordanModel:
    """Jordan model of an exactly nilpotent rational matrix."""
    n = a_mat.shape[0]
    if n == 0:
        return JordanModel()
    ranks = [n]
    power = a_mat
    for _ in range(max_power):
        ranks.append(len(rref(power)[1]))
        power = power * a_mat
    return JordanModel(tuple(monomial(s) for s in chain_lengths(ranks)))


def exact_subspace_models(
    d: int, copies: int, vectors: list[sp.Matrix]
) -> tuple[JordanModel, JordanModel, sp.Matrix]:
    """Restriction and compression models of an orbit-closure subspace.

    Returns (restriction_model, compression_model, rational_basis).
    """
    t_mat = direct_sum_nilpotent([d] * copies)
    basis = orbit_closure(t_mat, [rational(v) for v in vectors])
    rest = nilpotent_jordan_model(restriction_on_basis(t_mat, basis), d)
    comp = nilpotent_jordan_model(compression_on_complement(t_mat, basis), d)
    return rest, comp, basis.to_Matrix()


# ---------------------------------------------------------------------------
# Inputs and witness strings of the counterexample search
# ---------------------------------------------------------------------------


def _lattice_elements(block_degrees: list[int]) -> list[DomainMatrix]:
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
    for combo in product(*per_block):
        cols = [c for block in combo for c in block]
        dok = {(c, j): QQ.one for j, c in enumerate(cols)}
        elements.append(DomainMatrix.from_dok(dok, (n, len(cols)), QQ))
    return elements


def _grid_vectors(n: int, step: Fraction, reach: int) -> list[DomainMatrix]:
    """e_i and e_i + t e_j for grid values t, as exact rational vectors."""
    vals = [QQ(k * step.numerator, step.denominator) for k in range(-reach, reach + 1) if k != 0]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    doks = [{(i, 0): QQ.one} for i in range(n)]
    doks += [{(i, 0): QQ.one, (j, 0): t} for i, j in pairs for t in vals]
    return [DomainMatrix.from_dok(dok, (n, 1), QQ) for dok in doks]


def _basis_strings(basis: DomainMatrix) -> list[list[str]]:
    """Columns of a rational basis as sympy number strings."""
    return [[str(QQ.to_sympy(v)) for v in col] for col in basis.transpose().to_list()]
