"""Exact rational backend for the nilpotent case theta = z^d.

Everything here runs over Q (sympy Rational matrices): orbit-closure
subspaces of integer vectors, restriction and compression matrices in
rational bases, and Jordan models from exact rank sequences.  Used to
cross-check the floating pipeline.
"""

from __future__ import annotations

import sympy as sp

from .inner import monomial
from .jordan import JordanModel, chain_lengths


def nilpotent_block(d: int) -> sp.Matrix:
    """Exact matrix of S(z^d) in the monomial basis."""
    mat = sp.zeros(d, d)
    for k in range(d - 1):
        mat[k + 1, k] = 1
    return mat


def direct_sum_nilpotent(block_degrees: list[int]) -> sp.Matrix:
    """Exact matrix of S(z^{d_0}) (+) S(z^{d_1}) (+) ..."""
    return sp.diag(*[nilpotent_block(d) for d in block_degrees])


def ambient_operator(d: int, copies: int) -> sp.Matrix:
    return direct_sum_nilpotent([d] * copies)


def column_space_basis(cols: sp.Matrix) -> sp.Matrix:
    """Exact basis of the column space (columns of the result)."""
    basis = cols.columnspace()
    if not basis:
        return sp.zeros(cols.rows, 0)
    return sp.Matrix.hstack(*basis)


def orbit_closure(t_mat: sp.Matrix, vectors: list[sp.Matrix]) -> sp.Matrix:
    """Basis of the smallest invariant subspace containing the vectors."""
    cols = []
    for x in vectors:
        v = sp.Matrix(x)
        for _ in range(t_mat.rows):
            cols.append(v)
            v = t_mat @ v
    return column_space_basis(sp.Matrix.hstack(*cols))


def restriction_on_basis(t_mat: sp.Matrix, basis: sp.Matrix) -> sp.Matrix:
    """Matrix of T restricted to span(basis), in that (rational) basis."""
    if basis.cols == 0:
        return sp.zeros(0, 0)
    gram = basis.H @ basis
    return gram.solve(basis.H @ t_mat @ basis)


def complement_basis(basis: sp.Matrix) -> sp.Matrix:
    """Exact basis of the orthogonal complement of span(basis)."""
    if basis.cols == 0:
        return sp.eye(basis.rows)
    null = basis.H.nullspace()
    if not null:
        return sp.zeros(basis.rows, 0)
    return sp.Matrix.hstack(*null)


def compression_on_complement(t_mat: sp.Matrix, basis: sp.Matrix) -> sp.Matrix:
    """Matrix of P_{M^perp} T | M^perp in a rational complement basis."""
    comp = complement_basis(basis)
    if comp.cols == 0:
        return sp.zeros(0, 0)
    gram = comp.H @ comp
    return gram.solve(comp.H @ t_mat @ comp)


def nilpotent_jordan_model(a_mat: sp.Matrix, max_power: int) -> JordanModel:
    """Jordan model of an exactly nilpotent rational matrix."""
    n = a_mat.rows
    if n == 0:
        return JordanModel()
    ranks = [n]
    power = sp.eye(n)
    for _ in range(max_power):
        power = power @ a_mat
        ranks.append(power.rank())
    return JordanModel(tuple(monomial(s) for s in chain_lengths(ranks)))


def exact_subspace_models(
    d: int, copies: int, vectors: list[sp.Matrix]
) -> tuple[JordanModel, JordanModel, sp.Matrix]:
    """Restriction and compression models of an orbit-closure subspace.

    Returns (restriction_model, compression_model, rational_basis).
    """
    t_mat = ambient_operator(d, copies)
    basis = orbit_closure(t_mat, vectors)
    rest = nilpotent_jordan_model(restriction_on_basis(t_mat, basis), d)
    comp = nilpotent_jordan_model(compression_on_complement(t_mat, basis), d)
    return rest, comp, basis
