"""Rational-arithmetic backend for nilpotent direct sums, cross-checked
against the floating pipeline on the same integer data."""

import numpy as np
import sympy as sp

from c0ops.exact_nilpotent import (
    complement_basis,
    compression_on_complement,
    direct_sum_nilpotent,
    exact_subspace_models,
    nilpotent_jordan_model,
    orbit_closure,
    rational,
)
from c0ops.inner import monomial
from c0ops.jordan import subspace_models
from c0ops.subspaces import AmbientSpace, SubspaceFrame, orthonormalize

RNG = np.random.default_rng(90210)


def test_nilpotent_block_shape():
    b = direct_sum_nilpotent([3]).to_Matrix()
    assert b == sp.Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_orbit_closure_of_cyclic_vector():
    t = direct_sum_nilpotent([3])
    v = rational(sp.Matrix([1, 0, 0]))
    basis = orbit_closure(t, [v]).to_Matrix()
    assert basis.cols == 3


def degrees(model):
    return [p.degree for p in model.parts]


def test_exact_jordan_of_shift_restriction():
    # z in copy 0 plus all of copy 1
    vecs = [sp.Matrix([0, 1, 0, 0]), sp.Matrix([0, 0, 1, 0])]
    rest, comp, basis = exact_subspace_models(2, 2, vecs)
    assert degrees(rest) == [2, 1]
    assert degrees(comp) == [1]
    assert basis.cols == 3


def test_exact_complement_compression():
    t = direct_sum_nilpotent([2])
    basis = rational(sp.Matrix([[0], [1]]))  # span{z} inside H(z^2)
    assert complement_basis(basis).to_Matrix().cols == 1
    a = compression_on_complement(t, basis)
    assert degrees(nilpotent_jordan_model(a, 2)) == [1]


def test_exact_matches_float_on_random_integer_subspaces():
    for d, copies in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        amb = AmbientSpace.build(monomial(d), copies)
        t = direct_sum_nilpotent([d] * copies)
        n = d * copies
        for _ in range(8):
            k = int(RNG.integers(1, 3))
            vecs = [
                sp.Matrix([int(v) for v in RNG.integers(-3, 4, size=n)])
                for _ in range(k)
            ]
            if all(v.norm() == 0 for v in vecs):
                continue
            rest_e, comp_e, basis = exact_subspace_models(d, copies, vecs)
            cols = np.array(basis, dtype=float).reshape(n, basis.cols)
            m = SubspaceFrame(amb, orthonormalize(cols.astype(complex)))
            rest_f, comp_f = subspace_models(amb, m)
            assert rest_f == rest_e and comp_f == comp_e
