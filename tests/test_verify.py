"""Orbit verdicts, the witness search, and the conjugated-ambient demo."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from c0ops.errors import IllConditioned
from c0ops.inner import blaschke, monomial
from c0ops.jordan import random_invariant_subspace
from c0ops.subspaces import AmbientSpace, SubspaceFrame
from c0ops.verify import (
    commutant_basis,
    conjugated_ambient,
    cordiag_demo,
    counterexample_search,
    decide_commutant_orbit,
    direct_sum_nilpotent,
    verify_orbit,
)

RNG = np.random.default_rng(1618)


class TestVerifyOrbit:
    def test_same_subspace_is_orbit(self):
        amb = AmbientSpace.build(monomial(2), 6)
        m = random_invariant_subspace(amb, RNG)
        rep = verify_orbit(amb, m, m)
        assert rep.verdict == "orbit"
        assert all(d <= 1e-10 for _, d in rep.distance_curve)

    def test_unequal_restriction_models_no_orbit(self):
        amb = AmbientSpace.build(monomial(2), 4)
        # 1-dim vs 2-dim invariant subspaces cannot share a model
        cols1 = np.zeros((8, 1), dtype=complex)
        cols1[1, 0] = 1.0  # span{z} in copy 0
        m1 = SubspaceFrame(amb, cols1)
        cols2 = np.zeros((8, 2), dtype=complex)
        cols2[0, 0] = 1.0
        cols2[1, 1] = 1.0  # all of copy 0
        m2 = SubspaceFrame(amb, cols2)
        rep = verify_orbit(amb, m1, m2)
        assert rep.verdict == "no-orbit"
        assert not rep.restriction_models_equal
        assert not rep.orbit_constructed

    def test_verdict_consistency_with_flags(self):
        amb = AmbientSpace.build(monomial(2), 4)
        for _ in range(6):
            m1 = random_invariant_subspace(amb, RNG, num_vectors=int(RNG.integers(1, 3)))
            m2 = random_invariant_subspace(amb, RNG, num_vectors=int(RNG.integers(1, 3)))
            rep = verify_orbit(amb, m1, m2)
            if rep.verdict == "orbit":
                assert rep.restriction_models_equal and rep.compression_divisibility
                assert rep.distance_curve[-1][1] <= 0.05
            if rep.verdict == "no-orbit":
                assert not (
                    rep.restriction_models_equal and rep.compression_divisibility
                )


class TestCounterexample:
    @pytest.mark.parametrize(
        "blocks", [[2, 1], [1, 1], [2, 2], [3, 2, 1], [2, 2, 2]], ids=lambda b: "-".join(map(str, b))
    )
    def test_commutant_of_mixed_sum(self, blocks):
        t = direct_sum_nilpotent(blocks)
        basis = commutant_basis(t)
        # {X : XT = TX} for (+)_i S(z^{d_i}) has dimension sum_{i,j} min(d_i, d_j)
        assert len(basis) == sum(min(a, b) for a in blocks for b in blocks)
        for c in basis:
            assert (c @ t - t @ c).norm() == 0
        # the basis is linearly independent
        assert sp.Matrix.hstack(*[c.vec() for c in basis]).rank() == len(basis)

    def test_witness_pair_decided_false(self):
        t = direct_sum_nilpotent([2, 1])
        comm = commutant_basis(t)
        b1 = sp.Matrix([0, 1, 0])  # span{z} in the big block
        b2 = sp.Matrix([0, 0, 1])  # the small block
        assert decide_commutant_orbit(comm, b1, b2) is False
        assert decide_commutant_orbit(comm, b1, b1) is True

    def test_graph_family_is_one_orbit(self):
        # span{1 + c z'} for c != 0 all map onto each other
        t = direct_sum_nilpotent([2, 1])
        comm = commutant_basis(t)
        m_c = lambda c: sp.Matrix([[1, 0], [0, 1], [c, 0]])
        assert decide_commutant_orbit(comm, m_c(1), m_c(sp.Rational(1, 3))) is True
        assert decide_commutant_orbit(comm, m_c(0), m_c(2)) is True

    def test_search_finds_witness(self):
        rep = counterexample_search([2, 1], grid_step=Fraction(1, 8))
        # pinned: deciding each group's first member finds the pair-by-pair witness
        assert rep.witness == {
            "restriction_model_degrees": [1],
            "m1_basis": [["0", "1", "0"]],
            "m2_basis": [["0", "0", "1"]],
        }
        assert (rep.subspace_count, rep.pairs_checked) == (65, 1)

    def test_search_decides_first_member_against_the_rest(self):
        # 15 proper subspaces of 16 fall in 4 model groups: 11 decisions, not all 35 pairs
        rep = counterexample_search([2, 2], grid_step=Fraction(1))
        assert rep.exhausted and not rep.budget_exhausted
        assert (rep.subspace_count, rep.pairs_checked) == (16, 11)

    def test_uniform_negative_control(self):
        rep = counterexample_search([1, 1], grid_step=Fraction(1, 4))
        assert rep.witness is None
        assert rep.exhausted and not rep.budget_exhausted

    def test_budget_exhaustion_flag(self):
        rep = counterexample_search([1, 1], grid_step=Fraction(1, 4), budget=3)
        assert rep.witness is None
        assert rep.budget_exhausted


class TestCordiagDemo:
    def test_identity_similarity_agrees_trivially(self):
        runs = cordiag_demo(monomial(2), 4, np.eye(2), num_pairs=4, seed=9)
        assert all(r.agrees for r in runs)

    def test_random_similarity_agrees(self):
        s = np.array([[1.0, 0.4], [0.1, 1.3]])
        runs = cordiag_demo(monomial(2), 5, s, num_pairs=6, seed=31)
        assert all(r.agrees for r in runs)

    def test_blaschke_theta_diagonal_scaling(self):
        theta = blaschke(0.3) * blaschke(-0.4)
        s = np.diag([2.0, 0.5])
        runs = cordiag_demo(theta, 4, s, num_pairs=4, seed=17)
        assert all(r.agrees for r in runs)

    def test_conjugated_operator_repeats_conjugated_block(self):
        s = np.array([[1.0, 0.4], [0.1, 1.3]])
        amb = conjugated_ambient(monomial(2), 3, s)
        block = s @ amb.model.shift_matrix @ np.linalg.inv(s)
        expected = np.kron(np.eye(3), block)
        assert np.abs(amb.operator_matrix - expected).max() <= 1e-14

    def test_ill_conditioned_similarity_rejected(self):
        with pytest.raises(IllConditioned):
            conjugated_ambient(monomial(2), 3, np.diag([1.0, 1e-9]))
