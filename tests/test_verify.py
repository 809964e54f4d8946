"""Orbit verdicts, the witness search, and the conjugated-ambient demo."""

import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy as sp

from c0ops.errors import HypothesisViolated, IllConditioned
from c0ops.exact_nilpotent import NilpotentSum
from c0ops.inner import blaschke, monomial
from c0ops.jordan import JordanModel, canonical_subspace, random_invariant_subspace
from c0ops.model_space import build_model_space
from c0ops.quasiaffine import build_Y_main
from c0ops.subspaces import AmbientSpace, SubspaceFrame, image_closure, principal_distance
from c0ops.verify import (
    CURVE_SLACK,
    DEFAULT_GATE,
    Y_SCHEDULE,
    _curve_accepts,
    _record_basis,
    _subspace_records,
    cordiag_demo,
    counterexample_search,
    verify_orbit,
)
from basis_reference import _orbit_type
from dense_reference import dense
import commutant_oracle
from commutant_oracle import commutant_basis, decide_commutant_orbit

RNG = np.random.default_rng(1618)
# (blocks, grid denominator) of the grids whose every same-model pair the oracle decides
ORACLE_GRIDS = [
    ([2, 1], 2), ([2, 2], 1), ([3, 1], 1), ([3, 2], 1), ([3, 2, 1], 1),
    ([2, 2, 1], 1), ([4, 2], 1), ([4, 1, 1], 1), ([5, 3], 1),
]
WITNESS_2_1 = {
    "restriction_model_degrees": [1],
    "m1_basis": [["0", "1", "0"]],
    "m2_basis": [["0", "0", "1"]],
}


class TestVerifyOrbit:
    def test_same_subspace_is_orbit(self):
        amb = AmbientSpace.build(monomial(2), 6)
        m = random_invariant_subspace(amb, RNG)
        rep = verify_orbit(amb, m, m)
        assert rep.verdict == "orbit"
        assert all(d <= 1e-10 for _, d in rep.distance_curve)

    def test_same_subspace_is_orbit_at_large_n(self):
        # the weights of Y put sigma_min(Y) far under RANK_REL_TOL at N = 192,
        # where a thresholded rank dropped 6 of the 192 image directions
        theta, n = monomial(2), 192
        amb = AmbientSpace.build(theta, n)
        m = canonical_subspace(amb, JordanModel((theta,) * (n // 2)), JordanModel((theta,)))
        rep = verify_orbit(amb, m, m, sweep=(n,))
        assert rep.verdict == "orbit"
        assert rep.distance_curve[-1][1] <= 1e-12

    def test_coupled_rows_match_the_dense_path(self):
        # the symbols of row 0 are b_{-0.4i} and 1, so Y has a row with head
        # blocks next to its rows of weights alone, and the image is built
        # group by group
        theta = blaschke(0.3) * blaschke(-0.4j)
        amb = AmbientSpace.build(theta, 6)
        m = canonical_subspace(amb, JordanModel((theta, blaschke(0.3))), JordanModel((blaschke(-0.4j),)))
        rep = verify_orbit(amb, m, m, sweep=(16, 32, 64))
        assert rep.verdict == "orbit"
        assert [n for n, _ in rep.distance_curve] == [16, 32, 64]
        rest, comp = rep.restriction_models[0], rep.compression_models[0]
        for n, dist in rep.distance_curve:
            amb_n = AmbientSpace(amb.model, n)
            y = build_Y_main(amb_n, rest, comp, comp, Y_SCHEDULE)
            assert any(head for _, _, head in y.operator.rows)
            frame = SubspaceFrame(amb_n, canonical_subspace(amb_n, rest, comp).frame)
            dense_dist = principal_distance(image_closure(dense(y.operator), frame), frame)
            assert dist <= 1e-12
            assert abs(dist - dense_dist) <= 1e-12

    def test_row_zero_past_the_schedule_reads_inconclusive(self):
        # from N = 4289 row 0 of Y has more than the 64 slots of Y_SCHEDULE,
        # so Y is refused and the curve stops at the last N that fit
        theta = monomial(2)
        amb = AmbientSpace.build(theta, 4)
        m = canonical_subspace(amb, JordanModel((theta, theta)), JordanModel((theta, theta)))
        rep = verify_orbit(amb, m, m, sweep=(16, 4300))
        assert rep.verdict == "inconclusive"
        assert rep.to_dict()["distance_curve"] == [[16, 0.0]]
        rest, comp = rep.restriction_models[0], rep.compression_models[0]
        y = build_Y_main(AmbientSpace(amb.model, 4288), rest, comp, comp, Y_SCHEDULE)
        assert len(y.operator.rows[0][0]) == 1 + len(Y_SCHEDULE.values)
        with pytest.raises(HypothesisViolated, match="^schedule shorter than the truncation$"):
            build_Y_main(AmbientSpace(amb.model, 4289), rest, comp, comp, Y_SCHEDULE)

    def test_a_sweep_past_the_schedule_refuses_before_it_builds_rows(self):
        # the length of Y's row 0 is read from N alone, so at N = 10^6 the
        # refusal comes before any Cantor list, row list or frame of that N
        theta = monomial(2)
        amb = AmbientSpace.build(theta, 4)
        m = canonical_subspace(amb, JordanModel((theta, theta)), JordanModel((theta, theta)))
        tracemalloc.start()
        try:
            rep = verify_orbit(amb, m, m, sweep=(16, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "inconclusive"
        assert rep.to_dict()["distance_curve"] == [[16, 0.0]]
        assert peak <= 4 * 2**20
        assert verify_orbit(amb, m, m, sweep=(16, 4288)).verdict == "orbit"

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


@pytest.mark.parametrize(
    "values, accepted",
    [
        ([], False),
        ([0.01, 0.02, 0.06], False),  # the final point is above the gate
        ([1e-9, 1e-12, 5e-9], True),  # at roundoff everywhere, so not read for monotonicity
        ([0.04, 0.03, 0.02, 0.01], True),
        ([0.04, 0.01, 0.02], False),  # a rising tail
        ([0.03, 0.02, 0.02 + CURVE_SLACK / 2], True),  # a rise within the slack
        ([0.01, 0.04, 0.03, 0.02, 0.01], True),  # a rise before the last three points
    ],
    ids=["empty", "above-gate", "converged", "falling", "rising", "within-slack", "early-rise"],
)
def test_curve_rule(values, accepted):
    curve = [(4 * (i + 1), v) for i, v in enumerate(values)]
    assert _curve_accepts(curve, DEFAULT_GATE) is accepted


class TestCounterexample:
    @pytest.mark.parametrize(
        "blocks",
        [[2, 1], [1, 1], [2, 2], [3, 2, 1], [2, 2, 2], [4, 2, 1], [3, 3, 1]],
        ids=lambda b: "-".join(map(str, b)),
    )
    def test_commutant_of_mixed_sum(self, blocks):
        t_exact = NilpotentSum(blocks)
        n = t_exact.n
        t = sp.Matrix(n, n, lambda i, j: t_exact.apply([int(k == j) for k in range(n)])[i])
        basis = [sp.Matrix(n, n, lambda i, j: int((i, j) in ones)) for ones in commutant_basis(t_exact)]
        # {X : XT = TX} for (+)_i S(z^{d_i}) has dimension sum_{i,j} min(d_i, d_j)
        assert len(basis) == sum(min(a, b) for a in blocks for b in blocks)
        for c in basis:
            assert (c @ t - t @ c).norm() == 0
        # the basis is linearly independent
        assert sp.Matrix.hstack(*[c.vec() for c in basis]).rank() == len(basis)

    def test_witness_pair_decided_false(self):
        t = NilpotentSum([2, 1])
        comm = commutant_basis(t)
        b1 = [[0, 1, 0]]  # span{z} in the big block
        b2 = [[0, 0, 1]]  # the small block
        assert decide_commutant_orbit(comm, b1, b2) is False
        assert decide_commutant_orbit(comm, b1, b1) is True

    def test_graph_family_is_one_orbit(self):
        # span{1 + c z'} for c != 0 all map onto each other
        t = NilpotentSum([2, 1])
        comm = commutant_basis(t)
        m_c = lambda c: [[1, 0, c], [0, 1, 0]]  # the columns of [[1, 0], [0, 1], [c, 0]]
        assert decide_commutant_orbit(comm, m_c(1), m_c(Fraction(1, 3))) is True
        assert decide_commutant_orbit(comm, m_c(0), m_c(2)) is True

    def test_search_finds_witness(self):
        rep = counterexample_search([2, 1], grid_step=Fraction(1, 8))
        # pinned: deciding each group's first member finds the pair-by-pair witness
        assert rep.witness == WITNESS_2_1
        assert (rep.subspace_count, rep.pairs_checked) == (65, 1)

    def test_search_finds_witness_on_a_fine_grid(self):
        rep = counterexample_search([2, 1], grid_step=Fraction(1, 256))
        assert rep.witness == WITNESS_2_1
        assert (rep.subspace_count, rep.pairs_checked) == (2049, 1)

    def test_search_decides_first_member_against_the_rest(self):
        # 15 proper subspaces of 16 fall in 4 model groups: 11 decisions, not all 35 pairs
        rep = counterexample_search([2, 2], grid_step=Fraction(1))
        assert rep.exhausted and not rep.budget_exhausted
        assert (rep.subspace_count, rep.pairs_checked) == (16, 11)

    def test_witness_reports_compression_models(self):
        # the commutant preserves compressions, so unequal ones say why the pair is a witness
        rep = counterexample_search([2, 1], grid_step=Fraction(1, 8))
        m1, m2 = rep.witness_compression_models
        assert [p.degree for p in m1.parts] == [1, 1]
        assert [p.degree for p in m2.parts] == [2]
        assert rep.to_dict()["witness_compression_models"] == [m1.to_dict(), m2.to_dict()]

    @pytest.mark.parametrize(
        "blocks, denominator, subspaces, decisions",
        [
            ([2, 2, 2], 2, 98, 89),
            ([2, 2, 2, 2], 1, 128, 114),
            ([3, 3, 3], 2, 225, 206),
            ([4, 4], 2, 120, 106),
            ([2, 2, 2], 4, 194, 185),
            ([3, 3], 4, 141, 132),
        ],
        ids=["2-2-2@1/2", "2-2-2-2@1", "3-3-3@1/2", "4-4@1/2", "2-2-2@1/4", "3-3@1/4"],
    )
    def test_larger_uniform_negative_controls(self, blocks, denominator, subspaces, decisions):
        rep = counterexample_search(blocks, grid_step=Fraction(1, denominator))
        assert rep.witness is None and rep.witness_compression_models is None
        assert rep.exhausted and not rep.budget_exhausted
        assert (rep.subspace_count, rep.pairs_checked) == (subspaces, decisions)

    def test_witness_decided_by_certificate_at_n7(self, monkeypatch):
        # the oracle's decision of the one pair of [3,2,2]@1/2 fails every random
        # sample, so its determinant certificate over Q[t_0, ...] decides it at n = 7
        rep = counterexample_search([3, 2, 2], grid_step=Fraction(1, 2))
        assert (rep.subspace_count, rep.pairs_checked) == (131, 1)
        assert rep.witness["m1_basis"] == [["0", "0", "1", "0", "0", "0", "0"]]
        assert rep.witness["m2_basis"] == [["0", "0", "0", "0", "1", "0", "0"]]
        m1, m2 = rep.witness_compression_models
        assert [p.degree for p in m1.parts] == [2, 2, 2]
        assert [p.degree for p in m2.parts] == [3, 2, 1]
        forms, linear_forms = [], commutant_oracle.linear_forms

        def counting_forms(params):
            forms.append(params)
            return linear_forms(params)

        monkeypatch.setattr(commutant_oracle, "linear_forms", counting_forms)
        b1, b2 = ([[Fraction(x) for x in col] for col in rep.witness[m]] for m in ("m1_basis", "m2_basis"))
        assert decide_commutant_orbit(commutant_basis(NilpotentSum([3, 2, 2])), b1, b2) is False
        assert len(forms) == 1

    def test_orbit_types_match_the_commutant_oracle(self):
        # every same-model pair, not only first members, of nine small grids
        start = time.perf_counter()
        no_orbit = Counter()
        for blocks, denominator in ORACLE_GRIDS:
            t = NilpotentSum(blocks)
            comm = commutant_basis(t)
            groups = {}
            step = Fraction(1, denominator)
            for key, _, recipe in _subspace_records(t.block_degrees, step):
                if sum(key) < t.n:
                    groups.setdefault(key, []).append(_record_basis(t, step, key, recipe))
            for key, members in groups.items():
                for b1, b2 in combinations(members, 2):
                    same = _orbit_type(t.block_degrees, key, b1) == _orbit_type(t.block_degrees, key, b2)
                    assert decide_commutant_orbit(comm, b1, b2) is same, (blocks, b1, b2)
                    no_orbit["lattice" if len(key) > 1 else "cyclic"] += not same
                    no_orbit["pairs"] += 1
        assert no_orbit == {"pairs": 659, "cyclic": 227, "lattice": 24}
        assert time.perf_counter() - start <= 2.0

    def test_full_two_block_search_at_degree_32(self):
        # 3136 subspaces and no budget: each comparison reads two closed-form types
        start = time.perf_counter()
        rep = counterexample_search([32, 32], Fraction(1))
        assert (rep.subspace_count, rep.pairs_checked) == (3136, 2576)
        assert rep.exhausted and not rep.budget_exhausted
        assert time.perf_counter() - start <= 2.0

    def test_full_four_block_search_at_degree_16(self):
        # 86592 subspaces, 83456 of them lattice elements: each carries its type, no basis is built
        start = time.perf_counter()
        rep = counterexample_search([16, 16, 16, 16], Fraction(1))
        assert (rep.subspace_count, rep.pairs_checked) == (86592, 81748)
        assert rep.exhausted and not rep.budget_exhausted
        assert time.perf_counter() - start <= 2.0

    @pytest.mark.parametrize("budget", [0, 1, 3, 5, 50])
    @pytest.mark.parametrize(
        "blocks, denominator, subspaces", [([3, 3, 3], 2, 225), ([4, 4], 2, 120)], ids=["3-3-3@1/2", "4-4@1/2"]
    )
    def test_budget_stops_a_uniform_search(self, blocks, denominator, subspaces, budget):
        rep = counterexample_search(blocks, Fraction(1, denominator), budget)
        assert rep.to_dict() == {
            "block_degrees": blocks,
            "subspace_count": subspaces,
            "pairs_checked": budget,
            "witness": None,
            "witness_compression_models": None,
            "exhausted": False,
            "budget_exhausted": True,
        }

    @pytest.mark.parametrize("budget", [0, 1, 3, 5, 50])
    def test_budget_against_a_witness_at_the_second_comparison(self, budget):
        rep = counterexample_search([2, 2, 1], Fraction(1, 3), budget)
        found = budget >= 2
        models = [JordanModel(tuple(map(monomial, parts))).to_dict() for parts in ([2, 1, 1], [2, 2])]
        assert rep.to_dict() == {
            "block_degrees": [2, 2, 1],
            "subspace_count": 97,
            "pairs_checked": min(budget, 2),
            "witness": {
                "restriction_model_degrees": [1],
                "m1_basis": [["0", "1", "0", "0", "0"]],
                "m2_basis": [["0", "0", "0", "0", "1"]],
            } if found else None,
            "witness_compression_models": models if found else None,
            "exhausted": False,
            "budget_exhausted": not found,
        }

    @pytest.mark.parametrize(
        "blocks, step, error",
        [
            ([2, 1], Fraction(0), ValueError),
            ([2, 1], Fraction(-1, 4), ValueError),
            ([2, 1], 0.25, TypeError),
            ([2, 0], Fraction(1, 4), ValueError),
        ],
        ids=["zero-step", "negative-step", "float-step", "zero-degree"],
    )
    def test_search_refuses_bad_input(self, blocks, step, error):
        with pytest.raises(error):
            counterexample_search(blocks, step)

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
        amb = AmbientSpace(build_model_space(monomial(2)), 3, s)
        block = s @ amb.model.shift_matrix @ np.linalg.inv(s)
        expected = np.kron(np.eye(3), block)
        assert np.abs(amb.apply(np.eye(amb.total_dim)) - expected).max() <= 1e-14
        rng = np.random.default_rng(8)
        frame = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert np.abs(amb.apply(frame) - expected @ frame).max() <= 1e-14
        vec = frame[:, 0]
        assert amb.apply(vec).shape == (6,)
        assert np.abs(amb.apply(vec) - expected @ vec).max() <= 1e-14

    def test_ill_conditioned_similarity_rejected(self):
        with pytest.raises(IllConditioned, match="^similarity condition number exceeds 1e6$"):
            AmbientSpace(build_model_space(monomial(2)), 3, np.diag([1.0, 1e-9]))
