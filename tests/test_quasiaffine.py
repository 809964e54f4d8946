"""Norm-preserving solver, triangular X, density sweep, assembled Y."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from c0ops.errors import HypothesisViolated
from c0ops.inner import ONE, InnerFunction, all_divisors, blaschke, divides, monomial, quotient
from c0ops.jordan import JordanModel, canonical_subspace, random_invariant_subspace
from c0ops.model_space import ModelVector, build_model_space, functional_calculus
from c0ops.quasiaffine import (
    WeightSchedule,
    build_X,
    build_Y_main,
    compression_intertwiner,
    density_sweep,
    random_density_targets,
    solve_norm_preserving,
)
from c0ops.subspaces import (
    AmbientSpace,
    SubspaceFrame,
    _rows,
    image_closure,
    invariant_subspace_of_block,
    principal_distance,
)
from c0ops.verify import verify_orbit
from dense_reference import dense

RNG = np.random.default_rng(424242)


class TestSolver:
    def test_monomial_example(self):
        # theta = z^3, phi = psi = z^2: g = z^2 solves to f = z, norm kept
        space = build_model_space(monomial(3))
        g = ModelVector(space, np.array([0, 0, 1], dtype=complex))
        f = solve_norm_preserving(space, monomial(2), monomial(2), g)
        omega = quotient(monomial(3), monomial(2))  # omega = z
        assert np.allclose(
            functional_calculus(space, omega) @ f.coords, g.coords, atol=1e-10
        )
        assert abs(f.norm - g.norm) < 1e-10

    @pytest.mark.parametrize("trial", range(100))
    def test_random_admissible_instances(self, trial):
        rng = np.random.default_rng(1000 + trial)
        pool = [0.0, 0.3, -0.25, 0.2 + 0.35j]
        mults = rng.integers(0, 2, size=4)
        theta = ONE
        for a, m in zip(pool, mults):
            if m:
                theta = theta * blaschke(a, int(m))
        if theta.degree < 2:
            theta = theta * monomial(2)
        space = build_model_space(theta)
        divisors = all_divisors(theta)
        phi = divisors[rng.integers(len(divisors))]
        admissible = [d for d in divisors if divides(quotient(theta, phi), d)]
        psi = admissible[rng.integers(len(admissible))]
        frame = invariant_subspace_of_block(space, psi).frame
        if frame.shape[1] == 0:
            return
        coeff = rng.standard_normal(frame.shape[1]) + 1j * rng.standard_normal(
            frame.shape[1]
        )
        g = ModelVector(space, frame @ coeff)
        f = solve_norm_preserving(space, phi, psi, g)
        omega = quotient(psi, quotient(theta, phi))
        residual = np.linalg.norm(
            functional_calculus(space, omega) @ f.coords - g.coords
        )
        assert residual <= 1e-9 * max(1.0, g.norm)
        assert abs(f.norm - g.norm) <= 1e-9 * max(1.0, g.norm)

    def test_rejects_target_outside_subspace(self):
        # at 1e160 the norm of g overflows, which must not make the membership test vacuous
        space = build_model_space(monomial(3))
        for scale in (1.0, 1e160):
            g = ModelVector(space, np.array([scale, 0, 0], dtype=complex))
            with pytest.raises(HypothesisViolated, match=r"^g lies outside psi H\^2 \(-\) theta H\^2$"):
                solve_norm_preserving(space, monomial(2), monomial(2), g)
        member = invariant_subspace_of_block(space, monomial(2)).frame[:, 0]
        f = solve_norm_preserving(space, monomial(2), monomial(2), ModelVector(space, 1e160 * member))
        assert np.all(np.isfinite(f.coords))


class TestBuildX:
    def test_intertwines_and_sigma_floor(self):
        thetas = [monomial(2), blaschke(0.3) * blaschke(-0.2), monomial(4)]
        for theta in thetas:
            space = build_model_space(theta)
            for n in (2, 4, 8, 16):
                schedule = WeightSchedule.factorial(n)
                omegas = [theta if k % 2 else ONE for k in range(n)]
                rec = build_X(space, n, omegas, schedule)
                assert rec.intertwining_residual <= 1e-10
                assert rec.sigma_min >= 0.5 * min(schedule.values[:n])
                # the quality numbers match their dense definitions
                x, t = dense(rec.operator), np.kron(np.eye(n + 1), space.shift_matrix)
                assert abs(rec.norm - np.linalg.norm(x, 2)) <= 1e-12
                assert abs(rec.sigma_min - np.linalg.svd(x, compute_uv=False)[-1]) <= 1e-12
                assert abs(rec.intertwining_residual - np.linalg.norm(x @ t - t @ x, 2)) <= 1e-14

    def test_frozen_sigma_min_two_copies(self):
        space = build_model_space(monomial(2))
        schedule = WeightSchedule.factorial(2)
        rec = build_X(space, 2, [monomial(1), monomial(1)], schedule)
        assert rec.intertwining_residual <= 1e-12
        assert abs(rec.sigma_min - 0.42086143143284666) < 1e-12


    def test_theta_slots_decouple(self):
        # theta, 1 and proper divisors mixed under one weight above 1: the norm
        # is that theta slot's weight, sigma_min comes from the coupled slots
        a, b = 0.3, -0.4j
        theta = blaschke(a, 2) * blaschke(b)
        space = build_model_space(theta)
        omegas = [theta, ONE, blaschke(a), theta, theta, blaschke(a) * blaschke(b), theta]
        schedule = WeightSchedule.custom([0.5, 0.25, 0.2, 3.0, 0.4, 0.1, 0.6])
        rec = build_X(space, len(omegas), omegas, schedule)
        x, t = dense(rec.operator), np.kron(np.eye(len(omegas) + 1), space.shift_matrix)
        s = np.linalg.svd(x, compute_uv=False)
        assert abs(rec.norm - 3.0) <= 1e-12 and abs(rec.norm - s[0]) <= 1e-12
        assert abs(rec.sigma_min - s[-1]) <= 1e-12 and rec.sigma_min < 0.1
        assert abs(rec.intertwining_residual - np.linalg.norm(x @ t - t @ x, 2)) <= 1e-12
        d = space.dim
        for m, omega in enumerate(omegas):
            if omega == theta:
                assert not x[:d, (m + 1) * d : (m + 2) * d].any()

    def test_theta_slots_form_no_dense_matrix(self):
        # a dense X on 64 theta slots of a degree-64 theta took 277 MB
        theta = InnerFunction(tuple((0.9 * 1j**k, 16) for k in range(4)))
        space, schedule = build_model_space(theta), WeightSchedule.factorial(64)
        tracemalloc.start()
        try:
            rec = build_X(space, 64, [theta] * 64, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rec.sigma_min, rec.norm) == (schedule.values[-1], 1.0)
        assert peak < 16 * 2**20

    def test_theta_symbols_need_no_calculus_or_svd(self, monkeypatch):
        # every orbit-sweep row of Y is all theta: X is the diagonal [I, c_m I]
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            "c0ops.quasiaffine.functional_calculus", counted("calculus", functional_calculus)
        )
        monkeypatch.setattr("numpy.linalg.svd", counted("svd", np.linalg.svd))
        theta = InnerFunction(((0.3, 2), (-0.25, 2), (0.2 + 0.35j, 2), (-0.1 - 0.4j, 2)))
        space = build_model_space(theta)
        schedule = WeightSchedule.factorial(64)
        rec = build_X(space, 5, [theta] * 5, schedule)
        assert (rec.sigma_min, rec.norm, rec.intertwining_residual) == (1 / 120, 1.0, 0.0)
        amb = AmbientSpace(space, 32)
        rest, comp = JordanModel((theta,)), JordanModel((theta,) * 3)
        y_rec = build_Y_main(amb, rest, comp, comp, schedule)
        assert y_rec.intertwining_residual == 0.0
        assert calls == []


class TestSchedule:
    def test_factorial_condition_values(self):
        sched = WeightSchedule.factorial(32)
        ks = sched.condition_sequence()
        assert abs(ks[0] - 1.0) < 1e-12
        assert abs(ks[4] - (6.0 / 720.0) * math.sqrt(618.0)) < 1e-15
        for a, b in zip(ks[3:], ks[4:]):
            assert b < a
        assert not sched.looks_divergent()

    def test_factorial_schedule_to_its_last_float(self):
        # K(m) squares no weight: at 170 weights every K(m) is finite and decreasing
        ks = WeightSchedule.factorial(170).condition_sequence()
        assert all(0 < b < a for a, b in zip(ks[3:], ks[4:]))
        with pytest.raises(HypothesisViolated, match="^the factorial schedule has at most 170 weights, not 171$"):
            WeightSchedule.factorial(171)

    def test_polynomial_schedule_diverges(self):
        sched = WeightSchedule.custom([(n + 1) ** -2 for n in range(32)])
        ks = sched.condition_sequence()
        assert ks[29] > ks[9]
        assert sched.looks_divergent()
        # fewer than 6 values of K(m) have no tail to judge
        assert not WeightSchedule.custom(sched.values[:6]).looks_divergent()

    def test_positive_weights_required(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                WeightSchedule.custom([1.0, bad])


class TestDensitySweep:
    def make_fixture(self, seed=5, copies=12):
        theta = monomial(2)
        space = build_model_space(theta)
        phi_list = [monomial(1)] * copies
        g, fs = random_density_targets(space, copies, phi_list, monomial(1), seed)
        return space, copies, phi_list, g, fs

    def test_residual_below_bound_and_converges(self):
        space, copies, phi_list, g, fs = self.make_fixture()
        sched = WeightSchedule.factorial(copies + 1)
        rows = density_sweep(
            space, copies, phi_list, monomial(2), monomial(1), g, fs, sched
        )
        for row in rows:
            assert row.residual <= row.bound + 1e-9
        assert rows[-1].m == 11
        assert rows[-1].residual <= 0.05

    def test_trivial_target_zero_residual(self):
        # psi1 = psi2 and F = 0 beyond the head: the first approximant with
        # m past the support reproduces the target to solver precision
        space = build_model_space(monomial(2))
        copies = 6
        phi_list = [monomial(1)] * copies
        head = invariant_subspace_of_block(space, monomial(1)).frame
        g = ModelVector(space, head[:, 0])
        fs = [ModelVector(space, np.zeros(2, dtype=complex)) for _ in range(copies)]
        rows = density_sweep(
            space, copies, phi_list, monomial(1), monomial(1), g, fs,
            WeightSchedule.factorial(copies + 1),
        )
        assert rows[-1].residual <= 1e-10

    def test_hypothesis_gate(self):
        space, copies, phi_list, g, fs = self.make_fixture()
        with pytest.raises(HypothesisViolated, match="^psi2 must divide psi1$"):
            density_sweep(
                space, copies, phi_list, monomial(1), monomial(2), g, fs,
                WeightSchedule.factorial(copies + 1),
            )

    def test_frames_built_once_per_sweep(self, monkeypatch):
        # one frame per role and divisor: slot theta/phi = z, psi2 = z, psi1 = z^2
        # and the projection theta/omega = z^2; the 11 solves add none
        space, copies, phi_list, g, fs = self.make_fixture()
        built = []

        def counted(space, divisor):
            built.append(divisor)
            return invariant_subspace_of_block(space, divisor)

        monkeypatch.setattr("c0ops.quasiaffine.invariant_subspace_of_block", counted)
        density_sweep(
            space, copies, phi_list, monomial(2), monomial(1), g, fs,
            WeightSchedule.factorial(copies + 1),
        )
        assert len(built) <= 4

    def test_empty_target_slots_refused(self):
        # phi = 1: every slot frame is empty, so F cannot have unit norm
        space = build_model_space(monomial(2))
        with pytest.raises(HypothesisViolated, match="^every target slot is empty"):
            random_density_targets(space, 4, [ONE] * 4, monomial(2), 3)

    def test_non_finite_target_refused(self):
        space, copies, phi_list, g, fs = self.make_fixture()
        fs[0] = ModelVector(space, np.full(2, np.nan, dtype=complex))
        with pytest.raises(HypothesisViolated, match=r"^F_0 lies outside \(theta/phi_0\)H\^2 \(-\) theta H\^2$"):
            density_sweep(
                space, copies, phi_list, monomial(2), monomial(1), g, fs,
                WeightSchedule.factorial(copies + 1),
            )


    @pytest.mark.parametrize("copies", [2, 12, 40])
    def test_rows_equal_per_m_recompute(self, copies):
        space, copies, phi_list, g, fs = self.make_fixture(seed=copies, copies=copies)
        sched = WeightSchedule.factorial(copies + 1)
        rows = density_sweep(space, copies, phi_list, monomial(2), monomial(1), g, fs, sched)
        assert_rows_match(rows, density_rows_per_m(space, copies, phi_list, monomial(2), monomial(1), g, fs, sched))

    def test_blaschke_rows_equal_per_m_recompute(self):
        # omega = psi2 / (theta/phi) = b_{-0.2}, so each term of g_res is a product, not a copy
        theta = InnerFunction(((0.3, 2), (-0.2, 1), (0.5j, 1)))
        psi2 = InnerFunction(((0.3, 2), (-0.2, 1)))
        space, copies = build_model_space(theta), 12
        phi_list = [blaschke(-0.2) * blaschke(0.5j)] * copies
        g, fs = random_density_targets(space, copies, phi_list, psi2, 7)
        sched = WeightSchedule.factorial(copies + 1)
        rows = density_sweep(space, copies, phi_list, theta, psi2, g, fs, sched)
        assert_rows_match(rows, density_rows_per_m(space, copies, phi_list, theta, psi2, g, fs, sched))


def assert_rows_match(rows, expected):
    """Residuals bit for bit; the sweep reads s_m through K(m), so its bound differs only in rounding."""
    assert [(r.m, r.residual) for r in rows] == [(m, residual) for m, residual, _ in expected]
    assert [r.bound for r in rows] == pytest.approx([bound for *_, bound in expected], rel=1e-12, abs=0)


def density_rows_per_m(space, copies, phi_list, psi1, psi2, g, fs, sched):
    """(m, residual, bound) of each density row, every sum over n < m recomputed for each m."""
    theta = space.theta
    omegas = [quotient(psi2, quotient(theta, phi)) for phi in phi_list]
    psi1_frame = invariant_subspace_of_block(space, psi1).frame
    g_work = g.coords - psi1_frame @ (psi1_frame.conj().T @ g.coords)
    f_norms = [f.norm for f in fs]
    f_total = math.sqrt(sum(v * v for v in f_norms))
    rows = []
    for m in range(1, copies):
        g_res = g_work.copy()
        for n in range(m):
            g_res -= functional_calculus(space, omegas[n]) @ fs[n].coords / ((n + 1) * sched.value(n))
        h_m = solve_norm_preserving(space, phi_list[m], psi2, ModelVector(space, (m + 1) * g_res))
        defect = np.linalg.norm(fs[m].coords - sched.value(m) * h_m.coords)
        residual = math.sqrt(defect**2 + sum(v * v for v in f_norms[m + 1 :]))
        s_m = math.sqrt(sum(1.0 / ((n + 1) * sched.value(n)) ** 2 for n in range(m)))
        bound = (m + 1) * sched.value(m) * (g.norm + f_total * s_m)
        bound += math.sqrt(sum(v * v for v in f_norms[m:]))
        rows.append((m, float(residual), float(bound)))
    return rows


def pairing(rec):
    """(copy, row, slot) of each paired copy of Y: row r's copy list is (2r+1, *slots), in slot order."""
    return [(c, (head - 1) // 2, slot) for (head, *slots), *_ in rec.operator.rows for slot, c in enumerate(slots)]


class TestBuildY:
    def test_intertwines_and_maps_canonical_subspaces(self):
        a, b = 0.3, -0.4j
        two_zeros = blaschke(a) * blaschke(b)
        cases = [
            (monomial(2), JordanModel((monomial(1), monomial(1))), JordanModel((monomial(1), monomial(1)))),
            # distinct zeros, with slot symbols b_b and theta besides 1
            (two_zeros, JordanModel((two_zeros, blaschke(a))), JordanModel((blaschke(b),))),
        ]
        sched = WeightSchedule.factorial(64)
        for theta, rest, psi in cases:
            for n in (8, 12, 16, 64):
                amb = AmbientSpace.build(theta, n)
                rec = build_Y_main(amb, rest, psi, psi, sched)
                assert rec.intertwining_residual <= 1e-10
                # the per-row quality numbers match their dense definitions
                y, t = dense(rec.operator), amb.apply(np.eye(amb.total_dim))
                assert abs(rec.sigma_min - np.linalg.svd(y, compute_uv=False)[-1]) <= 1e-12
                assert abs(rec.intertwining_residual - np.linalg.norm(y @ t - t @ y, 2)) <= 1e-14
                # Y couples only the copies of one pairing row: head 2r+1
                # and its paired copies; every other copy carries I_d
                label = {c: ("free", c) for c in range(n)}
                for copy, row, _ in pairing(rec):
                    label[copy] = label[2 * row + 1] = ("row", row)
                d = amb.model.dim
                for i in range(n):
                    for j in range(n):
                        blk = y[i * d : (i + 1) * d, j * d : (j + 1) * d]
                        if label[i] != label[j]:
                            assert not blk.any()
                        elif i == j and label[i][0] == "free":
                            assert np.array_equal(blk, np.eye(d))
                m1 = canonical_subspace(amb, rest, psi)
                m2 = canonical_subspace(amb, rest, psi)
                dist = principal_distance(image_closure(dense(rec.operator), m1), m2)
                assert dist <= 1e-10

    def test_blockwise_image_matches_dense_with_nontrivial_symbol(self):
        # tau != psi makes the row-0 symbols b_b and 1, so X_0 has non-zero
        # off-diagonal blocks; at each N some copies carry no row
        a, b = 0.3, -0.4j
        theta = blaschke(a) * blaschke(b)
        rest = JordanModel((theta, blaschke(a)))
        psi, tau = JordanModel((theta,)), JordanModel((blaschke(b),))
        for n in (8, 12, 64):
            amb = AmbientSpace.build(theta, n)
            rec = build_Y_main(amb, rest, psi, tau, WeightSchedule.factorial(64))
            y, d = dense(rec.operator), amb.model.dim
            assert np.abs(y[d : 2 * d, :d]).max() > 0.1  # head copy 1 from slot copy 0
            used = {c for c, _, _ in pairing(rec)} | {2 * r + 1 for _, r, _ in pairing(rec)}
            assert len(used) < n
            m1 = canonical_subspace(amb, rest, psi)
            # Y carries canon(phi, psi) into canon(phi, tau)
            m2 = canonical_subspace(amb, rest, tau).frame
            img = image_closure(rec.operator, m1).frame
            assert np.linalg.norm(img - m2 @ (m2.conj().T @ img), 2) <= 1e-12

    def test_verify_orbit_builds_no_dense_Y(self):
        # at N = 512 a dense Y on 4096 coordinates alone would take 268 MB
        theta = InnerFunction(((0.3, 2), (-0.25, 2), (0.2 + 0.35j, 2), (-0.1 - 0.4j, 2)))
        amb = AmbientSpace.build(theta, 4)
        rng = np.random.default_rng(8)
        m1 = random_invariant_subspace(amb, rng, num_vectors=2)
        m2 = random_invariant_subspace(amb, rng, num_vectors=2)
        tracemalloc.start()
        try:
            rep = verify_orbit(amb, m1, m2, sweep=(512,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "orbit"
        assert peak < 64 * 2**20

    def test_per_copy_layout_matches_dense(self):
        # degree 16: an all-theta triple, whose rows of Y are all weights, and
        # one whose row 0 has the symbols b_c b_a^2 b_b^2 and b_c
        za, zb, zc, ze = 0.3, -0.25, 0.2 + 0.35j, -0.1 - 0.4j
        theta = InnerFunction(((za, 4), (zb, 4), (zc, 4), (ze, 4)))
        ab = blaschke(za, 2) * blaschke(zb, 2)
        triples = [
            (JordanModel((theta, theta)), JordanModel((theta,)), JordanModel((theta,))),
            (
                JordanModel((theta, quotient(theta, ab))),
                JordanModel((ab * blaschke(zc, 2),)),
                JordanModel((ab * blaschke(zc),)),
            ),
        ]
        sched = WeightSchedule.factorial(64)
        space = build_model_space(theta)
        d = space.dim
        for rest, psi, tau in triples:
            for n in (8, 16, 32, 64):
                amb = AmbientSpace(space, n)
                m_psi = canonical_subspace(amb, rest, psi)
                m_tau = canonical_subspace(amb, rest, tau)
                # the dense frame of the per-copy layout, byte for byte: copy 2k
                # holds (theta/phi_k)H^2 (-) theta H^2, copy 2k+1 psi_k H^2 (-) theta H^2
                gammas = [theta] * n
                gammas[0 : 2 * len(rest) : 2] = [quotient(theta, phi) for phi in rest.parts]
                gammas[1 : 2 * len(psi) : 2] = psi.parts
                blocks = [invariant_subspace_of_block(space, g).frame for g in gammas]
                expected = np.zeros((n * d, sum(b.shape[1] for b in blocks)), dtype=complex)
                col = 0
                for c, b in enumerate(blocks):
                    expected[c * d : (c + 1) * d, col : col + b.shape[1]] = b
                    col += b.shape[1]
                assert m_psi.frame.tobytes() == expected.tobytes()
                assert m_psi.frame.shape == expected.shape
                # each row of Y is X / ||X|| on its copies, for the symbols of its slots
                rec = build_Y_main(amb, rest, psi, tau, sched)
                y = dense(rec.operator)
                for copy_list, _, _ in rec.operator.rows:
                    row = (copy_list[0] - 1) // 2
                    omegas = [
                        theta if rest.part(slot).is_one() or row >= len(tau) else quotient(tau.part(row), quotient(theta, rest.part(slot)))
                        for slot in range(len(copy_list) - 1)
                    ]
                    x_rec = build_X(space, len(omegas), omegas, sched)
                    idx = _rows(copy_list, d)
                    assert np.abs(y[np.ix_(idx, idx)] - dense(x_rec.operator) / x_rec.norm).max() <= 1e-15
                # only row 0 of the second triple has symbols other than theta
                coupled = [head for _, _, head in rec.operator.rows if head]
                assert len(coupled) == (rest.parts[1] != theta)
                frame = m_psi.frame
                # image and distance group by group against the dense path
                img = image_closure(rec.operator, m_psi)
                dense_img = image_closure(dense(rec.operator), SubspaceFrame(amb, frame))
                assert principal_distance(SubspaceFrame(amb, img.frame), dense_img) <= 1e-12
                for target in (m_psi, m_tau):
                    dist = principal_distance(img, target)
                    dense_dist = principal_distance(dense_img, SubspaceFrame(amb, target.frame))
                    assert abs(dist - dense_dist) <= 1e-12

    def test_degree_cap_step_without_dense_frames(self):
        # dense, this step took 212 s and 3.7 GB: 128 copies of a degree-64 theta
        theta = InnerFunction(tuple((0.9 * 1j**k, 16) for k in range(4)))
        n = 128
        rest, psi = JordanModel((theta,) * (n // 2)), JordanModel((theta,))
        amb = AmbientSpace.build(theta, n)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rec = build_Y_main(amb, rest, psi, psi, WeightSchedule.factorial(64))
            m1 = canonical_subspace(amb, rest, psi)
            m2 = canonical_subspace(amb, rest, psi)
            dist = principal_distance(image_closure(rec.operator, m1), m2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m1.dim == 64 * 64
        assert dist == 0.0
        assert elapsed <= 2.0
        assert peak <= 100 * 2**20

    def test_divisibility_failure_raised(self):
        theta = monomial(2)
        rest = JordanModel((monomial(1),))
        psi = JordanModel((monomial(1),))
        tau = JordanModel((monomial(2),))
        amb = AmbientSpace.build(theta, 8)
        with pytest.raises(HypothesisViolated, match="^tau_0 does not divide psi_0$"):
            build_Y_main(amb, rest, psi, tau, WeightSchedule.factorial(64))


    def test_rejects_a_conjugated_block(self):
        # the per-row residuals only bound Y T_N - T_N Y when T_N repeats S(theta)
        space = build_model_space(monomial(2))
        amb = AmbientSpace(space, 8, np.array([[1.0, 0.5], [0.0, 2.0]]))
        rest = JordanModel((monomial(1), monomial(1)))
        with pytest.raises(HypothesisViolated, match=r"^build_Y_main needs the Jordan ambient block S\(theta\)$"):
            build_Y_main(amb, rest, rest, rest, WeightSchedule.factorial(64))


def test_symbol_rule_refusals():
    # omega = psi / (theta/phi) needs theta/phi | psi in each of its callers
    space = build_model_space(monomial(3))
    g = ModelVector(space, np.zeros(3, dtype=complex))
    with pytest.raises(HypothesisViolated, match="^theta/phi = .* does not divide"):  # theta/phi = z^2 does not divide z
        solve_norm_preserving(space, monomial(1), monomial(1), g)

    space = build_model_space(monomial(2))
    zero = ModelVector(space, np.zeros(2, dtype=complex))
    with pytest.raises(HypothesisViolated, match="^theta/phi = .* does not divide"):  # theta/phi = z^2 does not divide psi2 = z
        density_sweep(
            space, 2, [ONE, ONE], monomial(2), monomial(1), zero, [zero, zero],
            WeightSchedule.factorial(3),
        )

    a, b = 0.3, -0.4j
    two_zeros = blaschke(a) * blaschke(b)
    rest = JordanModel((two_zeros, blaschke(a)))
    tau = JordanModel((blaschke(a),))
    amb = AmbientSpace.build(two_zeros, 8)
    with pytest.raises(HypothesisViolated, match="^theta/phi = .* does not divide"):  # theta/phi_1 = b_b does not divide tau_0 = b_a
        build_Y_main(amb, rest, tau, tau, WeightSchedule.factorial(64))


class TestCompressionIntertwiner:
    def test_identity_map(self):
        amb = AmbientSpace.build(monomial(2), 2)
        from c0ops.jordan import random_invariant_subspace

        m = random_invariant_subspace(amb, np.random.default_rng(2))
        x = np.eye(amb.total_dim, dtype=complex)
        a = compression_intertwiner(amb, m, amb, m, x)
        assert a.shape == (amb.total_dim - m.dim, amb.total_dim - m.dim)

    def test_rejects_non_intertwiner(self):
        amb = AmbientSpace.build(monomial(2), 2)
        from c0ops.jordan import random_invariant_subspace

        m = random_invariant_subspace(amb, np.random.default_rng(3))
        x = np.diag(np.arange(1.0, 5.0)).astype(complex)
        with pytest.raises(HypothesisViolated, match="^X does not intertwine the ambients$"):
            compression_intertwiner(amb, m, amb, m, x)

    # "compressions are not intertwined" follows from the two checks before it in exact
    # arithmetic (X T1 = T2 X, and X M1 lies in the invariant M2), so no test reaches it
    def test_rejects_an_image_off_m2(self):
        amb = AmbientSpace.build(monomial(2), 2)
        m1 = random_invariant_subspace(amb, np.random.default_rng(2))
        m2 = random_invariant_subspace(amb, np.random.default_rng(5))
        x = np.eye(amb.total_dim, dtype=complex)
        with pytest.raises(HypothesisViolated, match="^closure of X M1 is not M2$"):
            compression_intertwiner(amb, m1, amb, m2, x)

    def test_rejects_a_compression_map_without_full_row_rank(self):
        # X = 0 intertwines and carries the zero subspace onto itself, but A = 0
        amb = AmbientSpace.build(monomial(2), 2)
        zero = SubspaceFrame(amb, np.zeros((amb.total_dim, 0)))
        x = np.zeros((amb.total_dim, amb.total_dim), dtype=complex)
        with pytest.raises(HypothesisViolated, match="^A does not have full row rank$"):
            compression_intertwiner(amb, zero, amb, zero, x)


Z1, Z2, Z3 = monomial(1), monomial(2), monomial(3)
S2 = build_model_space(Z2)
ZERO = ModelVector(S2, np.zeros(2, dtype=complex))
SCHED = WeightSchedule.factorial(3)


def sweep(copies=2, phi_list=(Z1, Z1), psi1=Z2, psi2=Z1, targets=2):
    return density_sweep(S2, copies, list(phi_list), psi1, psi2, ZERO, [ZERO] * targets, SCHED)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: solve_norm_preserving(S2, Z3, Z1, ZERO), "^phi must divide theta$"),
        (lambda: solve_norm_preserving(S2, Z1, Z3, ZERO), "^psi must divide theta$"),
        (lambda: build_X(S2, 0, [], SCHED), "^need at least one summand$"),
        (lambda: build_X(S2, 2, [Z1], SCHED), "^omega list length must equal copies$"),
        (lambda: build_X(S2, 1, [Z3], SCHED), r"^InnerFunction\(z\^3\) does not divide theta$"),
        (lambda: build_X(S2, 3, [Z2] * 3, WeightSchedule.factorial(2)), "^schedule shorter than the truncation$"),
        (lambda: sweep(copies=1, phi_list=[Z1], targets=1), "^need copies >= 2 for a sweep$"),
        (lambda: sweep(targets=1), "^phi list and targets must match copies$"),
        (lambda: sweep(psi1=Z3), "^psi1 must divide theta$"),
        (lambda: sweep(phi_list=[Z1, Z2]), r"^phi_\{n\+1\} must divide phi_n$"),
        (lambda: sweep(phi_list=[Z3, Z3]), "^each phi_n must divide theta$"),
        (
            lambda: build_Y_main(AmbientSpace.build(Z2, 2), JordanModel((Z3,)), JordanModel(), JordanModel(), SCHED),
            "^leading model part must divide theta$",
        ),
        (
            lambda: build_Y_main(AmbientSpace.build(Z2, 1), JordanModel(), JordanModel(), JordanModel(), SCHED),
            "^need at least two copies$",
        ),
    ],
    ids=[
        "solve-phi", "solve-psi", "x-no-copies", "x-omega-count", "x-omega", "x-short-schedule",
        "sweep-one-copy", "sweep-targets", "sweep-psi1", "sweep-phi-chain", "sweep-phi",
        "y-leading-part", "y-one-copy",
    ],
)
def test_refusals(call, message):
    with pytest.raises(HypothesisViolated, match=message):
        call()
