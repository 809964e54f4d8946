"""Frames, the invariant-subspace lattice of a single block, and metrics."""

import json

import numpy as np
import pytest

from c0ops.errors import HypothesisViolated, IllConditioned
from c0ops.inner import all_divisors, blaschke, divides, monomial, quotient
from c0ops.model_space import build_model_space, functional_calculus
from c0ops.subspaces import (
    AmbientSpace,
    CopyBlocks,
    SubspaceFrame,
    image_closure,
    invariant_subspace_of_block,
    is_invariant,
    load_subspace,
    orthocomplement,
    orthonormalize,
    principal_distance,
)
from dense_reference import dense

RNG = np.random.default_rng(7031)


def dense_distance(a, b):
    """Reference gap: 2-norm of the difference of the Nd x Nd projections."""
    pa = a.frame @ a.frame.conj().T
    pb = b.frame @ b.frame.conj().T
    return np.linalg.norm(pa - pb, 2)


def kernel_frame(mat, dim):
    """Orthonormal frame for ker(mat) of known dimension."""
    _, _, vh = np.linalg.svd(mat)
    return vh.conj().T[:, mat.shape[1] - dim :]


class TestBlockLattice:
    def test_range_equals_kernel_identity(self):
        # ran phi(S) coincides with ker (theta/phi)(S) for every divisor
        theta = blaschke(0.3) * blaschke(-0.2, 2) * blaschke(0.35j)
        space = build_model_space(theta)
        for phi in all_divisors(theta):
            frame = invariant_subspace_of_block(space, phi)
            co = quotient(theta, phi)
            ker = kernel_frame(functional_calculus(space, co), theta.degree - phi.degree)
            amb = AmbientSpace(space, 1)
            d = principal_distance(
                SubspaceFrame(amb, frame.frame), SubspaceFrame(amb, ker)
            )
            assert d < 1e-8

    def test_lattice_sizes(self):
        # z^d: chain of d+1 invariant subspaces; distinct zeros: 2^d
        for d in range(1, 5):
            assert len(all_divisors(monomial(d))) == d + 1
        theta = blaschke(0.1) * blaschke(-0.3) * blaschke(0.25j)
        assert len(all_divisors(theta)) == 8

    def test_block_subspaces_are_invariant(self):
        theta = blaschke(0.2, 2) * blaschke(-0.4)
        space = build_model_space(theta)
        amb = AmbientSpace(space, 1)
        for phi in all_divisors(theta):
            frame = invariant_subspace_of_block(space, phi)
            ok, res = is_invariant(SubspaceFrame(amb, frame.frame))
            assert ok, f"phi={phi} residual {res}"
            assert frame.dim == theta.degree - phi.degree

    def test_lattice_ordering_matches_divisibility(self):
        theta = monomial(4)
        space = build_model_space(theta)
        divs = all_divisors(theta)
        for phi in divs:
            for psi in divs:
                f1 = invariant_subspace_of_block(space, phi).frame
                f2 = invariant_subspace_of_block(space, psi).frame
                contained = np.linalg.norm(f1 - f2 @ (f2.conj().T @ f1)) < 1e-10
                # psi | phi means phi H^2 inside psi H^2
                assert contained == divides(psi, phi)


class TestMetrics:
    def test_principal_distance_rotation(self):
        amb = AmbientSpace.build(monomial(2), 1)
        e0 = np.array([[1.0], [0.0]], dtype=complex)
        for t in (0.1, 0.4, 1.1):
            rot = np.array([[np.cos(t)], [np.sin(t)]], dtype=complex)
            a, b = SubspaceFrame(amb, e0), SubspaceFrame(amb, rot)
            d = principal_distance(a, b)
            assert abs(d - abs(np.sin(t))) < 1e-12
            assert abs(d - dense_distance(a, b)) < 1e-12

    def test_distance_is_a_metric_on_samples(self):
        amb = AmbientSpace.build(monomial(3), 2)
        frames = []
        for _ in range(4):
            cols = RNG.standard_normal((6, 2)) + 1j * RNG.standard_normal((6, 2))
            frames.append(SubspaceFrame(amb, orthonormalize(cols)))
        # unequal and empty dimensions next to the equal-dimension samples
        for k in (0, 1, 3):
            cols = RNG.standard_normal((6, k)) + 1j * RNG.standard_normal((6, k))
            frames.append(SubspaceFrame(amb, orthonormalize(cols)))
        for a in frames:
            assert principal_distance(a, a) < 1e-12
        for a in frames:
            for b in frames:
                dab = principal_distance(a, b)
                assert abs(dab - dense_distance(a, b)) < 1e-12
                assert abs(dab - principal_distance(b, a)) < 1e-12
                for c in frames:
                    assert dab <= principal_distance(a, c) + principal_distance(c, b) + 1e-12

    def test_ambient_mismatch_rejected(self):
        amb1 = AmbientSpace.build(monomial(2), 1)
        amb2 = AmbientSpace.build(monomial(2), 2)
        f1 = SubspaceFrame(amb1, np.eye(2, 1, dtype=complex))
        f2 = SubspaceFrame(amb2, np.eye(4, 1, dtype=complex))
        with pytest.raises(HypothesisViolated, match="^frames live in different ambient spaces$"):
            principal_distance(f1, f2)

    def test_orthocomplement_spans(self):
        amb = AmbientSpace.build(monomial(2), 2)
        cols = RNG.standard_normal((4, 2)) + 1j * RNG.standard_normal((4, 2))
        m = SubspaceFrame(amb, orthonormalize(cols))
        co = orthocomplement(m)
        joint = np.hstack([m.frame, co.frame])
        assert np.linalg.matrix_rank(joint) == 4
        assert np.linalg.norm(m.frame.conj().T @ co.frame) < 1e-12


class TestImageClosure:
    def test_invertible_map_preserves_dimension(self):
        amb = AmbientSpace.build(monomial(3), 1)
        m = SubspaceFrame(amb, np.eye(3, 2, dtype=complex))
        x = np.array([[2, 1, 0], [0, 1, 0], [0, 0, 3]], dtype=complex)
        img = image_closure(x, m)
        assert img.dim == 2

    def test_rank_deficient_map_drops_dimension(self):
        amb = AmbientSpace.build(monomial(3), 1)
        m = SubspaceFrame(amb, np.eye(3, 2, dtype=complex))
        x = np.zeros((3, 3), dtype=complex)
        x[0, 0] = 1.0
        img = image_closure(x, m)
        assert img.dim == 1


def random_block(rows, k):
    cols = RNG.standard_normal((rows, k)) + 1j * RNG.standard_normal((rows, k))
    return orthonormalize(cols, k)


class TestGroupedLayout:
    # 4 copies of H(z^2); the two layouts cross: their join is {0, 2, 3}, {1}
    AMB = AmbientSpace.build(monomial(2), 4)

    def layouts(self, ka, kb):
        """Grouped frames on ((0, 2), (1,), (3,)) and ((3, 2), (0,), (1,)) with these column counts."""
        a = SubspaceFrame(self.AMB, groups=[
            ((0, 2), random_block(4, ka[0])), ((1,), random_block(2, ka[1])), ((3,), random_block(2, ka[2]))
        ])
        b = SubspaceFrame(self.AMB, groups=[
            ((3, 2), random_block(4, kb[0])), ((0,), random_block(2, kb[1])), ((1,), random_block(2, kb[2]))
        ])
        return a, b

    def test_dense_frame_stacks_the_blocks(self):
        blocks = [random_block(2, k) for k in (1, 0, 2, 1)]
        m = SubspaceFrame.per_copy(self.AMB, blocks)
        assert m.dim == 4
        expected = np.zeros((8, 4), dtype=complex)
        expected[0:2, 0:1], expected[4:6, 1:3], expected[6:8, 3:4] = blocks[0], blocks[2], blocks[3]
        assert np.array_equal(m.frame, expected)

    def test_distance_matches_dense_across_crossing_groups(self):
        # (ka, kb): equal counts on the join (a proper gap), unequal ones (1),
        # and unequal totals
        for ka, kb in (((2, 1, 1), (2, 1, 1)), ((3, 1, 0), (1, 1, 1)), ((2, 2, 1), (2, 1, 1)), ((2, 0, 1), (1, 1, 1))):
            a, b = self.layouts(ka, kb)
            dense_a, dense_b = SubspaceFrame(self.AMB, a.frame), SubspaceFrame(self.AMB, b.frame)
            d = principal_distance(a, b)
            assert abs(d - principal_distance(dense_a, dense_b)) <= 1e-12
            assert abs(d - dense_distance(a, b)) <= 1e-12
            assert abs(d - principal_distance(b, a)) <= 1e-12

    def test_image_matches_dense(self):
        # the group (0, 2) of a is coupled to copy 1 by the head block from
        # copy 0, next to the decoupled copy 2, or only scaled, by weights
        # that differ on its two copies
        x = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        a, _ = self.layouts((2, 1, 1), (1, 1, 1))
        for rows in (
            (((1, 0, 2), np.array([1.0, 0.5, 0.25]), ((1, x),)), ((3,), np.array([0.3]), ())),
            (((1, 0), np.array([0.7, 0.2]), ((1, x),)), ((2, 3), np.array([0.5, 0.25]), ())),
            (((0, 2), np.array([1.0, 0.2]), ()), ((3, 1), np.array([0.5, 0.5]), ())),
        ):
            y = CopyBlocks(4, 2, rows)
            img = image_closure(y, a)
            assert img.groups is not None and img.dim == a.dim
            dense_img = image_closure(dense(y), SubspaceFrame(self.AMB, a.frame))
            assert dense_distance(img, dense_img) <= 1e-12

    def test_copy_blocks_on_other_copies_refused(self):
        # 2 copies of dim 4 have the total dimension of 4 copies of dim 2
        a, _ = self.layouts((2, 1, 1), (1, 1, 1))
        y = CopyBlocks(2, 4, (((0, 1), np.array([1.0, 0.5]), ()),))
        with pytest.raises(ValueError):
            image_closure(y, a)

    def test_malformed_groups_rejected(self):
        with pytest.raises(ValueError):
            SubspaceFrame(self.AMB, groups=[((0, 1), random_block(4, 1)), ((3,), random_block(2, 1))])
        with pytest.raises(ValueError):
            SubspaceFrame.per_copy(self.AMB, [random_block(2, 1)] * 3 + [random_block(3, 1)])


class TestAmbient:
    def test_similarity_of_wrong_shape_or_condition_rejected(self):
        space = build_model_space(monomial(2))
        with pytest.raises(ValueError):
            AmbientSpace(space, 2, np.eye(3))
        with pytest.raises(IllConditioned, match="^similarity condition number exceeds 1e6$"):
            AmbientSpace(space, 2, np.diag([1.0, 1e-7]))
        with pytest.raises(IllConditioned, match="^similarity condition number exceeds 1e6$"):
            AmbientSpace(space, 2, np.zeros((2, 2)))
        # z^2 annihilates the zero block, which is not similar to S(z^2): a
        # block is no longer given, so Klein's rule never meets such a one
        sim = np.diag([1.0, 1e5])
        amb = AmbientSpace(space, 2, sim)
        assert not amb.is_jordan and AmbientSpace(space, 2).is_jordan
        assert np.allclose(amb.block, sim @ space.shift_matrix @ np.diag([1.0, 1e-5]))


class TestSerialization:
    def test_round_trip(self):
        amb = AmbientSpace.build(blaschke(0.3) * blaschke(-0.1), 2)
        cols = RNG.standard_normal((4, 2)) + 1j * RNG.standard_normal((4, 2))
        m = SubspaceFrame(amb, orthonormalize(cols))
        data = json.loads(json.dumps(m.to_dict()))
        again, adjust = load_subspace(data)
        assert adjust < 1e-9
        assert principal_distance(m, SubspaceFrame(amb, again.frame)) < 1e-9

    def test_loader_reports_adjustment(self):
        amb = AmbientSpace.build(monomial(2), 1)
        m = SubspaceFrame(amb, np.eye(2, 1, dtype=complex))
        data = m.to_dict()
        # perturb the stored frame so it is no longer orthonormal
        data["frame"][0][0] = 1.5
        _, adjust = load_subspace(data)
        assert adjust > 0.1


def _nan_subspace():
    return {"ambient": {"theta": monomial(2).to_dict(), "copies": 1}, "frame": [[float("nan"), 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AmbientSpace.build(monomial(2), 0), ValueError, "^copies must be >= 1$"),
        (lambda: AmbientSpace.build(monomial(2), 2).apply(np.zeros(3)), ValueError, "^columns do not live in the ambient space$"),
        (lambda: load_subspace(_nan_subspace()), ValueError, "^frame has non-finite entries$"),
        (
            lambda: invariant_subspace_of_block(build_model_space(monomial(2)), monomial(3)),
            HypothesisViolated,
            r"^InnerFunction\(z\^3\) does not divide theta$",
        ),
        (
            lambda: image_closure(np.eye(3), SubspaceFrame(AmbientSpace.build(monomial(2), 2), np.eye(4, 1))),
            ValueError,
            "^operator does not act on the ambient space$",
        ),
    ],
    ids=["no-copies", "apply-wrong-rows", "nan-frame", "block-phi", "image-wrong-width"],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
