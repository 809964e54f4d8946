"""Jordan models of restrictions and compressions, and the canonical
block-diagonal subspace attached to a model pair."""

import json
import re
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

import c0ops.jordan as jordan
from c0ops.cli import main
from c0ops.errors import C0OpsError, HypothesisViolated, IllConditioned, NotInvariant
from c0ops.inner import ONE, InnerFunction, all_divisors, blaschke, monomial, quotient
from c0ops.jordan import (
    JordanModel,
    _model,
    _rank,
    canonical_subspace,
    chain_lengths,
    random_invariant_subspace,
    subspace_models,
)
from c0ops.model_space import blaschke_of_matrix, build_model_space, functional_calculus
from c0ops.subspaces import (
    AmbientSpace,
    SubspaceFrame,
    copywise,
    invariant_subspace_of_block,
    is_invariant,
    orthocomplement,
    orthonormalize,
)

RNG = np.random.default_rng(555)
ANNIHILATION_TOL = 1e-8


class NotAnnihilated(C0OpsError):
    """Matrix is not annihilated by the supplied reference inner function."""


def jordan_model_of(a_mat, theta_ref):
    """The reference read: the Jordan model of a square matrix A, anchored to the zeros of theta_ref.

    Each b_a(A) gives the ranks of its powers up to the multiplicity m of a
    under the rank rule of subspace_models (on S(theta) they are partial
    isometries, so every rank has a clear gap), and b_a(A)^m joins
    theta_ref(A), which must vanish. The chains must fill dim A.
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    n = a_mat.shape[0]
    if n == 0:
        return JordanModel()
    value = np.eye(n, dtype=complex)  # theta_ref(A), one zero at a time
    ranks = []
    for a, m in theta_ref.zeros:
        factor = blaschke_of_matrix(blaschke(a), a_mat)
        power, ranks_a = factor, [n, _rank(np.linalg.svd(factor, compute_uv=False))]
        for _ in range(m - 1):
            power = power @ factor
            ranks_a.append(_rank(np.linalg.svd(power, compute_uv=False)))
        value = value @ power
        ranks.append(ranks_a)
    # ||.||_2 <= ||.||_F, so the 2-norm (an SVD) is needed only above the tolerance
    if np.linalg.norm(value) > ANNIHILATION_TOL:
        res = float(np.linalg.norm(value, 2))
        if res > ANNIHILATION_TOL:
            raise NotAnnihilated(f"theta_ref(A) has norm {res:.3e} > {ANNIHILATION_TOL}")
    return _model(theta_ref, ranks)


def restriction_matrix(amb, m_frame):
    """Matrix of T|M in the frame coordinates of M, which must be invariant."""
    ok, residual = is_invariant(m_frame)
    if not ok:
        raise NotInvariant(f"invariance residual {residual:.3e}")
    q = m_frame.frame
    return q.conj().T @ amb.apply(q)


def haar_unitary(k, rng):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestJordanModelType:
    def test_trailing_ones_trimmed(self):
        m = JordanModel((monomial(2), monomial(1), ONE, ONE))
        assert len(m) == 2
        assert m.part(5) == ONE

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            JordanModel((monomial(1), monomial(2)))

    def test_total_degree(self):
        m = JordanModel((monomial(3), monomial(1)))
        assert m.total_degree == 4

    def test_round_trip(self):
        m = JordanModel((blaschke(0.3, 2) * blaschke(-0.1), blaschke(0.3)))
        assert JordanModel.from_dict(m.to_dict()) == m


class TestModelComputation:
    def test_nilpotent_partition(self):
        # one 3-chain and one 1-chain
        a = np.zeros((4, 4), dtype=complex)
        a[1, 0] = a[2, 1] = 1.0
        model = jordan_model_of(a, monomial(3))
        assert model == JordanModel((monomial(3), monomial(1)))

    def test_minimal_function_of_block(self):
        theta = blaschke(0.3) * blaschke(-0.2, 2)
        space = build_model_space(theta)
        assert jordan_model_of(space.shift_matrix, theta).part(0) == theta

    def test_frame_invariance(self):
        # Jordan data of a restriction is independent of the frame chosen
        amb = AmbientSpace.build(monomial(3), 3)
        m = random_invariant_subspace(amb, RNG, num_vectors=2)
        base = jordan_model_of(restriction_matrix(amb, m), amb.theta)
        for _ in range(50):
            u = haar_unitary(m.dim, RNG)
            reframed = SubspaceFrame(amb, m.frame @ u)
            again = jordan_model_of(restriction_matrix(amb, reframed), amb.theta)
            assert again == base

    def test_similarity_invariance(self):
        a = np.zeros((3, 3), dtype=complex)
        a[1, 0] = a[2, 1] = 1.0
        s = np.array([[1, 0.3, 0], [0, 1, -0.2], [0.1, 0, 1]], dtype=complex)
        conj = s @ a @ np.linalg.inv(s)
        assert jordan_model_of(conj, monomial(3)) == jordan_model_of(a, monomial(3))

    def test_tiny_eigenvalue_refused(self):
        # 0.04^k falls below the rank threshold at k = 6 while theta = z^32
        # still annihilates: the drops of the rank sequence would increase
        a = np.array([[0.04]], dtype=complex)
        with pytest.raises(IllConditioned, match="fit no nilpotent"):
            jordan_model_of(a, monomial(32))
        with pytest.raises(IllConditioned, match="fit no nilpotent"):
            jordan_model_of(a, monomial(32)).part(0)

    @pytest.mark.parametrize(
        "theta, a",
        [
            (blaschke(0.3) * blaschke(0.3001), np.array([[0.30005]])),
            (blaschke(0.3) * blaschke(0.3001) * blaschke(-0.2), np.diag([0.30005, -0.2])),
        ],
        ids=["one-eigenvalue", "two-eigenvalues"],
    )
    def test_eigenvalue_between_close_zeros_refused(self, theta, a):
        # theta(A) passes the annihilation tolerance, but each factor at
        # the close zeros keeps full rank: no chain holds the eigenvalue
        with pytest.raises(IllConditioned, match="do not fill"):
            jordan_model_of(a, theta)

    @pytest.mark.parametrize(
        "theta, a",
        [
            (ONE, np.array([[0.1]])),
            (blaschke(0.3), build_model_space(blaschke(0.3) * blaschke(-0.2)).shift_matrix),
        ],
        ids=["empty-zero-list", "missing-zero"],
    )
    def test_not_annihilated_refused(self, theta, a):
        with pytest.raises(NotAnnihilated):
            jordan_model_of(a, theta)

    def test_annihilation_judged_by_the_2_norm(self):
        # theta(A) = b_a(c) I_3 with |b_a(c)| = 0.9e-8: the Frobenius norm,
        # checked first, is sqrt(3) times that and above the tolerance
        a, w = 0.5, 0.9e-8
        mat = (w + a) / (1 + a * w) * np.eye(3)
        value = blaschke_of_matrix(blaschke(a), mat)
        assert np.linalg.norm(value, 2) <= ANNIHILATION_TOL < np.linalg.norm(value)
        assert jordan_model_of(mat, blaschke(a)) == JordanModel((blaschke(a),) * 3)

    def test_singular_resolvent_refused(self):
        # I - conj(0.5) A is singular at A = 2
        with pytest.raises(IllConditioned, match="^Singular matrix$"):
            jordan_model_of(np.array([[2.0]]), blaschke(0.5))

    def test_chain_lengths_refuse_increasing_drops(self):
        assert chain_lengths([4, 2, 1, 0]) == [3, 1]
        with pytest.raises(IllConditioned, match="fit no nilpotent"):
            chain_lengths([1, 1, 1, 1, 1, 1, 0])

    def test_restriction_requires_invariance(self):
        amb = AmbientSpace.build(monomial(2), 1)
        bad = SubspaceFrame(amb, np.array([[1.0], [0.0]], dtype=complex))
        # span{1} is not shift-invariant in H(z^2)
        with pytest.raises(NotInvariant):
            restriction_matrix(amb, bad)


class TestSubspaceModels:
    def test_full_and_zero_subspace(self):
        amb = AmbientSpace.build(monomial(2), 2)
        full = SubspaceFrame(amb, np.eye(4, dtype=complex))
        rest, comp = subspace_models(amb, full)
        assert rest == JordanModel((monomial(2), monomial(2)))
        assert comp == JordanModel()
        zero = SubspaceFrame(amb, np.zeros((4, 0), dtype=complex))
        rest, comp = subspace_models(amb, zero)
        assert rest == JordanModel()
        assert comp == JordanModel((monomial(2), monomial(2)))

    def test_interleaved_example(self):
        # (zH^2 (-) z^2 H^2) (+) H(z^2) inside two copies of H(z^2)
        amb = AmbientSpace.build(monomial(2), 2)
        cols = np.zeros((4, 3), dtype=complex)
        cols[1, 0] = 1.0  # z in the first copy
        cols[2, 1] = 1.0
        cols[3, 2] = 1.0
        m = SubspaceFrame(amb, orthonormalize(cols))
        rest, comp = subspace_models(amb, m)
        assert rest == JordanModel((monomial(2), monomial(1)))
        assert comp == JordanModel((monomial(1),))

    def test_dimension_accounting(self):
        amb = AmbientSpace.build(blaschke(0.2) * blaschke(-0.3), 3)
        for k in (1, 2):
            m = random_invariant_subspace(amb, RNG, num_vectors=k)
            rest, comp = subspace_models(amb, m)
            assert rest.total_degree == m.dim
            assert comp.total_degree == amb.total_dim - m.dim


def dense_compression_model(amb, m):
    """The compression model read from Q^H T_N Q, Q an orthonormal frame of M^perp."""
    q = orthocomplement(m).frame
    return jordan_model_of(q.conj().T @ amb.apply(q), amb.theta)


def divisor_frames(theta, copies, rng):
    """Orbit closures of two vectors of (+)_n gamma_n H^2 (-) theta H^2, one per divisor tuple gamma."""
    amb = AmbientSpace.build(theta, copies)
    blocks = {g: invariant_subspace_of_block(amb.model, g).frame for g in all_divisors(theta)}
    for gammas in product(blocks, repeat=copies):
        d_frame = SubspaceFrame.per_copy(amb, [blocks[g] for g in gammas]).frame
        cols = []
        for _ in range(2):
            x = d_frame @ (rng.standard_normal(d_frame.shape[1]) + 1j * rng.standard_normal(d_frame.shape[1]))
            for _ in range(theta.degree):  # p_theta(T_N) = 0 has degree d
                cols.append(x)
                x = amb.apply(x)
        yield SubspaceFrame(amb, orthonormalize(np.column_stack(cols)))


# the thetas of the rectangle-complement finding
KLEIN_THETAS = [
    monomial(3),
    blaschke(0.3) * blaschke(-0.2),
    blaschke(0.3, 2) * blaschke(-0.4j),
    blaschke(0.5, 3) * blaschke(-0.1, 2),
]


def similarity(d):
    """One fixed well-conditioned d x d similarity for the conjugated ambients."""
    return np.eye(d) + 0.5 * np.triu(np.ones((d, d)), 1) + 0.25j * np.tril(np.ones((d, d)), -1)


class TestRectangleComplement:
    def test_complement_of_a_model(self):
        theta = blaschke(0.3, 2) * blaschke(-0.4j)
        rest = JordanModel((theta, blaschke(0.3)))
        assert rest.complement(theta, 3) == JordanModel((theta, blaschke(0.3) * blaschke(-0.4j), ONE))
        assert JordanModel().complement(theta, 2) == JordanModel((theta, theta))
        assert rest.complement(theta, 3).complement(theta, 3) == rest
        with pytest.raises(ValueError):
            rest.complement(theta, 1)

    def test_dense_compression_reads_the_complement(self):
        rng = np.random.default_rng(1968)
        frames = [m for theta in KLEIN_THETAS[:3] for n in (2, 3) for m in divisor_frames(theta, n, rng)]
        models = {(m.ambient.theta, m.ambient.copies, subspace_models(m.ambient, m)[0]) for m in frames}
        # every model with at most two chains per zero occurs: 10 + 10, 9 + 9, 18 + 18
        assert len(frames) == 412 and len(models) == 74
        randoms = [
            random_invariant_subspace(AmbientSpace.build(theta, n), rng, num_vectors=k)
            for theta in KLEIN_THETAS
            for n in range(2, 6)
            for k in (1, 1, 2, 2, 3, 3)
        ]
        for m in frames + randoms:
            assert subspace_models(m.ambient, m)[1] == dense_compression_model(m.ambient, m)
        # the rule is about modules, not inner products: it holds for S S(theta) S^{-1} too
        for m in frames + randoms:
            sim = similarity(m.ambient.model.dim)
            amb = AmbientSpace(m.ambient.model, m.ambient.copies, sim)
            conj = SubspaceFrame(amb, orthonormalize(copywise(sim, m.frame)))
            assert subspace_models(amb, conj)[1] == dense_compression_model(amb, conj)


def dense_restriction_model(amb, m):
    """The restriction model read from the matrix Q^H T_N Q of the whole frame."""
    return jordan_model_of(restriction_matrix(amb, m), amb.theta)


def read_outcome(read):
    """A read's model, or the type of the error it refuses with."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the two reads must refuse alike
        return type(exc)


def scan_family(name, d, rng):
    """A theta of degree d from one of the benchmark's model-scan families."""
    if name == "monomial":
        return monomial(d)
    if name == "spread":
        return InnerFunction(tuple((0.9 * np.exp(2j * np.pi * k / d), 1) for k in range(d)))
    if name == "clustered":
        phase = 2 * np.pi * rng.uniform()
        return InnerFunction(tuple((0.5 * np.exp(1j * (phase + np.pi * k / 2)), d // 4) for k in range(4)))
    zeros = []
    while len(zeros) < d:  # d simple zeros in the disc of radius 0.6, 0.05 apart
        a = 0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(a - b) >= 0.05 for b in zeros):
            zeros.append(a)
    return InnerFunction(tuple((a, 1) for a in zeros))


def per_k_kernel_sines(q, copies, bases, k):
    """Singular values of (I_copies (x) b_a(S)^k) Q, one row per stacked kernel basis of b_a(S).

    The first k columns of a basis span ker b_a(S)^k and, when ck > n =
    dim Q, the rest its complement. The operator is a partial isometry
    with kernel K = I_copies (x) basis[:, :k], so its singular values on Q
    are n - ck ones and the sines of the principal angles between span Q
    and K, those of (I - QQ^H) K, when ck <= n; else those of
    K_perp^H Q, padded with zeros to n.
    """
    count, d, _ = bases.shape
    n = q.shape[1]
    q_copies = q.reshape(copies, d, n)
    if copies * k <= n:
        kernels = bases[:, :, :k]
        coords = q_copies.conj().swapaxes(1, 2) @ kernels[:, None]  # Q_c^H K, (count, copies, n, k)
        inside = q @ coords.swapaxes(1, 2).reshape(count, n, copies * k)  # QQ^H K
        blocks = inside.reshape(count, copies, d, copies, k)
        blocks[:, range(copies), :, range(copies), :] -= kernels  # -(I - QQ^H) K
        sines = np.linalg.svd(inside, compute_uv=False)
        return np.concatenate((np.ones((count, n - copies * k)), sines), axis=1)
    coords = bases[:, None, :, k:].conj().swapaxes(-1, -2) @ q_copies  # K_perp^H Q, (count, copies, d - k, n)
    sines = np.linalg.svd(coords.reshape(count, -1, n), compute_uv=False)
    return np.concatenate((sines, np.zeros((count, n - sines.shape[1]))), axis=1)


def per_k_restriction_model(ambient, m_frame):
    """The reference angle read: the model of T|M on the Jordan ambient with one (N d)-row SVD per power k.

    It reads the same singular values as subspace_models, each k from its
    own matrix (I - QQ^H) K or K_perp^H Q, with K_perp from a complete QR
    of the kernel frame, instead of from triangular factors, under the
    same rank rule, chain check and stop at rank 0.
    """
    n = m_frame.dim
    if n == 0:
        return JordanModel()
    space, zeros = ambient.model, ambient.theta.zeros
    mults = [m for _, m in zeros]
    groups = m_frame.distinct_groups()
    wide = any(copies * max(mults) > q.shape[1] for copies, q, _ in groups)
    bases = np.zeros((len(zeros), space.dim, space.dim if wide else max(mults)), dtype=complex)
    for i, frame in enumerate(space.kernel_frames):
        bases[i, :, : frame.shape[1]] = frame
        if wide:
            bases[i, :, frame.shape[1] :] = np.linalg.qr(frame, mode="complete").Q[:, frame.shape[1] :]
    ranks = [[n] for _ in zeros]
    for k in range(1, max(mults) + 1):
        live = [i for i, m in enumerate(mults) if m >= k and ranks[i][-1]]
        if not live:
            break
        batch = bases if len(live) == len(zeros) else bases[live]
        parts = [part for copies, q, repeats in groups for part in [per_k_kernel_sines(q, copies, batch, k)] * repeats]
        sines = parts[0] if len(parts) == 1 else -np.sort(-np.concatenate(parts, axis=1), axis=1)
        for i, s in zip(live, sines):
            ranks[i].append(_rank(s))
    for i, m in enumerate(mults):
        ranks[i] += [0] * (m + 1 - len(ranks[i]))
    return _model(ambient.theta, ranks)


def factor_and_per_k_reads(amb, m):
    """subspace_models' restriction model and the per-k reference's, or the error types they refuse with."""
    factor = read_outcome(lambda: subspace_models(amb, m)[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jordan, "_jordan_restriction_model", per_k_restriction_model)
        per_k = read_outcome(lambda: subspace_models(amb, m)[0])
    return factor, per_k


class TestKernelRead:
    """subspace_models on the Jordan ambient against the dense read of T|M."""

    @pytest.mark.parametrize("d", (8, 16, 32, 64))
    @pytest.mark.parametrize("family", ("monomial", "spread", "clustered", "random"))
    def test_random_frames_of_the_scan_families(self, family, d):
        rng = np.random.default_rng(d)
        amb = AmbientSpace.build(scan_family(family, d, rng), 2)
        assert amb.is_jordan
        m = random_invariant_subspace(amb, rng)
        assert subspace_models(amb, m)[0] == dense_restriction_model(amb, m)
        if d <= 16:
            # two generators may lose a Krylov direction; then both reads refuse
            m = random_invariant_subspace(amb, rng, num_vectors=2)
            assert read_outcome(lambda: subspace_models(amb, m)[0]) == read_outcome(lambda: dense_restriction_model(amb, m))

    @pytest.mark.parametrize(
        "theta, copies",
        [
            (monomial(8), 4),
            (blaschke(0.3) * blaschke(-0.2), 4),
            (blaschke(0.3, 2) * blaschke(-0.2) * blaschke(0.1 + 0.5j, 3), 3),
            (blaschke(0.5, 3) * blaschke(-0.1, 2), 5),
        ],
        ids=["z8x4", "two-zeros-x4", "three-zeros-x3", "b3b2-x5"],
    )
    def test_frames_narrower_than_the_kernels(self, theta, copies):
        # N k > dim M for the larger k: the sines come from the kernel's
        # complement there and from M's complement below
        rng = np.random.default_rng(copies)
        amb = AmbientSpace.build(theta, copies)
        branches = set()
        for k in (1, 2):
            m = random_invariant_subspace(amb, rng, num_vectors=k)
            branches |= {copies * j > m.dim for _, mult in theta.zeros for j in range(1, mult + 1)}
            assert subspace_models(amb, m)[0] == dense_restriction_model(amb, m)
        assert branches == {True, False}

    @pytest.mark.parametrize("theta", KLEIN_THETAS, ids=str)
    def test_empty_frame_and_whole_space(self, theta):
        amb = AmbientSpace.build(theta, 3)
        whole = SubspaceFrame(amb, np.eye(amb.total_dim, dtype=complex))
        assert subspace_models(amb, whole) == (JordanModel((theta,) * 3), JordanModel())
        assert subspace_models(amb, whole)[0] == dense_restriction_model(amb, whole)
        empty = SubspaceFrame(amb, np.zeros((amb.total_dim, 0), dtype=complex))
        assert subspace_models(amb, empty) == (JordanModel(), JordanModel((theta,) * 3))
        per_copy = SubspaceFrame.per_copy(amb, [np.zeros((amb.model.dim, 0), dtype=complex)] * 3)
        assert subspace_models(amb, per_copy) == (JordanModel(), JordanModel((theta,) * 3))

    def test_grouped_frames_read_each_block_once(self):
        # T_N on a per-copy frame of gamma blocks is (+)_n S(theta/gamma_n):
        # at each zero its chains are the multiplicities there, merged
        rng = np.random.default_rng(7)
        for theta in KLEIN_THETAS[1:3]:
            amb = AmbientSpace.build(theta, 5)
            blocks = {g: invariant_subspace_of_block(amb.model, g).frame for g in all_divisors(theta)}
            for _ in range(12):
                gammas = [list(blocks)[i] for i in rng.integers(len(blocks), size=5)]
                m = SubspaceFrame.per_copy(amb, [blocks[g] for g in gammas])
                chains = []
                for a, _ in theta.zeros:
                    lengths = sorted((dict(quotient(theta, g).zeros).get(a, 0) for g in gammas), reverse=True)
                    chains.append([(a, n) for n in lengths])
                expected = JordanModel(tuple(InnerFunction(tuple(filter(lambda z: z[1], row))) for row in zip(*chains)))
                assert subspace_models(amb, m)[0] == expected == dense_restriction_model(amb, m)

    def test_non_invariant_frames_refused(self):
        amb = AmbientSpace.build(blaschke(0.3) * blaschke(-0.2), 2)
        bad = SubspaceFrame(amb, orthonormalize(RNG.standard_normal((4, 1)) + 0j))
        with pytest.raises(NotInvariant):
            subspace_models(amb, bad)
        good = invariant_subspace_of_block(amb.model, blaschke(0.3)).frame
        grouped = SubspaceFrame.per_copy(amb, [good, np.eye(2, 1, dtype=complex)])
        with pytest.raises(NotInvariant):
            subspace_models(amb, grouped)
        # a conjugated ambient judges the frame as given, before it is mapped back
        conj = AmbientSpace(amb.model, 2, similarity(2))
        with pytest.raises(NotInvariant):
            subspace_models(conj, SubspaceFrame(conj, copywise(similarity(2), bad.frame)))

    def test_conjugated_frames_map_back_to_the_jordan_ambient(self):
        # T|M is similar to the restriction of the Jordan ambient to
        # (I (x) C^{-1})M, so its model is read up to cond(C) = 1e5, where
        # the dense read of C-conjugated frames with two chains per zero
        # loses its rank gaps or theta(A) = 0
        refused = set()
        for theta in KLEIN_THETAS + [monomial(8)]:
            base = AmbientSpace.build(theta, 3)
            rng = np.random.default_rng(0)
            for k in (1, 2):
                m = random_invariant_subspace(base, rng, num_vectors=k)
                truth = subspace_models(base, m)
                for cond in (10, 1e3, 1e5):
                    d = theta.degree
                    sim = haar_unitary(d, rng) * np.geomspace(1, cond, d) @ haar_unitary(d, rng)
                    amb = AmbientSpace(base.model, 3, sim)
                    conj = SubspaceFrame(amb, orthonormalize(copywise(sim, m.frame), m.dim))
                    assert subspace_models(amb, conj) == truth
                    dense = read_outcome(lambda: dense_restriction_model(amb, conj))
                    if isinstance(dense, type):
                        refused.add(cond)
                    else:
                        assert dense == truth[0]
        assert refused == {1e5}


def requested_svds(monkeypatch):
    """The shapes of the matrices passed to numpy.linalg.svd from now on."""
    shapes = []
    plain = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return plain(a, *args, **kwargs)

    monkeypatch.setattr("numpy.linalg.svd", recorded)
    return shapes


def requested_reads(monkeypatch):
    """The (zero index, k) pairs subspace_models reads from now on.

    Every zero asks for k = 1 first, in zero order, so the order in which
    _next_power first sees a zero's rank list is the zero's index.
    """
    reads, seen = set(), {}
    plain = jordan._next_power

    def recorded(ranks, ahead, mult):
        i = seen.setdefault(id(ranks), len(seen))
        reads.update((i, k) for k in ahead)
        return plain(ranks, ahead, mult)

    monkeypatch.setattr(jordan, "_next_power", recorded)
    return reads


def per_k_reads(theta, model, n):
    """The (zero index, k) pairs the per-k reference reads for a frame of dim n with restriction model ``model``.

    It reads every k up to the multiplicity m of a zero while the rank of
    b_a^{k-1} is positive; r_k = n - sum over the chains at a of min(length, k).
    """
    chains = [[dict(part.zeros).get(a, 0) for part in model.parts] for a, _ in theta.zeros]
    return {
        (i, k)
        for i, (_, m) in enumerate(theta.zeros)
        for k in range(1, m + 1)
        if n - sum(min(c, k - 1) for c in chains[i]) > 0
    }


SCAN_CASES = [
    (family, d, 2 + (fi + di) % 3, 1 + (2 * fi + di) % 3)
    for fi, family in enumerate(("monomial", "spread", "clustered", "random"))
    for di, d in enumerate((8, 16, 32, 64))
]


class TestTriangularFactorRead:
    """subspace_models, each k it reads from leading blocks of one factor, against the per-k reference read."""

    def test_cases_cover_every_copy_and_generator_count(self):
        assert {(copies, gens) for _, _, copies, gens in SCAN_CASES} == set(product((2, 3, 4), (1, 2, 3)))

    @pytest.mark.parametrize("family, d, copies, gens", SCAN_CASES, ids=str)
    def test_scan_families(self, family, d, copies, gens, monkeypatch):
        rng = np.random.default_rng(100 * d + 10 * copies + gens)
        amb = AmbientSpace.build(scan_family(family, d, rng), copies)
        m = random_invariant_subspace(amb, rng, num_vectors=gens)
        reads = requested_reads(monkeypatch)
        factor, per_k = factor_and_per_k_reads(amb, m)
        monkeypatch.undo()
        assert factor == per_k
        assert isinstance(factor, JordanModel) and factor.total_degree == m.dim
        # every (zero, k) read is one the per-k reference reads too
        assert reads and reads <= per_k_reads(amb.theta, factor, m.dim)

    def test_conjugated_ambients(self):
        rng = np.random.default_rng(21)
        for theta in KLEIN_THETAS + [monomial(8)]:
            base = AmbientSpace.build(theta, 3)
            for k in (1, 2):
                m = random_invariant_subspace(base, rng, num_vectors=k)
                for cond in (10, 1e3, 1e5):
                    d = theta.degree
                    sim = haar_unitary(d, rng) * np.geomspace(1, cond, d) @ haar_unitary(d, rng)
                    amb = AmbientSpace(base.model, 3, sim)
                    conj = SubspaceFrame(amb, orthonormalize(copywise(sim, m.frame), m.dim))
                    factor, per_k = factor_and_per_k_reads(amb, conj)
                    assert factor == per_k == subspace_models(base, m)[0]

    def test_grouped_frames_of_different_widths(self):
        # a 2-copy group, a repeated 1-copy block and a 3-copy group: each
        # group has its own dim and reads k on its own side of ck = dim
        rng = np.random.default_rng(8)
        for theta in KLEIN_THETAS[2:]:
            amb = AmbientSpace.build(theta, 7)
            blocks = [invariant_subspace_of_block(amb.model, g).frame for g in all_divisors(theta) if g != theta]
            sides = set()
            for _ in range(6):
                pair = random_invariant_subspace(AmbientSpace(amb.model, 2), rng).frame
                triple = random_invariant_subspace(AmbientSpace(amb.model, 3), rng, num_vectors=2).frame
                block = blocks[rng.integers(len(blocks))]
                m = SubspaceFrame(amb, groups=[((0, 1), pair), ((2,), block), ((5,), block), ((3, 4, 6), triple)])
                assert [(c, r) for c, _, r in m.distinct_groups()] == [(2, 1), (1, 2), (3, 1)]
                for copies, q, _ in m.distinct_groups():
                    sides |= {copies * k > q.shape[1] for _, mult in theta.zeros for k in range(1, mult + 1)}
                factor, per_k = factor_and_per_k_reads(amb, m)
                assert factor == per_k == dense_restriction_model(amb, m)
            assert sides == {True, False}

    def test_two_dimensional_frame_in_four_copies(self, monkeypatch):
        # 4 copies of z^2 and dim M = 2: k = 1 has ck = 4 > dim M, so it is
        # read from M projected off the kernel, in an SVD of dim M rows
        amb = AmbientSpace.build(monomial(2), 4)
        rng = np.random.default_rng(4)
        cyclic = random_invariant_subspace(amb, rng)
        kernel = np.zeros((8, 2), dtype=complex)
        kernel[1::2] = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))  # in ker T_N
        in_kernel = SubspaceFrame(amb, orthonormalize(kernel))
        for m, model in ((cyclic, JordanModel((monomial(2),))), (in_kernel, JordanModel((monomial(1),) * 2))):
            assert m.dim == 2
            assert factor_and_per_k_reads(amb, m) == (model, model)
            reads, shapes = requested_reads(monkeypatch), requested_svds(monkeypatch)
            subspace_models(amb, m)
            monkeypatch.undo()
            assert any(amb.copies * k > m.dim for _, k in reads)
            assert shapes and all(shape[-2] <= m.dim for shape in shapes)

    @pytest.mark.parametrize("name", ("clustered-64x4", "z64x3", "z64x4-dim4", "clustered-64x4-dim8"))
    def test_degree_cap_beyond_two_copies(self, name, monkeypatch):
        # M = v_0 (x) (theta/phi_0) H(phi_0) + v_1 (x) (theta/phi_1) H(phi_1)
        # + ... for orthonormal v_j. clustered-64 in 4 copies: phi_j the
        # product of b_a^(4, 2)[j] over the four zeros, so dim M = 24 and the
        # ranks stay positive for k > 24 / 4. z^64 in 3 copies: chains 40 and
        # 8, dim 48, so the ranks drop by 2 up to k = 8 and by 1 after: the
        # run from k = 1 is not linear, and it is read at k = 24 > 48 / 3.
        # The widest reads, one chain in 4 copies: z^4 in z^64, dim 4, reads
        # k = 4 > 4 / 4, and b_a^8 at one zero of clustered-64, dim 8, reads
        # k = 8 > 8 / 4, each with the rank 0 that ends the run
        rng = np.random.default_rng(64)
        if name.startswith("z64"):
            theta, copies = monomial(64), int(name[4])
            model = JordanModel((monomial(40), monomial(8)) if copies == 3 else (monomial(4),))
        else:
            theta, copies = scan_family("clustered", 64, rng), 4
            if name.endswith("dim8"):
                model = JordanModel((InnerFunction(((theta.zeros[0][0], 8),)),))
            else:
                model = JordanModel(tuple(InnerFunction(tuple((a, j) for a, _ in theta.zeros)) for j in (4, 2)))
        amb = AmbientSpace.build(theta, copies)
        blocks = [invariant_subspace_of_block(amb.model, quotient(theta, phi)).frame for phi in model.parts]
        vs = haar_unitary(copies, rng)[:, : len(blocks)].T
        m = SubspaceFrame(amb, np.hstack([np.kron(v[:, None], block) for v, block in zip(vs, blocks)]))
        assert m.dim == model.total_degree
        reads, shapes = requested_reads(monkeypatch), requested_svds(monkeypatch)
        start = time.perf_counter()
        factor = subspace_models(amb, m)[0]
        assert time.perf_counter() - start <= 0.5
        assert factor == model
        assert any(copies * k > m.dim for _, k in reads)
        assert shapes and all(shape[-2] <= m.dim for shape in shapes)
        monkeypatch.undo()
        assert factor_and_per_k_reads(amb, m) == (model, model)

    def test_svds_have_at_most_dim_m_rows(self, monkeypatch):
        # z^64 in 2 copies reads k = 1 (rank 63, a drop of 1) and then
        # k = 64, which ends the run at rank 0; the 8-dimensional
        # M = z^56 H^2 in one copy reads k = 1 and k = 8, each from a leading
        # block. At k = 64 = d every copy is killed: the rank 0 needs no SVD
        amb = AmbientSpace.build(monomial(64), 2)
        short = invariant_subspace_of_block(amb.model, monomial(56)).frame
        frames = [
            (random_invariant_subspace(amb, np.random.default_rng(2)), 64, [1, 1]),
            (SubspaceFrame.per_copy(amb, [short, np.zeros((64, 0), dtype=complex)]), 8, [1, 2]),
        ]
        for m, reads, svds_so_far in frames:
            ranks, svds = [], []
            shapes = requested_svds(monkeypatch)
            monkeypatch.setattr(
                jordan, "_rank", lambda s, plain=_rank: ranks.append(plain(s)) or svds.append(len(shapes)) or ranks[-1]
            )
            rest, _ = subspace_models(amb, m)
            monkeypatch.undo()
            assert rest == JordanModel((monomial(reads),))
            assert ranks == [reads - 1, 0]
            assert svds == svds_so_far  # the SVDs made up to each rank read: none for k = 64
            assert all(shape[-2] <= m.dim for shape in shapes)

    def test_plateau_frames_read_their_model(self):
        # clustered-64 in 4 copies, M = v (x) (theta/phi) H(phi) with phi =
        # b_a^16 on one, two or three of the zeros: at a zero that phi leaves
        # out every b_a(T|M)^k is invertible, and its rank 16, 32 or 48 at
        # k = 1 fixes the rest. The read of every k refuses these frames at
        # such a zero, where the smallest singular value of b_a(T|M)^k falls
        # below the threshold without a clear gap
        rng = np.random.default_rng(64)
        theta = scan_family("clustered", 64, rng)
        amb = AmbientSpace.build(theta, 4)
        v = haar_unitary(4, rng)[:, 0]
        for count in (1, 2, 3):
            phi = InnerFunction(tuple((a, 16) for a, _ in theta.zeros[:count]))
            block = invariant_subspace_of_block(amb.model, quotient(theta, phi)).frame
            m = SubspaceFrame(amb, np.kron(v[:, None], block))
            factor, per_k = factor_and_per_k_reads(amb, m)
            assert factor == JordanModel((phi,))
            assert per_k is IllConditioned

    def test_refusals_name_the_zero_and_the_power(self, tmp_path, capsys):
        # the orbit closure of x and y in 4 copies of H(b_0.3^3 b_-0.2), F the
        # kernel frame at 0.3: x = F_1 in one copy and eps F_2 in another, so
        # it is x, b x and b^2 x ~ F_0, and b(T|M) has the singular value eps;
        # eps = 5e-8 for x and 5e-9 for y straddle the threshold 1e-8
        theta = blaschke(0.3, 3) * blaschke(-0.2)
        amb = AmbientSpace.build(theta, 4)
        kernels = amb.model.kernel_frames[[a for a, _ in theta.zeros].index(0.3)]
        b = functional_calculus(amb.model, blaschke(0.3))
        zero = np.zeros(amb.model.dim)
        cols = []
        for top, low, eps in ((1, 0, 5e-8), (3, 2, 5e-9)):
            x = [kernels[:, 1] if c == top else eps * kernels[:, 2] if c == low else zero for c in range(4)]
            cols += [np.concatenate(x), np.concatenate([b @ v for v in x])]
            cols.append(np.concatenate([kernels[:, 0] if c == low else zero for c in range(4)]))
        q = np.column_stack(cols)
        m = SubspaceFrame(amb, q / np.linalg.norm(q, axis=0))
        assert factor_and_per_k_reads(amb, m) == (IllConditioned, IllConditioned)
        where = r"rank of b_a\(T\|M\)\^k at a = 0\.3\+0j, k = 1: singular values 5\.000e-08 / 5\.000e-09 bracket"
        with pytest.raises(IllConditioned, match=where):
            subspace_models(amb, m)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_dict()))
        assert main(["jordan-model", "--input", str(path)]) == 6
        assert re.search(where, capsys.readouterr().err)
        # three generators in 3 copies of H(z^16) lose a Krylov direction
        rng = np.random.default_rng(1633)
        amb = AmbientSpace.build(monomial(16), 3)
        with pytest.raises(IllConditioned, match=r"chains at a = 0\+0j: ranks \[47, 44, .*\] fit no nilpotent"):
            subspace_models(amb, random_invariant_subspace(amb, rng, num_vectors=3))


class TestCanonicalSubspace:
    def test_interleaving_rule(self):
        theta = monomial(2)
        rest = JordanModel((monomial(2), monomial(1)))
        comp = JordanModel((monomial(1),))
        canon = canonical_subspace(AmbientSpace.build(theta, 6), rest, comp)
        # even copies theta/phi_k, odd copies psi_k, theta-padded beyond:
        # gammas (1, z, z, theta, theta, theta), each block d - deg gamma_n wide
        assert [b.shape[1] for _, b in canon.groups] == [2, 1, 1, 0, 0, 0]

    def test_canonical_subspace_is_invariant_with_right_models(self):
        # take models of an actual subspace, rebuild the canonical form in
        # a wider ambient, and re-derive the same restriction model
        theta = blaschke(0.25) * blaschke(-0.15)
        small = AmbientSpace.build(theta, 3)
        m = random_invariant_subspace(small, np.random.default_rng(21))
        rest, comp = subspace_models(small, m)
        n = 2 * max(len(rest), len(comp), 1)
        wide = AmbientSpace.build(theta, n)
        canon = canonical_subspace(wide, rest, comp)
        ok, res = is_invariant(canon)
        assert ok, res
        got_rest, _ = subspace_models(wide, canon)
        assert got_rest == rest

    def test_model_too_long_rejected(self):
        theta = monomial(2)
        rest = JordanModel((theta, theta, theta))
        with pytest.raises(HypothesisViolated, match="^need at least 6 copies, ambient has 4$"):
            canonical_subspace(AmbientSpace.build(theta, 4), rest, JordanModel())

    def test_leading_parts_must_divide_theta(self):
        # build_Y_main refuses the same fact with the same type
        amb, cube = AmbientSpace.build(monomial(2), 4), JordanModel((monomial(3),))
        with pytest.raises(HypothesisViolated, match="^phi_0 must divide theta$"):
            canonical_subspace(amb, cube, JordanModel())
        with pytest.raises(HypothesisViolated, match="^psi_0 must divide theta$"):
            canonical_subspace(amb, JordanModel(), cube)

    def test_models_carried_by_a_proper_divisor_pair(self):
        # copy n adds S(theta/gamma_n) to the restriction and S(gamma_n) to
        # the compression: gammas (1, b_b, b_b, theta, theta, theta)
        a, b = blaschke(0.3), blaschke(-0.4j)
        theta = a * b
        amb = AmbientSpace.build(theta, 6)
        canon = canonical_subspace(amb, JordanModel((theta, a)), JordanModel((b,)))
        rest, comp = subspace_models(amb, canon)
        assert rest == JordanModel((theta, a, a))
        assert comp == JordanModel((theta, theta, theta, b, b))

    def test_lookups_do_not_grow_with_copies(self, monkeypatch):
        # only the interleave head is looked up; the theta tail shares one
        # empty block
        theta = InnerFunction(((0.3, 2), (-0.25, 2), (0.2 + 0.35j, 2), (-0.1 - 0.4j, 2)))
        rest, comp = JordanModel((theta,)), JordanModel((theta,) * 3)
        counts = {"hash": 0, "eq": 0}
        plain_hash, plain_eq = InnerFunction.__hash__, InnerFunction.__eq__

        def counted_hash(self):
            counts["hash"] += 1
            return plain_hash(self)

        def counted_eq(self, other):
            counts["eq"] += 1
            return plain_eq(self, other)

        monkeypatch.setattr(InnerFunction, "__hash__", counted_hash)
        monkeypatch.setattr(InnerFunction, "__eq__", counted_eq)
        seen = []
        for n in (16, 128):
            amb = AmbientSpace.build(theta, n)
            counts.update(hash=0, eq=0)
            canon = canonical_subspace(amb, rest, comp)
            seen.append(dict(counts))
            assert canon.dim == 8
        assert seen[0] == seen[1]


class TestDegreeCap:
    def test_invariance_and_restriction_without_dense_operator(self):
        # T_N as a dense kron here is 4096 x 4096 complex: 256 MB
        theta = InnerFunction(tuple((0.9 * 1j**k, 16) for k in range(4)))
        amb = AmbientSpace.build(theta, 64)
        block = invariant_subspace_of_block(amb.model, quotient(theta, blaschke(0.9))).frame
        empty = np.zeros((amb.model.dim, 0), dtype=complex)
        m = SubspaceFrame.per_copy(amb, [block] + [empty] * 63)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            ok, residual = is_invariant(m)
            rest = restriction_matrix(amb, m)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and residual <= 1e-12
        assert rest.shape == (1, 1)
        assert elapsed <= 0.5
        assert peak <= 8 * 2**20

    def test_models_read_at_the_cap(self):
        # b_a(S)^k is a partial isometry, so every rank has a clear gap
        theta = InnerFunction(tuple((0.9 * 1j**k, 16) for k in range(4)))
        one = AmbientSpace.build(theta, 1)
        assert jordan_model_of(one.model.shift_matrix, theta) == JordanModel((theta,))
        for n in (2, 4):
            amb = AmbientSpace(one.model, n)
            half = JordanModel((theta,) * (n // 2))
            start = time.perf_counter()
            models = subspace_models(amb, canonical_subspace(amb, half, JordanModel((theta,))))
            assert time.perf_counter() - start <= 2.0
            assert models == (half, half)
