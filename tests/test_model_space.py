"""Model spaces and the compressed shift, checked against an independent
polynomial-truncation construction of the same operator."""

import numpy as np
import pytest

from c0ops.errors import HypothesisViolated
from c0ops.inner import ONE, InnerFunction, blaschke, monomial, quotient
from c0ops.jordan import random_invariant_subspace, subspace_models
from c0ops.model_space import (
    ModelVector,
    blaschke_of_matrix,
    build_model_space,
    functional_calculus,
)
from c0ops.subspaces import AmbientSpace, invariant_subspace_of_block

RNG = np.random.default_rng(20240817)


# --- independent oracle: truncate H^2 to polynomials of degree < TRUNC ---

TRUNC = 60


def taylor_coeffs(theta, n):
    """Taylor coefficients of the Blaschke product at 0.

    Each factor (z - a)/(1 - a* z) is expanded via the geometric series;
    with |a| <= 0.45 the coefficients neglected past degree n are below
    0.45^n.
    """
    c = np.zeros(n, dtype=complex)
    c[0] = 1.0
    for a, mult in theta.zeros:
        geo = np.conj(a) ** np.arange(n)
        for _ in range(mult):
            c = np.convolve(c, geo)[:n]
            shifted = np.concatenate(([0.0], c[:-1]))
            c = shifted - a * c
    return c


def truncated_shift(theta):
    """Compressed shift on span{1..z^{TRUNC-1}} ominus theta*polys.

    Valid up to the truncation tail; zeros are kept small enough that the
    neglected coefficients are ~0.7^TRUNC.
    """
    d = theta.degree
    cols = np.zeros((TRUNC, TRUNC - d), dtype=complex)
    tc = taylor_coeffs(theta, TRUNC)
    for j in range(TRUNC - d):
        cols[j : TRUNC, j] = tc[: TRUNC - j]
    q, _ = np.linalg.qr(cols)
    # complement of theta*polys inside the truncated polynomial space
    full = np.eye(TRUNC, dtype=complex)
    proj = full - q @ q.conj().T
    u, s, _ = np.linalg.svd(proj)
    basis = u[:, :d]
    shift_full = np.diag(np.ones(TRUNC - 1), -1).astype(complex)
    return basis.conj().T @ shift_full @ basis


def unitary_invariants(mat):
    # characteristic polynomial rather than eigenvalues: roots of a
    # defective block move like eps^(1/mult) under perturbation
    charpoly = np.poly(mat)
    sv = np.sort(np.linalg.svd(mat, compute_uv=False))
    return charpoly, sv


THETAS = [
    blaschke(0.3, 2),
    blaschke(0.25) * blaschke(-0.4),
    blaschke(0.1 + 0.4j) * blaschke(-0.35) * blaschke(0.2, 2),
    blaschke(-0.2 - 0.3j, 3),
    # degree 16: four zeros of multiplicity 4, and sixteen simple zeros
    InnerFunction(tuple((0.4 * 1j**k, 4) for k in range(4))),
    InnerFunction(tuple((0.45 * np.exp(2j * np.pi * k / 16), 1) for k in range(16))),
]


@pytest.mark.parametrize("theta", THETAS, ids=lambda t: f"deg{t.degree}")
def test_shift_matches_truncation_oracle(theta):
    space = build_model_space(theta)
    eig1, sv1 = unitary_invariants(space.shift_matrix)
    eig2, sv2 = unitary_invariants(truncated_shift(theta))
    assert np.allclose(eig1, eig2, atol=1e-8)
    assert np.allclose(sv1, sv2, atol=1e-8)


def test_monomial_fast_path_is_exact_jordan_block():
    space = build_model_space(monomial(4))
    expected = np.diag(np.ones(3), -1)
    assert np.array_equal(space.shift_matrix, expected)


def _degree_cap_thetas():
    for d in (32, 64):
        clustered = tuple((0.5 * 1j**k, d // 4) for k in range(4))
        rng = np.random.default_rng(d)
        radii = 0.6 * np.sqrt(rng.random(d))
        angles = 2 * np.pi * rng.random(d)
        simple = tuple((r * np.exp(1j * t), 1) for r, t in zip(radii, angles))
        yield pytest.param(InnerFunction(clustered), id=f"clustered{d}")
        yield pytest.param(InnerFunction(simple), id=f"random{d}")
    yield pytest.param(monomial(64), id="monomial64")


@pytest.mark.parametrize("theta", list(_degree_cap_thetas()))
def test_degree_cap(theta):
    d = theta.degree
    space = build_model_space(theta)
    s_mat = space.shift_matrix
    assert np.linalg.norm(functional_calculus(space, theta), 2) <= 1e-10
    assert np.linalg.norm(s_mat, 2) <= 1 + 1e-12
    defect = np.linalg.svd(np.eye(d) - s_mat.conj().T @ s_mat, compute_uv=False)
    assert defect[1] <= 1e-10
    ambient = AmbientSpace(space, 2)
    m = random_invariant_subspace(ambient, np.random.default_rng(d))
    rest, comp = subspace_models(ambient, m)
    assert rest.parts == (theta,) and comp.parts == (theta,)
    if theta == monomial(64):
        assert np.array_equal(s_mat, np.diag(np.ones(63), -1))


def test_minimal_function_annihilates():
    for theta in THETAS:
        space = build_model_space(theta)
        assert np.linalg.norm(functional_calculus(space, theta)) < 1e-10


def test_calculus_is_contractive_and_multiplicative():
    theta = THETAS[2]
    space = build_model_space(theta)
    u = blaschke(0.5) * blaschke(-0.1)
    v = blaschke(0.2 + 0.2j)
    uv = functional_calculus(space, u * v)
    sep = functional_calculus(space, u) @ functional_calculus(space, v)
    assert np.linalg.norm(uv - sep, 2) < 1e-9
    assert np.linalg.norm(functional_calculus(space, u), 2) <= 1 + 1e-10


def test_eigenvalues_are_theta_zeros():
    theta = blaschke(0.3) * blaschke(-0.2 + 0.4j)
    space = build_model_space(theta)
    eig = np.linalg.eigvals(space.shift_matrix)
    want = sorted([0.3, -0.2 + 0.4j], key=lambda z: (z.real, z.imag))
    got = sorted(eig, key=lambda z: (z.real, z.imag))
    assert np.allclose(got, want, atol=1e-10)


def project_onto_submodel(space, f, divisor):
    """Orthogonal projection of f onto H(theta/divisor) inside H(theta).

    H(theta/d) is the orthocomplement in H(theta) of the invariant
    subspace (theta/d) H^2 (-) theta H^2 = ran (theta/d)(S(theta)).
    """
    frame = invariant_subspace_of_block(space, quotient(space.theta, divisor)).frame
    return ModelVector(space, f.coords - frame @ (frame.conj().T @ f.coords))


def test_project_onto_submodel_monomial():
    # dividing out one zero of z^3 leaves H(z^2): the first two coords
    space = build_model_space(monomial(3))
    f = ModelVector(space, np.array([1.0, 2.0, 3.0], dtype=complex))
    g = project_onto_submodel(space, f, monomial(1))
    assert np.allclose(g.coords, [1.0, 2.0, 0.0], atol=1e-12)
    # divisor 1 is the identity projection
    h = project_onto_submodel(space, f, ONE)
    assert np.allclose(h.coords, f.coords, atol=1e-15)


def test_project_onto_submodel_is_idempotent_contraction():
    theta = THETAS[2]
    space = build_model_space(theta)
    d = quotient(theta, blaschke(0.2))
    for _ in range(5):
        v = RNG.standard_normal(space.dim) + 1j * RNG.standard_normal(space.dim)
        f = ModelVector(space, v)
        once = project_onto_submodel(space, f, d)
        twice = project_onto_submodel(space, once, d)
        assert np.linalg.norm(once.coords - twice.coords) < 1e-9
        assert once.norm <= f.norm + 1e-12


def test_project_requires_divisor():
    space = build_model_space(monomial(3))
    f = ModelVector(space, np.ones(3, dtype=complex))
    with pytest.raises(HypothesisViolated, match="does not divide"):
        project_onto_submodel(space, f, blaschke(0.5))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModelVector(build_model_space(monomial(2)), np.zeros(3)), "^coordinate length does not match space dim$"),
        (lambda: build_model_space(ONE), "^degree of theta must be >= 1$"),
    ],
    ids=["vector-length", "theta-one"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_norm_matches_coordinates():
    space = build_model_space(THETAS[1])
    v = np.array([3.0, 4.0], dtype=complex)
    assert abs(ModelVector(space, v).norm - 5.0) < 1e-12


def _spread(d):
    return InnerFunction(tuple((0.9 * np.exp(2j * np.pi * k / d), 1) for k in range(d)))


def _clustered(d):
    return InnerFunction(tuple((0.5 * np.exp(1j * (0.7 + np.pi * k / 2)), d // 4) for k in range(4)))


KERNEL_THETAS = [
    *[pytest.param(monomial(d), id=f"z^{d}") for d in (1, 8, 64)],
    *[pytest.param(_spread(d), id=f"spread{d}") for d in (8, 64)],
    *[pytest.param(_clustered(d), id=f"clustered{d}") for d in (8, 64)],
    pytest.param(blaschke(0.3, 2) * blaschke(-0.2) * blaschke(0.1 + 0.5j, 3), id="three-zeros"),
    pytest.param(InnerFunction(tuple((0.9 * 1j**k, 16) for k in range(4))), id="degree-cap"),
]


@pytest.mark.parametrize("theta", KERNEL_THETAS)
def test_kernel_frames_match_svd_null_spaces(theta):
    # a zero's frame is orthonormal, and its first k columns span
    # ker b_a(S)^k, the SVD null space of the power
    space = build_model_space(theta)
    assert len(space.kernel_frames) == len(theta.zeros)
    worst = 0.0
    for (a, m), frame in zip(theta.zeros, space.kernel_frames):
        assert frame.shape == (space.dim, m)
        worst = max(worst, np.linalg.norm(frame.conj().T @ frame - np.eye(m)))
        factor = functional_calculus(space, blaschke(a))
        power = np.eye(space.dim)
        for k in range(1, m + 1):
            power = power @ factor
            _, s, vh = np.linalg.svd(power)
            assert s[space.dim - k] < 1e-10 and (k == space.dim or s[space.dim - k - 1] > 0.5)  # kernel dim k
            null = vh[space.dim - k :].conj().T
            kernel = frame[:, :k]
            worst = max(worst, np.linalg.norm(power @ kernel, 2))
            worst = max(worst, np.linalg.norm(null - kernel @ (kernel.conj().T @ null), 2))
    assert worst <= 1e-12, worst


def test_kernel_frames_are_cached_per_space():
    space = build_model_space(_clustered(8))
    assert space.kernel_frames is space.kernel_frames
    assert build_model_space(_clustered(8)).kernel_frames is not space.kernel_frames


# --- references: the per-column shift build and the one-solve-per-zero calculus ---


def shift_per_column(theta):
    """S(theta) from one cumprod per column of the closed form."""
    a = np.array([z for z, m in theta.zeros for _ in range(m)], dtype=complex)
    c = np.sqrt(1.0 - np.abs(a) ** 2)
    shift = np.diag(a)
    for j in range(theta.degree - 1):
        chain = np.cumprod(np.concatenate(([1.0], -a[j + 1 : -1].conj())))
        shift[j + 1 :, j] = c[j + 1 :] * c[j] * chain
    return shift


def calculus_per_zero(u, a_mat):
    """u(A) with one solve per distinct zero."""
    eye = np.eye(a_mat.shape[0], dtype=complex)
    out = None
    for a, m in u.zeros:
        factor = np.linalg.solve(eye - a.conjugate() * a_mat, a_mat - a * eye)
        if m > 2:
            factor, m = np.linalg.matrix_power(factor, m), 1
        for _ in range(m):
            out = factor if out is None else out @ factor
    return eye if out is None else out


def _random_simple(d, seed):
    rng = np.random.default_rng(seed)
    zeros = []
    while len(zeros) < d:
        a = 0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(a - b) >= 0.05 for b in zeros):
            zeros.append(a)
    return InnerFunction(tuple((a, 1) for a in zeros))


ORBIT_THETA = InnerFunction(((0.3, 2), (-0.25, 2), (0.2 + 0.35j, 2), (-0.1 - 0.4j, 2)))


@pytest.mark.parametrize("d", [8, 16, 32, 64])
def test_shift_matches_per_column_build(d):
    for theta in (monomial(d), _spread(d), _clustered(d), _random_simple(d, d)):
        assert np.array_equal(build_model_space(theta).shift_matrix, shift_per_column(theta))


UNPAIRED = [
    *[pytest.param(monomial(m), id=f"z^{m}") for m in (1, 2, 8, 64)],
    pytest.param(_clustered(64), id="clustered64"),
    pytest.param(ORBIT_THETA, id="orbit-theta"),
    pytest.param(monomial(2) * blaschke(0.3), id="z^2*b0.3"),
]


@pytest.mark.parametrize("u", UNPAIRED)
def test_calculus_without_adjacent_simple_zeros_is_per_zero(u):
    # every zero keeps a solve of its own, so the bits do not change
    space = build_model_space(u)
    assert np.array_equal(functional_calculus(space, u), calculus_per_zero(u, space.shift_matrix))
    other = build_model_space(_random_simple(16, 1))
    assert np.array_equal(functional_calculus(other, u), calculus_per_zero(u, other.shift_matrix))


def test_adjacent_simple_zeros_share_one_solve(monkeypatch):
    space = build_model_space(_spread(64))
    solve, solves = np.linalg.solve, []

    def counted(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert np.linalg.norm(functional_calculus(space, space.theta), 2) <= 1e-12
    assert len(solves) == 32
    # the run -0.3, -0.2, -0.1 is a pair and a single, and z^2 keeps its own solve
    solves.clear()
    u = blaschke(-0.3) * blaschke(-0.2) * blaschke(-0.1) * monomial(2)
    value = blaschke_of_matrix(u, space.shift_matrix)
    assert len(solves) == 3
    assert np.allclose(value, calculus_per_zero(u, space.shift_matrix), rtol=0, atol=1e-13)


def _arc(d, radius, width):
    return InnerFunction(tuple((radius * np.exp(2j * np.pi * width * k / d), 1) for k in range(d)))


@pytest.mark.parametrize(
    "theta",
    [
        pytest.param(_arc(64, 1 - 1e-6, 0.02), id="arc-1e-6"),
        pytest.param(_arc(64, 0.999, 1.0), id="ring-0.999"),
    ],
)
def test_paired_calculus_near_the_circle(theta):
    # the numerator's exact diagonal zeros keep theta(S) at rounding level
    # where 1 - conj(a) a_k is tiny
    space = build_model_space(theta)
    assert np.linalg.norm(functional_calculus(space, theta), 2) <= 1e-11
