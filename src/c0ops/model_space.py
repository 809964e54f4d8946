"""Model spaces H(theta) and the compressed shift as a concrete matrix.

H(theta) carries the Takenaka-Malmquist-Walsh (TMW) basis.  With the
zeros of theta listed with multiplicity as a_0, ..., a_{d-1}, its k-th
vector is

    v_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{l<k} b_{a_l}(z),

where b_a(z) = (z - a) / (1 - conj(a) z).  In this orthonormal basis
S(theta) is lower triangular in closed form (Garcia, Mashreghi, Ross,
"Introduction to Model Spaces and their Operators", CUP 2016):

    S_kk = a_k,
    S_ij = sqrt(1 - |a_i|^2) sqrt(1 - |a_j|^2) prod_{j<l<i} (-conj(a_l))  (i > j).

For theta = z^d the TMW basis is the monomial basis {1, z, ..., z^{d-1}}
and the matrix is exactly the nilpotent lower Jordan block.

The functional calculus u(S) multiplies one factor per zero of u, and two
simple zeros a, b next to each other in u's zero list share one LU solve
for ((I - conj(a) S)(I - conj(b) S))^{-1} (S - a)(S - b). Since S is lower
triangular, the numerator has exact zeros on its diagonal wherever a_k is
a or b, so the near-zero diagonal of the denominator for zeros near the
unit circle does not amplify the rounding error.

The kernels of b_a(S)^k, k up to the multiplicity m of a zero a, come in
closed form too. ker b_a(S)^k = (theta/b_a^k) H(b_a^k), which is the span
of the last k TMW vectors of any zero list that puts the copies of a last.
Swapping adjacent zeros alpha (at j) and beta (at j+1) changes only v_j and
v_{j+1}:

    (v'_j, v'_{j+1}) = (v_j, v_{j+1}) [[g, b_beta(alpha)], [conj(b_alpha(beta)), g]],
    g = c_alpha c_beta / (1 - conj(beta) alpha),

so moving one copy of a past the r zeros after it is one fixed unitary on
its vector and theirs. ``ModelSpace.kernel_frames`` applies it once per
copy of a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IllConditioned
from .inner import InnerFunction


@dataclass(frozen=True)
class ModelSpace:
    """H(theta) with an orthonormal basis and the matrix of S(theta)."""

    theta: InnerFunction
    dim: int
    shift_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.shift_matrix.setflags(write=False)

    @cached_property
    def kernel_frames(self) -> tuple[np.ndarray, ...]:
        """Nested orthonormal frames of the kernels of b_a(S)^k, one per zero (a, m) of theta.

        Each is a dim x m array whose first k columns span
        ker b_a(S)^k = (theta/b_a^k) H(b_a^k) for k = 1, ..., m.
        """
        a = _zero_list(self.theta)
        d, p, frames = self.dim, 0, []
        for zero, m in self.theta.zeros:
            p += m  # the copies of zero sit at p - m, ..., p - 1
            frame = np.zeros((d, m), dtype=complex)
            if m == 1:
                frame[p - 1 :, 0] = _moved_copy(zero, a[p:])
            else:
                move = _move_past(zero, a[p:])
                later = np.eye(d, dtype=complex)[:, p:]
                for i in range(m):  # copy q = p - 1 - i, still e_q, moves to position d - 1 - i
                    moved = later @ move[1:]
                    moved[p - 1 - i] += move[0]
                    later, frame[:, i] = moved[:, :-1], moved[:, -1]
            frame.setflags(write=False)
            frames.append(frame)
        return tuple(frames)


@dataclass(frozen=True)
class ModelVector:
    space: ModelSpace
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex).reshape(-1)
        if coords.shape[0] != self.space.dim:
            raise ValueError("coordinate length does not match space dim")
        object.__setattr__(self, "coords", coords)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def _zero_list(theta: InnerFunction) -> np.ndarray:
    """The zeros of theta with multiplicity, in the order of the TMW basis."""
    return np.array([z for z, m in theta.zeros for _ in range(m)], dtype=complex)


def _swap_weights(a: complex, later: np.ndarray):
    """g(a, beta) and b_beta(a) for each beta in ``later``, the entries of a swap past beta."""
    denom = 1.0 - later.conj() * a
    return np.sqrt((1.0 - abs(a) ** 2) * (1.0 - np.abs(later) ** 2)) / denom, (a - later) / denom


def _moved_copy(a: complex, later: np.ndarray) -> np.ndarray:
    """The TMW vector of a zero a at q after it moves past the r zeros ``later``.

    In (v_q, ..., v_{q+r}) it is x_0 = prod_l b_{beta_l}(a) and
    x_i = g(a, beta_i) prod_{l>i} b_{beta_l}(a); it spans ker b_a(S) when
    the zero at q is the only copy of a.
    """
    g, steps = _swap_weights(a, later)
    tail = np.cumprod(np.concatenate(([1.0], steps[::-1])))[::-1]  # prod_{l>i} b_{beta_l}(a)
    return np.concatenate(([1.0], g)) * tail


def _move_past(a: complex, later: np.ndarray) -> np.ndarray:
    """Unitary taking (v_q, ..., v_{q+r}) to the TMW vectors with the zero a moved from q to q + r.

    Column j < r is the new vector of later[j] and the last column
    ``_moved_copy``. After j swaps the moved vector is
    sum_{i<=j} s_i prod_{i<l<=j} b_{beta_l}(a) v_{q+i}, with s_0 = 1 and
    s_i = g(a, beta_i), and swap j + 1 leaves g(a, beta_{j+1}) times it plus
    conj(b_a(beta_{j+1})) v_{q+j+1} at q + j.
    """
    r = later.size
    g, steps = _swap_weights(a, later)
    i = np.arange(r + 1)
    factors = np.where(i[:, None] < i, np.concatenate(([1.0], steps)), 1.0)
    move = np.where(i[:, None] <= i, np.concatenate(([1.0], g))[:, None] * np.cumprod(factors, axis=1), 0.0)
    move[:, :r] *= g
    move[np.arange(1, r + 1), np.arange(r)] = ((later - a) / (1.0 - np.conj(a) * later)).conj()
    return move


def build_model_space(theta: InnerFunction) -> ModelSpace:
    """Construct H(theta) and the matrix of the compressed shift."""
    d = theta.degree
    if d < 1:
        raise ValueError("degree of theta must be >= 1")
    a = _zero_list(theta)
    c = np.sqrt(1.0 - np.abs(a) ** 2)
    i = np.arange(d)
    # row i carries -conj(a_{i-1}) below the subdiagonal, so the column
    # products are chain[i, j] = prod_{j<l<i} (-conj(a_l)) for i > j
    steps = np.where(i[:, None] >= i + 2, np.concatenate(([1.0], -a[:-1].conj()))[:, None], 1.0)
    shift = np.tril(c[:, None] * c * np.cumprod(steps, axis=0), -1)
    shift[i, i] = a
    return ModelSpace(theta, d, shift)


def blaschke_of_matrix(u: InnerFunction, a_mat: np.ndarray) -> np.ndarray:
    """u(A) for a finite Blaschke product u and a square matrix A.

    Two simple zeros a, b next to each other in ``u.zeros`` share one
    solve, ((I - conj(a) A)(I - conj(b) A))^{-1} (A - a)(A - b), with both
    products formed factor by factor. For the lower-triangular S(theta)
    the numerator keeps exact zeros on its diagonal wherever a_k is a or
    b, so the small diagonal (1 - conj(a) a_k)(1 - conj(b) a_k) of the
    denominator at zeros near the circle does not amplify the error; the
    monomial form A^2 - (a + b) A + ab loses those zeros. Any other zero
    has a solve of its own. A zero of multiplicity m > 2 takes its factor
    to the m-th power in about 2 log2(m) products
    (``numpy.linalg.matrix_power``); for m <= 2 the factor multiplies the
    product once per copy.
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    eye = np.eye(a_mat.shape[0], dtype=complex)
    zeros, out, q = u.zeros, None, 0
    while q < len(zeros):
        a, m = zeros[q]
        paired = m == 1 and q + 1 < len(zeros) and zeros[q + 1][1] == 1
        num, den = a_mat - a * eye, eye - a.conjugate() * a_mat
        if paired:
            b = zeros[q + 1][0]
            num, den = num @ (a_mat - b * eye), den @ (eye - b.conjugate() * a_mat)
        q += 1 + paired
        try:
            factor = np.linalg.solve(den, num)
        except np.linalg.LinAlgError as exc:  # cannot occur for contractions
            raise IllConditioned(str(exc)) from exc
        if m > 2:
            factor, m = np.linalg.matrix_power(factor, m), 1
        for _ in range(m):
            out = factor if out is None else out @ factor
    return eye if out is None else out


def functional_calculus(space: ModelSpace, u: InnerFunction) -> np.ndarray:
    """Matrix of u(S(theta)) in the space's orthonormal basis."""
    return blaschke_of_matrix(u, space.shift_matrix)

