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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularResolvent
from .inner import InnerFunction


@dataclass(frozen=True)
class ModelSpace:
    """H(theta) with an orthonormal basis and the matrix of S(theta)."""

    theta: InnerFunction
    dim: int
    shift_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.shift_matrix.setflags(write=False)


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


def build_model_space(theta: InnerFunction) -> ModelSpace:
    """Construct H(theta) and the matrix of the compressed shift."""
    d = theta.degree
    if d < 1:
        raise ValueError("degree of theta must be >= 1")
    a = np.array([z for z, m in theta.zeros for _ in range(m)], dtype=complex)
    c = np.sqrt(1.0 - np.abs(a) ** 2)
    shift = np.diag(a)
    for j in range(d - 1):
        # prod_{j<l<i} (-conj(a_l)) for i = j+1, ..., d-1
        chain = np.cumprod(np.concatenate(([1.0], -a[j + 1 : -1].conj())))
        shift[j + 1 :, j] = c[j + 1 :] * c[j] * chain
    return ModelSpace(theta, d, shift)


def blaschke_of_matrix(u: InnerFunction, a_mat: np.ndarray) -> np.ndarray:
    """u(A) for a finite Blaschke product u and a square matrix A."""
    a_mat = np.asarray(a_mat, dtype=complex)
    eye = np.eye(a_mat.shape[0], dtype=complex)
    out = None
    for a, m in u.zeros:
        try:
            factor = np.linalg.solve(eye - a.conjugate() * a_mat, a_mat - a * eye)
        except np.linalg.LinAlgError as exc:  # cannot occur for contractions
            raise SingularResolvent(str(exc)) from exc
        for _ in range(m):
            out = factor if out is None else out @ factor
    return eye if out is None else out


def functional_calculus(space: ModelSpace, u: InnerFunction) -> np.ndarray:
    """Matrix of u(S(theta)) in the space's orthonormal basis."""
    return blaschke_of_matrix(u, space.shift_matrix)

