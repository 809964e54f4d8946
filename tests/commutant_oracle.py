"""The commutant decision: the tests' oracle for the closed-form orbit types.

``counterexample_search`` compares the orbit types ``verify`` carries, and
``basis_reference._orbit_type`` reads them off a basis.
This module decides the same question from first principles: it builds the
commutant of a nilpotent direct sum, solves the mapping constraints in
integers and certifies invertibility by a determinant over Z[t_0, ...],
on the one Bareiss elimination of ``exact_nilpotent._echelon``.  It also
holds what only the tests read: the reduced row echelon form, the integer
and rational nullspaces, the rational restriction and compression
matrices, the Jordan model of a nilpotent matrix from the ranks of its
powers, the independent reference for the image-rank models, and the
compression model read by elimination modulo M, the reference for Klein's
rule and the search's closed-form cotypes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import add, mul, sub

import numpy as np

from c0ops.exact_nilpotent import NilpotentSum, _echelon, _integral
from c0ops.inner import monomial
from c0ops.jordan import JordanModel, chain_lengths


def _dot(a: list, b: list):
    return sum(map(mul, a, b))


def _rref_den(rows: list[list]) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan: ``_echelon`` on the rows scaled to integers, then a back pass.

    Returns (reduced, den, pivots): the nonzero rows of the reduced row
    echelon form are the rows of ``reduced`` divided by ``den``.  At pivot
    k the back pass multiplies each earlier row by p_k and divides it
    exactly by p_{k-1}, so all pivots end equal to ``den``.
    """
    reduced, pivots = _echelon([_integral(r) for r in rows if any(r)])
    den = 1
    for k, c in enumerate(pivots):
        top, p = reduced[k], reduced[k][c]
        reduced[:k] = [[(p * x - r[c] * y) // den for x, y in zip(r, top)] for r in reduced[:k]]
        den = p
    return reduced, den, tuple(pivots)


def rref(rows: list[list]) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Gauss-Jordan: the nonzero rows of the reduced row echelon form and the pivot columns.

    The pivot rows are Fractions, also on integer input.
    """
    reduced, den, pivots = _rref_den(rows)
    return [[Fraction(x, den) for x in r] for r in reduced], pivots


def _nullspace_den(rows: list[list], ncols: int) -> tuple[list[list[int]], int]:
    """Integer basis of {x : rows x = 0}, with ncols the length of x, and its scale den.

    One vector per free column: den there and minus the integer reduced
    entries at the pivot columns, so each is den times a vector of
    ``nullspace``.
    """
    reduced, den, pivots = _rref_den(rows)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = den
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis, den


def nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Basis of {x : rows x = 0} in sympy's convention: 1 at a free column, 0 at the others."""
    basis, den = _nullspace_den(rows, ncols)
    return [[Fraction(x, den) for x in vec] for vec in basis]


def complement_basis(basis: list[list], n: int) -> list[list[int]]:
    """Integer basis of the orthogonal complement of span(basis) in Q^n."""
    return _nullspace_den(basis, n)[0]


def restriction_on_basis(t_op: NilpotentSum, basis: list[list]) -> list[list[Fraction]]:
    """Matrix of P_span T | span(basis) in that basis: X with (B^T B) X = B^T T B.

    On an invariant span this is T|M.
    """
    k = len(basis)
    images = [t_op.apply(b) for b in basis]
    normal = [[_dot(a, b) for b in basis] + [_dot(a, tb) for tb in images] for a in basis]
    return [row[k:] for row in rref(normal)[0]]


def compression_on_complement(t_op: NilpotentSum, basis: list[list]) -> list[list[Fraction]]:
    """Matrix of P_{M^perp} T | M^perp in an integer complement basis."""
    return restriction_on_basis(t_op, complement_basis(basis, t_op.n))


def _units(n: int) -> list[list[int]]:
    return [[int(i == j) for i in range(n)] for j in range(n)]


def compression_model(t_op: NilpotentSum, basis: list[list]) -> JordanModel:
    """Jordan model of P_{M^perp} T | M^perp for an invariant M spanned by the independent basis.

    The elimination read that Klein's rule replaces in the package: the
    compression is similar to T on Q^n / M, and T^k Q^n is spanned by the
    images of the unit vectors, so rank = dim(T^k Q^n + M) - dim M by
    Bareiss elimination, for k = 0 up to the largest block degree or the
    first rank 0.
    """
    modulo, vectors, ranks = [_integral(b) for b in basis], _units(t_op.n), []
    for _ in range(max(t_op.block_degrees) + 1):
        ranks.append(len(_echelon([*modulo, *vectors])[1]) - len(modulo))
        if not ranks[-1]:
            break
        vectors = [w for w in map(t_op.apply, vectors) if any(w)]
    return JordanModel(tuple(monomial(s) for s in chain_lengths(ranks)))


def nilpotent_jordan_model(a_mat: list[list], max_power: int) -> JordanModel:
    """Jordan model of an exactly nilpotent rational matrix: rank A^k = dim A^k Q^n."""
    n = len(a_mat)
    flat = _integral([x for row in a_mat for x in row])  # one scale keeps every rank
    a_int = [flat[i * n : (i + 1) * n] for i in range(n)]
    ranks, vectors = [], _units(n)
    for _ in range(max_power + 1):
        ranks.append(len(_echelon(vectors)[1]))
        if not ranks[-1]:
            break
        vectors = [w for w in ([_dot(row, v) for row in a_int] for v in vectors) if any(w)]
    return JordanModel(tuple(monomial(s) for s in chain_lengths(ranks)))


class Polynomial(dict):
    """A polynomial over Z as {exponent tuple: nonzero coefficient}; {} is 0."""

    __slots__ = ()

    def __mul__(self, other: Polynomial) -> Polynomial:
        out = {}
        for e, a in self.items():
            for f, b in other.items():
                g = tuple(map(add, e, f))
                out[g] = out.get(g, 0) + a * b
        return Polynomial({g: c for g, c in out.items() if c})

    def __sub__(self, other: Polynomial) -> Polynomial:
        out = Polynomial(self)
        for e, b in other.items():
            c = out.get(e, 0) - b
            if c:
                out[e] = c
            else:
                del out[e]
        return out

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        """The quotient by a divisor of self.

        Each step divides the lexicographically leading terms; when other
        divides self these quotients are integer monomials, and any other
        remainder raises ``ArithmeticError``.
        """
        lead = max(other)
        lead_coeff = other[lead]
        rest, out = Polynomial(self), Polynomial()
        while rest:
            e = max(rest)
            q, r = divmod(rest[e], lead_coeff)
            g = tuple(map(sub, e, lead))
            if r or min(g) < 0:
                raise ArithmeticError("polynomial division with a remainder")
            out[g] = q
            for f, b in other.items():
                h = tuple(map(add, g, f))
                c = rest.get(h, 0) - q * b
                if c:
                    rest[h] = c
                else:
                    del rest[h]
        return out


def linear_forms(vectors: list[list[int]]) -> list[Polynomial]:
    """The entries of sum_j t_j x_j over Z[t_0, ..., t_{p-1}] for integer vectors x_0, ..., x_{p-1}."""
    p = len(vectors)
    units = [tuple(int(i == j) for i in range(p)) for j in range(p)]
    return [Polynomial({u: x for u, x in zip(units, col) if x}) for col in zip(*vectors)]


def commutant_basis(t_op: NilpotentSum) -> list[list[tuple[int, int]]]:
    """Basis of {X : XT = TX}, each element the (row, column) positions of its ones.

    Hom(S(z^q) -> S(z^p)) is the min(p, q)-dimensional Toeplitz space
    spanned by z^k -> z^{k+s} truncated at z^p, for max(p - q, 0) <= s < p.
    """
    starts = list(accumulate(t_op.block_degrees, initial=0))
    return [
        [(row0 + k + s, col0 + k) for k in range(p - s)]
        for p, row0 in zip(t_op.block_degrees, starts)
        for q, col0 in zip(t_op.block_degrees, starts)
        for s in range(max(p - q, 0), p)
    ]


def _support(vec: list) -> list[tuple[int, object]]:
    return [(i, x) for i, x in enumerate(vec) if x]


@cache
def _sample_weights(count: int) -> tuple[tuple[int, ...], ...]:
    """Four fixed integer weight vectors of the given length, for sampling a family."""
    rng = np.random.default_rng(12345)
    return tuple(tuple(int(w) for w in rng.integers(-5, 6, size=count)) for _ in range(4))


def decide_commutant_orbit(comm_basis: list, b1: list[list], b2: list[list]) -> bool:
    """Exact decision: does an invertible commutant element map M1 onto M2?

    At these dimensions a quasiaffinity is invertible, so membership in
    the orbit reduces to solving linear mapping constraints inside the
    commutant and testing whether the solution family contains an
    invertible element (determinant not identically zero). X = sum y_i C_i
    maps M1 into M2 iff L^T X B1 = 0, where the columns of L span the
    orthogonal complement of M2. The C_i of ``commutant_basis`` are 0/1
    matrices with disjoint supports, so X holds y_i wherever C_i has a
    one, and entry (a, b) of L^T C_i B1 sums L[r, a] B1[c, b] over those
    positions (r, c). Everything is in integers: the columns of B1 are
    scaled to integers, L and the parameter vectors y that span the
    family are integer nullspaces, and a few fixed integer combinations
    of them are tried before the determinant certificate.
    """
    if len(b1) != len(b2):
        return False
    if not b1:
        return True  # the zero subspace is its own orbit
    n = len(b1[0])
    slot = [[None] * n for _ in range(n)]  # slot[r][c] = i where C_i has a one at (r, c)
    for i, ones in enumerate(comm_basis):
        for r, c in ones:
            slot[r][c] = i
    b1_supports = [_support(_integral(b)) for b in b1]
    constraints = []
    for left in map(_support, complement_basis(b2, n)):
        for right in b1_supports:
            row = [0] * len(comm_basis)
            for r, x in left:
                for c, y in right:
                    if slot[r][c] is not None:
                        row[slot[r][c]] += x * y
            constraints.append(row)
    params = _nullspace_den(constraints, len(comm_basis))[0]
    if not params:
        return False

    def member(coeffs, zero=0):
        """sum_i coeffs[i] C_i as an n x n matrix."""
        return [[zero if i is None else coeffs[i] for i in row] for row in slot]

    # fast path: integer samples usually certify invertibility (full rank)
    for w in _sample_weights(len(params)):
        if len(_echelon(member([_dot(w, col) for col in zip(*params)]))[1]) == n:
            return True
    # exact certificate that no invertible element exists: det(sum t_j X_j) over Z[t_0, ...],
    # X_j the member of the j-th parameter vector
    return len(_echelon(member(linear_forms(params), Polynomial()))[1]) == n
