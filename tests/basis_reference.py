"""Basis reads of the counterexample search: the tests' reference for its carried records.

``verify._subspace_records`` carries each subspace's restriction model
and orbit type from its construction and builds no basis.  This module
writes the unit basis of every lattice element (``_lattice_elements``)
and reads an orbit type back off a basis (``_orbit_type``); the tests
check the carried records, and the bases their recipes build, against
these.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, product


def _lattice_elements(block_degrees: list[int]) -> list[tuple[tuple[int, ...], list[list[int]]]]:
    """Products of per-block divisor subspaces z^k H^2 (-) z^d H^2, each with its restriction model.

    T restricted to z^k H^2 (-) z^d H^2 is S(z^{d-k}), so a product has the
    parts d_i - k_i > 0; the model is their degrees in descending order.
    """
    n = sum(block_degrees)
    per_block = [
        [list(range(start + k, start + d)) for k in range(d + 1)]
        for d, start in zip(block_degrees, accumulate(block_degrees, initial=0))
    ]
    return [
        (
            tuple(sorted((len(block) for block in combo if block), reverse=True)),
            [[int(i == c) for i in range(n)] for block in combo for c in block],
        )
        for combo in product(*per_block)
    ]


def _orbit_type(block_degrees: tuple[int, ...], key: tuple, basis: list[list]) -> set | Counter:
    """The orbit of an enumerated subspace under the invertible commutant, read off its basis.

    A cyclic closure (key of length 1) gives the undominated pairs
    (e_i, d_i) of its grid vector basis[0]: the offset of its first
    nonzero entry in block i and the block's degree.  A lattice element
    gives the multiset of (d_i, its number of unit basis vectors in
    block i).  Why these are the orbits: ``verify._subspace_records``.
    """
    blocks = [(d, slice(start, start + d)) for d, start in zip(block_degrees, accumulate(block_degrees, initial=0))]
    if len(key) > 1:
        return Counter((d, sum(any(col[part]) for col in basis)) for d, part in blocks)
    v = basis[0]
    pairs = {(next(e for e, x in enumerate(v[part]) if x), d) for d, part in blocks if any(v[part])}
    return {(e, d) for e, d in pairs if not any((f, c) != (e, d) and f <= e and d - e <= c - f for f, c in pairs)}
