"""Rational-arithmetic backend for nilpotent direct sums, cross-checked
against the floating pipeline on the same integer data."""

import time
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from c0ops import exact_nilpotent, verify
from c0ops.exact_nilpotent import (
    NilpotentSum,
    _echelon,
    _integral,
    exact_subspace_models,
    orbit_closure,
    restriction_model,
)
from c0ops.errors import HypothesisViolated
from c0ops.inner import monomial
from c0ops.jordan import JordanModel, subspace_models
from c0ops.subspaces import AmbientSpace, SubspaceFrame, orthonormalize
from c0ops.verify import _cotype, _record_basis, _subspace_records, counterexample_search
from basis_reference import _lattice_elements, _orbit_type
import commutant_oracle
from commutant_oracle import (
    Polynomial,
    _rref_den,
    commutant_basis,
    complement_basis,
    compression_model,
    compression_on_complement,
    decide_commutant_orbit,
    linear_forms,
    nilpotent_jordan_model,
    nullspace,
    restriction_on_basis,
    rref,
)

RNG = np.random.default_rng(90210)


def dense(t_op):
    """The matrix of a NilpotentSum, column j the image of e_j."""
    n = t_op.n
    return sp.Matrix(n, n, lambda i, j: t_op.apply([int(k == j) for k in range(n)])[i])


def test_nilpotent_block_shape():
    b = dense(NilpotentSum([3]))
    assert b == sp.Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_orbit_closure_of_cyclic_vector():
    t = NilpotentSum([3])
    v = [1, 0, 0]
    basis = orbit_closure(t, [v])
    assert len(basis) == 3


def degrees(model):
    return [p.degree for p in model.parts]


def span_key(basis):
    """The reduced row echelon form of the basis columns, in integers: equal exactly for equal spans.

    ``_rref_den`` gives that form as integer rows over one denominator;
    dividing both by their gcd and making the denominator positive leaves
    the one integer pair that represents it.
    """
    reduced, den, _ = _rref_den(basis)
    g = gcd(den, *(x for row in reduced for x in row))
    g = g if den > 0 else -g
    return den // g, tuple(tuple(x // g for x in row) for row in reduced)


def full_grid(n, step, reach):
    """e_i and e_i + t e_j for every grid value t and i != j, repeated spans included."""
    vals = [k * step for k in range(-reach, reach + 1) if k != 0]
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    vectors = [list(e) for e in units]
    for i, j in product(range(n), repeat=2):
        if i != j:
            for t in vals:
                vec = list(units[i])
                vec[j] = t
                vectors.append(vec)
    return vectors


def keyed_enumeration(t, step):
    """The search's subspaces by the span-keyed dedupe of the full grid and the lattice."""
    reach = int(1 / step) if step <= 1 else 1
    seen = {}
    for vec in full_grid(t.n, step, reach):
        basis = orbit_closure(t, [vec])
        seen.setdefault(span_key(basis), ((len(basis),), basis))
    for key, basis in _lattice_elements(t.block_degrees):
        if basis:
            seen.setdefault(span_key(basis), (key, basis))
    return list(seen.values())


def record_bases(t, step):
    """(model key, basis) of every subspace the search enumerates, each basis built from its record's recipe."""
    return [(key, _record_basis(t, step, key, r)) for key, _, r in _subspace_records(t.block_degrees, step)]


def partitions(n, top=None):
    """Block shapes of total degree n, blocks in descending order."""
    if n == 0:
        yield []
        return
    for k in range(min(n, top or n), 0, -1):
        for rest in partitions(n - k, k):
            yield [k, *rest]


# every block shape of total degree up to 6, and two shapes out of descending order
SHAPES = [p for n in range(1, 7) for p in partitions(n)] + [[1, 2], [1, 3, 2]]
STEPS = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2))


def test_enumeration_matches_the_keyed_grid():
    start = time.perf_counter()
    for blocks in SHAPES:
        t = NilpotentSum(blocks)
        for step in STEPS:
            # same model keys and first-seen bases, in the same order
            assert record_bases(t, step) == keyed_enumeration(t, step)
    assert len(SHAPES) == 31
    assert time.perf_counter() - start <= 2.0


def test_records_carry_the_types_read_off_their_bases():
    start = time.perf_counter()
    count = 0
    for blocks in SHAPES:
        t = NilpotentSum(blocks)
        for step in STEPS:
            for key, kind, recipe in _subspace_records(t.block_degrees, step):
                read = _orbit_type(t.block_degrees, key, _record_basis(t, step, key, recipe))
                # a lattice type is carried as the sorted tuple of its multiset
                assert kind == (read if len(key) == 1 else tuple(sorted(read.elements())))
                count += 1
    assert count == 7389
    assert time.perf_counter() - start <= 2.0


def test_cotypes_match_the_bareiss_compression_reads():
    # the closed form against one integer elimination per power, on every record
    start = time.perf_counter()
    count = 0
    for blocks in SHAPES:
        t = NilpotentSum(blocks)
        for step in STEPS:
            for key, kind, recipe in _subspace_records(t.block_degrees, step):
                read = compression_model(t, _record_basis(t, step, key, recipe))
                assert _cotype(t.block_degrees, key, kind) == read
                count += 1
    assert count == 7389
    assert time.perf_counter() - start <= 2.0


def z_powers(*ds):
    return JordanModel(tuple(monomial(d) for d in ds))


@pytest.mark.parametrize(
    "blocks, step, models",
    [
        ([2, 1], Fraction(1), (z_powers(1, 1), z_powers(2))),
        ([3, 2, 1], Fraction(1), (z_powers(2, 2, 1), z_powers(3, 1, 1))),
        ([2, 1], Fraction(1, 16), (z_powers(1, 1), z_powers(2))),
    ],
    ids=["2-1@1", "3-2-1@1", "2-1@1/16"],
)
def test_witness_compression_models_run_no_elimination(monkeypatch, blocks, step, models):
    def refuse(*args):
        raise AssertionError("the search ran an elimination")

    monkeypatch.setattr(exact_nilpotent, "_echelon", refuse)
    monkeypatch.setattr(exact_nilpotent, "compression_model", refuse, raising=False)
    monkeypatch.setattr(verify, "compression_model", refuse, raising=False)
    rep = counterexample_search(blocks, step)
    assert rep.witness_compression_models == models
    z = [[{"re": 0.0, "im": 0.0, "mult": d}] for d in range(4)]
    assert rep.to_dict()["witness_compression_models"] == [
        {"parts": [{"zeros": z[p.degree]} for p in m.parts]} for m in models
    ]


def test_lattice_pair_with_equal_models_and_cotypes_lies_in_two_orbits():
    # parts (2,0,1) and (1,2,0) of [3,2,1]: the paper's two models agree, the orbits do not
    t = NilpotentSum([3, 2, 1])
    records = {r: (key, kind) for key, kind, r in _subspace_records(t.block_degrees, Fraction(1))}
    (key1, kind1), (key2, kind2) = records[2, 0, 1], records[1, 2, 0]
    assert key1 == key2 == (2, 1) and kind1 != kind2
    assert _cotype(t.block_degrees, key1, kind1) == _cotype(t.block_degrees, key2, kind2) == z_powers(2, 1)
    b1, b2 = (_record_basis(t, Fraction(1), key1, r) for r in ((2, 0, 1), (1, 2, 0)))
    assert not decide_commutant_orbit(commutant_basis(t), b1, b2)


def test_single_block_search_runs_at_the_degree_cap():
    start = time.perf_counter()
    rep = counterexample_search([64], Fraction(1), budget=1)
    assert rep.subspace_count == 64
    assert rep.exhausted and not rep.budget_exhausted
    assert time.perf_counter() - start <= 2.0


# the searches of this file outside SHAPES x STEPS, SEARCHES and KEYED_SEARCHES, and the largest of
# the other tier-1 and acceptance searches
BOUNDED_SEARCHES = [
    ([2, 1], Fraction(1)), ([3, 2, 1], Fraction(1)), ([2, 1], Fraction(1, 16)), ([2, 1], Fraction(1, 64)),
    ([64], Fraction(1)), ([2, 2, 2], Fraction(1, 2)), ([3, 3, 3], Fraction(1, 2)), ([2, 2], Fraction(1)),
    ([32, 32], Fraction(1)), ([16, 16, 16, 16], Fraction(1)), ([4, 3, 2, 1], Fraction(1)),
]


def test_record_count_is_exact_on_every_search(monkeypatch):
    # the refusal names the closed-form count; one below each grid's record count, it names that count
    grids = [(b, step) for b in SHAPES for step in STEPS] + BOUNDED_SEARCHES
    grids += [(b, Fraction(1, q)) for b, q in SEARCHES + KEYED_SEARCHES]
    cap = verify.MAX_SUBSPACES
    counts = {}
    for blocks, step in grids:
        count = counts[tuple(blocks), step] = len(_subspace_records(tuple(blocks), step))
        assert count <= cap, (blocks, step)
        monkeypatch.setattr(verify, "MAX_SUBSPACES", count - 1)
        with pytest.raises(HypothesisViolated, match=f"^the search would enumerate {count} subspaces, above the cap {count - 1}$"):
            _subspace_records(tuple(blocks), step)
        monkeypatch.setattr(verify, "MAX_SUBSPACES", cap)
    # the largest search (tests/test_verify.py)
    assert counts[(16, 16, 16, 16), Fraction(1)] == 86592


@pytest.mark.parametrize(
    "blocks, step",
    [([2, 1], Fraction(1, 16)), ([3, 2, 1], Fraction(1)), ([1, 1, 1], Fraction(2, 3))],
    ids=["2-1@1/16", "3-2-1@1", "1-1-1@2/3"],
)
def test_the_cap_is_exact(monkeypatch, blocks, step):
    count = len(_subspace_records(tuple(blocks), step))
    monkeypatch.setattr(verify, "MAX_SUBSPACES", count)
    assert counterexample_search(blocks, step, budget=1).subspace_count == count
    monkeypatch.setattr(verify, "MAX_SUBSPACES", count - 1)
    with pytest.raises(HypothesisViolated, match=f"^the search would enumerate {count} subspaces, above the cap {count - 1}$"):
        counterexample_search(blocks, step, budget=1)


def test_a_grid_under_the_cap_by_its_exact_count_is_enumerated(monkeypatch):
    # [60, 60, 60]@1 has 248580 records, under the cap 262144, so it passes the cap and reaches the lattice (product)
    class Enumerated(Exception):
        pass

    def enumerated(*args, **kwargs):
        raise Enumerated

    monkeypatch.setattr(verify, "product", enumerated)
    with pytest.raises(Enumerated):
        counterexample_search([60, 60, 60], Fraction(1), budget=1)


@pytest.mark.parametrize(
    "blocks, step, count",
    [([1] * 18, Fraction(1), 262449), ([2, 2], Fraction(1, 65536), 1048576), ([1] * 30, Fraction(1), 1073742693)],
    ids=["1x18@1", "2-2@1/65536", "1x30@1"],
)
def test_search_past_the_cap_is_refused_before_it_enumerates(monkeypatch, blocks, step, count):
    # the closed-form count refuses before the grid (range) or the lattice (product) is built
    def refuse(*args):
        raise AssertionError("the search enumerated")

    monkeypatch.setattr(verify, "product", refuse)
    monkeypatch.setattr(verify, "range", refuse, raising=False)
    start = time.perf_counter()
    with pytest.raises(HypothesisViolated, match=f"^the search would enumerate {count} subspaces, above the cap 262144$"):
        counterexample_search(blocks, step, budget=1)
    assert time.perf_counter() - start <= 0.5


@pytest.mark.parametrize("blocks, step", [([2, 1], Fraction(1, 16)), ([3, 2, 1], Fraction(1))])
def test_enumeration_runs_no_elimination(monkeypatch, blocks, step):
    calls = []

    def counting_echelon(rows):
        calls.append(rows)
        return _echelon(rows)

    monkeypatch.setattr(exact_nilpotent, "_echelon", counting_echelon)
    # the records build nothing, and every basis built from one closes a single vector
    assert record_bases(NilpotentSum(blocks), step)
    assert calls == []
    # several vectors do run one, so the count is live
    orbit_closure(NilpotentSum(blocks), [[1] + [0] * (sum(blocks) - 1)] * 2)
    assert calls


def test_exhausted_search_runs_no_elimination(monkeypatch):
    # the search compares closed-form orbit types
    calls = []
    monkeypatch.setattr(exact_nilpotent, "_echelon", lambda rows: calls.append(rows))
    for blocks in ([2, 2, 2], [3, 3, 3]):
        assert counterexample_search(blocks, Fraction(1, 2)).exhausted
    assert calls == []


def test_only_a_witness_builds_bases(monkeypatch):
    # each record carries its model and type, so an exhausted search builds no basis
    closures, built = [], []

    def counting_closure(t_op, vectors):
        closures.append(vectors)
        return orbit_closure(t_op, vectors)

    def recording_basis(*args):
        built.append(_record_basis(*args))
        return built[-1]

    monkeypatch.setattr(verify, "orbit_closure", counting_closure)
    monkeypatch.setattr(verify, "_record_basis", recording_basis)
    for blocks, step in [([2, 2], Fraction(1)), ([3, 3, 3], Fraction(1, 2)), ([32, 32], Fraction(1))]:
        assert counterexample_search(blocks, step).exhausted
    assert closures == [] and built == []
    # a witness builds its two members' bases and no other
    rep = counterexample_search([2, 1], Fraction(1, 16))
    assert len(closures) == 2
    assert [verify._basis_strings(b) for b in built] == [rep.witness["m1_basis"], rep.witness["m2_basis"]]


def test_exact_jordan_of_shift_restriction():
    # z in copy 0 plus all of copy 1
    vecs = [sp.Matrix([0, 1, 0, 0]), sp.Matrix([0, 0, 1, 0])]
    rest, comp, basis = exact_subspace_models(2, 2, vecs)
    assert degrees(rest) == [2, 1]
    assert degrees(comp) == [1]
    assert basis.cols == 3


def test_exact_complement_compression():
    t = NilpotentSum([2])
    basis = [[0, 1]]  # span{z} inside H(z^2), one column
    assert len(complement_basis(basis, 2)) == 1
    a = compression_on_complement(t, basis)
    assert degrees(nilpotent_jordan_model(a, 2)) == [1]


def test_exact_matches_float_on_random_integer_subspaces():
    for d, copies in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        amb = AmbientSpace.build(monomial(d), copies)
        t = NilpotentSum([d] * copies)
        n = d * copies
        for _ in range(8):
            k = int(RNG.integers(1, 3))
            vecs = [
                sp.Matrix([int(v) for v in RNG.integers(-3, 4, size=n)])
                for _ in range(k)
            ]
            if all(v.norm() == 0 for v in vecs):
                continue
            rest_e, comp_e, basis = exact_subspace_models(d, copies, vecs)
            cols = np.array(basis, dtype=float).reshape(n, basis.cols)
            m = SubspaceFrame(amb, orthonormalize(cols.astype(complex)))
            rest_f, comp_f = subspace_models(amb, m)
            assert rest_f == rest_e and comp_f == comp_e
    # acceptance 9's inputs: the compression from Klein's rule against the elimination read
    rng = np.random.default_rng(909)
    done = 0
    while done < 100:
        d, copies = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        vecs = [[int(v) for v in rng.integers(-3, 4, size=d * copies)] for _ in range(k)]
        if not any(map(any, vecs)):
            continue
        _, comp_e, basis = exact_subspace_models(d, copies, vecs)
        columns = [[Fraction(int(x.p), int(x.q)) for x in basis.col(j)] for j in range(basis.cols)]
        assert comp_e == compression_model(NilpotentSum([d] * copies), columns)
        done += 1


# (blocks, grid denominator) of searches whose subspaces check the image-rank models
SEARCHES = [([2, 2, 2], 2), ([3, 2, 1], 2), ([2, 1], 16), ([4, 4], 2), ([3, 1], 8)]


def searched_subspaces():
    """(T, basis) for every subspace the SEARCHES enumerate, each span once."""
    for blocks, denominator in SEARCHES:
        t = NilpotentSum(blocks)
        for _, basis in record_bases(t, Fraction(1, denominator)):
            yield t, basis


def test_image_rank_models_match_the_rational_matrices():
    proper = 0
    for t, basis in searched_subspaces():
        d = max(t.block_degrees)
        rest = nilpotent_jordan_model(restriction_on_basis(t, basis), d)
        comp = nilpotent_jordan_model(compression_on_complement(t, basis), d)
        assert (restriction_model(t, basis), compression_model(t, basis)) == (rest, comp)
        assert rest.total_degree + comp.total_degree == t.n
        proper += 0 < len(basis) < t.n
    assert proper == 528


def test_uniform_compression_model_is_the_rectangle_complement():
    # two independent integer reads: Klein's rule, not the float code
    count = 0
    for blocks, step in [([2, 2, 2], Fraction(1)), ([3, 3], Fraction(1, 2)), ([4, 4], Fraction(1))]:
        t = NilpotentSum(blocks)
        for _, basis in record_bases(t, step):
            rest = restriction_model(t, basis)
            assert compression_model(t, basis) == rest.complement(monomial(blocks[0]), len(blocks))
            count += 1
    assert count == 175


# (blocks, grid denominator) of the searches whose carried models and Krylov bases are checked
KEYED_SEARCHES = [([2, 2], 1), ([2, 1], 16), ([3, 2, 1], 1), ([3, 3], 2), ([2, 2, 2], 1)]


def test_carried_models_and_krylov_bases_match_their_reads():
    count = 0
    for blocks, denominator in KEYED_SEARCHES:
        t = NilpotentSum(blocks)
        step = Fraction(1, denominator)
        for key, basis in record_bases(t, step):
            assert key == tuple(degrees(restriction_model(t, basis)))
            count += 1
        reach = int(1 / step)
        for v in full_grid(t.n, step, reach):
            chain, w = [], v
            while any(w):
                chain.append(w)
                w = t.apply(w)
            krylov = [list(r) for r in zip(*map(_integral, chain))]
            pivot_basis = [chain[j] for j in _echelon(krylov)[1]]
            basis = orbit_closure(t, [v])
            assert span_key(basis) == span_key(pivot_basis)
            assert basis == pivot_basis
    assert count == 309


def search_decisions(blocks, denominator):
    """(commutant basis, M1, M2) of every decision an exhausted search makes."""
    t = NilpotentSum(blocks)
    groups = {}
    for key, basis in record_bases(t, Fraction(1, denominator)):
        if 0 < len(basis) < t.n:
            groups.setdefault(key, []).append(basis)
    comm = commutant_basis(t)
    return [(comm, first, other) for first, *others in groups.values() for other in others]


def test_orbit_decisions_run_in_integers(monkeypatch):
    calls = []

    def counting_fraction(*args):
        calls.append(args)
        return Fraction(*args)

    searches = [([2, 2], 1), ([3, 3], 2)]
    decisions = [decision for search in searches for decision in search_decisions(*search)]
    # built before the patch: a grid vector's recipe makes its Fraction
    bases = [
        (NilpotentSum(blocks), basis)
        for blocks, denominator in searches
        for _, basis in record_bases(NilpotentSum(blocks), Fraction(1, denominator))
    ]
    # the grid vectors hold Fractions, so the bases do too
    assert any(isinstance(x, Fraction) for _, _, b2 in decisions for col in b2 for x in col)
    for module in (exact_nilpotent, verify, commutant_oracle):
        monkeypatch.setattr(module, "Fraction", counting_fraction)
    assert all(decide_commutant_orbit(*decision) for decision in decisions)
    for t, basis in bases:
        complement = complement_basis(basis, t.n)
        assert len(complement) == t.n - len(basis)
        assert all(type(x) is int for vec in complement for x in vec)
        assert all(sum(x * y for x, y in zip(b, vec)) == 0 for b in basis for vec in complement)
        assert len(_echelon(complement + [_integral(b) for b in basis])[1]) == t.n
    assert calls == []
    # the rational nullspace does build them, so the count is live
    nullspace([[1, 2]], 2)
    assert calls


def test_span_key_is_exact():
    t = NilpotentSum([3, 2, 1])
    # every orbit closure the search meets, repeated spans included
    bases = [orbit_closure(t, [v]) for v in full_grid(t.n, Fraction(1, 2), 2)]
    keys = [span_key(b) for b in bases]
    fraction_keys = [tuple(map(tuple, rref(b)[0])) for b in bases]
    # equal keys exactly for equal Fraction RREFs, that is, for equal spans
    assert len(set(keys)) == len(set(fraction_keys)) == len(set(zip(keys, fraction_keys))) < len(bases)
    for basis, key in zip(bases, keys):
        scales = [Fraction(-3, 7), Fraction(5), Fraction(2, 9), Fraction(-1)]
        rescaled = [[c * x for x in col] for c, col in zip(scales * len(basis), basis)]
        mixed = [[x + y for x, y in zip(basis[0], col)] for col in basis[1:]] + basis[:1]
        for other in (rescaled, rescaled[::-1], [_integral(col) for col in basis], mixed):
            assert span_key(other) == key


def test_span_keys_and_model_reads_build_no_fraction(monkeypatch):
    calls = []

    def counting_fraction(*args):
        calls.append(args)
        return Fraction(*args)

    subspaces = list(searched_subspaces())
    for module in (exact_nilpotent, verify, commutant_oracle):
        monkeypatch.setattr(module, "Fraction", counting_fraction)
    for t, basis in subspaces:
        span_key(basis)
        restriction_model(t, basis)
        compression_model(t, basis)
    assert calls == []
    # the rational restriction matrix does build them, so the count is live
    restriction_on_basis(*subspaces[0])
    assert calls


@pytest.mark.parametrize(
    "vec, entry",
    [
        ([0.1, 1, 0, 0], 0.1),
        ([1j, 1, 0, 0], 1j),
        (sp.Matrix([0.1, 1, 0, 0]), sp.Float(0.1)),
        (sp.Matrix([sp.I, 1, 0, 0]), sp.I),
        (sp.Matrix([sp.sqrt(2), 1, 0, 0]), sp.sqrt(2)),
    ],
    ids=["float", "complex", "sympy-float", "sympy-I", "sqrt2"],
)
def test_exact_models_refuse_inexact_entries(vec, entry):
    # an inexact or irrational entry is refused by name, never rounded to a rational
    with pytest.raises(TypeError) as err:
        exact_subspace_models(2, 2, [vec])
    assert repr(entry) in str(err.value)


def test_exact_models_accept_every_rational_type():
    expected = exact_subspace_models(2, 2, [[1, 2, 0, 3]])
    for vec in (
        [Fraction(1, 3), Fraction(2, 3), 0, 1],
        sp.Matrix([sp.Rational(1, 3), sp.Rational(2, 3), 0, 1]),
        sp.Matrix([1, 2, 0, 3]),
    ):
        rest, comp, basis = exact_subspace_models(2, 2, [vec])
        assert (rest, comp) == expected[:2]
        assert basis.rank() == expected[2].rank()
        assert sp.Matrix.hstack(basis, expected[2]).rank() == basis.rank()


def random_rational_matrix(rows, cols, rank):
    """A rows x cols rational matrix of the given rank at most, with small entries."""
    def rand(r, c):
        return [
            [Fraction(int(RNG.integers(-4, 5)), int(RNG.integers(1, 4))) for _ in range(c)]
            for _ in range(r)
        ]

    left, right = rand(rows, rank), rand(rank, cols)
    return [
        [sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


@pytest.mark.parametrize("shape", [(3, 5, 2), (5, 3, 3), (4, 4, 4), (6, 7, 3), (1, 4, 1), (4, 6, 0)])
def test_rref_and_nullspace_match_sympy(shape):
    rows, cols, rank = shape
    for _ in range(5):
        mat = random_rational_matrix(rows, cols, rank)
        reduced, pivots = rref(mat)
        expected, expected_pivots = sp.Matrix(mat).rref()
        assert pivots == expected_pivots
        assert tuple(_echelon([_integral(row) for row in mat])[1]) == expected_pivots
        assert [[sp.Rational(x.numerator, x.denominator) for x in row] for row in reduced] == (
            expected.tolist()[: len(pivots)]
        )
        assert all(isinstance(x, Fraction) for row in reduced for x in row)
        null = nullspace(mat, cols)
        assert [sp.Matrix(v) for v in null] == sp.Matrix(mat).nullspace()


def pencil(family):
    """sum_j t_j X_j as a matrix of Polynomials."""
    n = len(family[0])
    forms = linear_forms([[x for row in x_mat for x in row] for x_mat in family])
    return [forms[i * n : (i + 1) * n] for i in range(n)]


def sympy_pencil_det(family):
    ring = QQ.poly_ring(*(f"t{j}" for j in range(len(family))))
    n = len(family[0])
    entries = [
        [sum((g * int(x_mat[r][c]) for g, x_mat in zip(ring.gens, family)), ring.zero) for c in range(n)]
        for r in range(n)
    ]
    return DomainMatrix(entries, (n, n), ring).det()


def random_family(n, p, density=0.5):
    return [
        [[int(RNG.integers(-3, 4)) if RNG.random() < density else 0 for _ in range(n)] for _ in range(n)]
        for _ in range(p)
    ]


def skew_family(n, p):
    family = []
    for _ in range(p):
        x_mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x_mat[i][j] = int(RNG.integers(-3, 4))
                x_mat[j][i] = -x_mat[i][j]
        family.append(x_mat)
    return family


def common_kernel_family(n, p):
    # X_j = R_j (|v|^2 I - v v^T) kills v for every j
    v = [int(x) for x in RNG.integers(-2, 3, size=n)]
    v[0] = v[0] or 1
    proj = [[sum(x * x for x in v) * (i == j) - v[i] * v[j] for j in range(n)] for i in range(n)]
    return [
        [[sum(a * b for a, b in zip(row, col)) for col in zip(*proj)] for row in r_mat]
        for r_mat in random_family(n, p, density=0.7)
    ]


@pytest.mark.parametrize(
    "make, n, p, singular",
    [
        (random_family, 3, 2, None),
        (random_family, 4, 3, None),
        (lambda n, p: random_family(n, p, density=0.25), 5, 3, None),
        (skew_family, 3, 3, True),
        (skew_family, 5, 2, True),
        (skew_family, 4, 2, None),
        (common_kernel_family, 3, 3, True),
        (common_kernel_family, 4, 2, True),
    ],
    ids=["rand3x2", "rand4x3", "sparse5x3", "skew3", "skew5", "skew4", "kernel3", "kernel4"],
)
def test_pencil_determinant_zero_test_matches_sympy(make, n, p, singular):
    # full rank over Q(t) by fraction-free elimination <=> det(sum t_j X_j) != 0
    for _ in range(4):
        family = make(n, p)
        expected_regular = sympy_pencil_det(family) != 0
        if singular:
            assert not expected_regular
        assert (len(_echelon(pencil(family))[1]) == n) == expected_regular


def test_polynomial_exact_division():
    for _ in range(20):
        a, b = (pencil(random_family(2, 3, density=0.8))[0][0] for _ in range(2))
        if b:
            assert (a * b) // b == a
            assert (a * b - a * b) == Polynomial()
    t0, t1 = linear_forms([[1, 0], [0, 1]])
    with pytest.raises(ArithmeticError):
        t0 // t1
