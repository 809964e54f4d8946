"""Harness logic: orbit verification, counterexample search, diagonal demo.

The float verdict and the diagonal demo run on numpy.  The exact search
runs on ``exact_nilpotent``.  It carries each subspace's restriction
model and closed-form orbit type from its construction
(``_subspace_records``), enumerates each span once and builds no
commutant, and no basis but a witness's two, whose compression models
it reads from their types in closed form (``_cotype``).  Grid values are
integer indices; only a witness's grid vector holds a fraction.

At each N of its sweep the verdict maps the per-copy canonical frame of
(phi, psi) by the orbit map Y, whose all-theta rows are their weights alone,
and measures the gap back to that frame one copy group at a time; no
(N d)-row frame or square matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import prod

import numpy as np

from . import inner
from .errors import HypothesisViolated
from .exact_nilpotent import NilpotentSum, orbit_closure
from .inner import InnerFunction, monomial
from .jordan import (
    JordanModel,
    canonical_subspace,
    random_invariant_subspace,
    subspace_models,
)
from .quasiaffine import WeightSchedule, build_Y_main
from .subspaces import (
    AmbientSpace,
    SubspaceFrame,
    copywise,
    image_closure,
    orthonormalize,
    principal_distance,
)

DEFAULT_SWEEP = (4, 8, 12, 16)
DEFAULT_GATE = 0.05
CONVERGED_TOL = 1e-8
CURVE_SLACK = 1e-10
Y_SCHEDULE = WeightSchedule.factorial(64)  # the diagonal weights of every Y
# the most records an exact search enumerates, counted before it starts; a search at the cap peaks below 0.5 GB
MAX_SUBSPACES = 2**18


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the two-condition orbit test plus the distance sweep."""

    restriction_models_equal: bool
    compression_divisibility: bool
    orbit_constructed: bool
    distance_curve: tuple[tuple[int, float], ...]
    verdict: str  # "orbit" | "no-orbit" | "inconclusive"
    restriction_models: tuple[JordanModel, JordanModel] = (JordanModel(), JordanModel())
    compression_models: tuple[JordanModel, JordanModel] = (JordanModel(), JordanModel())

    def to_dict(self) -> dict:
        return {
            "restriction_models_equal": self.restriction_models_equal,
            "compression_divisibility": self.compression_divisibility,
            "orbit_constructed": self.orbit_constructed,
            "distance_curve": [[n, d] for n, d in self.distance_curve],
            "verdict": self.verdict,
            "restriction_models": [m.to_dict() for m in self.restriction_models],
            "compression_models": [m.to_dict() for m in self.compression_models],
        }


def _curve_accepts(curve, gate: float) -> bool:
    """Final distance under the gate and a non-increasing tail.

    A curve that is already at roundoff level everywhere counts as
    converged without a monotonicity requirement.
    """
    if not curve:
        return False
    values = [d for _, d in curve]
    if values[-1] > gate:
        return False
    if all(v <= CONVERGED_TOL for v in values):
        return True
    tail = values[-3:]
    return all(b <= a + CURVE_SLACK for a, b in zip(tail, tail[1:]))


def verify_orbit(
    ambient: AmbientSpace,
    m1: SubspaceFrame,
    m2: SubspaceFrame,
    sweep=DEFAULT_SWEEP,
    gate: float = DEFAULT_GATE,
) -> VerifyReport:
    """Test whether M2 lies in the quasiaffine orbit of M1 for T_N.

    The verdict reads the Jordan models of M1 and M2. A compression model
    is the complement of its restriction model, so compression_divisibility
    holds whenever restriction_models_equal does, and every no-orbit comes
    from unequal restriction models. The distance curve compares
    Y canon(rest1, comp1) with canon(rest1, comp1), not M1 and M2.

    The curve skips every N < 2 max(len rest1, len comp1), where the
    canonical frame does not fit; that bound is at least 2, since a
    restriction model and its complement are never both empty. A
    one-generator frame in N_in copies has N_in - 1 compression parts, so
    under DEFAULT_SWEEP two equal such frames in 10 or more copies read
    inconclusive with an empty curve. From N = 4289 row 0 of Y has more
    slots than the 64 weights of Y_SCHEDULE, so Y is refused before any
    row or frame at that N is built, and the verdict is inconclusive,
    with the curve up to the last N that fit.
    """
    rest1, comp1 = subspace_models(ambient, m1)
    rest2, comp2 = subspace_models(ambient, m2)
    models_equal = rest1 == rest2
    # psi = compression model of M1, tau = compression model of M2;
    # injectability of the compressions is termwise divisibility tau_n | psi_n
    chain = max(len(comp1), len(comp2))
    divisibility = all(
        inner.divides(comp2.part(n), comp1.part(n)) for n in range(chain)
    )
    base = dict(
        restriction_models_equal=models_equal,
        compression_divisibility=divisibility,
        restriction_models=(rest1, rest2),
        compression_models=(comp1, comp2),
    )
    if not (models_equal and divisibility):
        return VerifyReport(
            orbit_constructed=False,
            distance_curve=(),
            verdict="no-orbit",
            **base,
        )
    needed = 2 * max(len(rest1), len(comp1))
    curve = []
    for n_copies in sweep:
        if n_copies < needed:
            continue
        model_ambient = AmbientSpace(ambient.model, n_copies)
        try:
            y_rec = build_Y_main(model_ambient, rest1, comp1, comp1, Y_SCHEDULE)
        except HypothesisViolated:
            return VerifyReport(
                orbit_constructed=False,
                distance_curve=tuple(curve),
                verdict="inconclusive",
                **base,
            )
        canon = canonical_subspace(model_ambient, rest1, comp1)
        dist = principal_distance(image_closure(y_rec.operator, canon), canon)
        curve.append((n_copies, dist))
    ok = _curve_accepts(curve, gate)
    return VerifyReport(
        orbit_constructed=bool(curve),
        distance_curve=tuple(curve),
        verdict="orbit" if ok else "inconclusive",
        **base,
    )


# ---------------------------------------------------------------------------
# Counterexample search over exact nilpotent direct sums
# ---------------------------------------------------------------------------


def _undominated(pairs: set) -> frozenset:
    """The pairs (e, d) that no other pair (f, c) with f <= e and d - e <= c - f dominates."""
    return frozenset(
        (e, d) for e, d in pairs if not any((f, c) != (e, d) and f <= e and d - e <= c - f for f, c in pairs)
    )


def _subspace_records(block_degrees: tuple[int, ...], step: Fraction) -> list[tuple[tuple, frozenset | tuple, tuple]]:
    """(restriction model degrees, orbit type, recipe) of each subspace the search enumerates, in order.

    The subspaces are the orbit closures of the grid vectors, one per
    distinct closure, then the lattice elements with two or more nonempty
    blocks; both model and type are known from the construction, so no
    basis is built here (``_record_basis`` builds one from its recipe).

    Two subspaces share an orbit under the invertible commutant iff their
    types agree.  A cyclic closure C[T]v has as type the pairs (e_i, d_i)
    of the blocks where v is nonzero (the offset of v's first nonzero
    entry there, the block's degree) that no other pair dominates: an
    automorphism can carry (e, d) to (e', d') iff e' >= e and
    d' - e' <= d - e, so these fix the orbit (the order ideals of Dutta &
    Prasad, J. Combin. Theory A 118 (2011), carried over to C[t]/(t^d)
    modules).  A lattice element is a sum of pickets, and their category
    has Krull-Schmidt (Ringel & Schmidmeier, J. reine angew. Math. 614,
    2008), so its type is the multiset of (d_i, d_i - k_i).

    - The unit e_i, at offset e in a block of degree d, closes to the tail
      of its block: model (d - e,), type {(e, d)}.
    - e_i + t e_j for blocks of i and j that differ closes to one Krylov
      chain as long as the longer tail, and its type is the undominated
      pairs of {(e_i, d_i), (e_j, d_j)}: both depend on {i, j} alone, so
      each is computed once per unordered pair.  The
      closure of w = sum_k p_k T^k v is v's iff p_0 != 0, which reads p_0,
      p_1, ... down the block of i from i and t p_0, t p_1, ... down that
      of j, so a support of two entries leaves w = p_0 v: the one repeat
      is e_i + t e_j, i > j, with 1/t on the grid, met earlier as
      t (e_j + (1/t) e_i).  For a step p/q in lowest terms and t = k p/q,
      1/t = k' p/q means k k' p^2 = q^2, so p = 1, |k| = q and t = +-1.
      Within one block e_i + t e_j is (1 + c T^|i-j|) e_min(i,j) times a
      scalar, c = t or 1/t, so it spans a unit's chain and is left out.
    - The lattice element (+)_i z^{k_i}H^2 (-) z^{d_i}H^2 restricts to the
      S(z^{p_i}), p_i = d_i - k_i, so its model is the nonzero p_i in
      descending order and its type the multiset of (d_i, p_i), kept as
      the sorted tuple of the pairs.  One with a single nonempty block is
      a unit's chain, and one with two or more is not cyclic, so no grid
      span; distinct parts span distinct subspaces.

    Recipes: (i,) for e_i, (i, j, k) for e_i + (k step) e_j, the parts
    (p_0, p_1, ...) for a lattice element.  A pair of places in different
    blocks gives 4 reach records, 2 fewer when p = 1; so the count is known
    first, and a search above MAX_SUBSPACES builds nothing.
    """
    p, q = step.numerator, step.denominator
    reach = max(q // p, 1)
    cross_pairs = (sum(block_degrees) ** 2 - sum(d * d for d in block_degrees)) // 2
    count = cross_pairs * (4 * reach - (2 if p == 1 else 0)) + prod(d + 1 for d in block_degrees) - 1
    if count > MAX_SUBSPACES:
        raise HypothesisViolated(f"the search would enumerate {count} subspaces, above the cap {MAX_SUBSPACES}")
    forward = [k for k in range(-reach, reach + 1) if k]
    backward = [k for k in forward if p > 1 or abs(k) < reach]
    places = [(b, e, d) for b, d in enumerate(block_degrees) for e in range(d)]
    records = [((d - e,), frozenset({(e, d)}), (i,)) for i, (_, e, d) in enumerate(places)]
    cross = {}  # (key, type) of a pair i < j, kept until the pair (j, i) comes
    for (i, (bi, ei, di)), (j, (bj, ej, dj)) in product(enumerate(places), repeat=2):
        if bi != bj:
            if i < j:
                key, kind = cross[j, i] = (max(di - ei, dj - ej),), _undominated({(ei, di), (ej, dj)})
                records += [(key, kind, (i, j, k)) for k in forward]
            else:
                key, kind = cross.pop((i, j))
                records += [(key, kind, (i, j, k)) for k in backward]
    for parts in product(*(range(d, -1, -1) for d in block_degrees)):
        nonempty = len(parts) - parts.count(0)
        if nonempty > 1:
            key = tuple(sorted(parts, reverse=True)[:nonempty])
            records.append((key, tuple(sorted(zip(block_degrees, parts))), parts))
    return records


def _cotype(block_degrees: tuple[int, ...], key: tuple, kind: frozenset | tuple) -> JordanModel:
    """Compression model of T_{M^perp} for a record's M, read from its model degrees and orbit type.

    The compression is T on Q^n / M, so its Jordan model is the cotype of
    M, which the type fixes (T. Klein, J. London Math. Soc. 43, 1968).

    - A lattice element, type the sorted (d_i, p_i): the quotient is
      (+)_i C[t]/(t^(d_i - p_i)), so the parts are the nonzero d_i - p_i.
    - A cyclic closure C[T]v, type the s undominated pairs (e_j, d_j),
      whose d_j differ: an automorphism carries v to sum_j t^(e_j) u_j,
      u_j the first unit of a block of degree d_j, one block per pair.
      On those blocks the quotient is the cokernel of the relation matrix
      with rows t^(d_j) u_j and sum_j t^(e_j) u_j.  Its nonzero k x k
      minors have least degree Delta_k = min_c (e_c + the k - 1 smallest
      d_j, j != c), Delta_0 = 0, and each nonzero Delta_k - Delta_(k-1) is
      an invariant factor's degree.  A block that no pair uses adds its
      whole degree d_i.
    """
    if len(key) > 1:
        parts = [d - p for d, p in kind]
    else:
        parts = list(block_degrees)
        for _, d in kind:
            parts.remove(d)
        delta = [0]
        for k in range(1, len(kind) + 1):
            delta.append(min(e + sum(sorted(d for _, d in kind if d != c)[: k - 1]) for e, c in kind))
        parts += [b - a for a, b in zip(delta, delta[1:])]
    return JordanModel(tuple(monomial(x) for x in sorted(parts, reverse=True) if x))


def _record_basis(t_op: NilpotentSum, step: Fraction, key: tuple, recipe: tuple) -> list[list]:
    """Basis of an enumerated subspace from its recipe: a Krylov chain or a lattice element's units."""
    n = t_op.n
    if len(key) > 1:
        ends = accumulate(t_op.block_degrees)
        return [[int(c == row) for c in range(n)] for end, x in zip(ends, recipe) for row in range(end - x, end)]
    i, *cross = recipe
    vec = [int(c == i) for c in range(n)]
    if cross:
        j, k = cross
        vec[j] = Fraction(k * step.numerator, step.denominator)
    return orbit_closure(t_op, [vec])


def _basis_strings(basis: list[list]) -> list[list[str]]:
    """Columns of a rational basis as number strings."""
    return [[str(x) for x in col] for col in basis]


@dataclass
class CounterexampleReport:
    block_degrees: tuple[int, ...]
    subspace_count: int
    pairs_checked: int
    witness: dict | None
    exhausted: bool
    budget_exhausted: bool
    # compression models of the witness's M1 and M2: why the pair is a witness
    witness_compression_models: tuple[JordanModel, JordanModel] | None = None

    def to_dict(self) -> dict:
        comp = self.witness_compression_models
        return {
            "block_degrees": list(self.block_degrees),
            "subspace_count": self.subspace_count,
            "pairs_checked": self.pairs_checked,
            "witness": self.witness,
            "witness_compression_models": None if comp is None else [m.to_dict() for m in comp],
            "exhausted": self.exhausted,
            "budget_exhausted": self.budget_exhausted,
        }


def counterexample_search(
    block_degrees: list[int],
    grid_step: Fraction = Fraction(1, 64),
    budget: int = 100000,
) -> CounterexampleReport:
    """Search for equal restriction models outside a common commutant orbit.

    Enumerates orbit closures of grid vectors plus the exact lattice
    elements, each with the Jordan model of its restriction and its orbit
    type under the invertible commutant (``_subspace_records``), and
    groups them by the model; two subspaces share an orbit iff their
    types agree.

    Each group compares its first member's type with every later member's
    and stops at the first that differs; ``pairs_checked`` counts these
    comparisons and ``budget`` bounds them.  Sharing an orbit is an
    equivalence relation, so the first pair of the group in combination
    order that lies in two orbits always holds the first member: this is
    the witness a pair-by-pair search finds.  Only a witness's two bases
    are built, and it comes with the compression models of both, read
    from their types in closed form (``_cotype``): no elimination runs in
    the search.
    """
    if isinstance(grid_step, bool) or not isinstance(grid_step, (int, Fraction)):
        raise TypeError(f"grid_step must be an int or a Fraction, not {grid_step!r}")
    if grid_step <= 0:
        raise ValueError(f"grid_step must be positive, not {grid_step}")
    for d in block_degrees:
        if isinstance(d, bool) or not isinstance(d, int):
            raise TypeError(f"block degrees must be integers, not {d!r}")
        if d < 1:
            raise ValueError(f"block degrees must be at least 1, not {d}")
    step = Fraction(grid_step)
    t_op = NilpotentSum(block_degrees)
    records = _subspace_records(t_op.block_degrees, step)
    groups: dict[tuple, list[tuple]] = {}
    for record in records:
        groups.setdefault(record[0], []).append(record)

    pairs_checked = 0
    budget_exhausted = False
    witness = None
    compression_models = None
    for key in sorted(groups, key=sum):
        if sum(key) == t_op.n:  # the whole space; only proper subspaces are compared
            continue
        (_, first, r1), *others = groups[key]
        for _, kind, r2 in others:
            if pairs_checked >= budget:
                budget_exhausted = True
                break
            pairs_checked += 1
            if kind != first:
                b1, b2 = (_record_basis(t_op, step, key, r) for r in (r1, r2))
                witness = {
                    "restriction_model_degrees": list(key),
                    "m1_basis": _basis_strings(b1),
                    "m2_basis": _basis_strings(b2),
                }
                compression_models = tuple(_cotype(t_op.block_degrees, key, k) for k in (first, kind))
                break
        if witness or budget_exhausted:
            break
    return CounterexampleReport(
        tuple(block_degrees),
        len(records),
        pairs_checked,
        witness,
        exhausted=not budget_exhausted and witness is None,
        budget_exhausted=budget_exhausted,
        witness_compression_models=compression_models,
    )


# ---------------------------------------------------------------------------
# Diagonal similarity demonstration
# ---------------------------------------------------------------------------


@dataclass
class DemoRun:
    pair_index: int
    jordan_verdict: str
    conjugated_verdict: str

    @property
    def agrees(self) -> bool:
        return self.jordan_verdict == self.conjugated_verdict


def cordiag_demo(
    theta: InnerFunction,
    copies: int,
    similarity: np.ndarray,
    num_pairs: int,
    seed: int = 0,
    sweep=DEFAULT_SWEEP,
    gate: float = DEFAULT_GATE,
) -> list[DemoRun]:
    """Paired verdicts in the Jordan ambient and its conjugated copy."""
    jordan_amb = AmbientSpace.build(theta, copies)
    conj_amb = AmbientSpace(jordan_amb.model, copies, similarity)

    def conjugated(m: SubspaceFrame) -> SubspaceFrame:
        """M carried by I (x) S, applied copy by copy."""
        return SubspaceFrame(conj_amb, orthonormalize(copywise(conj_amb.similarity, m.frame)))

    rng = np.random.default_rng(seed)
    runs = []
    for idx in range(num_pairs):
        m1 = random_invariant_subspace(jordan_amb, rng, num_vectors=1 + idx % 2)
        m2 = random_invariant_subspace(jordan_amb, rng)
        v1 = verify_orbit(jordan_amb, m1, m2, sweep, gate)
        v2 = verify_orbit(conj_amb, conjugated(m1), conjugated(m2), sweep, gate)
        runs.append(DemoRun(idx, v1.verdict, v2.verdict))
    return runs
