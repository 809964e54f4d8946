"""Finite Blaschke products as zero multisets, with divisibility arithmetic.

An inner function here is always a finite Blaschke product normalized to
carry no unimodular constant.  Equality is structural: the zero list is
kept sorted and merged, so two products built from the same zeros
compare equal bit-for-bit.  Normalisation merges a zero into any kept
zero within MATCH_TOL of it and refuses any two kept zeros closer than
AMBIGUITY_TOL, so every pair of zeros of one product is at least
AMBIGUITY_TOL apart.  A zero of one product therefore lies within
MATCH_TOL of at most one zero of another, which is what ``_match``
pairs them by.

``divides``, ``quotient``, ``gcd`` and ``lcm`` answer equal operands and
the operand 1 from structure, with one of their operands or ONE and no
new product; every other pair of operands is paired by ``_match``."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisViolated

# Two zero points at distance <= MATCH_TOL are the same zero; constructors
# reject distinct zeros closer than AMBIGUITY_TOL so matching is decidable.
MATCH_TOL = 1e-9
AMBIGUITY_TOL = 1e-7
MAX_RADIUS = 1.0 - 1e-9
MAX_DEGREE = 64


def _zero_key(a: complex):
    return (a.real, a.imag)


@dataclass(frozen=True)
class InnerFunction:
    """A finite Blaschke product, stored as ((zero, multiplicity), ...)."""

    zeros: tuple[tuple[complex, int], ...] = ()

    def __post_init__(self):
        norm = []
        for a, m in self.zeros:
            a, k = complex(a), int(m)
            if k != m:
                raise ValueError(f"multiplicity {m!r} is not an integer")
            if not abs(a) <= MAX_RADIUS:  # also refuses a NaN zero
                raise ValueError(f"zero {a} too close to the unit circle")
            if k < 1:
                raise ValueError(f"multiplicity {k} < 1")
            norm.append((a, k))
        norm.sort(key=lambda zm: _zero_key(zm[0]))
        # Each zero is compared with every kept zero whose real part lies
        # within AMBIGUITY_TOL of its own, not only with the last one kept: a
        # zero sorted in between can hide a close pair. Kept zeros stay in
        # sorted order, so the scan stops at the first one left of the window.
        merged: list[tuple[complex, int]] = []
        for a, m in norm:
            i, close = len(merged) - 1, None
            while i >= 0 and a.real - merged[i][0].real < AMBIGUITY_TOL:
                gap = abs(a - merged[i][0])
                if gap <= MATCH_TOL:
                    break
                if gap < AMBIGUITY_TOL:
                    close = merged[i][0]
                i -= 1
            else:  # no kept zero within MATCH_TOL: a is a new zero
                if close is not None:
                    raise ValueError(f"distinct zeros {close} and {a} closer than {AMBIGUITY_TOL}")
                merged.append((a, m))
                continue
            merged[i] = (merged[i][0], merged[i][1] + m)
        if sum(m for _, m in merged) > MAX_DEGREE:
            raise ValueError(f"degree exceeds cap {MAX_DEGREE}")
        object.__setattr__(self, "zeros", tuple(merged))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    def is_one(self) -> bool:
        return not self.zeros

    def __mul__(self, other: "InnerFunction") -> "InnerFunction":
        return InnerFunction(self.zeros + other.zeros)

    def __repr__(self):
        if not self.zeros:
            return "InnerFunction(1)"
        facts = []
        for a, m in self.zeros:
            base = "z" if abs(a) <= MATCH_TOL else f"b[{a:.6g}]"
            facts.append(base if m == 1 else f"{base}^{m}")
        return "InnerFunction(" + "*".join(facts) + ")"

    def to_dict(self) -> dict:
        return {
            "zeros": [
                {"re": a.real, "im": a.imag, "mult": m} for a, m in self.zeros
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InnerFunction":
        """Read {"zeros": [{"re", "im", "mult"}, ...]}; each mult is an integer >= 1."""
        if set(data) != {"zeros"}:
            raise ValueError(f"an inner function has the one key zeros, not {data!r}")
        zeros = []
        for z in data["zeros"]:
            if set(z) != {"re", "im", "mult"}:
                raise ValueError(f"a zero has the keys re, im, mult, not {z!r}")
            if type(z["mult"]) is not int or z["mult"] < 1:
                raise ValueError(f"multiplicity {z['mult']!r} is not an integer >= 1")
            zeros.append((complex(z["re"], z["im"]), z["mult"]))
        return cls(tuple(zeros))


ONE = InnerFunction()


def monomial(d: int) -> InnerFunction:
    """z^d; the constant 1 when d = 0."""
    return InnerFunction(((0j, d),)) if d else ONE


def blaschke(a: complex, m: int = 1) -> InnerFunction:
    """Single Blaschke factor b_a to the power m."""
    return InnerFunction(((complex(a), m),))


def _match(u: InnerFunction, v: InnerFunction):
    """Pairs (mult_u, mult_v) over the merged zero set, keyed by u's points."""
    pairs = []
    used = [False] * len(v.zeros)
    for a, mu in u.zeros:
        mv = 0
        for i, (b, m) in enumerate(v.zeros):
            if not used[i] and abs(a - b) <= MATCH_TOL:
                mv = m
                used[i] = True
                break
        pairs.append((a, mu, mv))
    for i, (b, m) in enumerate(v.zeros):
        if not used[i]:
            pairs.append((b, 0, m))
    return pairs


def divides(u: InnerFunction, v: InnerFunction) -> bool:
    """True iff the zero multiset of u is contained in that of v."""
    if not u.zeros or u == v:
        return True
    return all(mu <= mv for _, mu, mv in _match(u, v))


def gcd(u: InnerFunction, v: InnerFunction) -> InnerFunction:
    if u == v:
        return u
    if not u.zeros or not v.zeros:
        return ONE
    zeros = tuple(
        (a, min(mu, mv)) for a, mu, mv in _match(u, v) if min(mu, mv) > 0
    )
    return InnerFunction(zeros)


def lcm(u: InnerFunction, v: InnerFunction) -> InnerFunction:
    if not u.zeros or u == v:
        return v
    if not v.zeros:
        return u
    zeros = tuple((a, max(mu, mv)) for a, mu, mv in _match(u, v))
    return InnerFunction(zeros)


def quotient(v: InnerFunction, u: InnerFunction) -> InnerFunction:
    """v/u as a multiset difference; requires u | v."""
    if not u.zeros:
        return v
    if u == v:
        return ONE
    pairs = _match(u, v)
    if any(mu > mv for _, mu, mv in pairs):
        raise HypothesisViolated(f"{u!r} does not divide {v!r}")
    zeros = tuple((a, mv - mu) for a, mu, mv in pairs if mv - mu > 0)
    return InnerFunction(zeros)


def evaluate(u: InnerFunction, w: complex) -> complex:
    """Value of the Blaschke product at a point of the open disc."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise HypothesisViolated(f"|{w}| >= 1")
    out = 1.0 + 0j
    for a, m in u.zeros:
        out *= ((w - a) / (1.0 - a.conjugate() * w)) ** m
    return out


def all_divisors(u: InnerFunction) -> list[InnerFunction]:
    """Every inner divisor of u (the full divisor lattice)."""
    divs = [ONE]
    for a, m in u.zeros:
        divs = [
            d if k == 0 else d * blaschke(a, k)
            for d in divs
            for k in range(m + 1)
        ]
    return divs
