"""Blaschke-product arithmetic by zero matching alone: the tests' reference for `c0ops.inner`.

Every operation pairs the zeros of its operands with `_match`, whatever the
operands, so it answers equal operands and the operand 1 the long way.
"""

from c0ops.errors import HypothesisViolated
from c0ops.inner import MATCH_TOL, InnerFunction


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
    return all(mu <= mv for _, mu, mv in _match(u, v))


def gcd(u: InnerFunction, v: InnerFunction) -> InnerFunction:
    zeros = tuple(
        (a, min(mu, mv)) for a, mu, mv in _match(u, v) if min(mu, mv) > 0
    )
    return InnerFunction(zeros)


def lcm(u: InnerFunction, v: InnerFunction) -> InnerFunction:
    zeros = tuple((a, max(mu, mv)) for a, mu, mv in _match(u, v))
    return InnerFunction(zeros)


def quotient(v: InnerFunction, u: InnerFunction) -> InnerFunction:
    """v/u as a multiset difference; requires u | v."""
    if not divides(u, v):
        raise HypothesisViolated(f"{u!r} does not divide {v!r}")
    zeros = tuple((a, mv - mu) for a, mu, mv in _match(u, v) if mv - mu > 0)
    return InnerFunction(zeros)
