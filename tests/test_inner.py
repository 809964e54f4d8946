"""Blaschke-product arithmetic: multiset lattice laws and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c0ops.errors import HypothesisViolated
from c0ops.inner import (
    ONE,
    InnerFunction,
    all_divisors,
    blaschke,
    divides,
    evaluate,
    gcd,
    lcm,
    monomial,
    quotient,
)

# a fixed pool of well-separated points; lattice laws are exercised by
# drawing multiplicities over the pool, so gcd/lcm results are exact
POOL = [0.0, 0.3, -0.45, 0.2 + 0.5j, -0.1 - 0.6j]


def from_mults(mults):
    f = ONE
    for a, m in zip(POOL, mults):
        if m:
            f = f * blaschke(a, m)
    return f


mult_vectors = st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None)
@given(mult_vectors, mult_vectors)
def test_gcd_lcm_lattice_identity(m1, m2):
    u, v = from_mults(m1), from_mults(m2)
    g, l = gcd(u, v), lcm(u, v)
    assert g * l == u * v
    assert divides(g, u) and divides(g, v)
    assert divides(u, l) and divides(v, l)


@settings(max_examples=60, deadline=None)
@given(mult_vectors, mult_vectors, mult_vectors)
def test_gcd_associative_commutative(m1, m2, m3):
    u, v, w = from_mults(m1), from_mults(m2), from_mults(m3)
    assert gcd(u, v) == gcd(v, u)
    assert gcd(gcd(u, v), w) == gcd(u, gcd(v, w))
    assert lcm(lcm(u, v), w) == lcm(u, lcm(v, w))


@settings(max_examples=60, deadline=None)
@given(mult_vectors, mult_vectors)
def test_quotient_inverts_product(m1, m2):
    u, v = from_mults(m1), from_mults(m2)
    assert quotient(u * v, v) == u


def test_quotient_requires_divisor():
    with pytest.raises(HypothesisViolated, match=r"^InnerFunction\(.*\) does not divide InnerFunction\("):
        quotient(blaschke(0.3), blaschke(0.4))


def test_degree_and_one():
    assert ONE.degree == 0 and ONE.is_one
    assert monomial(3).degree == 3
    assert (blaschke(0.2, 2) * blaschke(-0.3)).degree == 3


def test_zero_merge_within_tolerance():
    u = blaschke(0.5) * blaschke(0.5 + 5e-10)
    assert len(u.zeros) == 1
    assert u.zeros[0][1] == 2


def test_ambiguous_separation_rejected():
    with pytest.raises(ValueError):
        blaschke(0.5) * blaschke(0.5 + 1e-8)


def test_degree_cap():
    with pytest.raises(ValueError):
        monomial(65)


def test_zero_outside_disc_rejected():
    with pytest.raises(ValueError):
        blaschke(1.0)
    with pytest.raises(ValueError):
        blaschke(1 - 1e-12)
    with pytest.raises(ValueError):
        InnerFunction(((complex(float("nan"), 0), 1),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: InnerFunction(((0.3, 2.7),)), "multiplicity 2.7 is not an integer"),
        (lambda: monomial(2.5), "multiplicity 2.5 is not an integer"),
        (lambda: blaschke(0.3, 0), "multiplicity 0 < 1"),
        (lambda: blaschke(0.3, -1), "multiplicity -1 < 1"),
    ],
    ids=["fraction", "fractional-monomial", "zero", "negative"],
)
def test_multiplicity_must_be_a_positive_integer(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_integral_multiplicities_of_other_types_are_kept():
    assert InnerFunction(((0.3, np.int64(2)),)) == InnerFunction(((0.3, 2.0),)) == blaschke(0.3, 2)
    assert type(InnerFunction(((0.3, 2.0),)).zeros[0][1]) is int


def test_evaluate_blaschke_factor():
    u = blaschke(0.3)
    assert abs(evaluate(u, 0.3)) < 1e-15
    assert abs(evaluate(u, 0.0) - (-0.3)) < 1e-15
    # modulus below 1 strictly inside the disc
    assert abs(evaluate(u, 0.5 + 0.1j)) < 1.0
    with pytest.raises(HypothesisViolated, match=r"^\|\(1\.2\+0j\)\| >= 1$"):
        evaluate(u, 1.2)


def test_serialization_round_trip():
    u = blaschke(0.123456789012345, 2) * blaschke(-0.3 + 0.25j)
    again = InnerFunction.from_dict(u.to_dict())
    assert again == u
    assert InnerFunction.from_dict(ONE.to_dict()) == ONE


def test_all_divisors_counts():
    # z^3 has the chain 1, z, z^2, z^3
    assert len(all_divisors(monomial(3))) == 4
    # three simple zeros: the full Boolean lattice
    u = blaschke(0.1) * blaschke(0.4) * blaschke(-0.2)
    assert len(all_divisors(u)) == 8
    # mixed multiplicities multiply
    v = blaschke(0.1, 2) * blaschke(0.4)
    assert len(all_divisors(v)) == 6


def test_divisor_lattice_is_ordered_by_multiplicity():
    u = blaschke(0.1, 2) * blaschke(-0.3)
    ds = all_divisors(u)
    for d in ds:
        assert divides(d, u)
        assert quotient(u, d) in ds
