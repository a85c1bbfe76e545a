"""Tests for the group completion machinery, using machine integers and
rationals as exact oracles."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicollapse.grothendieck import (
    NATURALS_ADD,
    POSITIVES_MUL,
    CommutativeMonoid,
    MixedMonoidError,
    MonoidPair,
    UndecidedEquivalenceError,
    UnsupportedReductionError,
    canonicalize,
    element,
    group_add,
    group_neg,
    group_zero,
    pair_equivalent,
    pair_equivalent_bulk,
)

NATS = st.integers(min_value=0, max_value=50)
POS = st.integers(min_value=1, max_value=50)


def as_int(pair: MonoidPair) -> int:
    return pair.pos - pair.neg


def as_fraction(pair: MonoidPair) -> Fraction:
    return Fraction(pair.pos, pair.neg)


# ---------------------------------------------------------------------------
# the defining relation
# ---------------------------------------------------------------------------

def test_pair_equivalent_examples_over_naturals():
    # (5,2) and (4,1) both represent +3
    assert pair_equivalent(MonoidPair(5, 2), MonoidPair(4, 1), NATURALS_ADD)
    # (3,7) represents -4, (4,6) represents -2; equal sums 3+7 = 4+6 do not
    # make the pairs equivalent under the stated relation
    assert not pair_equivalent(MonoidPair(3, 7), MonoidPair(4, 6), NATURALS_ADD)


def test_pair_equivalent_reflexive():
    assert pair_equivalent(MonoidPair(9, 4), MonoidPair(9, 4), NATURALS_ADD)


@given(a=NATS, b=NATS, c=NATS, d=NATS)
@settings(max_examples=300, deadline=None)
def test_pair_equivalent_matches_integer_oracle(a, b, c, d):
    got = pair_equivalent(MonoidPair(a, b), MonoidPair(c, d), NATURALS_ADD)
    assert got == ((a - b) == (c - d))


@given(a=POS, b=POS, c=POS, d=POS)
@settings(max_examples=300, deadline=None)
def test_pair_equivalent_matches_rational_oracle(a, b, c, d):
    got = pair_equivalent(MonoidPair(a, b), MonoidPair(c, d), POSITIVES_MUL)
    assert got == (Fraction(a, b) == Fraction(c, d))


INTEGERS_MOD_7 = CommutativeMonoid(name="integers-mod-7", combine=operator.add,
                                   identity=0, eq=lambda u, v: (u - v) % 7 == 0,
                                   cancellative=True)


def test_bulk_relation_agrees_with_scalar_path():
    rng = np.random.default_rng(5)
    a, b, c, d = rng.integers(0, 50, size=(4, 200))
    # (9, 0) ~ (2, 0) mod 7 only: a bulk path that ignores ``eq`` misses it
    a, b, c, d = (np.append(v, last) for v, last in zip((a, b, c, d), (9, 0, 2, 0)))
    for monoid in (NATURALS_ADD, INTEGERS_MOD_7):
        bulk = pair_equivalent_bulk(a, b, c, d, monoid)
        scalar = [
            pair_equivalent(MonoidPair(int(ai), int(bi)), MonoidPair(int(ci), int(di)),
                            monoid)
            for ai, bi, ci, di in zip(a, b, c, d)
        ]
        assert bulk.tolist() == scalar, monoid
    assert scalar[-1]


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------

def test_group_add_integer_example():
    total = group_add(element(NATURALS_ADD, 3, 0), element(NATURALS_ADD, 0, 5))
    assert total.pair == MonoidPair(3, 5)
    assert as_int(canonicalize(total)) == -2


def test_inverse_law():
    x = element(NATURALS_ADD, 7, 0)
    assert group_neg(x).pair == MonoidPair(0, 7)
    assert group_add(x, group_neg(x)) == group_zero(NATURALS_ADD)


def test_group_add_dimension_monoid_example():
    # tensor composition multiplies dimensions; (6,1) * (1,4) represents 6/4 = 3/2
    total = group_add(element(POSITIVES_MUL, 6, 1), element(POSITIVES_MUL, 1, 4))
    assert total.pair == MonoidPair(6, 4)
    assert canonicalize(total) == MonoidPair(3, 2)
    assert as_fraction(total.pair) == Fraction(3, 2)


def test_mixed_monoid_rejected():
    with pytest.raises(MixedMonoidError):
        group_add(element(NATURALS_ADD, 1, 0), element(POSITIVES_MUL, 2, 1))


def test_member_validation():
    with pytest.raises(ValueError):
        element(NATURALS_ADD, -3, 0)
    with pytest.raises(ValueError):
        element(POSITIVES_MUL, 0, 1)


@given(a=NATS, b=NATS, c=NATS, d=NATS, e=NATS, f=NATS)
@settings(max_examples=200, deadline=None)
def test_group_axioms_over_naturals(a, b, c, d, e, f):
    x = element(NATURALS_ADD, a, b)
    y = element(NATURALS_ADD, c, d)
    z = element(NATURALS_ADD, e, f)
    assert group_add(group_add(x, y), z) == group_add(x, group_add(y, z))
    assert group_add(x, group_zero(NATURALS_ADD)) == x
    assert group_add(x, group_neg(x)) == group_zero(NATURALS_ADD)
    # homomorphism onto machine integers
    assert as_int(canonicalize(group_add(x, y))) == as_int(x.pair) + as_int(y.pair)
    assert as_int(canonicalize(group_neg(x))) == -as_int(x.pair)


@given(a=POS, b=POS, c=POS, d=POS, e=POS, f=POS)
@settings(max_examples=200, deadline=None)
def test_group_axioms_over_positive_rationals(a, b, c, d, e, f):
    x = element(POSITIVES_MUL, a, b)
    y = element(POSITIVES_MUL, c, d)
    z = element(POSITIVES_MUL, e, f)
    assert group_add(group_add(x, y), z) == group_add(x, group_add(y, z))
    assert group_add(x, group_zero(POSITIVES_MUL)) == x
    assert group_add(x, group_neg(x)) == group_zero(POSITIVES_MUL)
    assert as_fraction(canonicalize(group_add(x, y))) == (
        as_fraction(x.pair) * as_fraction(y.pair)
    )


@given(a=NATS, b=NATS, c=NATS, d=NATS, e=NATS, f=NATS)
@settings(max_examples=200, deadline=None)
def test_relation_is_an_equivalence(a, b, c, d, e, f):
    x, y, z = MonoidPair(a, b), MonoidPair(c, d), MonoidPair(e, f)
    assert pair_equivalent(x, x, NATURALS_ADD)
    if pair_equivalent(x, y, NATURALS_ADD):
        assert pair_equivalent(y, x, NATURALS_ADD)
        if pair_equivalent(y, z, NATURALS_ADD):
            assert pair_equivalent(x, z, NATURALS_ADD)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_canonicalize_examples():
    assert canonicalize(element(NATURALS_ADD, 7, 3)) == MonoidPair(4, 0)
    assert canonicalize(element(NATURALS_ADD, 0, 0)) == MonoidPair(0, 0)
    assert canonicalize(element(POSITIVES_MUL, 6, 4)) == MonoidPair(3, 2)


@given(a=NATS, b=NATS)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent_and_equivalent(a, b):
    x = element(NATURALS_ADD, a, b)
    canon = canonicalize(x)
    assert pair_equivalent(canon, x.pair, NATURALS_ADD)
    again = canonicalize(element(NATURALS_ADD, canon.pos, canon.neg))
    assert again == canon


@given(a=NATS, b=NATS, c=NATS, d=NATS)
@settings(max_examples=200, deadline=None)
def test_equal_canonical_forms_iff_equivalent(a, b, c, d):
    x = element(NATURALS_ADD, a, b)
    y = element(NATURALS_ADD, c, d)
    assert (canonicalize(x) == canonicalize(y)) == pair_equivalent(
        x.pair, y.pair, NATURALS_ADD
    )


def test_canonicalize_unregistered_reduction():
    bare = CommutativeMonoid(name="bare", combine=lambda a, b: a + b, identity=0,
                             cancellative=True)
    with pytest.raises(UnsupportedReductionError):
        canonicalize(element(bare, 1, 2))


# ---------------------------------------------------------------------------
# non-cancellative search path
# ---------------------------------------------------------------------------

def max_monoid(limit: int) -> CommutativeMonoid:
    return CommutativeMonoid(
        name=f"naturals-under-max-{limit}",
        combine=max,
        identity=0,
        cancellative=False,
        k_candidates=lambda: range(limit + 1),
    )


def test_k_search_finds_witness():
    # max(0,0,k) == max(0,1,k) needs k >= 1
    m = max_monoid(limit=4)
    assert pair_equivalent(MonoidPair(0, 0), MonoidPair(1, 0), m)


def test_k_search_exhaustion_is_unknown_not_false():
    m = max_monoid(limit=0)
    with pytest.raises(UndecidedEquivalenceError):
        pair_equivalent(MonoidPair(0, 0), MonoidPair(1, 0), m)


def test_non_cancellative_without_stream_raises():
    m = CommutativeMonoid(name="max-no-stream", combine=max, identity=0,
                          cancellative=False)
    with pytest.raises(UndecidedEquivalenceError):
        pair_equivalent(MonoidPair(0, 0), MonoidPair(1, 0), m)
