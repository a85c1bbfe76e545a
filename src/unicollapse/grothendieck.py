"""Group completion of a commutative monoid via pairs.

Two pairs (a, b) and (c, d) over a commutative monoid are equivalent when
``a + d + k == b + c + k`` for some monoid element k.  Every monoid here
obeys the cancellation law, so k is redundant and the relation is
``a + d == b + c`` under the monoid's own ``eq`` (Atiyah, *K-Theory*, 1967).

Two instantiations ship as module singletons: the naturals under addition
(completing to the integers) and the positive integers under multiplication
(completing to the positive rationals -- the dimension arithmetic of tensor
products).  Other element domains plug in by constructing their own
:class:`CommutativeMonoid`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


class MixedMonoidError(ValueError):
    """Group arithmetic attempted across two different monoids."""


class UnsupportedReductionError(ValueError):
    """The monoid has no registered canonical-form reduction."""


@dataclass(frozen=True)
class CommutativeMonoid:
    """Contract bundle for a commutative monoid.

    ``combine`` must be associative and commutative on the element domain and
    obey the cancellation law (a + e == b + e implies a == b, under ``eq``),
    and ``identity`` must be its unit; these laws are sampled in tests, not
    enforced here.
    """

    name: str
    combine: Callable[[Any, Any], Any]
    identity: Any
    eq: Callable[[Any, Any], bool] = operator.eq
    member: Optional[Callable[[Any], bool]] = None
    reduce: Optional[Callable[[Any, Any], tuple]] = None

    def check_member(self, value) -> None:
        if self.member is not None and not self.member(value):
            raise ValueError(f"{value!r} is not an element of monoid {self.name}")

    def __repr__(self) -> str:
        return f"CommutativeMonoid({self.name})"


@dataclass(frozen=True)
class MonoidPair:
    """A formal difference: positive slot minus negative slot."""

    pos: Any
    neg: Any


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A group-completion element: a representative pair plus its monoid.

    Equality is the pair relation, so distinct representatives of the
    same class compare equal; instances are therefore unhashable.
    """

    pair: MonoidPair
    monoid: CommutativeMonoid

    __hash__ = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return pair_equivalent(self.pair, other.pair, _same_monoid(self, other))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return group_add(self, other)

    def __neg__(self) -> "GroupElement":
        return group_neg(self)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return group_add(self, group_neg(other))

    def __repr__(self) -> str:
        return f"GroupElement(({self.pair.pos!r}, {self.pair.neg!r}), {self.monoid.name})"


def element(monoid: CommutativeMonoid, pos, neg) -> GroupElement:
    """Build a group element, validating domain membership when declared."""
    monoid.check_member(pos)
    monoid.check_member(neg)
    return GroupElement(MonoidPair(pos, neg), monoid)


def _same_monoid(x: GroupElement, y: GroupElement) -> CommutativeMonoid:
    if x.monoid is not y.monoid:
        raise MixedMonoidError(
            f"cannot mix elements of {x.monoid.name} and {y.monoid.name}"
        )
    return x.monoid


# ---------------------------------------------------------------------------
# The defining relation and the group operations
# ---------------------------------------------------------------------------

def _related(x_pos, x_neg, y_pos, y_neg, m: CommutativeMonoid):
    """a + d == b + c under the monoid's own ``eq``."""
    return m.eq(m.combine(x_pos, y_neg), m.combine(x_neg, y_pos))


def pair_equivalent(x: MonoidPair, y: MonoidPair, m: CommutativeMonoid) -> bool:
    """Decide (a, b) ~ (c, d), i.e. whether a + d == b + c."""
    return bool(_related(x.pos, x.neg, y.pos, y.neg, m))


def group_add(x: GroupElement, y: GroupElement) -> GroupElement:
    m = _same_monoid(x, y)
    return GroupElement(
        MonoidPair(m.combine(x.pair.pos, y.pair.pos),
                   m.combine(x.pair.neg, y.pair.neg)),
        m,
    )


def group_neg(x: GroupElement) -> GroupElement:
    return GroupElement(MonoidPair(x.pair.neg, x.pair.pos), x.monoid)


def group_zero(m: CommutativeMonoid) -> GroupElement:
    return GroupElement(MonoidPair(m.identity, m.identity), m)


def canonicalize(x: GroupElement) -> MonoidPair:
    """Distinguished representative of x's equivalence class.

    Requires the monoid to register a reduction; idempotent, and two elements
    are equivalent exactly when their canonical pairs are equal.
    """
    m = x.monoid
    if m.reduce is None:
        raise UnsupportedReductionError(
            f"monoid {m.name} has no registered canonical reduction"
        )
    pos, neg = m.reduce(x.pair.pos, x.pair.neg)
    return MonoidPair(pos, neg)


# ---------------------------------------------------------------------------
# Bulk evaluation (used by the exhaustive integer-oracle sweeps)
# ---------------------------------------------------------------------------

def pair_equivalent_bulk(x_pos, x_neg, y_pos, y_neg,
                         m: CommutativeMonoid) -> np.ndarray:
    """Vectorized pair relation over aligned (or broadcastable) arrays.

    Only valid for monoids whose ``combine`` and ``eq`` act elementwise on
    numpy arrays (both shipped integer instances do); it evaluates the same
    relation as :func:`pair_equivalent`, one verdict per element.
    """
    return np.asarray(_related(*map(np.asarray, (x_pos, x_neg, y_pos, y_neg)), m))


# ---------------------------------------------------------------------------
# Shipped instantiations
# ---------------------------------------------------------------------------

def _reduce_difference(pos: int, neg: int) -> tuple[int, int]:
    low = min(pos, neg)
    return pos - low, neg - low


def _reduce_ratio(pos: int, neg: int) -> tuple[int, int]:
    g = math.gcd(pos, neg)
    return pos // g, neg // g


NATURALS_ADD = CommutativeMonoid(
    name="naturals-under-addition",
    combine=operator.add,
    identity=0,
    member=lambda v: (isinstance(v, (int, np.integer)) and v >= 0),
    reduce=_reduce_difference,
)

POSITIVES_MUL = CommutativeMonoid(
    name="positive-integers-under-multiplication",
    combine=operator.mul,
    identity=1,
    member=lambda v: (isinstance(v, (int, np.integer)) and v >= 1),
    reduce=_reduce_ratio,
)
