"""Literal reference helpers that only the tests use.

Each is the plain, unvectorised definition of a quantity the package
computes another way, so the tests can check the fast paths against it.
"""

import math
from typing import Iterator, Sequence, Union

import numpy as np

from ucqaoa.baseline import OFF, ON
from ucqaoa.dispatch import dispatch_within_boxes
from ucqaoa.errors import ValidationError
from ucqaoa.instance import Commitment, UcInstance, UnitSpec, index_to_bits


def hamming(a: Union[str, Sequence[int]], b: Union[str, Sequence[int]]) -> int:
    """Number of positions at which two equal-length bitstrings differ."""
    if len(a) != len(b):
        raise ValidationError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(int(x) != int(y) for x, y in zip(a, b))


def unit_cost(u: UnitSpec, y: int, p: float) -> float:
    """a*y + b*p + c*p**2, evaluated literally (b/c terms ignore y)."""
    return u.a * y + u.b * p + u.c * p * p


def all_commitments(n: int) -> Iterator[Commitment]:
    """All 2**n commitments in ascending index order."""
    for k in range(1 << n):
        yield index_to_bits(k, n)


def single_node_bound(inst: UcInstance, fixed: Sequence[int]) -> float:
    """The branch-and-bound bound of one node, solved on its own.

    One dispatch on the node's boxes (ON units in [p_min, p_max], OFF
    units at zero, undecided units anywhere in [0, p_max]), priced by the
    single cost expression written out: startup cost of each ON unit plus
    b*p + c*p**2 of every unit.  A fully fixed node is thereby the
    economic dispatch of its commitment.  Infinite when nothing covers the
    load.
    """
    a, b, c, lo, hi = inst.coeff_arrays
    states = np.asarray(fixed)
    on = states == ON
    powers = dispatch_within_boxes(
        b, c, np.where(on, lo, 0.0), np.where(states == OFF, 0.0, hi), inst.load
    )
    if powers is None:
        return math.inf
    return float((np.where(on, a, 0.0) + b * powers + c * powers * powers).sum())
