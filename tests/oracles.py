"""Literal reference helpers that only the tests use.

Each is the plain, unvectorised definition of a quantity the package
computes another way, so the tests can check the fast paths against it.
"""

import math
from typing import Iterator, Sequence, Union

import numpy as np

from ucqaoa.baseline import OFF, ON, UNDECIDED
from ucqaoa.dispatch import dispatch_within_boxes, economic_dispatch
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

    Startup costs of the fixed-ON units plus a one-row relaxed dispatch in
    which undecided units run anywhere in [0, p_max] for free; a fully
    fixed node is the economic dispatch of its commitment.  Infinite when
    nothing covers the load.
    """
    a, b, c, lo, hi = inst.coeff_arrays
    states = np.asarray(fixed)
    if not np.any(states == UNDECIDED):
        sol = economic_dispatch(inst, tuple(int(s == ON) for s in states))
        return sol.cost if sol.feasible else math.inf
    powers = dispatch_within_boxes(
        b, c, np.where(states == ON, lo, 0.0), np.where(states == OFF, 0.0, hi), inst.load
    )
    if powers is None:
        return math.inf
    return float(a[states == ON].sum()) + float(np.sum(b * powers + c * powers * powers))
