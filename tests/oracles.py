"""Literal reference helpers that only the tests use.

Each is the plain, unvectorised definition of a quantity the package
computes another way, so the tests can check the fast paths against it.
"""

from typing import Iterator, Sequence, Union

from ucqaoa.errors import ValidationError
from ucqaoa.instance import Commitment, UnitSpec, index_to_bits


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
