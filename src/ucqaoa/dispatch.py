"""Ground-truth dispatch engine.

Solves the continuous dispatch induced by a fixed commitment exactly
(equal marginal cost, found by locating the load on the piecewise-linear
supply curve), exhaustively enumerates all commitments, and builds the
near-optimal commitment set used by the convergence metrics.  One
dispatch-and-cost function prices rows of ON/OFF masks, so a single
commitment, a chunk of the enumeration and a branch-and-bound node (whose
undecided units are relaxed) share one solve and one cost expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleError, SizeGuardError, ValidationError
from .instance import Commitment, UcInstance, _check_lengths, index_to_bits

ENUMERATION_GUARD = 24

INFEASIBLE_COST = math.inf  # in-memory sentinel; never serialized as a float


@dataclass(frozen=True, eq=False)
class DispatchSolution:
    """Dispatch of one commitment: full-length power vector and total cost."""

    powers: np.ndarray
    cost: float
    feasible: bool


@dataclass(frozen=True, eq=False)
class NearOptimalSet:
    """Feasible commitments whose dispatch cost is within the cutoff.

    ``members`` holds their basis-state indices (unit 0 = LSB), ascending.
    """

    members: np.ndarray
    optimal_cost: float
    cutoff: float
    n: int


def _dispatch_rows(
    b: np.ndarray,
    c: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    load: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact economic dispatch of every row of ``(rows, n)`` boxes.

    Per row, minimizes sum(b*p + c*p**2) s.t. sum(p) = load, lo <= p <= hi.
    At marginal cost lambda unit i supplies clip((lambda - b)/2c, lo, hi),
    so the total supply S(lambda) is nondecreasing and piecewise linear,
    with breakpoints b + 2c*lo and b + 2c*hi; a unit with c == 0 is a
    vertical jump of hi - lo at lambda == b.  A binary search over the
    sorted breakpoints finds the first one, lambda*, whose supply just
    right of it covers the load.  Every unit is linear in lambda between
    the breakpoint before lambda* and lambda*, so the dispatch is the
    interpolation between their unit powers that meets the load; load
    still left at lambda* is a jump, filled lowest-index-first by the units
    jumping there.  S is summed afresh at each probe, never accumulated
    across breakpoints, so the result is exact to rounding however widely
    the curvatures differ.  ``b`` and ``c`` broadcast against the boxes.

    Returns ``(powers, feasible)``; the powers of a row whose boxes cannot
    cover the load are meaningless.
    """
    lam_lo = b + 2.0 * c * lo
    lam_hi = b + 2.0 * c * hi
    slope = np.divide(0.5, c, out=np.zeros(np.shape(c)), where=c > 0)

    def supply(lam: np.ndarray, right: bool = True) -> np.ndarray:
        """Unit powers at marginal cost ``lam`` (one per row), taken just
        right or just left of it; the two differ only for units jumping there."""
        ramp = np.minimum(np.maximum(lo + (lam - lam_lo) * slope, lo), hi)
        if right:
            return np.where(lam >= lam_hi, hi, ramp)
        return np.where(lam <= lam_lo, lo, np.where(lam >= lam_hi, hi, ramp))

    x = np.sort(np.concatenate((lam_lo, lam_hi), axis=1), axis=1)
    row = np.arange(len(x))[:, None]
    first = np.zeros((len(x), 1), dtype=np.intp)
    last = np.full((len(x), 1), x.shape[1] - 1)
    for _ in range((x.shape[1] - 1).bit_length()):
        mid = (first + last) // 2
        covers = supply(x[row, mid]).sum(axis=1, keepdims=True) >= load
        # min() keeps rows that cannot cover the load inside the array
        first = np.where(covers, first, np.minimum(mid + 1, last))
        last = np.where(covers, mid, last)

    lam = x[row, first]
    start = np.where(first > 0, supply(x[row, first - 1]), lo)  # all at lo below the first
    end = supply(lam, right=False)
    s_start = start.sum(axis=1, keepdims=True)
    rise = end.sum(axis=1, keepdims=True) - s_start
    t = np.divide(load - s_start, rise, out=np.ones(rise.shape), where=rise > 0)
    p = start + np.clip(t, 0.0, 1.0) * (end - start)
    room = supply(lam) - end
    left = load - p.sum(axis=1, keepdims=True)
    p += np.clip(left - (np.cumsum(room, axis=1) - room), 0.0, room)
    feasible = (lo.sum(axis=1) <= load) & (hi.sum(axis=1) >= load)
    return p, feasible


def _dispatch_costs(
    inst: UcInstance, on: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(costs, feasible, powers) of every row of ``(k, n)`` ON/OFF masks.

    An ON unit runs in [p_min, p_max] and pays its startup cost ``a``; an
    OFF unit holds zero; a unit that is neither is relaxed to a free
    [0, p_max] generator.  Rows with no such unit are commitments, so one
    exact dispatch solve and one cost expression price a commitment, a
    chunk of the enumeration and a branch-and-bound node alike.
    Infeasible rows cost inf and hold zero power.
    """
    a, b, c, lo, hi = inst.coeff_arrays
    p, feasible = _dispatch_rows(b, c, np.where(on, lo, 0.0), np.where(off, 0.0, hi), inst.load)
    p[~feasible] = 0.0
    cost = (np.where(on, a, 0.0) + b * p + c * p * p).sum(axis=1)
    return np.where(feasible, cost, INFEASIBLE_COST), feasible, p


def economic_dispatch(inst: UcInstance, commit: Sequence[int]) -> DispatchSolution:
    """Cheapest power assignment meeting the load with the given units ON.

    Infeasibility (ON units cannot cover the load) is a result, not an error.
    """
    _check_lengths(inst, commit)
    on = np.asarray(commit, dtype=int)[None] != 0
    costs, feasible, powers = _dispatch_costs(inst, on, ~on)
    return DispatchSolution(powers=powers[0], cost=float(costs[0]), feasible=bool(feasible[0]))


# ---------------------------------------------------------------------------
# brute-force enumeration

# rows per kernel call: at n = 16 a chunk's temporaries take about 3 MB,
# which sets the peak memory of a hybrid run; larger chunks are no faster
_CHUNK_ROWS = 1 << 10


def _enumerate_chunks(inst: UcInstance) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(costs, feasible, powers) of the 2**N commitments, chunk by chunk
    in index order.

    Infeasible commitments cost inf and hold zero power.
    """
    n = inst.n
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(f"enumeration guard is N <= {ENUMERATION_GUARD}, got {n}")
    size = 1 << n
    for start in range(0, size, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, size)
        on = ((np.arange(start, stop)[:, None] >> np.arange(n)) & 1).astype(bool)
        yield _dispatch_costs(inst, on, ~on)


def enumerate_all(inst: UcInstance) -> list[tuple[Commitment, DispatchSolution]]:
    """Dispatch all 2**N commitments, ranked ascending by cost.

    Infeasible commitments sort last; ties break by ascending commitment
    index.  Memory grows as 2**N; guarded at N <= 24 (practical use is
    N <= ~16).
    """
    costs, feasible, powers = (np.concatenate(part) for part in zip(*_enumerate_chunks(inst)))
    return [
        (
            index_to_bits(k, inst.n),
            DispatchSolution(powers=powers[k].copy(), cost=float(costs[k]),
                             feasible=bool(feasible[k])),
        )
        for k in np.argsort(costs, kind="stable").tolist()
    ]


def near_optimal_set(inst: UcInstance, fraction: float = 0.05) -> NearOptimalSet:
    """All feasible commitments with cost <= (1 + fraction) * optimal cost."""
    if not fraction >= 0:  # also rejects nan
        raise ValidationError(f"fraction must be >= 0, got {fraction}")
    # each chunk's powers are dropped as it arrives: only 2**N costs are kept
    chunks = [chunk[:2] for chunk in _enumerate_chunks(inst)]
    costs, feasible = (np.concatenate(part) for part in zip(*chunks))
    if not feasible.any():
        raise InfeasibleError(f"instance {inst.name!r} has no feasible commitment")
    optimal = float(costs.min())
    cutoff = (1.0 + fraction) * optimal
    members = np.flatnonzero(feasible & (costs <= cutoff))
    return NearOptimalSet(members=members, optimal_cost=optimal, cutoff=cutoff, n=inst.n)
