"""Ground-truth dispatch engine.

Solves the continuous dispatch induced by a fixed commitment exactly
(equal marginal cost, found by locating the load on the piecewise-linear
supply curve), exhaustively enumerates all commitments, and builds the
near-optimal commitment set used by the convergence metrics.  One
dispatch-and-cost function prices rows of ON/OFF masks, so a single
commitment, a chunk of the enumeration and a branch-and-bound leaf share
one solve and one cost expression; an inner branch-and-bound node is the
same solve over the columns of its relaxation.

The solve finds the load's place on the supply curve by a k-ary search
whose width follows the row count.  A commitment (one row) and a B&B
node's two children cost what their numpy calls cost, whatever their
size, so they probe every breakpoint at once and search in one or two
steps.
An enumeration chunk (1024 rows) costs its array work, so it bisects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleError, SizeGuardError, ValidationError
from .instance import Commitment, UcInstance, _check_commitment, index_to_bits

ENUMERATION_GUARD = 24

INFEASIBLE_COST = math.inf  # in-memory sentinel; never serialized as a float


@dataclass(frozen=True, eq=False, slots=True)
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


# rows * k * n, the size of one search step's temporaries, stays within
# this wherever k >= 1 allows: two rows, a B&B node's children, search in
# one step up to 11 columns and in two up to 32 (an inner node has two
# columns per unit), a 1024-row enumeration chunk bisects
_SEARCH_ELEMENTS = 512


@functools.cache
def _search_plan(rows: int, n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Steps of the k-ary search over the 2n breakpoints of ``rows`` rows:
    the fewest the element budget allows, with the fewest probes per step
    that still reach them, (k + 1) ** steps >= 2n.  Each step is its block
    width ``gap`` and its k probe offsets gap*j - 1, j = 1..k."""
    m = 2 * n
    widest = max(1, min(m - 1, _SEARCH_ELEMENTS // (rows * n)))
    count = 1
    while (widest + 1) ** count < m:
        count += 1
    k = 1
    while (k + 1) ** count < m:
        k += 1
    steps = tuple(((k + 1) ** s, (k + 1) ** s * np.arange(1, k + 1) - 1)
                  for s in reversed(range(count)))
    for _, offsets in steps:
        offsets.flags.writeable = False  # shared by every call of this shape
    return steps


# 0.5/c overflows for c below about 2.8e-309, and a ramp far past hi
# overflows for any tiny c.  The slope is capped at the largest float, so a
# unit at its own breakpoint adds 0 * slope = 0 (0 * inf would be nan), and
# an inf ramp is cut to hi.  One errstate covers the whole solve, not each
# of its several supply() calls.
@np.errstate(over="ignore")
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
    vertical jump of hi - lo at lambda == b.

    A k-ary search over the sorted breakpoints finds the first one,
    lambda*, whose supply just right of it covers the load.  Each step
    evaluates S for every row at k equally spaced probes, in one
    ``(rows, k, n)`` array, and advances past the blocks whose probe falls
    short of the load; the breakpoints count as padded with copies of the
    last one to (k + 1) ** steps slots.  S is nondecreasing, so the number
    of breakpoints short of the load is lambda*'s index whatever k is.  k
    sets only how many numpy calls find it, and `_search_plan` sizes it to
    the row count: the two rows of a B&B node's children search in one or
    two steps up to 32 columns, the 1024 rows of an enumeration chunk
    bisect.

    Every unit is linear in lambda between the breakpoint before lambda*
    and lambda*, so the dispatch is the interpolation between their unit
    powers that meets the load; load still left at lambda* is a jump,
    filled lowest-index-first by the units jumping there.  S is summed
    afresh over the units at each probe, never accumulated across
    breakpoints, so the result is exact to rounding however widely the
    curvatures differ.  ``b`` and ``c`` broadcast against the boxes.

    A slope 1/2c past the largest float is capped there.  So when two
    units both have c below about 1e-308 and b near 0, the dispatch can
    miss the optimum by about 1e-307 in absolute cost.

    Returns ``(powers, feasible)``; the powers of a row whose boxes cannot
    cover the load are meaningless.
    """
    rows, n = lo.shape
    lam_lo = b + 2.0 * c * lo
    lam_hi = b + 2.0 * c * hi
    slope = np.minimum(np.divide(0.5, c, out=np.zeros(np.shape(c)), where=c > 0),
                       np.finfo(float).max)
    # a probe axis between rows and units: each of these is (rows, 1, n)
    lo3, hi3, lam_lo3, lam_hi3, slope3 = (v[..., None, :] for v in (lo, hi, lam_lo, lam_hi, slope))

    def supply(lam: np.ndarray) -> np.ndarray:
        """Unit powers ``(rows, probes, n)`` just right of each of the
        marginal costs ``lam`` ``(rows, probes)``."""
        lam = lam[..., None]
        ramp = np.minimum(lo3 + np.maximum(lam - lam_lo3, 0.0) * slope3, hi3)
        return np.where(lam >= lam_hi3, hi3, ramp)

    x = np.sort(np.concatenate((lam_lo, lam_hi), axis=1), axis=1)
    last = x.shape[1] - 1
    row = np.arange(rows)[:, None]
    below = np.zeros((rows, 1), dtype=np.intp)
    for gap, offsets in _search_plan(rows, n):
        # a probe past the last breakpoint reads it; +inf would make the
        # inf * 0 of a c == 0 unit a nan
        short = supply(x[row, np.minimum(below + offsets, last)]).sum(axis=2) < load
        below += gap * short.sum(axis=1, keepdims=True)
    # min() keeps rows that cannot cover the load inside the breakpoints
    first = np.minimum(below, last)

    lam = x[row, first]
    start = np.where(first > 0, supply(x[row, first - 1])[:, 0], lo)  # all at lo below the first
    full = supply(lam)[:, 0]  # just right of lambda*
    end = np.where(lam <= lam_lo, lo, full)  # just left of lambda*
    s_start = start.sum(axis=1, keepdims=True)
    rise = end.sum(axis=1, keepdims=True) - s_start
    t = np.divide(load - s_start, rise, out=np.ones(rise.shape), where=rise > 0)
    p = start + np.clip(t, 0.0, 1.0) * (end - start)
    room = full - end
    left = load - p.sum(axis=1, keepdims=True)
    p += np.clip(left - (np.cumsum(room, axis=1) - room), 0.0, room)
    feasible = (lo.sum(axis=1) <= load) & (hi.sum(axis=1) >= load)
    return p, feasible


def _dispatch_costs(inst: UcInstance, on: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(costs, feasible, powers) of every row of a ``(k, n)`` commitment mask.

    An ON unit runs in [p_min, p_max] and pays its startup cost ``a``; an
    OFF unit holds zero.  One exact dispatch solve and one cost expression
    price a commitment, a chunk of the enumeration and a branch-and-bound
    leaf alike.  Infeasible rows cost inf and hold zero power.
    """
    a, b, c, lo, hi = inst.coeff_arrays
    p, feasible = _dispatch_rows(b, c, np.where(on, lo, 0.0), np.where(on, hi, 0.0), inst.load)
    p[~feasible] = 0.0
    cost = (np.where(on, a, 0.0) + b * p + c * p * p).sum(axis=1)
    return np.where(feasible, cost, INFEASIBLE_COST), feasible, p


def economic_dispatch(inst: UcInstance, commit: Sequence[int]) -> DispatchSolution:
    """Cheapest power assignment meeting the load with the given units ON.

    Infeasibility (ON units cannot cover the load) is a result, not an error;
    a commitment entry other than 0 or 1 is a ValidationError.
    """
    on = _check_commitment(inst, commit)[None]
    costs, feasible, powers = _dispatch_costs(inst, on)
    # a copy, so the solution does not keep the (1, n) row array alive
    return DispatchSolution(powers=powers[0].copy(), cost=float(costs[0]),
                            feasible=bool(feasible[0]))


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
        yield _dispatch_costs(inst, on)


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
    if not 0 <= fraction < math.inf:  # rejects nan too
        raise ValidationError(f"fraction must be finite and >= 0, got {fraction}")
    # each chunk's powers are dropped as it arrives: only 2**N costs are kept
    chunks = [chunk[:2] for chunk in _enumerate_chunks(inst)]
    costs, feasible = (np.concatenate(part) for part in zip(*chunks))
    if not feasible.any():
        raise InfeasibleError(f"instance {inst.name!r} has no feasible commitment")
    optimal = float(costs.min())
    cutoff = (1.0 + fraction) * optimal
    members = np.flatnonzero(feasible & (costs <= cutoff))
    return NearOptimalSet(members=members, optimal_cost=optimal, cutoff=cutoff, n=inst.n)
