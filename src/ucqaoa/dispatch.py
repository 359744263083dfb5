"""Ground-truth dispatch engine.

Solves the continuous dispatch induced by a fixed commitment exactly
(equal marginal cost, found by locating the load on the piecewise-linear
supply curve), bounds partial commitments for the branch and bound,
exhaustively enumerates all commitments, and builds the near-optimal
commitment set used by the convergence metrics.  One dispatch-and-cost
function prices rows of ON/OFF masks, so a single commitment, a chunk of
the enumeration and a branch-and-bound leaf share one solve and one cost
expression; an inner branch-and-bound node is the same solve over the
columns of its relaxation.  Whether a row can meet the load is one rule
on its unit boxes (`_covers_load`), apart from the solve.

The solve finds the load's place among the supply curve's breakpoints.
A call small enough to hold the supply at every breakpoint in one array
costs what its numpy calls cost, so it evaluates them all at once and
reads the dispatch from that array: a commitment (one row), and a B&B
node's two children up to 11 units.  A larger call searches by a k-ary
search whose width follows the row count, and an enumeration chunk
(1024 rows), which costs its array work, bisects.

The near-optimal set comes from a breadth-first search of the
branch-and-bound tree, each level pruned by the B&B's own bound against
its root incumbent; a leaf's bound is its cost as the enumeration prices
it, so the set is the enumeration's bit for bit (see `near_optimal_set`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, SizeGuardError
from .instance import Commitment, UcInstance, _check_commitment, _finite_float, index_to_bits

ENUMERATION_GUARD = 24

INFEASIBLE_COST = math.inf  # in-memory sentinel; never serialized as a float

MAX_FLOAT = float(np.finfo(float).max)  # where overflowing slopes and prices are capped


@dataclass(frozen=True, eq=False, slots=True)
class DispatchSolution:
    """Dispatch of one commitment: full-length power vector and total cost,
    inf with zero power exactly when the commitment is infeasible."""

    powers: np.ndarray
    cost: float

    @property
    def feasible(self) -> bool:
        return self.cost < INFEASIBLE_COST


@dataclass(frozen=True, eq=False)
class NearOptimalSet:
    """Feasible commitments whose dispatch cost is within the cutoff.

    ``members`` holds their basis-state indices (unit 0 = LSB), ascending.
    """

    members: np.ndarray
    optimal_cost: float
    cutoff: float
    n: int


# A call whose supply at every breakpoint fits, rows * n * 2n elements,
# probes them all at once: a B&B node's two children up to 11 units (an
# inner node has two columns per unit), the root up to 16, a pair of
# leaves up to 22.  Larger calls search in steps of at most rows * k * n
# elements where k >= 1 allows; a 1024-row enumeration chunk bisects.  At
# 8192 a 400-unit exact solve ran 5-14% slower, its steps wider.
_SEARCH_ELEMENTS = 2048


def _probes_every_breakpoint(rows: int, n: int) -> bool:
    """Whether a call of ``rows`` rows of n columns evaluates the supply
    at all its 2n breakpoints in one array instead of searching."""
    return rows * n * 2 * n <= _SEARCH_ELEMENTS


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
) -> np.ndarray:
    """Exact economic dispatch of every row of ``(rows, n)`` boxes.

    Per row, minimizes sum(b*p + c*p**2) s.t. sum(p) = load, lo <= p <= hi.
    At marginal cost lambda unit i supplies clip((lambda - b)/2c, lo, hi),
    so the total supply S(lambda) is nondecreasing and piecewise linear,
    with breakpoints b + 2c*lo and b + 2c*hi; a unit with c == 0 is a
    vertical jump of hi - lo at lambda == b.

    lambda* is the first sorted breakpoint whose supply just right of it
    covers the load.  S is nondecreasing, so its index is the number of
    breakpoints short of the load however they are counted.  A small
    enough call (`_probes_every_breakpoint`) evaluates S at every
    breakpoint in one ``(rows, 2n, n)`` array, counts the short ones and
    reads the unit powers at lambda* and at the breakpoint before it from
    that array.  A larger call runs a k-ary search: each step evaluates S
    for every row at k equally spaced probes, in one ``(rows, k, n)``
    array, and advances past the blocks whose probe falls short of the
    load; the breakpoints count as padded with copies of the last one to
    (k + 1) ** steps slots.  k sets only how many numpy calls find the
    index, and `_search_plan` sizes it to the row count: two rows search
    in two steps up to 84 columns, an enumeration chunk's 1024 rows
    bisect.  The unit powers at lambda* and before it are then evaluated
    again, by the same elementwise supply.

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

    Returns the ``(rows, n)`` powers; those of a row whose boxes cannot
    cover the load (`_covers_load`) are meaningless.
    """
    rows, n = lo.shape
    lam_lo = b + 2.0 * c * lo
    lam_hi = b + 2.0 * c * hi
    slope = np.minimum(np.divide(0.5, c, out=np.zeros(np.shape(c)), where=c > 0), MAX_FLOAT)
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
    # min() keeps rows that cannot cover the load inside the breakpoints;
    # full and before are the unit powers just right of lambda* and of the
    # breakpoint before it (the last one, unused, when lambda* is the first)
    if _probes_every_breakpoint(rows, n):
        every = supply(x)
        first = np.minimum((every.sum(axis=2) < load).sum(axis=1, keepdims=True), last)
        full, before = every[row, first][:, 0], every[row, first - 1][:, 0]
    else:
        below = np.zeros((rows, 1), dtype=np.intp)
        for gap, offsets in _search_plan(rows, n):
            # a probe past the last breakpoint reads it; +inf would make the
            # inf * 0 of a c == 0 unit a nan
            short = supply(x[row, np.minimum(below + offsets, last)]).sum(axis=2) < load
            below += gap * short.sum(axis=1, keepdims=True)
        first = np.minimum(below, last)
        full, before = supply(x[row, first])[:, 0], supply(x[row, first - 1])[:, 0]

    lam = x[row, first]
    start = np.where(first > 0, before, lo)  # all at lo below the first
    end = np.where(lam <= lam_lo, lo, full)  # just left of lambda*
    s_start = start.sum(axis=1, keepdims=True)
    rise = end.sum(axis=1, keepdims=True) - s_start
    t = np.divide(load - s_start, rise, out=np.ones(rise.shape), where=rise > 0)
    p = start + np.clip(t, 0.0, 1.0) * (end - start)
    room = full - end
    left = load - p.sum(axis=1, keepdims=True)
    p += np.clip(left - (np.cumsum(room, axis=1) - room), 0.0, room)
    return p


# A sum past the largest float is inf, rightly above the load.
@np.errstate(over="ignore")
def _covers_load(lo: np.ndarray, hi: np.ndarray, load: float) -> np.ndarray:
    """Which rows of ``(rows, n)`` unit boxes can meet the load."""
    return (lo.sum(axis=1) <= load) & (hi.sum(axis=1) >= load)


def _dispatch_costs(inst: UcInstance, on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(costs, powers) of every row of a ``(k, n)`` commitment mask.

    An ON unit runs in [p_min, p_max] and pays its startup cost ``a``; an
    OFF unit holds zero.  One exact dispatch solve and one cost expression
    price a commitment, a chunk of the enumeration and a branch-and-bound
    leaf alike.  A row costs inf, and holds zero power, exactly when its
    boxes cannot cover the load (`_covers_load`); no flag is returned.
    """
    a, b, c, lo, hi = inst.coeff_arrays
    box_lo, box_hi = np.where(on, lo, 0.0), np.where(on, hi, 0.0)
    p = _dispatch_rows(b, c, box_lo, box_hi, inst.load)
    feasible = _covers_load(box_lo, box_hi, inst.load)
    p[~feasible] = 0.0
    cost = (np.where(on, a, 0.0) + b * p + c * p * p).sum(axis=1)
    return np.where(feasible, cost, INFEASIBLE_COST), p


def economic_dispatch(inst: UcInstance, commit: Sequence[int]) -> DispatchSolution:
    """Cheapest power assignment meeting the load with the given units ON.

    Infeasibility (ON units cannot cover the load) is a result, not an error;
    a commitment entry other than 0 or 1 is a ValidationError.
    """
    on = _check_commitment(inst, commit)[None]
    costs, powers = _dispatch_costs(inst, on)
    # a copy, so the solution does not keep the (1, n) row array alive
    return DispatchSolution(powers=powers[0].copy(), cost=float(costs[0]))


# ---------------------------------------------------------------------------
# bounds of partial commitments, shared with the branch and bound

ON = 1
OFF = 0
UNDECIDED = -1


def _envelope(inst: UcInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(knee, mean, tail price) of each unit's convex envelope, built once
    per solve: p* = clip(sqrt(a/c), p_min, p_max), where the mean cost
    f(p)/p is least (p_max for a linear unit), the mean cost f(p*)/p*, and
    the marginal cost b + 2c*p* at which the tail above p* starts."""
    a, b, c, lo, hi = inst.coeff_arrays
    # a/c past the largest float is inf, so p* = p_max; a/p* past it is
    # capped there, not inf
    with np.errstate(over="ignore"):
        ratio = np.divide(a, c, out=np.full(inst.n, math.inf), where=c > 0)
        knee = np.minimum(np.maximum(np.sqrt(ratio), lo), hi)
        mean = np.minimum(np.divide(a, knee, out=np.zeros(inst.n), where=knee > 0) + b + c * knee,
                          MAX_FLOAT)
    return knee, mean, b + 2.0 * c * knee


def _node_bounds(inst: UcInstance, envelope: tuple[np.ndarray, np.ndarray, np.ndarray],
                 states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Admissible bound of every row of a ``(k, n)`` array of UNDECIDED,
    OFF and ON states, inf where its boxes cannot cover the load, and the
    ``(k, n)`` unit powers of each row's relaxed dispatch.

    An undecided unit's cost, 0 at p = 0 and a + b*p + c*p**2 on
    [p_min, p_max], is replaced by its convex envelope (`_envelope`): the
    chord from the origin to p*, then f itself up to p_max.  Its marginal
    cost never falls, so the dispatch kernel prices it as two virtual
    units, a c = 0 unit at f(p*)/p* on [0, p*] and a tail with marginal
    b + 2c*p* + 2c*q on [0, p_max - p*], and its power is the sum of the
    two.  Decided units keep their boxes and a [0, 0] tail.
    The chord lies below f, so the relaxed dispatch bounds every
    completion in exact arithmetic.  The 2n-column solve rounds apart from
    a leaf's n-column one, so a bound with undecided units is scaled by
    (1 - 1e-12), well above that rounding and well below any search gap.
    Rows that are all commitments are priced by the economic dispatch's
    own call, so a leaf's bound is its dispatch cost bit for bit; the two
    children of a node are both commitments or neither.  Feasibility is
    read from the n unit boxes, not the 2n columns, whose sums round in
    another order: a completion's sums lie within these.  The powers of a
    row that cannot cover the load are meaningless."""
    on, off = states == ON, states == OFF
    free = ~(on | off)
    if not free.any():
        return _dispatch_costs(inst, on)
    a, b, c, lo, hi = inst.coeff_arrays
    knee, mean, tail_price = envelope
    zero = np.zeros(states.shape)
    box_lo, box_hi = np.where(on, lo, 0.0), np.where(off, 0.0, hi)
    # each unit's box (an undecided unit's chord), then each unit's tail
    startup = np.concatenate((np.where(on, a, 0.0), zero), axis=1)
    price = np.concatenate((np.where(free, mean, b), zero + tail_price), axis=1)
    curve = np.concatenate((np.where(free, 0.0, c), zero + c), axis=1)
    col_lo = np.concatenate((box_lo, zero), axis=1)
    col_hi = np.concatenate((np.where(free, knee, box_hi), np.where(free, hi - knee, 0.0)), axis=1)
    p = _dispatch_rows(price, curve, col_lo, col_hi, inst.load)
    feasible = _covers_load(box_lo, box_hi, inst.load)
    cost = (startup + price * p + curve * p * p).sum(axis=1)
    return np.where(feasible, cost * (1.0 - 1e-12), INFEASIBLE_COST), p[:, :inst.n] + p[:, inst.n:]


def _branching_order(inst: UcInstance) -> list[int]:
    """Units in the order they are branched on: the largest p_max first,
    the lowest index first among ties.  A node at depth d has fixed
    exactly the first d of them."""
    hi = inst.coeff_arrays[4]
    return sorted(range(inst.n), key=lambda i: (-hi[i], i))


def _root_incumbent(inst: UcInstance, envelope: tuple[np.ndarray, np.ndarray, np.ndarray]
                    ) -> tuple[float, np.ndarray, np.ndarray, float, np.ndarray]:
    """(bound, relaxed powers) of the root node, then (ON mask, cost,
    powers) of the first incumbent: the cheaper of all-ON and the root's
    relaxed dispatch rounded (a unit ON when its relaxed power is above
    0), priced together as the enumeration prices them.  A cost of inf,
    when neither is feasible, means no incumbent."""
    bounds, relaxed = _node_bounds(inst, envelope, np.full((1, inst.n), UNDECIDED))
    candidates = np.array((relaxed[0] > 0.0, np.ones(inst.n, dtype=bool)))
    costs, powers = _dispatch_costs(inst, candidates)
    best = int(costs.argmin())
    return float(bounds[0]), relaxed[0], candidates[best], float(costs[best]), powers[best]


# ---------------------------------------------------------------------------
# brute-force enumeration and the near-optimal set

# commitment rows per enumeration call: at n = 16 a chunk's temporaries
# take about 3 MB; larger chunks are no faster
_CHUNK_ROWS = 1 << 10

# node rows per bound call of the near-optimal search, 2n columns each (n
# at the leaves), so at most half an enumeration chunk.  512 rows were no
# faster, and took the search's peak memory at n = 16 from 1.4 to 2.6 MB.
_BOUND_ROWS = _CHUNK_ROWS // 4


def _check_enumerable(n: int) -> None:
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(f"enumeration guard is N <= {ENUMERATION_GUARD}, got {n}")


def _bits(codes: np.ndarray, n: int) -> np.ndarray:
    """``(rows, n)`` 0/1 unit states of basis indices (unit 0 = LSB)."""
    return (codes[:, None] >> np.arange(n)) & 1


def enumerate_all(inst: UcInstance) -> list[tuple[Commitment, DispatchSolution]]:
    """Dispatch all 2**N commitments, ranked ascending by cost.

    Infeasible commitments sort last; ties break by ascending commitment
    index.  Memory grows as 2**N; guarded at N <= 24 (practical use is
    N <= ~16).
    """
    n = inst.n
    _check_enumerable(n)
    size = 1 << n
    # the chunks are dropped once joined, before the 2**N solutions are built
    chunks = (_dispatch_costs(inst, _bits(np.arange(start, min(start + _CHUNK_ROWS, size)), n)
                              .astype(bool))
              for start in range(0, size, _CHUNK_ROWS))
    costs, powers = (np.concatenate(part) for part in zip(*chunks))
    return [(index_to_bits(k, n), DispatchSolution(powers=powers[k].copy(), cost=float(costs[k])))
            for k in np.argsort(costs, kind="stable").tolist()]


def near_optimal_set(inst: UcInstance, fraction: float = 0.05) -> NearOptimalSet:
    """All feasible commitments with cost <= (1 + fraction) * optimal cost.

    A breadth-first search of the branch-and-bound tree, not a pricing of
    all 2**N commitments.  A frontier row is one basis index: at depth d
    it has fixed the first d units of `_branching_order`, ON where its bit
    is set.  From the root, which `_root_incumbent` has bounded, each level
    splits its rows on the next unit, bounds the children by `_node_bounds`
    and drops those bounded inf or above (1 + fraction) * U, U the root
    incumbent's cost.  At depth N every unit is fixed, so `_node_bounds`
    prices each leaf by `_dispatch_costs`, the enumeration's own call: the
    optimum is the least of the kept bounds, the members the leaves within
    the cutoff.

    This is the enumeration's result bit for bit.  Every bound is
    admissible and U >= optimal, so no ancestor of a member is dropped,
    and a leaf's row is priced as the enumeration prices it, whatever
    rows are beside it.  Permuted copies of a member are members, so no
    symmetry is pruned.  The frontier holds one integer per row; guarded
    at N <= 24 as the enumeration is, for when U is inf and only
    infeasible rows drop.
    """
    fraction = _finite_float(fraction, "fraction", 0)
    n = inst.n
    _check_enumerable(n)
    envelope = _envelope(inst)
    # an ancestor of a member bounds at most its cost, and U >= optimal
    limit = (1.0 + fraction) * _root_incumbent(inst, envelope)[3]
    frontier = np.zeros(1, dtype=np.intp)  # the root: no unit fixed
    fixed = np.zeros(n, dtype=bool)
    for unit in _branching_order(inst):
        frontier = np.concatenate((frontier, frontier | (1 << unit)))
        fixed[unit] = True
        kept, costs = [frontier[:0]], [np.zeros(0)]
        for start in range(0, frontier.size, _BOUND_ROWS):
            rows = frontier[start:start + _BOUND_ROWS]
            bounds = _node_bounds(inst, envelope, np.where(fixed, _bits(rows, n), UNDECIDED))[0]
            keep = (bounds <= limit) & (bounds < math.inf)
            kept.append(rows[keep])
            costs.append(bounds[keep])
        frontier, cost = np.concatenate(kept), np.concatenate(costs)
    if not frontier.size:
        raise InfeasibleError(f"instance {inst.name!r} has no feasible commitment")
    optimal = float(cost.min())
    cutoff = (1.0 + fraction) * optimal
    return NearOptimalSet(members=np.sort(frontier[cost <= cutoff]), optimal_cost=optimal,
                          cutoff=cutoff, n=n)
