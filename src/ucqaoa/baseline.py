"""Classical reference solver: branch-and-bound over commitments.

Exact and gap-tolerance approximate solving of the mixed-binary UC
program.  Nodes fix a subset of units ON or OFF; the bound gives every
undecided unit the convex envelope of its cost on {0} u [p_min, p_max]
(the perspective relaxation, which for one load constraint equals the
Lagrangian bound), and never overestimates any completion.  Branching
splits a node into an ON and an OFF child, and both children are bounded
together as the two rows of one dispatch solve.  A leaf is priced by the
dispatch-and-cost solve that prices a commitment in the economic
dispatch and the enumeration, so its bound is its commitment's dispatch
cost exactly, and no leaf is dispatched twice.
Also hosts the random-instance generator and the runtime-scaling
benchmark behind `bench-classical`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dispatch import (INFEASIBLE_COST, DispatchSolution, _dispatch_costs, _dispatch_rows,
                       economic_dispatch)
from .errors import InfeasibleError, SizeGuardError, ValidationError
from .instance import Commitment, UcInstance, UnitSpec

BNB_GUARD = 40

ON = 1
OFF = 0
UNDECIDED = -1


@dataclass(frozen=True, eq=False, slots=True)
class SolveReport:
    commitment: Commitment
    dispatch: DispatchSolution
    proven_gap: float
    nodes_expanded: int
    wall_time_s: float


def node_lower_bound(inst: UcInstance, fixed: Sequence[int]) -> float:
    """Admissible bound: startup costs of fixed-ON units plus the cost of a
    relaxed dispatch in which each undecided unit may generate anywhere in
    [0, p_max], priced by the convex envelope of its cost (0 at p = 0,
    a + b*p + c*p**2 on [p_min, p_max]) and scaled by (1 - 1e-12).
    Infinite when the node's boxes cannot cover the load.

    A fully fixed node has no relaxation left, so its bound is the
    economic dispatch cost of its commitment, bit for bit: both are rows
    of the same dispatch-and-cost solve.  This is the one-row call of the
    sibling bound `solve_approx` uses, so a node is bounded identically
    alone and beside its sibling.  Every entry must be UNDECIDED, OFF or
    ON."""
    states = np.asarray(fixed)
    if states.size != inst.n:
        raise ValidationError(f"partial assignment has {states.size} entries, expected {inst.n}")
    known = (states == UNDECIDED) | (states == OFF) | (states == ON)
    if not known.all():
        raise ValidationError(
            f"node states must be {UNDECIDED} (undecided), {OFF} (OFF) or {ON} (ON), "
            f"got {states[~known].tolist()}"
        )
    return float(_node_bounds(inst, states[None])[0])


def _node_bounds(inst: UcInstance, states: np.ndarray) -> np.ndarray:
    """`node_lower_bound` of every row of a ``(k, n)`` state array.

    An undecided unit's cost, 0 at p = 0 and a + b*p + c*p**2 on
    [p_min, p_max], is replaced by its convex envelope: the chord from the
    origin to p* = clip(sqrt(a/c), p_min, p_max), where the mean cost
    f(p)/p is least, then f itself up to p_max.  Its marginal cost never
    falls, so the dispatch kernel prices it as two virtual units, a c = 0
    unit at f(p*)/p* on [0, p*] and a tail with marginal b + 2c*p* + 2c*q
    on [0, p_max - p*].  Decided units keep their boxes and a [0, 0] tail.
    The chord lies below f, so the relaxed dispatch bounds every
    completion in exact arithmetic.  The 2n-column solve rounds apart from
    a leaf's n-column one, so a bound with undecided units is scaled by
    (1 - 1e-12), well above that rounding and well below any search gap.
    Rows that are all commitments are priced by the economic dispatch's
    own call; the two children of a node are both commitments or neither."""
    on, off = states == ON, states == OFF
    free = ~(on | off)
    if not free.any():
        return _dispatch_costs(inst, on)[0]
    a, b, c, lo, hi = inst.coeff_arrays
    # a/c past the largest float is inf, so p* = p_max; a/p* past it is
    # capped there, not inf
    with np.errstate(over="ignore"):
        # p*, where the mean cost f(p)/p is least; p_max for a linear unit
        ratio = np.divide(a, c, out=np.full(inst.n, math.inf), where=c > 0)
        knee = np.minimum(np.maximum(np.sqrt(ratio), lo), hi)
        mean = np.minimum(np.divide(a, knee, out=np.zeros(inst.n), where=knee > 0) + b + c * knee,
                          np.finfo(float).max)
    zero = np.zeros(states.shape)
    box_lo, box_hi = np.where(on, lo, 0.0), np.where(off, 0.0, hi)
    # each unit's box (an undecided unit's chord), then each unit's tail
    startup = np.concatenate((np.where(on, a, 0.0), zero), axis=1)
    price = np.concatenate((np.where(free, mean, b), zero + (b + 2.0 * c * knee)), axis=1)
    curve = np.concatenate((np.where(free, 0.0, c), zero + c), axis=1)
    col_lo = np.concatenate((box_lo, zero), axis=1)
    col_hi = np.concatenate((np.where(free, knee, box_hi), np.where(free, hi - knee, 0.0)), axis=1)
    p = _dispatch_rows(price, curve, col_lo, col_hi, inst.load)[0]
    # feasibility from the n box sums, not the 2n columns' sums, which
    # round in another order: a completion's sums lie within these, so a
    # node called infeasible has no feasible completion
    feasible = (box_lo.sum(axis=1) <= inst.load) & (box_hi.sum(axis=1) >= inst.load)
    cost = (startup + price * p + curve * p * p).sum(axis=1)
    return np.where(feasible, cost * (1.0 - 1e-12), INFEASIBLE_COST)


def solve_approx(inst: UcInstance, gap: float) -> SolveReport:
    """Best-first branch and bound, stopping once the incumbent is provably
    within `gap` of the optimum: incumbent <= (1 + gap) * lower bound.

    The all-ON commitment is the first incumbent, so a search whose root
    bound already proves it within `gap` stops with no node expanded."""
    if not 0 <= gap < math.inf:  # rejects nan too
        raise ValidationError(f"gap must be finite and >= 0, got {gap}")
    if inst.n > BNB_GUARD:
        raise SizeGuardError(f"instance has {inst.n} units, solver guard is {BNB_GUARD}")

    start = time.perf_counter()
    hi = inst.coeff_arrays[4]

    # the all-ON commitment is the first incumbent when it covers the load
    incumbent_cost = float(_node_bounds(inst, np.full((1, inst.n), ON))[0])
    incumbent: Optional[Commitment] = (1,) * inst.n if incumbent_cost < math.inf else None

    # the unit with the largest p_max is branched on first, lowest index
    # first among ties; every node at depth d has fixed order[:d] exactly
    order = sorted(range(inst.n), key=lambda i: (-hi[i], i))
    root = np.full(inst.n, UNDECIDED)
    counter = itertools.count()
    # (bound, tie-break, depth, states), keyed on the node's own bound; a
    # leaf's is its commitment's dispatch cost.  Raising a key to the
    # parent's bound, which can round one ulp above a leaf, could pop the
    # dearer of two tied leaves first and stop there.
    heap = [(node_lower_bound(inst, root), next(counter), 0, root)]
    nodes_expanded = 0
    final_lb = math.inf

    while heap:
        bound, _, depth, fixed = heapq.heappop(heap)
        final_lb = bound
        if incumbent_cost <= (1.0 + gap) * bound:
            break
        nodes_expanded += 1
        if depth == inst.n:
            if bound < incumbent_cost:
                incumbent_cost = bound
                incumbent = tuple(int(s == ON) for s in fixed)
            continue
        children = np.array((fixed, fixed))
        children[:, order[depth]] = (ON, OFF)
        for child, child_bound in zip(children, _node_bounds(inst, children).tolist()):
            if incumbent_cost <= (1.0 + gap) * child_bound:
                continue
            heapq.heappush(heap, (child_bound, next(counter), depth + 1, child))
    else:
        final_lb = incumbent_cost  # tree exhausted: the incumbent is optimal

    if incumbent is None:
        raise InfeasibleError(
            f"no feasible commitment covers load {inst.load} "
            f"(total capacity {float(hi.sum())})"
        )
    if incumbent_cost == 0.0:
        proven_gap = 0.0
    else:
        proven_gap = max(0.0, (incumbent_cost - final_lb) / incumbent_cost)
    return SolveReport(
        commitment=incumbent,
        dispatch=economic_dispatch(inst, incumbent),
        proven_gap=proven_gap,
        nodes_expanded=nodes_expanded,
        wall_time_s=time.perf_counter() - start,
    )


def solve_exact(inst: UcInstance) -> SolveReport:
    """Branch and bound run to a proven gap of zero."""
    return solve_approx(inst, 0.0)


def random_instance(n: int, rng=None) -> UcInstance:
    """Scaling-benchmark generator; ranges bracket the builtin 10-unit data.

    p_max ~ U[50, 500], p_min = U[0.1, 0.4] * p_max, a ~ U[300, 1100],
    b ~ U[15, 30], c ~ U[3e-4, 8e-3], load = half of total capacity.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    p_max = rng.uniform(50.0, 500.0, n)
    p_min = rng.uniform(0.1, 0.4, n) * p_max
    a = rng.uniform(300.0, 1100.0, n)
    b = rng.uniform(15.0, 30.0, n)
    c = rng.uniform(3e-4, 8e-3, n)
    units = tuple(
        UnitSpec(p_min=float(p_min[i]), p_max=float(p_max[i]),
                 a=float(a[i]), b=float(b[i]), c=float(c[i]))
        for i in range(n)
    )
    return UcInstance(units=units, load=0.5 * float(p_max.sum()), name=f"random-{n}")


def scaling_benchmark(
    sizes: Sequence[int],
    trials: int = 5,
    gap: float = 0.08,
    seed: int = 0,
) -> list[tuple[int, str, float, float, float]]:
    """Rows of (n, mode, median_ms, cost, nodes_expanded) for exact and
    approximate modes; cost and nodes_expanded are medians too.

    One shared instance stream per size keeps exact/approx comparisons
    paired, and each draw is solved exactly and then approximately before
    the next, so a drift in host speed falls on both modes alike.  Node
    counts are the noise-free measure of the search work; the timings are
    real wall-clock medians.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, str, float, float, float]] = []
    for n in sizes:
        runs: dict[str, list[tuple[float, float, int]]] = {"exact": [], "approx": []}
        for inst in [random_instance(n, rng) for _ in range(trials)]:
            for mode, results in runs.items():
                t0 = time.perf_counter()
                report = solve_exact(inst) if mode == "exact" else solve_approx(inst, gap)
                results.append(((time.perf_counter() - t0) * 1e3, report.dispatch.cost,
                                report.nodes_expanded))
        for mode, results in runs.items():
            times_ms, costs, nodes = zip(*results)
            rows.append((n, mode, statistics.median(times_ms), statistics.median(costs),
                         float(statistics.median(nodes))))
    return rows
