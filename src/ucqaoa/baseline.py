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
cost exactly.  The first incumbent is the root relaxation rounded to a
commitment, or all-ON when that is cheaper, so a search with a gap of a
few percent usually stops at the root.  The report's dispatch is the row
that priced the incumbent, so no commitment is dispatched twice.  The
bound, the branching order and the root incumbent live in `dispatch`,
whose near-optimal search prunes with them too.
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

from .dispatch import (OFF, ON, UNDECIDED, DispatchSolution, _branching_order, _envelope,
                       _node_bounds, _root_incumbent)
from .errors import InfeasibleError, ValidationError
from .instance import Commitment, UcInstance, UnitSpec, _count, _finite_float, _finite_vector


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
    states = _finite_vector(fixed, "node states", inst.n)
    known = (states == UNDECIDED) | (states == OFF) | (states == ON)
    if not known.all():
        raise ValidationError(
            f"node states must be {UNDECIDED} (undecided), {OFF} (OFF) or {ON} (ON), "
            f"got {states[~known].tolist()}"
        )
    return float(_node_bounds(inst, _envelope(inst), states[None])[0][0])


def solve_approx(inst: UcInstance, gap: float) -> SolveReport:
    """Best-first branch and bound, stopping once the incumbent is provably
    within `gap` of the optimum: incumbent <= (1 + gap) * lower bound.

    The first incumbent is `dispatch._root_incumbent`'s, the root
    relaxation rounded or all-ON, so a search whose root bound already
    proves it within `gap` stops with no node expanded.  Every bound stays
    admissible, so the optimal cost is what the search finds whatever its
    first incumbent; among commitments of exactly equal cost, which one is
    returned can depend on it.
    The report's dispatch is the incumbent's own row of the solve that
    priced it, root pair or leaf, so the answer is not solved again; a
    row's result does not depend on the rows beside it, so it is bit for
    bit the economic dispatch of the commitment.

    There is no size limit: memory is O(nodes * n), not O(2**n), and a
    random_instance draw of 400 units takes about n + 1 nodes.  The worst
    case is a fleet of identical units, whose C(n, k) permuted commitments
    tie exactly, so the tree is exponential whatever the bound."""
    gap = _finite_float(gap, "gap", 0)

    start = time.perf_counter()
    envelope = _envelope(inst)
    root_bound, relaxed, on, incumbent_cost, incumbent_powers = _root_incumbent(inst, envelope)
    # an infeasible candidate costs inf and is never the incumbent
    incumbent: Optional[Commitment] = (tuple(on.astype(int).tolist())
                                       if incumbent_cost < math.inf else None)
    order = _branching_order(inst)
    counter = itertools.count()
    # (bound, tie-break, depth, states, powers), keyed on the node's own
    # bound; a leaf's is its commitment's dispatch cost, and its powers
    # that dispatch.  Raising a key to the parent's bound, which can round
    # one ulp above a leaf, could pop the dearer of two tied leaves first
    # and stop there.
    heap = [(root_bound, next(counter), 0, np.full(inst.n, UNDECIDED), relaxed)]
    nodes_expanded = 0
    final_lb = math.inf

    while heap:
        bound, _, depth, fixed, node_powers = heapq.heappop(heap)
        final_lb = bound
        if incumbent_cost <= (1.0 + gap) * bound:
            break
        nodes_expanded += 1
        if depth == inst.n:
            if bound < incumbent_cost:
                incumbent_cost = bound
                incumbent = tuple(int(s == ON) for s in fixed)
                incumbent_powers = node_powers
            continue
        children = np.array((fixed, fixed))
        children[:, order[depth]] = (ON, OFF)
        child_bounds, child_powers = _node_bounds(inst, envelope, children)
        for child, child_bound, p in zip(children, child_bounds.tolist(), child_powers):
            if incumbent_cost <= (1.0 + gap) * child_bound:
                continue
            heapq.heappush(heap, (child_bound, next(counter), depth + 1, child, p))
    else:
        final_lb = incumbent_cost  # tree exhausted: the incumbent is optimal

    if incumbent is None:
        raise InfeasibleError(
            f"no feasible commitment covers load {inst.load} "
            f"(total capacity {float(inst.coeff_arrays[4].sum())})"
        )
    if incumbent_cost == 0.0:
        proven_gap = 0.0
    else:
        proven_gap = max(0.0, (incumbent_cost - final_lb) / incumbent_cost)
    return SolveReport(
        commitment=incumbent,
        # a copy, so the report does not keep the row array alive
        dispatch=DispatchSolution(powers=incumbent_powers.copy(), cost=incumbent_cost,
                                  feasible=True),
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
    n = _count(n, "n", 1)
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    p_max = rng.uniform(50.0, 500.0, n)
    p_min = rng.uniform(0.1, 0.4, n) * p_max
    a = rng.uniform(300.0, 1100.0, n)
    b = rng.uniform(15.0, 30.0, n)
    c = rng.uniform(3e-4, 8e-3, n)
    units = tuple(UnitSpec(*row) for row in zip(p_min, p_max, a, b, c))
    return UcInstance(units=units, load=0.5 * p_max.sum(), name=f"random-{n}")


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
    medians of each report's own wall_time_s.
    """
    sizes = [_count(n, f"sizes[{i}]", 1) for i, n in enumerate(sizes)]
    if not sizes:
        raise ValidationError("sizes must name at least one size, got none")
    trials, gap = _count(trials, "trials", 1), _finite_float(gap, "gap", 0)
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, str, float, float, float]] = []
    for n in sizes:
        runs: dict[str, list[tuple[float, float, int]]] = {"exact": [], "approx": []}
        for inst in [random_instance(n, rng) for _ in range(trials)]:
            for mode, results in runs.items():
                report = solve_exact(inst) if mode == "exact" else solve_approx(inst, gap)
                results.append((report.wall_time_s * 1e3, report.dispatch.cost,
                                report.nodes_expanded))
        for mode, results in runs.items():
            times_ms, costs, nodes = zip(*results)
            rows.append((n, mode, statistics.median(times_ms), statistics.median(costs),
                         float(statistics.median(nodes))))
    return rows
