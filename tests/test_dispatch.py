import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import instances
from oracles import all_commitments, bisection_dispatch_rows, check_feasible, dispatch_grid_oracle
from ucqaoa import dispatch
from ucqaoa.baseline import random_instance, solve_exact
from ucqaoa.dispatch import (
    _SEARCH_ELEMENTS,
    INFEASIBLE_COST,
    _dispatch_rows,
    _envelope,
    _probes_every_breakpoint,
    _root_incumbent,
    _search_plan,
    economic_dispatch,
    enumerate_all,
    near_optimal_set,
)
from ucqaoa.errors import InfeasibleError, SizeGuardError, ValidationError
from ucqaoa.instance import (
    UcInstance,
    UnitSpec,
    bits_to_index,
    builtin_ten_unit,
)


def _inst(units, load):
    return UcInstance(units=tuple(UnitSpec(*u) for u in units), load=load)


# ---------------------------------------------------------------------------
# economic_dispatch


def test_single_unit_forced_to_load():
    inst = _inst([(10.0, 50.0, 5.0, 2.0, 0.1)], load=30.0)
    sol = economic_dispatch(inst, (1,))
    assert sol.feasible
    assert sol.powers[0] == pytest.approx(30.0, abs=1e-4)
    assert sol.cost == pytest.approx(5.0 + 2.0 * 30 + 0.1 * 900, rel=1e-6)


def test_two_identical_units_split_evenly():
    u = (10.0, 100.0, 7.0, 3.0, 0.05)
    inst = _inst([u, u], load=120.0)
    sol = economic_dispatch(inst, (1, 1))
    assert sol.feasible
    assert sol.powers[0] == pytest.approx(60.0, abs=1e-3)
    assert sol.powers[1] == pytest.approx(60.0, abs=1e-3)


def test_all_off_with_positive_load_is_infeasible():
    inst = _inst([(10.0, 50.0, 5.0, 2.0, 0.1)], load=30.0)
    sol = economic_dispatch(inst, (0,))
    assert not sol.feasible
    assert sol.cost == INFEASIBLE_COST
    assert math.isinf(sol.cost)


def test_load_outside_joint_boxes_is_infeasible():
    inst = _inst([(10.0, 50.0, 5.0, 2.0, 0.1)], load=30.0)
    with pytest.warns(UserWarning):
        over = inst.with_load(60.0)
    assert not economic_dispatch(over, (1,)).feasible
    assert not economic_dispatch(inst.with_load(5.0), (1,)).feasible


def test_table_units_1_2_against_grid():
    commit = (1, 1) + (0,) * 8
    # 300 and 910 MW are the two units' summed p_min and p_max
    for load in (700.0, 300.0, 910.0):
        inst = builtin_ten_unit(load)
        fast = economic_dispatch(inst, commit)
        slow = dispatch_grid_oracle(inst, commit, resolution=0.01)
        assert fast.feasible and slow.feasible
        assert fast.cost <= slow.cost + 1e-3 * slow.cost
        assert fast.cost == pytest.approx(slow.cost, rel=1e-3)
        assert fast.powers.sum() == pytest.approx(load, abs=load * 1e-5)


@pytest.mark.parametrize("units, load, expected", [
    # unit 0 has p_min == p_max: it holds 40 MW and the others share the rest
    ([(40.0, 40.0, 5.0, 20.0, 0.01), (10.0, 100.0, 7.0, 3.0, 0.05),
      (20.0, 80.0, 6.0, 4.0, 0.02)], 120.0, {0: 40.0}),
    # the load falls in the jump of the step unit 1 at marginal cost 15,
    # where unit 0's ramp has reached 50 MW
    ([(0.0, 100.0, 0.0, 10.0, 0.05), (0.0, 100.0, 0.0, 15.0, 0.0)], 80.0, {0: 50.0, 1: 30.0}),
    # 0.5/c overflows for unit 0; its ramp at its own breakpoint must read
    # 0 * slope = 0, not 0 * inf = nan.  Alone, unit 0 meets the load for 10
    ([(0.0, 100.0, 10.0, 0.0, 1e-310), (0.0, 100.0, 20.0, 5.0, 0.01)], 50.0, {0: 50.0, 1: 0.0}),
], ids=["fixed_output", "load_in_jump", "subnormal_curvature"])
def test_degenerate_units_against_grid(units, load, expected):
    inst = _inst(units, load=load)
    commit = (1,) * inst.n
    fast = economic_dispatch(inst, commit)
    slow = dispatch_grid_oracle(inst, commit, resolution=0.01)
    assert fast.feasible and slow.feasible
    for i, power in expected.items():
        assert fast.powers[i] == pytest.approx(power, abs=1e-9)
    assert fast.cost <= slow.cost + 1e-9 * slow.cost
    assert fast.cost == pytest.approx(slow.cost, rel=1e-3)
    assert solve_exact(inst).dispatch.cost == enumerate_all(inst)[0][1].cost


def test_step_units_fill_lowest_index_first():
    # identical zero-curvature units: the tie resolves to unit 0 first
    u = (0.0, 50.0, 1.0, 4.0, 0.0)
    inst = _inst([u, u], load=70.0)
    sol = economic_dispatch(inst, (1, 1))
    assert sol.feasible
    assert sol.powers[0] == pytest.approx(50.0, abs=1e-6)
    assert sol.powers[1] == pytest.approx(20.0, abs=1e-6)
    # three tied units above p_min = 10; the costlier step unit keeps p_min
    v = (10.0, 50.0, 1.0, 4.0, 0.0)
    inst = _inst([v, (5.0, 30.0, 1.0, 9.0, 0.0), v, v], load=105.0)
    sol = economic_dispatch(inst, (1, 1, 1, 1))
    assert sol.feasible
    np.testing.assert_allclose(sol.powers, [50.0, 5.0, 40.0, 10.0], rtol=0, atol=1e-6)


def test_off_units_hold_zero_power():
    inst = builtin_ten_unit(400.0)
    commit = (1, 0, 1) + (0,) * 7
    sol = economic_dispatch(inst, commit)
    assert sol.feasible
    off = [i for i, y in enumerate(commit) if y == 0]
    assert np.all(sol.powers[off] == 0.0)


@given(st.one_of(instances(max_units=6), instances(max_units=6, degenerate=True)), st.data())
@settings(max_examples=40)
def test_dispatch_meets_load_exactly(inst, data):
    # the breakpoint solve leaves rounding error only: 1e-9*L covers the
    # load residual and the box limits of every feasible dispatch
    commit = tuple(data.draw(st.integers(0, 1)) for _ in range(inst.n))
    sol = economic_dispatch(inst, commit)
    if sol.feasible:
        assert check_feasible(inst, commit, sol.powers, tol=1e-9).feasible
    for bits, sol in enumerate_all(inst):
        if sol.feasible:
            assert check_feasible(inst, bits, sol.powers, tol=1e-9).feasible


def test_near_linear_units_meet_load_exactly():
    # curvatures 14 orders of magnitude apart, near-linear units tied at b
    inst = _inst([(20.0, 50.0, 5.0, 21.0, 5e-3), (0.0, 100.0, 5.0, 18.0, 1e-17),
                  (10.0, 50.0, 5.0, 20.0, 1e-16), (0.0, 100.0, 5.0, 18.0, 1e-16)], load=250.0)
    for bits, sol in enumerate_all(inst):
        if sol.feasible:
            assert check_feasible(inst, bits, sol.powers, tol=1e-9).feasible


@given(instances(min_units=1, max_units=6, degenerate=True), st.data())
def test_dispatch_first_order_conditions(inst, data):
    commit = tuple(data.draw(st.integers(0, 1)) for _ in range(inst.n))
    sol = economic_dispatch(inst, commit)
    if not sol.feasible:
        return
    _, b, c, lo, hi = inst.coeff_arrays
    # a unit with p_min == p_max has a fixed output and no price condition
    on = [i for i, y in enumerate(commit) if y and lo[i] < hi[i]]
    assert sol.powers.sum() == pytest.approx(inst.load, abs=1e-6 * inst.load + 1e-9)
    marginals = [b[i] + 2 * c[i] * sol.powers[i] for i in on]
    eps = 1e-7 * max(1.0, max(hi))
    interior = [m for i, m in zip(on, marginals)
                if lo[i] + eps < sol.powers[i] < hi[i] - eps]
    if len(interior) > 1:
        lam = interior[0]
        for m in interior[1:]:
            assert m == pytest.approx(lam, rel=1e-6, abs=1e-6)
    # clipped units sit on the correct side of the shared marginal price
    if interior:
        lam = interior[0]
        for i, m in zip(on, marginals):
            if sol.powers[i] >= hi[i] - eps:
                assert m <= lam + 1e-6 * max(1.0, abs(lam))
            elif sol.powers[i] <= lo[i] + eps:
                assert m >= lam - 1e-6 * max(1.0, abs(lam))


def test_economic_dispatch_powers_own_their_memory():
    sol = economic_dispatch(builtin_ten_unit(700.0), (1,) * 10)
    assert sol.powers.base is None and sol.powers.shape == (10,)
    assert not hasattr(sol, "__dict__")


@pytest.mark.parametrize("commit", [
    (-1, 1) + (0,) * 8,
    (2, 1) + (0,) * 8,
    (0.5, 1) + (0,) * 8,
    [[1]] * 10,
    1,
    [[1], [1, 1]] + [0] * 8,
], ids=["minus-one", "two", "half", "nested", "scalar", "ragged"])
def test_economic_dispatch_rejects_non_binary_commitment(commit):
    with pytest.raises(ValidationError, match="0 or 1"):
        economic_dispatch(builtin_ten_unit(700.0), commit)


def test_economic_dispatch_accepts_numpy_ints_and_bools():
    inst = builtin_ten_unit(700.0)
    commit = (1, 1, 1) + (0,) * 7
    want = economic_dispatch(inst, commit)
    for same in (np.array(commit), np.array(commit, dtype=np.int8), np.array(commit, dtype=bool),
                 tuple(bool(y) for y in commit)):
        got = economic_dispatch(inst, same)
        assert got.cost == want.cost and got.powers.tobytes() == want.powers.tobytes()


# ---------------------------------------------------------------------------
# the breakpoint search against plain bisection

_ROW_COUNTS = (1, 2, 7, 64, 1024)

# column counts of the bisection comparison; at 33 one row no longer
# probes every breakpoint at once
_WIDTHS = (*range(1, 25), 33)


def _degenerate_boxes(rng, rows, n):
    """(b, c, lo, hi) of ``rows`` rows of n units, with the cases the
    instance generators never draw: step units (c = 0), fixed outputs
    (p_min = p_max), OFF units (a [0, 0] box), units tied at one marginal
    cost, a duplicated unit, and a last row of OFF units alone."""
    b = rng.uniform(15.0, 30.0, n)
    c = rng.uniform(3e-4, 8e-3, n)
    c[rng.random(n) < 0.25] = 0.0
    b[rng.random(n) < 0.25] = b[0]
    hi = rng.uniform(10.0, 400.0, (rows, n))
    lo = rng.uniform(0.0, 0.4, (rows, n)) * hi
    fixed = rng.random((rows, n)) < 0.2
    lo[fixed] = hi[fixed]
    off = rng.random((rows, n)) < 0.2
    lo[off] = hi[off] = 0.0
    if n > 1:  # unit n - 1 repeats unit 0, so every breakpoint is doubled
        b[-1], c[-1], lo[:, -1], hi[:, -1] = b[0], c[0], lo[:, 0], hi[:, 0]
    if rows > 1:
        lo[-1] = hi[-1] = 0.0
    return b, c, lo, hi


def _loads(b, c, lo, hi):
    """Loads for row 0: inside its range, at its lowest breakpoint, exactly
    at a middle breakpoint's supply, exactly at its capacity; and one that
    no row covers."""
    lam_lo, lam_hi = b + 2.0 * c * lo[0], b + 2.0 * c * hi[0]
    lam = np.sort(np.concatenate((lam_lo, lam_hi)))[len(lam_lo)]
    slope = np.divide(0.5, c, out=np.zeros(len(c)), where=c > 0)
    ramp = np.minimum(np.maximum(lo[0] + (lam - lam_lo) * slope, lo[0]), hi[0])
    at_breakpoint = float(np.where(lam >= lam_hi, hi[0], ramp).sum())
    return (0.5 * float(lo[0].sum() + hi[0].sum()), float(lo[0].sum()), at_breakpoint,
            float(hi[0].sum()), 1.01 * float(hi.sum(axis=1).max()) + 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", _ROW_COUNTS)
def test_search_matches_bisection_bit_for_bit(rows):
    # every (rows, n) here probes every breakpoint at once or runs its own
    # k and step count, padding included; each row count takes both paths
    assert {_probes_every_breakpoint(rows, n) for n in _WIDTHS} == {True, False}
    rng = np.random.default_rng(rows)
    for n in _WIDTHS:
        b, c, lo, hi = _degenerate_boxes(rng, rows, n)
        for load in _loads(b, c, lo, hi):
            powers, feasible = _dispatch_rows(b, c, lo, hi, load)
            want_powers, want_feasible = bisection_dispatch_rows(b, c, lo, hi, load)
            assert powers.tobytes() == want_powers.tobytes(), (n, load)
            assert np.array_equal(feasible, want_feasible), (n, load)


@pytest.mark.parametrize("rows", _ROW_COUNTS)
def test_search_plan_takes_fewest_steps_within_budget(rows):
    for n in range(1, 25):
        steps = _search_plan(rows, n)
        k = len(steps[0][1])
        widest = max(1, min(2 * n - 1, _SEARCH_ELEMENTS // (rows * n)))
        assert 1 <= k <= widest
        assert (k + 1) ** len(steps) >= 2 * n > k ** len(steps)  # fewest probes
        assert (widest + 1) ** (len(steps) - 1) < 2 * n  # fewest steps
        assert [gap for gap, _ in steps] == [(k + 1) ** s for s in reversed(range(len(steps)))]


def test_search_plan_serves_its_callers():
    # a B&B node bounds two rows and a commitment one: one step at n = 10;
    # an enumeration chunk bisects
    assert len(_search_plan(2, 10)) == len(_search_plan(1, 10)) == 1
    assert all(len(_search_plan(2, n)) <= 2 for n in range(1, 25))
    assert all(len(_search_plan(1024, n)[0][1]) == 1 for n in range(1, 25))


def _takes_one_probe(monkeypatch, rows, n):
    """Whether `_dispatch_rows` solves ``rows`` rows of n columns without
    consulting `_search_plan`, checked against `_probes_every_breakpoint`."""
    planned = []
    monkeypatch.setattr(dispatch, "_search_plan",
                        lambda *shape: planned.append(shape) or _search_plan(*shape))
    b, c, lo, hi = _degenerate_boxes(np.random.default_rng(rows), rows, n)
    _dispatch_rows(b, c, lo, hi, 0.5 * float(lo[0].sum() + hi[0].sum()))
    monkeypatch.undo()
    assert _probes_every_breakpoint(rows, n) == (not planned), (rows, n)
    return not planned


def test_small_calls_probe_every_breakpoint_at_once(monkeypatch):
    # at n units a B&B node's two children are 2 rows of 2n columns, the
    # root 1 row of 2n, a pair of leaves 2 rows of n
    units = range(1, 25)
    assert [n for n in units if _takes_one_probe(monkeypatch, 2, 2 * n)] == list(range(1, 12))
    assert [n for n in units if _takes_one_probe(monkeypatch, 1, 2 * n)] == list(range(1, 17))
    assert [n for n in units if _takes_one_probe(monkeypatch, 2, n)] == list(range(1, 23))
    # the near-optimal search bounds 256 rows from 8 units on (2n columns
    # inside, n at the leaves); the enumeration prices 1024 from 10 units
    assert not any(_takes_one_probe(monkeypatch, 256, m) for n in range(8, 25) for m in (n, 2 * n))
    assert not any(_takes_one_probe(monkeypatch, 1024, n) for n in range(10, 25))
    # a node's children at 400 and 1600 units bisect
    assert all(len(_search_plan(2, 2 * n)[0][1]) == 1 for n in (400, 1600))


# ---------------------------------------------------------------------------
# grid oracle


def test_grid_oracle_single_unit_matches_dispatch():
    # a lone ON unit carries the whole load in both solvers, so the costs
    # agree to rounding
    inst = _inst([(10.0, 50.0, 5.0, 2.0, 0.1)], load=30.0)
    fast = economic_dispatch(inst, (1,))
    slow = dispatch_grid_oracle(inst, (1,))
    assert slow.feasible
    assert slow.cost == pytest.approx(fast.cost, rel=1e-5)


def test_grid_oracle_symmetric_split():
    u = (10.0, 100.0, 7.0, 3.0, 0.05)
    inst = _inst([u, u], load=120.0)
    slow = dispatch_grid_oracle(inst, (1, 1), resolution=0.01)
    assert slow.feasible
    assert slow.powers[0] == pytest.approx(60.0, abs=0.02)


def test_grid_oracle_rejects_four_on_units():
    inst = builtin_ten_unit()
    with pytest.raises(SizeGuardError):
        dispatch_grid_oracle(inst, (1, 1, 1, 1) + (0,) * 6)


def test_grid_oracle_infeasible_commitment():
    inst = _inst([(10.0, 50.0, 5.0, 2.0, 0.1)], load=30.0)
    sol = dispatch_grid_oracle(inst, (0,))
    assert not sol.feasible


# ---------------------------------------------------------------------------
# enumerate_all


def test_enumerate_single_unit():
    inst = _inst([(10.0, 50.0, 5.0, 2.0, 0.1)], load=30.0)
    entries = enumerate_all(inst)
    assert len(entries) == 2
    (bits0, sol0), (bits1, sol1) = entries
    assert bits0 == (1,) and sol0.feasible
    assert sol0.cost == pytest.approx(5.0 + 60.0 + 90.0, rel=1e-6)
    assert bits1 == (0,) and not sol1.feasible


def test_enumerate_ranking_fixed_cost_tradeoff():
    # L coverable by one unit alone: both-ON pays the second fixed cost a,
    # recovering only the convexity savings of splitting the load
    u = (5.0, 100.0, 50.0, 1.0, 0.01)
    inst = _inst([u, u], load=80.0)
    entries = enumerate_all(inst)
    costs = {bits: sol.cost for bits, sol in entries}
    split_savings = (1.0 * 80 + 0.01 * 80**2) - 2 * (1.0 * 40 + 0.01 * 40**2)
    assert split_savings < 50.0
    assert costs[(1, 0)] < costs[(1, 1)]
    assert entries[0][0] == (1, 0)  # ties (10 vs 01) break by ascending index


def test_enumerate_length_and_order_properties():
    inst = builtin_ten_unit(700.0)
    entries = enumerate_all(inst)
    assert len(entries) == 1024
    costs = [sol.cost for _, sol in entries]
    feas = [sol.feasible for _, sol in entries]
    # ascending among feasible, infeasible strictly last
    k = feas.index(False) if False in feas else len(entries)
    assert all(costs[i] <= costs[i + 1] for i in range(k - 1))
    assert not any(feas[k:])
    idx = [bits_to_index(bits) for (bits, _) in entries[k:]]
    assert idx == sorted(idx)


@given(instances(min_units=1, max_units=6, degenerate=True))
@example(builtin_ten_unit(700.0))
@settings(max_examples=30)
def test_enumerate_matches_scalar_dispatch(inst):
    # a commitment dispatched alone and its enumeration row share one
    # dispatch-and-cost solve, so they agree bit for bit on every row
    entries = enumerate_all(inst)
    assert len(entries) == 1 << inst.n
    for bits, sol in entries:
        again = economic_dispatch(inst, bits)
        assert again.feasible == sol.feasible
        assert again.cost == sol.cost
        assert again.powers.tobytes() == sol.powers.tobytes()


def test_enumeration_guard():
    u = UnitSpec(p_min=0.0, p_max=10.0, a=1.0, b=1.0, c=0.01)
    inst = UcInstance(units=(u,) * 25, load=100.0)
    with pytest.raises(SizeGuardError):
        enumerate_all(inst)


def test_enumerate_handles_zero_curvature_units():
    mixed = [(0.0, 60.0, 3.0, 5.0, 0.0), (10.0, 50.0, 4.0, 6.0, 0.02)]
    # every unit has c = 0; units 0 and 2 tie at b = 5 with p_min > 0
    steps = [(5.0, 60.0, 3.0, 5.0, 0.0), (10.0, 50.0, 4.0, 6.0, 0.0),
             (5.0, 40.0, 2.0, 5.0, 0.0)]
    for units in (mixed, steps):
        inst = _inst(units, load=70.0)
        entries = enumerate_all(inst)
        best_bits, best = entries[0]
        assert best.feasible
        scalar = {bits: economic_dispatch(inst, bits) for bits in all_commitments(inst.n)}
        manual = min(s.cost for s in scalar.values() if s.feasible)
        assert best.cost == pytest.approx(manual, rel=1e-9)
        for bits, sol in entries:
            assert scalar[bits].feasible == sol.feasible
            if sol.feasible:
                assert scalar[bits].cost == pytest.approx(sol.cost, rel=1e-9)


# ---------------------------------------------------------------------------
# near_optimal_set


def test_near_optimal_fraction_zero_is_optimal_set():
    u = (10.0, 100.0, 7.0, 3.0, 0.05)
    inst = _inst([u, u], load=120.0)
    nos = near_optimal_set(inst, 0.0)
    assert list(nos.members) == [3]
    assert nos.cutoff == nos.optimal_cost


def test_near_optimal_huge_fraction_takes_all_feasible():
    inst = builtin_ten_unit(700.0)
    nos = near_optimal_set(inst, 1e9)
    entries = enumerate_all(inst)
    n_feasible = sum(sol.feasible for _, sol in entries)
    assert len(nos.members) == n_feasible


def test_near_optimal_both_needed():
    u = (10.0, 50.0, 5.0, 2.0, 0.1)
    inst = _inst([u, u], load=80.0)
    nos = near_optimal_set(inst, 0.05)
    assert list(nos.members) == [3]
    assert nos.n == 2


def test_near_optimal_monotone_in_fraction():
    inst = builtin_ten_unit(700.0)
    small = near_optimal_set(inst, 0.02)
    large = near_optimal_set(inst, 0.10)
    assert np.isin(small.members, large.members).all()
    best = enumerate_all(inst)[0]
    assert bits_to_index(best[0]) in small.members


def _check_against_enumeration(inst, fraction):
    """near_optimal_set's fields equal those derived from the ranked enumeration."""
    feasible = [(bits_to_index(bits), sol.cost) for bits, sol in enumerate_all(inst) if sol.feasible]
    if not feasible:
        with pytest.raises(InfeasibleError):
            near_optimal_set(inst, fraction)
        return
    nos = near_optimal_set(inst, fraction)
    optimal = feasible[0][1]
    cutoff = (1.0 + fraction) * optimal
    assert nos.optimal_cost == optimal
    assert nos.cutoff == cutoff
    assert np.array_equal(nos.members, sorted(k for k, cost in feasible if cost <= cutoff))


@pytest.mark.parametrize("make", [
    lambda: builtin_ten_unit(700.0),
    lambda: random_instance(12, rng=0),
    lambda: random_instance(14, rng=0),
], ids=["builtin", "random-12", "random-14"])
def test_near_optimal_matches_enumeration(make):
    inst = make()
    for fraction in (0.0, 0.05, 0.5):
        _check_against_enumeration(inst, fraction)


@given(instances(degenerate=True), st.sampled_from([0.0, 0.05, 1.0]))
@example(_inst([(40.0, 40.0, 5.0, 2.0, 0.1)] * 4, load=100.0), 0.05)  # no sum of 40s is 100
@settings(max_examples=60)
def test_near_optimal_matches_enumeration_degenerate(inst, fraction):
    _check_against_enumeration(inst, fraction)


def _wide_draw():
    """The hybrid-wide benchmark input: 16 units, 439 members at 5%."""
    return random_instance(16, np.random.default_rng(0))


def _fleet(n, spread, seed):
    """n copies of one unit (p_min 60, p_max 200, a 700, b 22, c 2e-3),
    each parameter scaled by 1 + spread * U[-1, 1], at a load of
    U[0.3, 0.9] of capacity."""
    rng = np.random.default_rng(seed)
    base = np.array([60.0, 200.0, 700.0, 22.0, 2e-3])
    units = tuple(UnitSpec(*(base * (1.0 + spread * rng.uniform(-1.0, 1.0, 5))))
                  for _ in range(n))
    return UcInstance(units=units, load=rng.uniform(0.3, 0.9) * sum(u.p_max for u in units))


def test_near_optimal_matches_enumeration_on_the_wide_draw():
    inst = _wide_draw()
    for fraction in (0.0, 0.05, 0.5):
        _check_against_enumeration(inst, fraction)


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("spread", [0.0, 0.01], ids=["identical", "near-identical"])
def test_near_optimal_matches_enumeration_on_fleets(n, spread):
    # identical units tie exactly, so every permuted copy of a member is
    # one too (the identical fleets hold 66 and 1716 optima here)
    inst = _fleet(n, spread, seed=10 * n + int(100 * spread))
    for fraction in (0.0, 0.05, 0.5):
        _check_against_enumeration(inst, fraction)


def test_near_optimal_matches_enumeration_without_an_upper_bound():
    # p_min at 50-90% of p_max and a load of 30% of capacity: all-ON's
    # p_min sum is above the load and so is the rounded root's, so the
    # search starts with U = inf and prunes only infeasible nodes
    rng = np.random.default_rng(4)
    p_max = rng.uniform(50.0, 500.0, 12)
    p_min = rng.uniform(0.5, 0.9, 12) * p_max
    coeffs = zip(rng.uniform(300.0, 1100.0, 12), rng.uniform(15.0, 30.0, 12),
                 rng.uniform(3e-4, 8e-3, 12))
    units = tuple(UnitSpec(lo, hi, *abc) for lo, hi, abc in zip(p_min, p_max, coeffs))
    inst = UcInstance(units=units, load=0.3 * float(p_max.sum()))
    assert float(p_min.sum()) > inst.load
    assert _root_incumbent(inst, _envelope(inst))[3] == math.inf
    for fraction in (0.0, 0.05, 0.5):
        _check_against_enumeration(inst, fraction)


def test_near_optimal_search_memory_on_the_wide_draw():
    # pricing all 2**16 commitments peaked at 2.59 MB here; the search
    # keeps its frontier as one integer per row and bounds 256 rows a call
    inst = _wide_draw()
    near_optimal_set(inst, 0.05)  # warm-up
    tracemalloc.start()
    try:
        near_optimal_set(inst, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * (1 << inst.n)  # four 2**n float arrays


def test_near_optimal_infeasible_instance_raises():
    with pytest.warns(UserWarning):
        inst = _inst([(10.0, 50.0, 5.0, 2.0, 0.1)], load=60.0)
    with pytest.raises(InfeasibleError):
        near_optimal_set(inst, 0.05)


def test_near_optimal_rejects_negative_fraction():
    inst = builtin_ten_unit(700.0)
    with pytest.raises(ValidationError):
        near_optimal_set(inst, -0.1)
    with pytest.raises(ValidationError, match="nan"):
        near_optimal_set(inst, math.nan)
    with pytest.raises(ValidationError, match="fraction must be finite and >= 0, got inf"):
        near_optimal_set(inst, math.inf)
