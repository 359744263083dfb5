import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances
from oracles import all_commitments
from ucqaoa.baseline import (
    BNB_GUARD,
    OFF,
    ON,
    UNDECIDED,
    node_lower_bound,
    random_instance,
    scaling_benchmark,
    solve_approx,
    solve_exact,
)
from ucqaoa.dispatch import economic_dispatch, enumerate_all
from ucqaoa.errors import InfeasibleError, SizeGuardError, ValidationError
from ucqaoa.instance import builtin_ten_unit


def _completions(fixed):
    undecided = [i for i, s in enumerate(fixed) if s == UNDECIDED]
    for pattern in all_commitments(len(undecided)):
        bits = list(int(s == ON) for s in fixed)
        for i, b in zip(undecided, pattern):
            bits[i] = b
        yield tuple(bits)


# ---------------------------------------------------------------------------
# bounds


def test_fully_fixed_bound_equals_dispatch():
    ten = builtin_ten_unit(700.0)
    commit = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    fixed = tuple(ON if b else OFF for b in commit)
    bound = node_lower_bound(ten, fixed)
    assert bound == pytest.approx(economic_dispatch(ten, commit).cost, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_root_bound_below_optimum(seed):
    inst = random_instance(6, rng=seed)
    root_bound = node_lower_bound(inst, (UNDECIDED,) * 6)
    best_cost = enumerate_all(inst)[0][1].cost
    assert root_bound <= best_cost * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_bound_admissible_for_all_completions(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(5, rng=rng)
    fixed = tuple(rng.choice([ON, OFF, UNDECIDED]) for _ in range(5))
    bound = node_lower_bound(inst, fixed)
    feasible_costs = [
        sol.cost
        for bits in _completions(fixed)
        if (sol := economic_dispatch(inst, bits)).feasible
    ]
    if not feasible_costs:
        assert bound == math.inf
    else:
        assert bound <= min(feasible_costs) * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_bound_monotone_along_branch(seed):
    rng = np.random.default_rng(100 + seed)
    inst = random_instance(7, rng=rng)
    fixed = [UNDECIDED] * 7
    prev = node_lower_bound(inst, tuple(fixed))
    for i in rng.permutation(7):
        fixed[i] = ON if rng.random() < 0.5 else OFF
        cur = node_lower_bound(inst, tuple(fixed))
        # floating-point rounding can wobble the relaxed dispatch slightly
        assert cur >= prev - 1e-6 * max(1.0, abs(prev))
        prev = cur
        if cur == math.inf:
            break


def test_bound_rejects_wrong_length():
    with pytest.raises(ValidationError):
        node_lower_bound(builtin_ten_unit(700.0), (ON,) * 3)


# ---------------------------------------------------------------------------
# exact solving


def test_single_unit_turns_on():
    inst = random_instance(1, rng=0)
    report = solve_exact(inst)
    assert report.commitment == (1,)
    assert report.proven_gap == 0.0


def test_ten_unit_exact_matches_enumeration():
    ten = builtin_ten_unit(700.0)
    report = solve_exact(ten)
    best_bits, best_sol = enumerate_all(ten)[0]
    assert report.dispatch.cost == pytest.approx(best_sol.cost, rel=1e-6)
    assert report.commitment == best_bits
    assert report.proven_gap == 0.0


def test_ten_unit_node_count_frozen():
    # deterministic best-first search: a changed count means a changed search
    report = solve_exact(builtin_ten_unit(700.0))
    assert report.nodes_expanded == 21


@pytest.mark.parametrize("seed", range(10))
def test_exact_matches_enumeration_randomized(seed):
    inst = random_instance(2 + seed % 7, rng=seed)
    report = solve_exact(inst)
    _, best_sol = enumerate_all(inst)[0]
    assert report.dispatch.cost == pytest.approx(best_sol.cost, rel=1e-6)


def test_infeasible_instance_reported():
    inst = random_instance(3, rng=2)
    with pytest.warns(UserWarning):
        hopeless = inst.with_load(10_000.0)
    with pytest.raises(InfeasibleError):
        solve_exact(hopeless)


def test_size_guard():
    inst = random_instance(BNB_GUARD + 1, rng=0)
    with pytest.raises(SizeGuardError):
        solve_exact(inst)


# ---------------------------------------------------------------------------
# approximate solving


def test_negative_gap_rejected():
    with pytest.raises(ValidationError):
        solve_approx(builtin_ten_unit(700.0), -0.1)


def test_gap_zero_equals_exact():
    ten = builtin_ten_unit(700.0)
    a, b = solve_exact(ten), solve_approx(ten, 0.0)
    assert a.commitment == b.commitment
    assert a.dispatch.cost == b.dispatch.cost
    assert a.nodes_expanded == b.nodes_expanded


def test_eight_percent_gap_on_ten_unit():
    ten = builtin_ten_unit(700.0)
    optimum = enumerate_all(ten)[0][1].cost
    report = solve_approx(ten, 0.08)
    assert report.dispatch.cost <= 1.08 * optimum * (1 + 1e-12)
    assert report.proven_gap <= 0.08 + 1e-12
    assert report.nodes_expanded <= solve_exact(ten).nodes_expanded


@pytest.mark.parametrize("seed", range(10))
def test_approx_guarantee_randomized(seed):
    inst = random_instance(3 + seed % 8, rng=1000 + seed)
    exact_cost = solve_exact(inst).dispatch.cost
    report = solve_approx(inst, 0.08)
    assert report.dispatch.cost <= 1.08 * exact_cost * (1 + 1e-9)
    assert report.nodes_expanded <= solve_exact(inst).nodes_expanded


@given(instances(min_units=1, max_units=6, degenerate=True))
@settings(max_examples=25, deadline=None)
def test_exact_matches_enumeration_property(inst):
    # degenerate draws put step units and fixed-output units in the bounds
    best_bits, best = enumerate_all(inst)[0]
    if not best.feasible:
        with pytest.raises(InfeasibleError):
            solve_exact(inst)
        return
    report = solve_exact(inst)
    assert report.dispatch.feasible
    assert report.dispatch.cost == pytest.approx(best.cost, rel=1e-6)


@given(instances(min_units=2, max_units=7), st.floats(0.0, 0.5))
@settings(max_examples=20, deadline=None)
def test_approx_guarantee_property(inst, gap):
    try:
        exact = solve_exact(inst)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_approx(inst, gap)
        return
    report = solve_approx(inst, gap)
    assert report.dispatch.cost <= (1 + gap) * exact.dispatch.cost * (1 + 1e-9)
    assert report.dispatch.feasible


# ---------------------------------------------------------------------------
# instance generator and benchmark


def test_random_instance_deterministic_and_in_range():
    a = random_instance(12, rng=7)
    b = random_instance(12, rng=7)
    c = random_instance(12, rng=np.random.default_rng(7))
    assert a == b == c  # UcInstance is a frozen dataclass with tuple fields
    assert a.name == "random-12"
    caps = np.array([u.p_max for u in a.units])
    mins = np.array([u.p_min for u in a.units])
    assert np.all((caps >= 50.0) & (caps <= 500.0))
    assert np.all((mins >= 0.1 * caps) & (mins <= 0.4 * caps))
    assert a.load == pytest.approx(0.5 * caps.sum())
    for u in a.units:
        assert 300.0 <= u.a <= 1100.0
        assert 15.0 <= u.b <= 30.0
        assert 3e-4 <= u.c <= 8e-3


def test_random_instance_validation():
    with pytest.raises(ValidationError):
        random_instance(0)


def test_scaling_benchmark_shape_and_determinism():
    rows = scaling_benchmark([3, 5], trials=3, gap=0.08, seed=4,
                             measure_time=False)
    assert [(r[0], r[1]) for r in rows] == [
        (3, "exact"), (3, "approx"), (5, "exact"), (5, "approx")
    ]
    assert all(r[2] == 0.0 for r in rows)
    again = scaling_benchmark([3, 5], trials=3, gap=0.08, seed=4,
                              measure_time=False)
    assert rows == again
    by_size = {(r[0], r[1]): r[3] for r in rows}
    for n in (3, 5):
        assert by_size[(n, "approx")] >= by_size[(n, "exact")] * (1 - 1e-9)


def test_scaling_benchmark_measures_time_by_default():
    rows = scaling_benchmark([4], trials=2, seed=0)
    assert all(r[2] > 0.0 for r in rows)


def test_scaling_benchmark_validation():
    with pytest.raises(ValidationError):
        scaling_benchmark([3], trials=0)
