import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import instances
from oracles import all_commitments, node_bounds_columns, single_node_bound
from ucqaoa import baseline
from ucqaoa.baseline import (
    OFF,
    ON,
    UNDECIDED,
    _envelope,
    _node_bounds,
    node_lower_bound,
    random_instance,
    scaling_benchmark,
    solve_approx,
    solve_exact,
)
from ucqaoa.dispatch import economic_dispatch, enumerate_all
from ucqaoa.errors import InfeasibleError, ValidationError
from ucqaoa.instance import UcInstance, UnitSpec, builtin_ten_unit


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
    assert bound == economic_dispatch(ten, commit).cost


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


@pytest.mark.parametrize("fixed", [(2,) * 10, (math.nan,) * 10, (0.5,) + (UNDECIDED,) * 9,
                                   [[ON], [ON, ON]] + [UNDECIDED] * 8],
                         ids=["two", "nan", "half", "ragged"])
def test_bound_rejects_unknown_states(fixed):
    # unchecked, the first three read as all-undecided and returned the
    # root bound 11581.931; the ragged list raised numpy's ValueError
    with pytest.raises(ValidationError, match="node states must be") as info:
        node_lower_bound(builtin_ten_unit(700.0), fixed)
    assert str(fixed[0]) in str(info.value)


@st.composite
def _branch_points(draw):
    """An instance, a partial assignment and the undecided unit branched on.

    Generator draws carry arbitrary float costs over up to 10 units, where
    the order of a sum changes its rounding (numpy sums blocks of 8)."""
    inst = draw(st.one_of(instances(max_units=10), instances(max_units=10, degenerate=True),
                          st.builds(random_instance, st.integers(8, 10),
                                    st.integers(0, 2**32 - 1))))
    states = draw(st.lists(st.sampled_from((ON, OFF, UNDECIDED)),
                           min_size=inst.n, max_size=inst.n))
    branch = draw(st.integers(0, inst.n - 1))
    states[branch] = UNDECIDED
    return inst, states, branch


# three 100 MW units against 250 MW: with unit 2 OFF every child is infeasible
_SHORT = UcInstance(units=(UnitSpec(p_min=10.0, p_max=100.0, a=500.0, b=20.0, c=0.004),) * 3,
                    load=250.0)


@given(_branch_points())
@example((_SHORT, [UNDECIDED, UNDECIDED, OFF], 0))
@settings(max_examples=60)
def test_sibling_bounds_equal_single_node_bounds(point):
    # solve_approx bounds both children in one two-row solve; each row must
    # be bit-identical to the child bounded alone, or the search could change
    inst, states, branch = point
    leaf_parent = [ON if s == UNDECIDED else s for s in states]
    leaf_parent[branch] = UNDECIDED  # its children are fully fixed
    for parent in (states, leaf_parent):
        children = np.array((parent, parent))
        children[:, branch] = (ON, OFF)
        expected = [single_node_bound(inst, child) for child in children]
        assert _node_bounds(inst, _envelope(inst), children)[0].tolist() == expected
        assert [node_lower_bound(inst, tuple(child)) for child in children] == expected


@st.composite
def _edge_units(draw):
    p_max = draw(st.one_of(st.just(0.0), st.floats(1.0, 400.0)))
    p_min = draw(st.one_of(st.just(0.0), st.just(p_max), st.floats(0.0, p_max)))
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 1200.0)))
    c = draw(st.one_of(st.just(0.0), st.floats(1e-4, 1e-2)))
    return UnitSpec(p_min=p_min, p_max=p_max, a=a, b=draw(st.floats(5.0, 30.0)), c=c)


@st.composite
def _edge_nodes(draw):
    """Up to 7 units, some of them copies of another, with the units the
    envelope divides by zero on (a = 0, c = 0, p_max = 0, p_min = p_max),
    a load up to capacity and a few partial assignments."""
    pool = draw(st.lists(_edge_units(), min_size=1, max_size=7))
    units = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7)))
    cap = sum(u.p_max for u in units)
    assume(cap > 0)
    frac = draw(st.one_of(st.floats(0.05, 1.0), st.just(1.0)))
    states = draw(st.lists(st.lists(st.sampled_from((ON, OFF, UNDECIDED)),
                                    min_size=len(units), max_size=len(units)),
                           min_size=1, max_size=4))
    return UcInstance(units=units, load=frac * cap), states


# copies of one linear unit: unscaled, the node's relaxation priced one
# ulp above its best completion, and solve_exact returned a cost one ulp
# above the enumeration minimum
_LINEAR = UnitSpec(p_min=23.0, p_max=205.70525853081082, a=0.0, b=5.0, c=0.0)
_LINEAR_WIDE = UnitSpec(p_min=61.314854124509665, p_max=243.0, a=0.0, b=5.0, c=0.0)
# a/p* overflows: uncapped, the chord's inf price made the root bound nan
_HUGE_STARTUP = UcInstance(units=(UnitSpec(p_min=0.0, p_max=1e-10, a=1e300, b=5.0, c=0.0),
                                  UnitSpec(p_min=0.0, p_max=100.0, a=10.0, b=5.0, c=0.01)),
                           load=50.0)


@given(_edge_nodes())
@example((UcInstance(units=(_LINEAR,) * 3, load=250.7032838344257), [[UNDECIDED, ON, ON]]))
@example((UcInstance(units=(_LINEAR_WIDE,) * 3, load=303.96495431717966), [[ON, ON, ON]]))
@example((_HUGE_STARTUP, [[UNDECIDED, UNDECIDED], [ON, UNDECIDED]]))
@settings(max_examples=150, deadline=None)
def test_node_bound_never_exceeds_best_completion(point):
    # the bound keeps a relative margin of 1e-12 below every completion,
    # and a fully fixed node is its commitment's dispatch cost exactly
    inst, nodes = point
    for fixed in nodes:
        bound = node_lower_bound(inst, fixed)
        best = min(economic_dispatch(inst, bits).cost for bits in _completions(fixed))
        if UNDECIDED in fixed:
            assert bound < best or bound == best == math.inf
        else:
            assert bound == best
    best = enumerate_all(inst)[0][1]
    if best.feasible:
        assert solve_exact(inst).dispatch.cost == best.cost
    else:
        with pytest.raises(InfeasibleError):
            solve_exact(inst)


# a/c overflows for the subnormal curvature, so its envelope's knee is p_max
_SUBNORMAL_CURVATURE = UcInstance(units=(UnitSpec(p_min=10.0, p_max=100.0, a=50.0, b=5.0, c=5e-324),
                                         UnitSpec(p_min=0.0, p_max=100.0, a=10.0, b=8.0, c=0.01)),
                                  load=120.0)


@st.composite
def _state_arrays(draw):
    """An instance and a ``(k, n)`` array of node states, k up to 4."""
    inst = draw(st.one_of(instances(max_units=10), instances(max_units=10, degenerate=True)))
    k = draw(st.integers(1, 4))
    states = draw(st.lists(st.sampled_from((ON, OFF, UNDECIDED)),
                           min_size=k * inst.n, max_size=k * inst.n))
    return inst, np.array(states).reshape(k, inst.n)


@given(_state_arrays())
@example((_SHORT, np.array([[UNDECIDED, UNDECIDED, OFF], [ON, ON, OFF]])))
@example((_SHORT, np.array([[ON, OFF, ON], [OFF, OFF, ON]])))
@example((_HUGE_STARTUP, np.array([[UNDECIDED, UNDECIDED], [ON, UNDECIDED]])))
@example((_SUBNORMAL_CURVATURE, np.array([[UNDECIDED, UNDECIDED], [UNDECIDED, OFF]])))
@settings(max_examples=100)
def test_node_bounds_match_column_oracle(point):
    # the envelope is built once per solve; bounds and relaxed powers must
    # be the ones the per-call column construction gives, bit for bit
    inst, states = point
    bounds, powers = _node_bounds(inst, _envelope(inst), states)
    want_bounds, want_powers = node_bounds_columns(inst, states)
    assert bounds.tobytes() == want_bounds.tobytes()
    assert powers.tobytes() == want_powers.tobytes()


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
    assert report.dispatch.cost == best_sol.cost
    assert report.commitment == best_bits
    assert report.proven_gap == 0.0


def test_report_keeps_no_instance_dict():
    # slotted reports: a caller that keeps many solves keeps only their fields
    report = solve_exact(random_instance(6, rng=0))
    assert not hasattr(report, "__dict__")



@pytest.mark.parametrize("gap", [0.0, 0.08])
def test_solve_dispatches_only_the_incumbent(gap):
    # the report takes the row that priced the incumbent: no commitment is
    # dispatched a second time, by any route to economic_dispatch
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is economic_dispatch.__code__:
            calls.append(frame.f_code)

    inst = random_instance(8, rng=3)
    sys.setprofile(profile)
    try:
        report = solve_approx(inst, gap)
        economic_dispatch(inst, report.commitment)  # the one call the profile must see
    finally:
        sys.setprofile(None)
    assert len(calls) == 1


@given(st.one_of(instances(min_units=1, max_units=7),
                 instances(min_units=1, max_units=7, degenerate=True)),
       st.sampled_from([0.0, 0.08]))
@settings(max_examples=40, deadline=None)
def test_report_dispatch_is_the_economic_dispatch_bit_for_bit(inst, gap):
    # root pair or leaf, the incumbent's row is what a one-row solve gives
    try:
        report = solve_approx(inst, gap)
    except InfeasibleError:
        return
    want = economic_dispatch(inst, report.commitment)
    assert report.dispatch.powers.tobytes() == want.powers.tobytes()
    assert report.dispatch.cost == want.cost
    assert report.dispatch.feasible and want.feasible


@pytest.mark.parametrize("gap", [0.0, 0.08])
def test_report_powers_own_their_memory(gap):
    report = solve_approx(random_instance(8, rng=3), gap)
    assert report.dispatch.powers.base is None and report.dispatch.powers.shape == (8,)

def test_ten_unit_node_count_frozen():
    # deterministic best-first search: a changed count means a changed search
    report = solve_exact(builtin_ten_unit(700.0))
    assert report.nodes_expanded == 10


# solve_exact, then solve_approx(gap=0.08), on random_instance(10, rng=seed):
# (seed, exact commitment, cost, nodes, approx commitment, cost, nodes)
_PINNED_SEARCHES = [
    (0, "0100110001", 37211.799857255435, 10, "0100110001", 37211.799857255435, 0),
    (1, "0100001110", 30603.43618646355, 10, "0100001110", 30603.43618646355, 0),
    (2, "1000110001", 28270.761485378076, 10, "1000110001", 28270.761485378076, 0),
    (3, "1110001011", 28617.993800830634, 10, "1110001011", 28617.993800830634, 0),
    (4, "1000101011", 38205.927304027595, 10, "1000101011", 38205.927304027595, 0),
    (5, "0111010001", 29106.801058931913, 10, "0111010001", 29106.801058931913, 0),
    (6, "1110100101", 35428.43923131968, 10, "1110100101", 35428.43923131968, 0),
    (7, "0011010101", 31685.32742204697, 10, "0011010101", 31685.32742204697, 0),
    (8, "0101100001", 28050.152827793667, 11, "0111100001", 28182.83896809823, 0),
    (9, "1000111001", 36543.5492865334, 10, "1000111001", 36543.5492865334, 0),
    (10, "1000111100", 32951.999266580606, 10, "1000111100", 32951.999266580606, 0),
    (11, "0110010001", 24590.367097099992, 10, "0110010001", 24590.367097099992, 0),
    (12, "0000101011", 28138.774986859185, 11, "0001101011", 28196.634778892443, 0),
    (13, "1100010010", 36971.31636574927, 10, "1100010010", 36971.31636574927, 0),
    (14, "0001011101", 45664.815079901186, 11, "0001011111", 45725.66706262535, 0),
    (15, "1010001110", 29343.597078277122, 10, "1010001110", 29343.597078277122, 0),
    (16, "1110100001", 32549.64415322968, 13, "1101100001", 32555.59902417428, 0),
    (17, "1011000100", 28864.3411489949, 17, "1011001100", 29270.034738149712, 0),
    (18, "1010100110", 30440.88828158785, 10, "1010100110", 30440.88828158785, 0),
    (19, "1110001001", 33903.793969011975, 12, "1110001001", 33903.793969011975, 0),
    (20, "1100000101", 24642.847839660215, 10, "1100000101", 24642.847839660215, 0),
    (21, "0101011101", 36148.65822490179, 10, "0101011101", 36148.65822490179, 0),
    (22, "0110001101", 33057.04289286667, 10, "0110001101", 33057.04289286667, 0),
    (23, "0000111101", 32703.515045323053, 10, "0000111101", 32703.515045323053, 0),
    (24, "0010101110", 32662.72406882346, 10, "0010101110", 32662.72406882346, 0),
    (25, "1000001110", 21196.283882162355, 12, "1000011110", 21281.213924811076, 0),
    (26, "1010100111", 33092.33529907977, 15, "1110100111", 33280.204265930035, 0),
    (27, "1001011001", 29872.123056094948, 10, "1001011001", 29872.123056094948, 0),
    (28, "1011110100", 42166.4849094933, 14, "1010110101", 42279.64310820018, 0),
    (29, "0101001110", 19830.899729553727, 10, "0101001110", 19830.899729553727, 0),
]


# Each case keeps the id it was first collected under, which carried the
# node counts of the earlier bound that let undecided units generate for
# free, and the approx commitment and cost of the search that started from
# all-ON: the exact ones, apart from two all-ON stops.  The ids are fixed
# here, so re-pinning the node and approx columns renames no case.
_FREE_BOX_NODES = {0: (71, 71), 1: (26, 26), 2: (41, 41), 3: (187, 187), 4: (45, 45),
                   5: (146, 146), 6: (195, 195), 7: (46, 46), 8: (37, 37), 9: (37, 37),
                   10: (48, 48), 11: (25, 25), 12: (33, 33), 13: (29, 29), 14: (136, 69),
                   15: (65, 65), 16: (49, 49), 17: (54, 54), 18: (50, 50), 19: (78, 78),
                   20: (30, 30), 21: (90, 90), 22: (80, 80), 23: (78, 78), 24: (19, 19),
                   25: (83, 83), 26: (264, 264), 27: (58, 58), 28: (116, 107), 29: (72, 72)}
_ALL_ON_APPROX = {14: ("1111111111", 48651.153073559486), 28: ("1111111111", 45469.48341462268)}


def _case_id(case):
    seed, exact_bits, exact_cost = case[:3]
    exact_nodes, approx_nodes = _FREE_BOX_NODES[seed]
    approx_bits, approx_cost = _ALL_ON_APPROX.get(seed, (exact_bits, exact_cost))
    return (f"{seed}-{exact_bits}-{exact_cost}-{exact_nodes}-"
            f"{approx_bits}-{approx_cost}-{approx_nodes}")


@pytest.mark.parametrize("seed,exact_bits,exact_cost,exact_nodes,approx_bits,approx_cost,"
                         "approx_nodes", _PINNED_SEARCHES,
                         ids=[_case_id(case) for case in _PINNED_SEARCHES])
def test_search_pinned_on_ten_unit_draws(seed, exact_bits, exact_cost, exact_nodes,
                                         approx_bits, approx_cost, approx_nodes):
    # node counts move whenever the bounds or the order of heap ties change
    inst = random_instance(10, rng=seed)
    for report, bits, cost, nodes in ((solve_exact(inst), exact_bits, exact_cost, exact_nodes),
                                      (solve_approx(inst, 0.08), approx_bits, approx_cost,
                                       approx_nodes)):
        assert "".join(map(str, report.commitment)) == bits
        assert report.dispatch.cost == pytest.approx(cost, rel=1e-12)
        assert report.nodes_expanded == nodes


@pytest.mark.parametrize("seed", range(10))
def test_exact_matches_enumeration_randomized(seed):
    inst = random_instance(2 + seed % 7, rng=seed)
    report = solve_exact(inst)
    _, best_sol = enumerate_all(inst)[0]
    assert report.dispatch.cost == best_sol.cost


def test_infeasible_instance_reported():
    inst = random_instance(3, rng=2)
    with pytest.warns(UserWarning):
        hopeless = inst.with_load(10_000.0)
    with pytest.raises(InfeasibleError):
        solve_exact(hopeless)


def test_size_guard():
    # 41 units, one past the cap branch and bound once had: it has no size limit
    inst = random_instance(41, rng=0)
    report = solve_exact(inst)
    assert report.proven_gap == 0.0
    assert report.dispatch.cost == economic_dispatch(inst, report.commitment).cost


def test_exact_solve_at_paper_scale():
    # the paper's classical claim concerns fleets of up to about 400 units
    inst = random_instance(400, rng=0)
    report = solve_exact(inst)
    cost = report.dispatch.cost
    assert report.proven_gap == 0.0
    assert cost == economic_dispatch(inst, report.commitment).cost
    assert node_lower_bound(inst, [UNDECIDED] * inst.n) <= cost
    # an independent necessary condition for optimality: no single flip is cheaper
    for i in range(inst.n):
        flipped = list(report.commitment)
        flipped[i] = 1 - flipped[i]
        assert economic_dispatch(inst, flipped).cost >= cost, i
    approx = solve_approx(inst, 0.08).dispatch.cost
    assert cost <= approx <= 1.08 * cost
    perm = np.random.default_rng(1).permutation(inst.n)
    shuffled = UcInstance(units=tuple(inst.units[i] for i in perm), load=inst.load)
    assert solve_exact(shuffled).dispatch.cost == pytest.approx(cost, rel=1e-12)


# ---------------------------------------------------------------------------
# approximate solving


def test_negative_gap_rejected():
    with pytest.raises(ValidationError):
        solve_approx(builtin_ten_unit(700.0), -0.1)
    with pytest.raises(ValidationError, match="nan"):
        solve_approx(builtin_ten_unit(700.0), math.nan)
    with pytest.raises(ValidationError, match="gap must be finite and >= 0, got inf"):
        solve_approx(builtin_ten_unit(700.0), math.inf)


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


@pytest.mark.parametrize("n", [100, 400])
def test_approx_stops_early_at_scale(n):
    # the rounded root relaxation is within the gap of the root bound, so
    # the 8% search stops long before the exact one
    inst = random_instance(n, rng=1)
    exact, approx = solve_exact(inst), solve_approx(inst, 0.08)
    assert approx.nodes_expanded < exact.nodes_expanded
    assert exact.dispatch.cost <= approx.dispatch.cost <= 1.08 * exact.dispatch.cost
    assert approx.proven_gap <= 0.08


# two cheap 90-100 MW units and a dear 0-60 MW one against 150 MW: the root
# relaxation runs the cheap units at 100 and 50, and both that rounding and
# all-ON need 180 MW at least, so the search starts with no incumbent
_INFEASIBLE_ROUNDING = UcInstance(units=(UnitSpec(p_min=90.0, p_max=100.0, a=100.0, b=10.0, c=0.001),
                                         UnitSpec(p_min=90.0, p_max=100.0, a=100.0, b=11.0, c=0.001),
                                         UnitSpec(p_min=0.0, p_max=60.0, a=100.0, b=50.0, c=0.01)),
                                  load=150.0)


def test_infeasible_rounding_is_never_the_incumbent():
    inst = _INFEASIBLE_ROUNDING
    relaxed = _node_bounds(inst, _envelope(inst), np.full((1, 3), UNDECIDED))[1][0]
    assert relaxed.tolist() == pytest.approx([100.0, 50.0, 0.0])
    assert not economic_dispatch(inst, (1, 1, 0)).feasible
    best_bits, best = enumerate_all(inst)[0]
    assert best_bits == (1, 0, 1)
    for report in (solve_exact(inst), solve_approx(inst, 0.08)):
        assert report.commitment == (1, 0, 1)
        assert report.dispatch.cost == best.cost


# two leaves one ulp apart under a parent whose relaxed bound rounds
# above the cheaper one: the search must still return the cheaper leaf
_TIED_LEAVES = UcInstance(
    units=tuple(UnitSpec(*u) for u in (
        (20.0, 80.0, 0.0, 8.0, 0.0078125),
        (28.25, 113.0, 0.0, 5.0, 0.0078125),
        (39.5, 158.0, 0.0, 9.0, 0.0078125),
        (2.713671871369762, 10.854687485479047, 0.0, 9.0, 0.0),
        (31.213671871369762, 124.85468748547905, 0.0, 9.0, 0.0),
        (12.0, 48.0, 0.0, 5.0, 0.0078125),
    )),
    load=267.3546874854791,
)


@given(instances(min_units=1, max_units=6, degenerate=True))
@example(_TIED_LEAVES)
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
    assert report.dispatch.cost == best.cost


@given(st.one_of(instances(min_units=2, max_units=7),
                 instances(min_units=2, max_units=7, degenerate=True)),
       st.floats(0.0, 0.5))
@settings(max_examples=40, deadline=None)
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
    assert report.proven_gap <= gap + 1e-12


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
    rows = scaling_benchmark([3, 5], trials=3, gap=0.08, seed=4)
    assert [(r[0], r[1]) for r in rows] == [
        (3, "exact"), (3, "approx"), (5, "exact"), (5, "approx")
    ]
    again = scaling_benchmark([3, 5], trials=3, gap=0.08, seed=4)
    # every column but the wall-clock median_ms
    assert [r[:2] + r[3:] for r in rows] == [r[:2] + r[3:] for r in again]
    by_size = {(n, mode): (cost, nodes) for n, mode, _, cost, nodes in rows}
    for n in (3, 5):
        (exact_cost, exact_nodes), (approx_cost, approx_nodes) = (
            by_size[(n, "exact")], by_size[(n, "approx")])
        assert approx_cost >= exact_cost * (1 - 1e-9)
        # per draw approx expands no more nodes than exact, so neither does the median
        assert 0 <= approx_nodes <= exact_nodes
    rng = np.random.default_rng(4)
    draws = [random_instance(3, rng) for _ in range(3)]
    assert by_size[(3, "exact")][1] == np.median([solve_exact(i).nodes_expanded for i in draws])



def test_scaling_benchmark_interleaves_modes_per_draw(monkeypatch):
    # each draw is solved exactly, then approximately, before the next draw,
    # so host drift during a size lands on both modes alike
    calls = []
    solve = baseline.solve_approx

    def recording(inst, gap):
        calls.append((inst, gap))
        return solve(inst, gap)

    monkeypatch.setattr(baseline, "solve_approx", recording)
    scaling_benchmark([3, 4], trials=2, gap=0.08)
    assert [gap for _, gap in calls] == [0.0, 0.08] * 4
    assert all(calls[k][0] is calls[k + 1][0] for k in range(0, 8, 2))
    assert len({id(inst) for inst, _ in calls}) == 4

def test_scaling_benchmark_measures_time_by_default():
    rows = scaling_benchmark([4], trials=2, seed=0)
    assert all(r[2] > 0.0 for r in rows)


def test_scaling_benchmark_validation():
    with pytest.raises(ValidationError):
        scaling_benchmark([3], trials=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"sizes": [300], "trials": 1, "gap": -1}, "gap must be finite and >= 0"),
    ({"sizes": [300, 0], "trials": 1}, r"sizes\[1\] must be >= 1"),
    ({"sizes": [300], "trials": 2.5}, "trials must be an integer"),
], ids=["gap", "size", "trials"])
def test_scaling_benchmark_checks_arguments_before_solving(kwargs, message, monkeypatch):
    # a bad gap once surfaced only after the 300-unit exact solve had run
    def no_solve(inst, gap):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(baseline, "solve_approx", no_solve)
    with pytest.raises(ValidationError, match=message):
        scaling_benchmark(**kwargs)
