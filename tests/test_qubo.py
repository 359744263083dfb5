import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import instances
from oracles import (
    ContinuousAssignment,
    Qubo,
    all_commitments,
    build_qubo,
    optimal_slacks,
    penalized_objective,
    qubo_diagonal,
    qubo_to_ising,
)
from ucqaoa.errors import SizeGuardError, ValidationError
from ucqaoa.baseline import random_instance
from ucqaoa.instance import (
    UcInstance,
    UnitSpec,
    builtin_ten_unit,
    index_to_bits,
)
from ucqaoa.qubo import PenaltyWeights, _cost_table


def _inst(units, load):
    return UcInstance(units=tuple(UnitSpec(*u) for u in units), load=load)


@st.composite
def assignments(draw, inst):
    n = inst.n
    _, _, _, lo, hi = inst.coeff_arrays
    t = np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)])
    p = lo + t * (hi - lo)
    s1 = np.array([draw(st.floats(0.0, 50.0)) for _ in range(n)])
    s2 = np.array([draw(st.floats(0.0, 50.0)) for _ in range(n)])
    return ContinuousAssignment(p=p, s1=s1, s2=s2)


@st.composite
def weight_triples(draw):
    return PenaltyWeights(
        lambda1=draw(st.floats(0.0, 10.0)),
        lambda2=draw(st.floats(0.0, 10.0)),
        lambda3=draw(st.floats(0.0, 10.0)),
    )


# ---------------------------------------------------------------------------
# weights and assignments


def test_default_weights_formula():
    ten = builtin_ten_unit(700.0)
    w = PenaltyWeights.default_for(ten)
    expected = 10.0 * 1000.0 / 700.0**2
    assert w.lambda1 == w.lambda2 == w.lambda3 == pytest.approx(expected, rel=1e-12)


def test_default_weights_reject_an_underflowing_weight():
    # max(a) > 0, but 10 * 5e-324 / 25 rounds to 0, so no default exists
    inst = UcInstance(units=(UnitSpec(2.5, 10.0, 5e-324, 5.0, 0.0078125),), load=5.0)
    with pytest.raises(ValidationError, match="explicit weights"):
        PenaltyWeights.default_for(inst)


def test_default_weights_reject_an_overflowing_load_square():
    # L**2 is past the largest float once L passes about 1.34e154
    inst = UcInstance(units=(UnitSpec(0.0, 1e200, 1.0, 1.0, 0.0),), load=1e200)
    with pytest.raises(ValidationError, match="explicit weights"):
        PenaltyWeights.default_for(inst)


@pytest.mark.parametrize("load", [1.0, 700.0, 1e100, 1.3e154])
def test_default_weights_unchanged_where_finite(load):
    inst = UcInstance(units=(UnitSpec(0.0, 2e154, 1000.0, 1.0, 0.0),), load=load)
    assert PenaltyWeights.default_for(inst).lambda1 == 10.0 * 1000.0 / load**2


def test_weights_reject_negative_or_non_finite():
    with pytest.raises(ValidationError):
        PenaltyWeights(-1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        PenaltyWeights(0.0, float("nan"), 0.0)


def test_assignment_rejects_negative_and_mismatch():
    with pytest.raises(ValidationError):
        ContinuousAssignment(p=[-1.0], s1=[0.0], s2=[0.0])
    with pytest.raises(ValidationError):
        ContinuousAssignment(p=[1.0, 2.0], s1=[0.0], s2=[0.0, 0.0])


# ---------------------------------------------------------------------------
# penalized objective


def test_penalties_vanish_at_consistent_assignment():
    ten = builtin_ten_unit(700.0)
    commit = (1, 1) + (0,) * 8
    p = np.zeros(10)
    p[0], p[1] = 455.0, 245.0
    s1, s2 = optimal_slacks(ten, p, commit)
    ca = ContinuousAssignment(p=p, s1=s1, s2=s2)
    w = PenaltyWeights(3.0, 5.0, 7.0)
    a, b, c, _, _ = ten.coeff_arrays
    y = np.array(commit, dtype=float)
    bare = float(np.sum(a * y + b * p + c * p * p))
    assert penalized_objective(ten, w, commit, ca) == pytest.approx(bare, rel=1e-12)


def test_all_zero_assignment_pays_load_penalty():
    with pytest.warns(UserWarning):
        inst = _inst([(0.0, 10.0, 0.0, 0.0, 0.0)], load=25.0)
    ca = ContinuousAssignment(p=[0.0], s1=[0.0], s2=[0.0])
    w = PenaltyWeights(1.0, 0.0, 0.0)
    assert penalized_objective(inst, w, (0,), ca) == pytest.approx(625.0)


def test_lower_limit_penalty_hand_value():
    inst = _inst([(10.0, 20.0, 0.0, 0.0, 0.0)], load=5.0)
    ca = ContinuousAssignment(p=[5.0], s1=[0.0], s2=[0.0])
    w = PenaltyWeights(0.0, 1.0, 0.0)
    # (p - s1 - p_min*y)^2 = (5 - 10)^2
    assert penalized_objective(inst, w, (1,), ca) == pytest.approx(25.0)


def test_penalized_objective_counts_off_unit_power():
    # b,c terms are charged even for OFF units, unlike total_cost
    inst = _inst([(0.0, 10.0, 100.0, 2.0, 0.0)], load=5.0)
    ca = ContinuousAssignment(p=[5.0], s1=[5.0], s2=[5.0])
    w = PenaltyWeights(0.0, 0.0, 0.0)
    assert penalized_objective(inst, w, (0,), ca) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# the matrix QUBO oracle: build_qubo


def test_build_qubo_hand_expansion():
    units = [(0.0, 100.0, 0.0, 0.0, 0.0), (0.0, 100.0, 0.0, 0.0, 0.0)]
    inst = _inst(units, load=25.0)
    ca = ContinuousAssignment(p=[10.0, 20.0], s1=[0.0, 0.0], s2=[0.0, 0.0])
    w = PenaltyWeights(1.0, 0.0, 0.0)
    q = build_qubo(inst, w, ca)
    assert np.array_equal(q.quadratic, [[0.0, 400.0], [0.0, 0.0]])
    assert q.linear[0] == pytest.approx(-400.0)
    assert q.linear[1] == pytest.approx(-600.0)
    assert q.constant == pytest.approx(625.0)


def test_build_qubo_zero_weights_leaves_costs():
    ten = builtin_ten_unit(700.0)
    p = np.linspace(20.0, 60.0, 10)
    ca = ContinuousAssignment(p=p, s1=np.zeros(10), s2=np.zeros(10))
    q = build_qubo(ten, PenaltyWeights(0.0, 0.0, 0.0), ca)
    a, b, c, _, _ = ten.coeff_arrays
    assert not q.quadratic.any()
    assert np.allclose(q.linear, a)
    assert q.constant == pytest.approx(float(np.sum(b * p + c * p * p)))


def test_qubo_has_no_diagonal_quadratic_entries():
    ten = builtin_ten_unit(700.0)
    ca = ContinuousAssignment(p=np.full(10, 50.0), s1=np.zeros(10), s2=np.zeros(10))
    q = build_qubo(ten, PenaltyWeights.default_for(ten), ca)
    Q = q.quadratic
    assert np.array_equal(Q, np.triu(Q, 1))


@given(instances(min_units=1, max_units=7), st.data())
@settings(max_examples=60)
def test_qubo_matches_penalized_objective_everywhere(inst, data):
    w = data.draw(weight_triples())
    ca = data.draw(assignments(inst))
    q = build_qubo(inst, w, ca)
    for bits in all_commitments(inst.n):
        ref = penalized_objective(inst, w, bits, ca)
        assert q.value(bits) == pytest.approx(ref, rel=1e-9, abs=1e-7)


# ---------------------------------------------------------------------------
# Ising transform


def test_ising_single_variable_example():
    q = Qubo(n=1, constant=0.0, linear=np.array([2.0]), quadratic=np.zeros((1, 1)))
    ising = qubo_to_ising(q)
    assert ising.offset == pytest.approx(1.0)
    assert ising.h[0] == pytest.approx(1.0)
    assert ising.j == {}


def test_ising_zero_qubo():
    q = Qubo(n=3, constant=0.0, linear=np.zeros(3), quadratic=np.zeros((3, 3)))
    ising = qubo_to_ising(q)
    assert ising.offset == 0.0
    assert np.all(ising.h == 0.0)
    assert ising.j == {}


@given(st.data())
@settings(max_examples=40)
def test_ising_round_trip_values(data):
    n = 6
    linear = np.array([data.draw(st.floats(-50.0, 50.0)) for _ in range(n)])
    quadratic = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                quadratic[i, j] = data.draw(st.floats(-20.0, 20.0))
    q = Qubo(n=n, constant=data.draw(st.floats(-100.0, 100.0)),
             linear=linear, quadratic=quadratic)
    ising = qubo_to_ising(q)
    for bits in all_commitments(n):
        z = tuple(2 * b - 1 for b in bits)
        assert ising.value(z) == pytest.approx(q.value(bits), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# the matrix QUBO oracle: its cost table


def test_diagonal_zero_qubo():
    q = Qubo(n=2, constant=0.0, linear=np.zeros(2), quadratic=np.zeros((2, 2)))
    assert np.array_equal(qubo_diagonal(q), np.zeros(4))


def test_diagonal_linear_bit_order():
    q = Qubo(n=2, constant=0.0, linear=np.array([1.0, 2.0]), quadratic=np.zeros((2, 2)))
    # index k sets bit i for unit i: k=1 -> y=(1,0), k=2 -> y=(0,1)
    assert np.array_equal(qubo_diagonal(q), np.array([0.0, 1.0, 2.0, 3.0]))


def test_diagonal_guard():
    q = Qubo(n=21, constant=0.0, linear=np.zeros(21), quadratic=np.zeros((21, 21)))
    with pytest.raises(SizeGuardError):
        qubo_diagonal(q)
    with pytest.raises(SizeGuardError):
        _cost_table(random_instance(21, rng=0), PenaltyWeights(1.0, 1.0, 1.0),
                    np.zeros(21), np.zeros(21), np.zeros(21))


def test_diagonal_min_matches_brute_force_min():
    ten = builtin_ten_unit(700.0)
    w = PenaltyWeights.default_for(ten)
    _, _, _, lo, hi = ten.coeff_arrays
    p = np.clip(700.0 * hi / hi.sum(), lo, hi)
    ca = ContinuousAssignment(p=p, s1=p - lo, s2=hi - p)
    diag = qubo_diagonal(build_qubo(ten, w, ca))
    brute = min(penalized_objective(ten, w, bits, ca) for bits in all_commitments(10))
    assert diag.min() == pytest.approx(brute, rel=1e-12)


@st.composite
def upper_qubos(draw):
    """Strictly upper-triangular QUBOs with n <= 8: sparse couplings of
    either sign and some columns forced to zero."""
    n = draw(st.integers(1, 8))
    coeff = st.floats(-20.0, 20.0)
    linear = np.array([draw(coeff) for _ in range(n)])
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    quadratic = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if j not in zero_cols and draw(st.booleans()):
                quadratic[i, j] = draw(coeff)
    return Qubo(n=n, constant=draw(coeff), linear=linear, quadratic=quadratic)


@given(upper_qubos())
@settings(max_examples=300)
def test_diagonal_matches_value_everywhere(q):
    diag = qubo_diagonal(q)
    # relative to the summed term magnitudes, so cancellation to ~0 is fair
    scale = abs(q.constant) + np.abs(q.linear).sum() + np.abs(q.quadratic).sum()
    for k in range(1 << q.n):
        assert diag[k] == pytest.approx(q.value(index_to_bits(k, q.n)),
                                        rel=1e-12, abs=1e-12 * scale)


def test_diagonal_matches_penalized_objective_at_sixteen_units():
    inst = random_instance(16, rng=4)
    w = PenaltyWeights.default_for(inst)
    rng = np.random.default_rng(11)
    _, _, _, lo, hi = inst.coeff_arrays
    ca = ContinuousAssignment(p=rng.uniform(lo, hi), s1=rng.uniform(0.0, 50.0, 16),
                              s2=rng.uniform(0.0, 50.0, 16))
    diag = qubo_diagonal(build_qubo(inst, w, ca))
    # every high bit (10-15) is set in some sampled index
    ks = np.concatenate([[0, (1 << 16) - 1], rng.integers(0, 1 << 16, 198)])
    for k in ks:
        bits = index_to_bits(int(k), 16)
        assert diag[k] == pytest.approx(penalized_objective(inst, w, bits, ca), rel=1e-12)


def test_diagonal_allocates_only_its_table():
    n = 16
    rng = np.random.default_rng(2)
    q = Qubo(n=n, constant=1.0, linear=rng.uniform(-5.0, 5.0, n),
             quadratic=np.triu(rng.uniform(-3.0, 3.0, (n, n)), 1))
    tracemalloc.start()
    try:
        qubo_diagonal(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (1 << n)


# ---------------------------------------------------------------------------
# the rank-1 cost table against the matrix QUBO and the literal objective


def _term_scale(inst, w, ca):
    """Summed magnitudes of every term of the penalized objective, over
    all commitments at once: the floor for comparing entries that cancel."""
    a, b, c, lo, hi = inst.coeff_arrays
    p, d, e = ca.p, ca.p - ca.s1, ca.p + ca.s2
    return float(np.sum(np.abs(a) + b * p + c * p * p)
                 + w.lambda1 * (p.sum() + inst.load) ** 2
                 + w.lambda2 * np.sum((np.abs(d) + lo) ** 2)
                 + w.lambda3 * np.sum((np.abs(e) + hi) ** 2))


@st.composite
def degenerate_inputs(draw):
    """Degenerate instances (c = 0, p_min = p_max, a = 0 units, loads at
    capacity) with weights and continuous entries that may each be 0."""
    inst = draw(instances(min_units=1, max_units=8, degenerate=True))
    hi = inst.coeff_arrays[4]
    weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    w = PenaltyWeights(draw(weight), draw(weight), draw(weight))
    slack = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    p = np.array([draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5 * h))) for h in hi])
    s1 = np.array([draw(slack) for _ in hi])
    s2 = np.array([draw(slack) for _ in hi])
    return inst, w, ContinuousAssignment(p=p, s1=s1, s2=s2)


@given(degenerate_inputs())
@example((_inst([(2.5, 10.0, 0.0, 5.0, 0.0078125)], load=5.0), PenaltyWeights(0.0, 5e-324, 0.0),
          ContinuousAssignment(p=np.zeros(1), s1=np.zeros(1), s2=np.zeros(1))))
@settings(max_examples=200)
def test_cost_table_matches_qubo_and_objective_everywhere(drawn):
    inst, w, ca = drawn
    table = _cost_table(inst, w, ca.p, ca.s1, ca.s2)
    diag = qubo_diagonal(build_qubo(inst, w, ca))
    # a subnormal scale has no relative precision, so the absolute floor
    # is the smallest normal float (2.5e-323 against 3e-323 at the example)
    tol = dict(rel=1e-12, abs=1e-12 * _term_scale(inst, w, ca) + np.finfo(float).tiny)
    assert table.shape == (1 << inst.n,)
    for k in range(1 << inst.n):
        ref = penalized_objective(inst, w, index_to_bits(k, inst.n), ca)
        assert table[k] == pytest.approx(diag[k], **tol)
        assert table[k] == pytest.approx(ref, **tol)


def test_cost_table_matches_qubo_and_objective_at_sixteen_units():
    inst = random_instance(16, rng=4)
    w = PenaltyWeights.default_for(inst)
    rng = np.random.default_rng(11)
    _, _, _, lo, hi = inst.coeff_arrays
    ca = ContinuousAssignment(p=rng.uniform(lo, hi), s1=rng.uniform(0.0, 50.0, 16),
                              s2=rng.uniform(0.0, 50.0, 16))
    table = _cost_table(inst, w, ca.p, ca.s1, ca.s2)
    scale = _term_scale(inst, w, ca)
    diag = qubo_diagonal(build_qubo(inst, w, ca))
    assert np.all(np.abs(table - diag) <= 1e-12 * (np.abs(diag) + scale))
    ks = np.concatenate([[0, (1 << 16) - 1], rng.integers(0, 1 << 16, 198)])
    for k in ks:
        ref = penalized_objective(inst, w, index_to_bits(int(k), 16), ca)
        assert table[k] == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)


# ---------------------------------------------------------------------------
# slack optimality


@given(instances(min_units=1, max_units=6), st.data())
def test_optimal_slacks_zero_penalties_iff_constraints_hold(inst, data):
    a, b, c, lo, hi = inst.coeff_arrays
    commit = tuple(data.draw(st.integers(0, 1)) for _ in range(inst.n))
    t = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(inst.n)])
    p = 1.5 * t * hi  # may violate either limit
    s1, s2 = optimal_slacks(inst, p, commit)
    ca = ContinuousAssignment(p=p, s1=s1, s2=s2)
    w = PenaltyWeights(0.0, 1.0, 1.0)
    y = np.array(commit, dtype=float)
    bare = float(np.sum(a * y + b * p + c * p * p))
    penalty = penalized_objective(inst, w, commit, ca) - bare
    violation = np.maximum(np.maximum(lo * y - p, p - hi * y), 0.0)
    assert penalty >= -1e-9 * max(1.0, abs(bare))
    if np.all(violation == 0.0):
        assert penalty == pytest.approx(0.0, abs=1e-18)
    elif violation.max() > 1e-6:
        assert penalty > 0.0
