import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances
from oracles import ContinuousAssignment, all_commitments, penalized_objective
from ucqaoa.baseline import random_instance
from ucqaoa.errors import InfeasibleError, NonFiniteObjectiveError, SizeGuardError, ValidationError
from ucqaoa.hybrid import (
    HistoryRecord,
    HybridConfig,
    ThetaVector,
    _phase_table,
    initial_theta,
    objective,
    run_hybrid,
)
from ucqaoa import hybrid, qaoa
from ucqaoa.dispatch import enumerate_all, near_optimal_set
from ucqaoa.instance import UcInstance, UnitSpec, builtin_ten_unit, index_to_string
from ucqaoa.metrics import compute_snapshot
from ucqaoa.qubo import PenaltyWeights


def _theta(inst, gamma, beta, seed=0):
    base = initial_theta(inst, HybridConfig(depth=len(gamma), seed=seed))
    return ThetaVector(gamma=gamma, beta=beta, p=base.p, s1=base.s1, s2=base.s2)


# ---------------------------------------------------------------------------
# theta packing


def test_pack_unpack_round_trip():
    theta = ThetaVector(gamma=[0.1, 0.2], beta=[0.3, 0.4],
                        p=[5.0, 6.0, 7.0], s1=[1.0, 2.0, 3.0], s2=[0.5, 0.6, 0.7])
    again = ThetaVector.unpack(theta.pack(), depth=2, n_units=3)
    assert np.array_equal(again.pack(), theta.pack())
    assert again.depth == 2 and again.n_units == 3


@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_pack_unpack_identity_property(depth, n, data):
    vec = np.array([data.draw(st.floats(-10, 10)) for _ in range(2 * depth + 3 * n)])
    theta = ThetaVector.unpack(vec, depth, n)
    assert np.array_equal(theta.pack(), vec)


def test_history_record_keeps_no_instance_dict():
    record = HistoryRecord(0, 1.0, 0.5, 2.0, "0101", 0.0)
    assert not hasattr(record, "__dict__")
    assert dataclasses.replace(record, elapsed_ms=3.0).elapsed_ms == 3.0


def test_theta_validation():
    with pytest.raises(ValidationError):
        ThetaVector(gamma=[0.1], beta=[0.1, 0.2], p=[1.0], s1=[1.0], s2=[1.0])
    with pytest.raises(ValidationError):
        ThetaVector(gamma=[0.1], beta=[0.1], p=[1.0, 2.0], s1=[1.0], s2=[1.0])
    with pytest.raises(ValidationError):
        ThetaVector.unpack(np.zeros(6), depth=1, n_units=2)


def test_config_validation():
    with pytest.raises(ValidationError):
        HybridConfig(depth=0)
    with pytest.raises(ValidationError):
        HybridConfig(max_iterations=0)
    with pytest.raises(ValidationError):
        HybridConfig(metric_cadence=0)
    with pytest.raises(ValidationError):
        HybridConfig(shots=-1)


@pytest.mark.parametrize("field", ["depth", "max_iterations", "metric_cadence", "shots", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None, -1, math.nan],
                         ids=["half", "float", "bool", "str", "none", "negative", "nan"])
def test_config_rejects_non_integer_or_negative_counts(field, value):
    # 2.5 as a cadence once wrote a record every 5 iterations, 3.5 shots
    # divided a 3-shot histogram by 3.5
    with pytest.raises(ValidationError, match=field):
        HybridConfig(**{field: value})


@pytest.mark.parametrize("field", ["depth", "max_iterations", "metric_cadence", "shots", "seed"])
def test_config_accepts_numpy_integers(field):
    assert getattr(HybridConfig(**{field: np.int64(2)}), field) == 2


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), 1.0, "default"],
                         ids=["tuple", "float", "str"])
def test_config_rejects_weights_that_are_not_penalty_weights(weights):
    # a tuple once constructed, then died in _cost_table on weights.lambda1
    with pytest.raises(ValidationError, match="weights must be PenaltyWeights or None"):
        HybridConfig(weights=weights)


# ---------------------------------------------------------------------------
# objective


def test_zero_angles_objective_is_mean_penalized():
    inst = random_instance(4, rng=3)
    w = PenaltyWeights.default_for(inst)
    theta = _theta(inst, gamma=[0.0], beta=[0.0])
    ca = ContinuousAssignment(p=theta.p, s1=theta.s1, s2=theta.s2)
    mean = np.mean([penalized_objective(inst, w, bits, ca)
                    for bits in all_commitments(4)])
    assert objective(inst, w, theta) == pytest.approx(float(mean), rel=1e-12)


def test_single_unit_point_mass_angles():
    # standardized two-entry table is exactly [-1, +1] up to ordering, so
    # gamma=beta=pi/4 concentrates all probability on one bitstring and
    # flipping the sign of gamma concentrates it on the other
    inst = UcInstance(units=(UnitSpec(100.0, 400.0, 500.0, 20.0, 1e-3),),
                      load=250.0)
    w = PenaltyWeights.default_for(inst)
    theta_hi = _theta(inst, gamma=[math.pi / 4], beta=[math.pi / 4])
    ca = ContinuousAssignment(p=theta_hi.p, s1=theta_hi.s1, s2=theta_hi.s2)
    values = [penalized_objective(inst, w, bits, ca) for bits in [(0,), (1,)]]
    assert objective(inst, w, theta_hi) == pytest.approx(max(values), rel=1e-9)
    theta_lo = _theta(inst, gamma=[-math.pi / 4], beta=[math.pi / 4])
    assert objective(inst, w, theta_lo) == pytest.approx(min(values), rel=1e-9)


def test_objective_ignores_s1_when_lambda2_zero():
    inst = random_instance(3, rng=5)
    w = PenaltyWeights(2.0, 0.0, 1.5)
    theta = _theta(inst, gamma=[0.3], beta=[0.2])
    other = ThetaVector(gamma=theta.gamma, beta=theta.beta, p=theta.p,
                        s1=theta.s1 + 37.0, s2=theta.s2)
    assert objective(inst, w, theta) == objective(inst, w, other)


def test_objective_even_in_continuous_components():
    inst = random_instance(3, rng=8)
    w = PenaltyWeights.default_for(inst)
    theta = _theta(inst, gamma=[0.4], beta=[0.9])
    flipped = ThetaVector(gamma=theta.gamma, beta=theta.beta,
                          p=-theta.p, s1=-theta.s1, s2=-theta.s2)
    assert objective(inst, w, theta) == objective(inst, w, flipped)


def test_objective_dimension_mismatch():
    inst = random_instance(3, rng=1)
    theta = _theta(random_instance(4, rng=1), gamma=[0.1], beta=[0.1])
    with pytest.raises(ValidationError):
        objective(inst, PenaltyWeights.default_for(inst), theta)


@pytest.mark.parametrize("field", ["p", "s1", "s2", "gamma", "beta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_objective_rejects_non_finite_theta(field, bad):
    inst = random_instance(3, rng=1)
    theta = _theta(inst, gamma=[0.1], beta=[0.2])
    parts = {name: getattr(theta, name).copy() for name in ("gamma", "beta", "p", "s1", "s2")}
    parts[field][0] = bad
    with pytest.raises(ValidationError):
        objective(inst, PenaltyWeights.default_for(inst), ThetaVector(**parts))


@given(instances(min_units=1, max_units=5), st.data())
@settings(max_examples=25)
def test_objective_bounded_by_penalized_extremes(inst, data):
    try:
        w = PenaltyWeights.default_for(inst)
    except ValidationError:  # the draw has max(a) == 0, so no default exists
        w = PenaltyWeights(1.0, 1.0, 1.0)
    gamma = [data.draw(st.floats(-2.0, 2.0))]
    beta = [data.draw(st.floats(-2.0, 2.0))]
    theta = _theta(inst, gamma=gamma, beta=beta)
    ca = ContinuousAssignment(p=theta.p, s1=theta.s1, s2=theta.s2)
    values = [penalized_objective(inst, w, bits, ca)
              for bits in all_commitments(inst.n)]
    val = objective(inst, w, theta)
    slop = 1e-9 * max(1.0, max(abs(v) for v in values))
    assert min(values) - slop <= val <= max(values) + slop


def test_phase_table_clears_a_reused_array_when_the_spread_underflows():
    # centred entries of +-5e-311 square to 0, so the spread is 0 while the
    # centred copy is not: the table must come back all zeros
    diag = np.array([0.0, 1e-310])
    out = np.full(2, 7.0)
    assert _phase_table(diag, out=out, square=np.empty(2)) is out
    assert out.tobytes() == np.zeros(2).tobytes()


def test_phase_table_matches_mean_std_formula():
    rng = np.random.default_rng(5)
    for n in range(1, 17):
        for scale in (1.0, 1e4):
            diag = scale * rng.standard_normal(1 << n) + rng.uniform(-1e5, 1e5)
            assert np.array_equal(_phase_table(diag, np.empty_like(diag), np.empty_like(diag)),
                                  (diag - diag.mean()) / diag.std())
    flat = np.full(8, 3.5)
    assert np.array_equal(_phase_table(flat, np.empty_like(flat), np.empty_like(flat)), np.zeros(8))


# ---------------------------------------------------------------------------
# initialization


def test_initial_theta_deterministic():
    inst = random_instance(5, rng=2)
    cfg = HybridConfig(depth=2, seed=9)
    a = initial_theta(inst, cfg)
    b = initial_theta(inst, cfg)
    assert np.array_equal(a.pack(), b.pack())
    c = initial_theta(inst, HybridConfig(depth=2, seed=10))
    assert not np.array_equal(c.pack(), a.pack())


def test_initial_theta_angle_range_and_shapes():
    inst = random_instance(4, rng=0)
    theta = initial_theta(inst, HybridConfig(depth=3, seed=1))
    assert theta.gamma.shape == theta.beta.shape == (3,)
    assert np.all((theta.gamma > 0) & (theta.gamma < math.pi / 4))
    assert np.all((theta.beta > 0) & (theta.beta < math.pi / 4))


def test_initial_power_split_sums_to_load():
    # generous boxes: proportional split stays interior, so sum == load
    units = tuple(UnitSpec(1.0, hi, 100.0, 10.0, 1e-3) for hi in (200.0, 300.0, 500.0))
    inst = UcInstance(units=units, load=400.0)
    theta = initial_theta(inst, HybridConfig(seed=0))
    assert theta.p.sum() == pytest.approx(400.0, rel=1e-12)


def test_initial_power_split_when_the_capacity_products_overflow():
    # sum(p_max) past the largest float put every share at 0, and load * p_max
    # past it put every unit at p_max, above the load
    for p_max, load, want in ((1e308, 1.0, 0.5), (1e200, 1e200, 5e199)):
        inst = UcInstance(units=(UnitSpec(0.0, p_max, 1.0, 0.5, 0.0),) * 2, load=load)
        assert initial_theta(inst, HybridConfig(seed=0)).p.tolist() == [want, want]


def test_initial_slacks_zero_limit_penalties_at_all_on():
    inst = random_instance(5, rng=7)
    theta = initial_theta(inst, HybridConfig(seed=0))
    w = PenaltyWeights(0.0, 4.0, 4.0)
    ca = ContinuousAssignment(p=theta.p, s1=theta.s1, s2=theta.s2)
    a, b, c, _, _ = inst.coeff_arrays
    bare = float(np.sum(a + b * theta.p + c * theta.p**2))
    commit = (1,) * inst.n
    assert penalized_objective(inst, w, commit, ca) == pytest.approx(bare, rel=1e-12)


# ---------------------------------------------------------------------------
# full runs


def test_history_length_matches_cadence():
    inst = random_instance(3, rng=4)
    for k, cadence in [(20, 7), (20, 10), (15, 4)]:
        cfg = HybridConfig(max_iterations=k, metric_cadence=cadence, seed=0)
        hist = run_hybrid(inst, cfg)
        assert len(hist.records) == math.ceil(k / cadence) + 1
        assert hist.records[0].iter == 0
        assert hist.records[-1].iter == k


def test_history_record_invariants():
    inst = random_instance(4, rng=6)
    cfg = HybridConfig(depth=2, max_iterations=40, metric_cadence=10, seed=3)
    hist = run_hybrid(inst, cfg)
    iters = [r.iter for r in hist.records]
    assert iters == sorted(set(iters))
    objs = [r.objective for r in hist.records]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
    for r in hist.records:
        assert 0.0 <= r.near_opt_prob <= 1.0 + 1e-12
        assert r.avg_hamming_top50 >= 0.0
        assert len(r.best_bitstring) == 4 and set(r.best_bitstring) <= {"0", "1"}
    assert hist.final_distribution.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(hist.final_theta.p >= 0)
    assert np.all(hist.final_theta.s1 >= 0)
    assert np.all(hist.final_theta.s2 >= 0)


def test_run_hybrid_deterministic_given_seed():
    inst = random_instance(4, rng=9)
    cfg = HybridConfig(max_iterations=30, metric_cadence=10, seed=5)
    h1 = run_hybrid(inst, cfg)
    h2 = run_hybrid(inst, cfg)
    for r1, r2 in zip(h1.records, h2.records):
        assert (r1.iter, r1.objective, r1.near_opt_prob,
                r1.avg_hamming_top50, r1.best_bitstring) == (
            r2.iter, r2.objective, r2.near_opt_prob,
            r2.avg_hamming_top50, r2.best_bitstring)
    assert np.array_equal(h1.final_distribution, h2.final_distribution)
    assert np.array_equal(h1.final_theta.pack(), h2.final_theta.pack())


def test_run_hybrid_with_shots_smoke():
    inst = random_instance(3, rng=12)
    cfg = HybridConfig(max_iterations=10, metric_cadence=5, seed=1, shots=128)
    hist = run_hybrid(inst, cfg)
    assert hist.final_distribution.sum() == pytest.approx(1.0, abs=1e-9)
    assert len(hist.records) == 3


def test_shot_mode_does_not_depend_on_cadence():
    inst = random_instance(6, rng=17)
    hists = {
        cadence: run_hybrid(inst, HybridConfig(depth=1, max_iterations=100,
                                               metric_cadence=cadence, shots=200, seed=0))
        for cadence in (5, 10, 100)
    }
    ref = hists[5]
    by_iter = {r.iter: dataclasses.replace(r, elapsed_ms=0.0) for r in ref.records}
    for cadence, hist in hists.items():
        assert np.array_equal(hist.final_theta.pack(), ref.final_theta.pack()), cadence
        assert np.array_equal(hist.final_distribution, ref.final_distribution), cadence
        for r in hist.records:
            assert dataclasses.replace(r, elapsed_ms=0.0) == by_iter[r.iter], (cadence, r.iter)


def _fresh_distribution(inst, w, theta):
    return hybrid._evaluate(inst, w, theta, hybrid._Workspace(inst.n))[1]


# Captured when nelder_mead still had tolerance stops and run_hybrid wrote
# an off-cadence last record after the simplex returned; the runs must
# reproduce them bit for bit.  The second ends off the cadence (37 % 10 != 0)
# with shots > 0, so its last record is the one written at the final step.
_PINNED_RUNS = [
    (
        HybridConfig(depth=2, max_iterations=300, seed=0),
        300, 18939.36097135825, 0.016366127484546026, "1111111000",
        [0.5547189029552743, 0.5804549474034431, -0.1837886759803729,
         -0.6313094699188828, 179.35750118405133, 192.93268341191867,
         54.86038992465746, 55.65884164969327, 66.58037165323573,
         32.59322325058147, 35.26267912294735, 24.588962200059875,
         22.07336455869127, 23.85632693443079, 40.28451224238827,
         43.49312599660769, 31.68449429218524, 37.68358486761673,
         53.161308386838336, 14.208337210456627, 11.065138483325743,
         13.283802661656091, 14.935803976351803, 13.760388221372333,
         258.05418333207194, 265.26177842880804, 79.79384218495542,
         65.4350288197401, 98.5718899801426, 46.15947884094617,
         50.204906185678055, 31.969647061455326, 32.18312470455126,
         32.45614726239696],
    ),
    (
        HybridConfig(depth=1, max_iterations=37, metric_cadence=10, shots=1024, seed=0),
        37, 26190.886423775897, 0.0087890625, "0010011101",
        [0.4998130647480581, 0.152943487649555, 191.35928405777298,
         191.63600497498624, 55.149524371907304, 54.81905971440271,
         68.28724399289247, 33.82279697489149, 36.05930439701635,
         23.33249108042243, 23.33249108042243, 23.222785529751874,
         41.93788007182413, 40.83190835100585, 34.892799038613006,
         35.00479700792708, 43.5438827046324, 13.700134579953291,
         10.870068042930725, 13.202679390317712, 13.260127398432225,
         13.260127398432225, 263.9440065763942, 263.11685283844207,
         75.4558078963023, 75.79120349396428, 93.94617880910867,
         46.640740611670196, 49.36560736642315, 31.93476074125818,
         32.06550917052323, 32.06550917052323],
    ),
]


@pytest.mark.parametrize("cfg,last_iter,objective_,near_opt,bits,theta", _PINNED_RUNS,
                         ids=["p2-300", "p1-37-shots"])
def test_pinned_trajectory_on_ten_unit(cfg, last_iter, objective_, near_opt, bits, theta):
    hist = run_hybrid(builtin_ten_unit(700.0), cfg)
    last = hist.records[-1]
    assert last.iter == last_iter
    assert repr(last.objective) == repr(objective_)
    assert repr(last.near_opt_prob) == repr(near_opt)
    assert last.best_bitstring == bits
    assert repr(hist.final_theta.pack().tolist()) == repr(theta)


def test_evaluate_in_a_reused_workspace_matches_a_fresh_one():
    inst = random_instance(5, rng=4)
    w = PenaltyWeights.default_for(inst)
    flat = UcInstance(units=tuple(UnitSpec(10.0, 100.0, 0.0, 5.0, 1e-3) for _ in range(5)),
                      load=150.0)
    zero = np.zeros(5)
    steps = [
        (inst, w, _theta(inst, [0.3, -0.2], [0.5, 0.1])),
        # a = 0 everywhere, zero weights and p = 0: a zero-spread table
        (flat, PenaltyWeights(0.0, 0.0, 0.0),
         ThetaVector(gamma=[0.7, 0.4], beta=[0.2, 0.9], p=zero, s1=zero, s2=zero)),
        (inst, w, _theta(inst, [1.1, 0.6], [-0.3, 0.8], seed=3)),
        (inst, PenaltyWeights(0.0, 0.0, 0.0), _theta(inst, [0.2, 0.2], [0.2, 0.2], seed=5)),
        (flat, PenaltyWeights(0.0, 0.0, 0.0),
         ThetaVector(gamma=[2.0, -1.0], beta=[0.6, -0.4], p=zero, s1=zero, s2=zero)),
    ]
    ws = hybrid._Workspace(5)
    ws.table.fill(np.nan)
    ws.scratch.fill(np.nan)
    ws.next.fill(np.nan)
    for step, (instance, weights, theta) in enumerate(steps):
        value, probs = hybrid._evaluate(instance, weights, theta, ws)
        assert (instance is flat) == (not ws.scratch.any()), step  # the zero phase table
        fresh_value, fresh_probs = hybrid._evaluate(instance, weights, theta, hybrid._Workspace(5))
        assert probs is ws.next
        assert repr(value) == repr(fresh_value), step
        assert probs.tobytes() == fresh_probs.tobytes(), step
        ws.keep_next()


def test_warm_evaluation_allocates_no_table():
    n = 16
    inst = random_instance(n, rng=1)
    w = PenaltyWeights.default_for(inst)
    theta = _theta(inst, [0.3, 0.5], [0.2, 0.4])
    ws = hybrid._Workspace(n)
    hybrid._evaluate(inst, w, theta, ws)  # warm-up
    tracemalloc.start()
    try:
        hybrid._evaluate(inst, w, theta, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << n)  # less than one real table


def test_warm_sampled_evaluation_allocates_only_the_counts():
    # multinomial's int64 counts (8 * 2**n bytes) have no out=; the public
    # sample's check and its p / p.sum() copy took the peak to 1024 KB here
    n = 16
    inst = random_instance(n, rng=1)
    w = PenaltyWeights.default_for(inst)
    theta = _theta(inst, [0.3, 0.5], [0.2, 0.4])
    ws = hybrid._Workspace(n)
    rng = np.random.default_rng(0)
    hybrid._evaluate(inst, w, theta, ws, 1024, rng)  # warm-up
    tracemalloc.start()
    try:
        hybrid._evaluate(inst, w, theta, ws, 1024, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (1 << n)


def test_sampled_run_reports_a_non_finite_objective():
    # refused as the table is built, with no RuntimeWarning (the suite fails
    # on one), not by the sampled path's check of the distribution's total
    # after a full simulation
    inst = builtin_ten_unit(700.0)
    cfg = HybridConfig(max_iterations=5, shots=64, weights=PenaltyWeights(1e308, 1e308, 1e308))
    with pytest.raises(NonFiniteObjectiveError, match=r"^cost table is not finite at "
                       r"PenaltyWeights\(lambda1=1e\+308, lambda2=1e\+308, lambda3=1e\+308\)"):
        run_hybrid(inst, cfg)


def test_final_distribution_survives_the_next_run():
    inst = random_instance(6, rng=17)
    cfg = HybridConfig(depth=2, max_iterations=80, metric_cadence=10, seed=0)
    first = run_hybrid(inst, cfg)
    kept = first.final_distribution.tobytes()
    second = run_hybrid(inst, dataclasses.replace(cfg, seed=1))
    assert first.final_distribution.tobytes() == kept
    assert second.final_distribution is not first.final_distribution


def test_each_vertex_is_simulated_once(monkeypatch):
    _check_each_vertex_is_simulated_once(
        monkeypatch, HybridConfig(depth=2, max_iterations=60, metric_cadence=7, seed=0))


@pytest.mark.parametrize("cfg", [
    HybridConfig(depth=1, max_iterations=60, metric_cadence=7, seed=0),
    HybridConfig(depth=2, max_iterations=400, metric_cadence=7, seed=0),
], ids=["p1-60", "p2-400"])
def test_each_vertex_is_simulated_once_while_the_best_is_held(monkeypatch, cfg):
    # the best vertex's distribution is held across many evaluations that
    # write the workspace's other distribution array
    _check_each_vertex_is_simulated_once(monkeypatch, cfg)


def _check_each_vertex_is_simulated_once(monkeypatch, cfg):
    inst = random_instance(6, rng=17)
    simulations = 0
    real_distribution = qaoa.qaoa_distribution

    def counting_distribution(*args, **kwargs):
        nonlocal simulations
        simulations += 1
        return real_distribution(*args, **kwargs)

    results, best_vertices = [], {}
    real_nelder_mead = hybrid.nelder_mead

    def capturing_nelder_mead(*args, callback, **kwargs):
        def spy(iteration, x, fval):
            best_vertices[iteration] = x.copy()
            callback(iteration, x, fval)

        results.append(real_nelder_mead(*args, callback=spy, **kwargs))
        return results[-1]

    monkeypatch.setattr(qaoa, "qaoa_distribution", counting_distribution)
    monkeypatch.setattr(hybrid, "nelder_mead", capturing_nelder_mead)
    hist = run_hybrid(inst, cfg)
    monkeypatch.undo()

    (result,) = results
    assert simulations == result.fevals
    assert hist.records[-1].iter == cfg.max_iterations
    assert hist.records[-1].objective == result.fun

    w = PenaltyWeights.default_for(inst)
    nos = near_optimal_set(inst, cfg.near_opt_fraction)
    fresh = _fresh_distribution(inst, w, hist.final_theta)
    assert np.array_equal(hist.final_distribution, fresh)
    # every record scores the distribution at the vertex the callback saw
    for r in hist.records:
        theta = ThetaVector.unpack(best_vertices[r.iter], cfg.depth, inst.n)
        probs = _fresh_distribution(inst, w, theta)
        snap = compute_snapshot(probs, nos)
        assert (r.near_opt_prob, r.avg_hamming_top50, r.best_bitstring) == (
            snap.near_opt_prob, snap.avg_hamming_top50,
            index_to_string(int(np.argmax(probs)), inst.n)), r.iter


def test_run_hybrid_validates_only_at_the_boundary(monkeypatch):
    built = []
    real_assignment = ContinuousAssignment.__post_init__

    def counting(self):
        built.append(type(self).__name__)
        real_assignment(self)

    monkeypatch.setattr(ContinuousAssignment, "__post_init__", counting)
    inst = random_instance(4, rng=2)
    run_hybrid(inst, HybridConfig(depth=2, max_iterations=20, seed=0))
    assert built == []
    # the public objective re-runs its theta's own check, once per call,
    # and builds no ContinuousAssignment
    checks = 0
    real_check = ThetaVector.__post_init__

    def counting_check(self):
        nonlocal checks
        checks += 1
        real_check(self)

    monkeypatch.setattr(ThetaVector, "__post_init__", counting_check)
    w = PenaltyWeights.default_for(inst)
    theta = _theta(inst, [0.1], [0.2])
    checks = 0
    objective(inst, w, theta)
    assert (checks, built) == (1, [])
    # so an entry written after the theta was built is caught
    for name in ("p", "gamma"):
        theta = _theta(inst, [0.1], [0.2])
        getattr(theta, name)[0] = math.nan
        with pytest.raises(ValidationError, match=rf"^{name} must be finite, got \[nan\]"):
            objective(inst, w, theta)


def test_run_hybrid_builds_one_theta_per_run(monkeypatch):
    # unpacking a ThetaVector per proposal made the count grow with the budget
    built = 0
    real = ThetaVector.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        real(self)

    monkeypatch.setattr(ThetaVector, "__post_init__", counting)
    inst = random_instance(4, rng=2)
    counts = []
    for iterations in (20, 40):
        built = 0
        run_hybrid(inst, HybridConfig(depth=2, max_iterations=iterations, seed=0))
        counts.append(built)
    assert counts[0] == counts[1]


def test_run_hybrid_guard_and_infeasible():
    big = random_instance(21, rng=0)
    with pytest.raises(SizeGuardError):
        run_hybrid(big, HybridConfig(max_iterations=1))
    with pytest.warns(UserWarning):
        hopeless = UcInstance(units=(UnitSpec(10.0, 50.0, 1.0, 1.0, 1e-3),),
                              load=500.0)
    with pytest.raises(InfeasibleError):
        run_hybrid(hopeless, HybridConfig(max_iterations=1))


def test_run_hybrid_rejects_zero_default_weights():
    inst = UcInstance(units=(UnitSpec(10.0, 100.0, 0.0, 5.0, 1e-3),
                             UnitSpec(20.0, 200.0, 0.0, 6.0, 2e-3)), load=150.0)
    with pytest.raises(ValidationError, match="explicit weights"):
        run_hybrid(inst, HybridConfig(max_iterations=1))
    hist = run_hybrid(inst, HybridConfig(max_iterations=1,
                                         weights=PenaltyWeights(1.0, 1.0, 1.0)))
    assert len(hist.records) == 2


@given(instances(max_units=5, degenerate=True))
@settings(max_examples=25, deadline=None)
def test_run_hybrid_on_degenerate_draws(inst):
    # step units, fixed-output units, a = 0 units and loads at capacity
    try:
        PenaltyWeights.default_for(inst)
        weights = None
    except ValidationError:  # 10*max(a)/L**2 is 0, as for a = 0 or a subnormal a
        weights = PenaltyWeights(1.0, 1.0, 1.0)
    cfg = HybridConfig(depth=1, max_iterations=20, metric_cadence=5, weights=weights)
    if not enumerate_all(inst)[0][1].feasible:
        with pytest.raises(InfeasibleError):
            run_hybrid(inst, cfg)
        return
    hist = run_hybrid(inst, cfg)
    assert all(math.isfinite(r.objective) for r in hist.records)
    assert abs(hist.final_distribution.sum() - 1.0) <= 1e-12
