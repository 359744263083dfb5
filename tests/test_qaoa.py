import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Qubo,
    butterfly_mixer,
    circuit_angles,
    gate_decomposed_phase,
    mix_fresh,
    phase_fresh,
    qubo_diagonal,
    qubo_to_ising,
    reference_distribution,
    uniform_state,
)
from ucqaoa import qaoa
from ucqaoa.errors import SizeGuardError, ValidationError
from ucqaoa.qaoa import qaoa_distribution, sample

angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)


def _random_qubo(rng, n):
    linear = rng.uniform(-5.0, 5.0, size=n)
    quadratic = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                quadratic[i, j] = rng.uniform(-3.0, 3.0)
    return Qubo(n=n, constant=rng.uniform(-2.0, 2.0), linear=linear,
                quadratic=quadratic)


# ---------------------------------------------------------------------------
# params and state construction


def test_params_validation():
    # the circuit's angles are a ThetaVector's, checked when it is built
    assert circuit_angles(gamma=[0.1, 0.2], beta=[0.3, 0.4]).depth == 2
    for gamma, beta in (([0.1], [0.1, 0.2]), ([], [])):
        with pytest.raises(ValidationError, match="^gamma and beta must have equal length P >= 1$"):
            circuit_angles(gamma, beta)
    with pytest.raises(ValidationError, match="^gamma must be finite"):
        circuit_angles(gamma=[float("inf")], beta=[0.0])


def test_uniform_state_amplitudes():
    sv1 = uniform_state(1)
    assert np.allclose(sv1, [1 / math.sqrt(2)] * 2)
    sv2 = uniform_state(2)
    assert np.allclose(sv2, [0.5] * 4)


@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_uniform_state_norm(n):
    sv = uniform_state(n)
    assert np.sum(np.abs(sv) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_uniform_state_guard():
    with pytest.raises(SizeGuardError):
        uniform_state(21)
    with pytest.raises(SizeGuardError):
        uniform_state(0)


# ---------------------------------------------------------------------------
# phase layer


def test_zero_gamma_is_identity():
    sv = uniform_state(3)
    out = phase_fresh(sv, np.arange(8.0), 0.0)
    assert np.array_equal(out, sv)


def test_constant_table_is_global_phase():
    sv = uniform_state(2)
    out = phase_fresh(sv, np.full(4, 7.5), 1.3)
    assert np.allclose(np.abs(out) ** 2, np.abs(sv) ** 2, atol=1e-12)
    assert np.allclose(out, sv * np.exp(-1j * 1.3 * 7.5))


def test_phase_sign_convention():
    sv = uniform_state(1)
    out = phase_fresh(sv, np.array([0.0, math.pi]), 1.0)
    assert out[0] == pytest.approx(sv[0])
    assert out[1] == pytest.approx(-sv[1], abs=1e-12)


def _bad_out_calls():
    diag, theta = np.zeros(8), circuit_angles([0.1], [0.2])
    return {
        "distribution-out": lambda: qaoa_distribution(diag, theta, out=np.empty(16)),
        "distribution-states": lambda: qaoa_distribution(
            diag, theta, states=(np.empty(8, complex), np.empty(4, complex))),
    }


@pytest.mark.parametrize("call", list(_bad_out_calls()))
def test_wrong_sized_out_is_a_validation_error(call):
    # checked at the circuit's one entry, before numpy could broadcast or
    # raise its own error; the per-layer kernels check nothing
    with pytest.raises(ValidationError, match=r"size (4|16) != state size 8"):
        _bad_out_calls()[call]()


# ---------------------------------------------------------------------------
# mixer layer


def test_zero_beta_is_identity():
    sv = phase_fresh(uniform_state(3), np.arange(8.0), 0.7)
    assert np.allclose(mix_fresh(sv, 0.0), sv)


def test_mixer_preserves_uniform_probabilities():
    sv = uniform_state(4)
    out = mix_fresh(sv, 1.1)
    assert np.allclose(np.abs(out) ** 2, np.full(16, 1 / 16), atol=1e-12)


def test_mixer_single_qubit_rotation():
    sv = np.array([1.0, 0.0], dtype=complex)
    out = mix_fresh(sv, math.pi / 2)
    assert np.allclose(out, [0.0, -1j], atol=1e-12)


@given(angles)
@settings(max_examples=25)
def test_mixer_pi_periodic_in_probability(beta):
    sv = phase_fresh(uniform_state(3), np.arange(8.0) ** 2, 0.3)
    p1 = np.abs(mix_fresh(sv, beta)) ** 2
    p2 = np.abs(mix_fresh(sv, beta + math.pi)) ** 2
    assert np.allclose(p1, p2, atol=1e-10)


@given(angles)
@settings(max_examples=25)
def test_mixer_preserves_norm(beta):
    rng = np.random.default_rng(3)
    sv = rng.normal(size=16) + 1j * rng.normal(size=16)
    sv /= np.linalg.norm(sv)
    out = mix_fresh(sv, beta)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-9)


MIXER_BETAS = [0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi, 37.3]


def _random_state(seed, n):
    rng = np.random.default_rng(seed)
    sv = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sv / np.linalg.norm(sv)


@pytest.mark.parametrize("n", range(1, 17))
def test_mixer_matches_butterfly_oracle(n):
    sv = _random_state(n, n)
    for beta in MIXER_BETAS:
        deviation = np.max(np.abs(mix_fresh(sv, beta) - butterfly_mixer(sv, beta)))
        assert deviation <= 1e-13, (beta, deviation)


@given(st.integers(1, 16), st.floats(-100.0, 100.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_mixer_matches_butterfly_oracle_drawn(n, beta, seed):
    sv = _random_state(seed, n)
    assert np.max(np.abs(mix_fresh(sv, beta) - butterfly_mixer(sv, beta))) <= 1e-13


# ---------------------------------------------------------------------------
# full circuit


def test_zero_angles_give_uniform():
    diag = np.random.default_rng(0).uniform(-10, 10, size=32)
    theta = circuit_angles(gamma=[0.0, 0.0], beta=[0.0, 0.0])
    probs = qaoa_distribution(diag, theta)
    assert np.allclose(probs, np.full(32, 1 / 32), atol=1e-12)


def test_constant_diag_gives_uniform():
    theta = circuit_angles(gamma=[0.9, -0.4], beta=[0.2, 1.7])
    probs = qaoa_distribution(np.full(8, 3.25), theta)
    assert np.allclose(probs, np.full(8, 1 / 8), atol=1e-10)


def test_single_qubit_closed_form_point_mass():
    c = 4.0
    theta = circuit_angles(gamma=[math.pi / (2 * c)], beta=[math.pi / 4])
    probs = qaoa_distribution(np.array([0.0, c]), theta)
    assert probs[1] == pytest.approx(1.0, abs=1e-12)


@given(st.floats(0.1, 10.0), angles, angles)
@settings(max_examples=40)
def test_single_qubit_closed_form(c, gamma, beta):
    probs = qaoa_distribution(np.array([0.0, c]),
                              circuit_angles(gamma=[gamma], beta=[beta]))
    predicted = 0.5 * (1.0 + math.sin(2 * beta) * math.sin(gamma * c))
    assert probs[1] == pytest.approx(predicted, abs=1e-9)
    assert probs[0] == pytest.approx(1.0 - predicted, abs=1e-9)


def test_padded_zero_layer_changes_nothing():
    diag = np.random.default_rng(5).uniform(0, 20, size=16)
    p1 = qaoa_distribution(diag, circuit_angles(gamma=[0.4], beta=[0.6]))
    p2 = qaoa_distribution(diag, circuit_angles(gamma=[0.4, 0.0], beta=[0.6, 0.0]))
    assert np.allclose(p1, p2, atol=1e-12)


@given(st.integers(1, 8), st.data())
@settings(max_examples=20)
def test_distribution_normalized_deep_circuits(depth, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    diag = rng.uniform(-100, 100, size=64)
    theta = circuit_angles(gamma=rng.uniform(-1, 1, size=depth),
                           beta=rng.uniform(-1, 1, size=depth))
    probs = qaoa_distribution(diag, theta)
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


_REUSED = {}  # n -> (out, states), shared by every example of that n


@given(st.integers(1, 12), st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_distribution_in_a_reused_workspace_is_the_reference_bit_for_bit(n, depth, data):
    size = 1 << n
    if data.draw(st.booleans(), label="constant"):
        diag = np.full(size, data.draw(st.floats(-1e6, 1e6), label="value"))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        diag = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-3, 6)
    theta = circuit_angles(gamma=data.draw(st.lists(angles, min_size=depth, max_size=depth)),
                           beta=data.draw(st.lists(angles, min_size=depth, max_size=depth)))
    out, states = _REUSED.setdefault(
        n, (np.empty(size), (np.empty(size, complex), np.empty(size, complex))))
    probs = qaoa_distribution(diag, theta, out=out, states=states)
    assert probs is out
    expected = reference_distribution(diag, theta.gamma, theta.beta)
    assert probs.tobytes() == expected.tobytes()
    assert qaoa_distribution(diag, theta).tobytes() == expected.tobytes()


# the expectation is taken over the distribution as hybrid._evaluate takes it:
# float(np.dot(probs, diag))


def test_expectation_uniform_is_mean():
    diag = np.array([1.0, 2.0, 3.0, 6.0])
    probs = qaoa_distribution(diag, circuit_angles(gamma=[0.0], beta=[0.0]))
    assert float(np.dot(probs, diag)) == pytest.approx(3.0)


def test_expectation_point_mass():
    diag = np.array([0.0, 4.0])
    probs = qaoa_distribution(diag, circuit_angles(gamma=[math.pi / 8], beta=[math.pi / 4]))
    assert float(np.dot(probs, diag)) == pytest.approx(4.0, abs=1e-12)


@given(st.data())
@settings(max_examples=30)
def test_expectation_within_bounds(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    diag = rng.uniform(-50, 50, size=16)
    theta = circuit_angles(gamma=rng.uniform(-1, 1, size=2),
                           beta=rng.uniform(-1, 1, size=2))
    val = float(np.dot(qaoa_distribution(diag, theta), diag))
    assert diag.min() - 1e-9 <= val <= diag.max() + 1e-9


def test_bad_table_size_rejected():
    theta = circuit_angles(gamma=[0.1], beta=[0.1])
    with pytest.raises(ValidationError):
        qaoa_distribution(np.zeros(3), theta)
    with pytest.raises(SizeGuardError):
        qaoa_distribution(np.zeros(1 << 21), theta)


def test_circuit_is_checked_once_whatever_its_depth(monkeypatch):
    # the layers once re-checked the arrays qaoa_distribution had checked:
    # 9 checks per circuit at P = 1 and 24 at P = 4
    calls = []
    for name in ("_check_size", "_qubit_count"):
        def counting(*args, real=getattr(qaoa, name)):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(qaoa, name, counting)
    diag = np.random.default_rng(2).uniform(-1.0, 1.0, 64)
    counts = []
    for depth in (1, 4):
        calls.clear()
        qaoa_distribution(diag, circuit_angles([0.3] * depth, [0.2] * depth))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 4


# ---------------------------------------------------------------------------
# sampling


def test_sample_point_mass():
    probs = np.zeros(8)
    probs[5] = 1.0
    counts = sample(probs, 1000, seed=0)
    assert counts[5] == 1000 and counts.sum() == 1000


def test_sample_uniform_statistics():
    counts = sample(np.full(4, 0.25), 10**6, seed=42)
    sigma = math.sqrt(10**6 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 250000) < 5 * sigma)


def test_sample_deterministic_and_stream_aware():
    probs = np.full(4, 0.25)
    assert np.array_equal(sample(probs, 100, seed=7), sample(probs, 100, seed=7))
    rng = np.random.default_rng(7)
    first = sample(probs, 100, seed=rng)
    second = sample(probs, 100, seed=rng)
    assert not np.array_equal(first, second)  # generator advanced


def test_sample_rejects_zero_shots():
    with pytest.raises(ValidationError):
        sample(np.full(4, 0.25), 0)


def test_sample_rejects_a_distribution_without_mass():
    # unchecked: "invalid value encountered in divide", then numpy's
    # ValueError from the multinomial draw
    with pytest.raises(ValidationError, match="^probs has no mass"):
        sample(np.zeros(4), 10, 0)


# ---------------------------------------------------------------------------
# gate decomposition


def test_gate_decomposition_zero_model_is_identity():
    from oracles import IsingModel

    ising = IsingModel(n=2, offset=0.0, h=np.zeros(2), j={})
    sv = uniform_state(2)
    assert np.array_equal(gate_decomposed_phase(sv, ising, 0.8), sv)


def test_gate_decomposition_single_coupling_parity():
    from oracles import IsingModel

    ising = IsingModel(n=2, offset=0.0, h=np.zeros(2), j={(0, 1): 0.5})
    out = gate_decomposed_phase(uniform_state(2), ising, math.pi)
    # z0*z1 = +1 for 00 and 11, -1 for 01 and 10; phases exp(∓i*pi/2)
    assert out[0] == pytest.approx(0.5 * -1j, abs=1e-12)
    assert out[3] == pytest.approx(0.5 * -1j, abs=1e-12)
    assert out[1] == pytest.approx(0.5 * 1j, abs=1e-12)
    assert out[2] == pytest.approx(0.5 * 1j, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_gate_decomposition_matches_direct_phase(n):
    rng = np.random.default_rng(100 + n)
    q = _random_qubo(rng, n)
    diag = qubo_diagonal(q)
    ising = qubo_to_ising(q)
    sv = uniform_state(n)
    for gamma in rng.uniform(-1.5, 1.5, size=5):
        direct = phase_fresh(sv, diag, gamma)
        decomposed = gate_decomposed_phase(sv, ising, gamma)
        overlap = abs(np.vdot(direct, decomposed))
        assert overlap >= 1.0 - 1e-8
        # offset phase included, so equality is exact, not just up to phase
        assert np.allclose(direct, decomposed, atol=1e-10)


def test_gate_decomposition_size_mismatch():
    from oracles import IsingModel

    ising = IsingModel(n=3, offset=0.0, h=np.zeros(3), j={})
    with pytest.raises(ValueError):
        gate_decomposed_phase(uniform_state(2), ising, 0.1)
