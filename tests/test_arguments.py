"""Every scalar argument of the public API goes through one of two checkers:
`instance._finite_float` for real numbers and `instance._count` for
integers.  Each entry point below refuses a bool, a string, None, nan and
a value under its floor (and, for a count, a non-integral float) with a
ValidationError naming the argument, and takes numpy scalars as it takes
Python numbers.  `HybridConfig`'s counts and the instance load have their
own tables in test_hybrid.py and test_instance.py.

Every vector argument goes through a third, `instance._finite_vector`.
Each argument in `_VECTORS` refuses a string, complex or ragged entry, a
2-D array, nan and inf, and where it has them a negative entry and a wrong
length, with a ValidationError that starts with the argument's name, and
takes bools and numpy arrays.  A test walks the signatures of everything
`ucqaoa` exports, so a vector argument missing from the table, and not
exempted with its reason in `_UNCHECKED_VECTORS`, fails it.
`_ORACLE_VECTORS` holds the same cases for the oracle copies of what left
the package."""

import inspect
import math
import re

import numpy as np
import pytest

from oracles import ContinuousAssignment, avg_hamming_top_k, near_opt_probability
import ucqaoa
from ucqaoa.baseline import random_instance, scaling_benchmark, solve_approx
from ucqaoa.dispatch import economic_dispatch, near_optimal_set
from ucqaoa.errors import ValidationError
from ucqaoa.hybrid import HybridConfig, ThetaVector
from ucqaoa.instance import UnitSpec, _finite_vector, builtin_ten_unit
from ucqaoa.metrics import compute_snapshot, top_k
from ucqaoa.neldermead import nelder_mead
from ucqaoa.qaoa import sample
from ucqaoa.qubo import PenaltyWeights

_UNIFORM = np.full(4, 0.25)

# name -> a call that passes the value as that argument; every floor is 0
_REALS = {
    "gap": lambda v: solve_approx(random_instance(4, rng=0), v),
    "fraction": lambda v: near_optimal_set(random_instance(4, rng=0), v),
    "lambda2": lambda v: PenaltyWeights(1.0, v, 1.0),
    "near_opt_fraction": lambda v: HybridConfig(near_opt_fraction=v),
    "p_min": lambda v: UnitSpec(v, 10.0, 1.0, 1.0, 1.0),
    "c": lambda v: UnitSpec(0.0, 10.0, 1.0, 1.0, v),
}

# name -> a call that passes the value as that count; every floor is 1
_COUNTS = {
    "n": lambda v: random_instance(v, rng=0),
    "trials": lambda v: scaling_benchmark([2], trials=v),
    "sizes[0]": lambda v: scaling_benchmark([v], trials=1),
    "k": lambda v: top_k(_UNIFORM, v),
    "shots": lambda v: sample(_UNIFORM, v, 0),
    "max_iter": lambda v: nelder_mead(lambda x: float(x @ x), [1.0], max_iter=v),
}

_BAD = [True, "1", None, math.nan]
_BAD_IDS = ["bool", "str", "none", "nan"]


@pytest.mark.parametrize("name", sorted(_REALS))
@pytest.mark.parametrize("value", _BAD + [-1.0, 10**400], ids=_BAD_IDS + ["negative", "huge"])
def test_real_arguments_reject(name, value):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} "):
        _REALS[name](value)


@pytest.mark.parametrize("name", sorted(_REALS))
def test_real_arguments_take_numpy_scalars(name):
    for value in (np.float64(0.5), np.int64(1)):
        _REALS[name](value)


@pytest.mark.parametrize("name", sorted(_COUNTS))
@pytest.mark.parametrize("value", _BAD + [2.5, 0], ids=_BAD_IDS + ["half", "zero"])
def test_count_arguments_reject(name, value):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} "):
        _COUNTS[name](value)


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_count_arguments_take_numpy_integers(name):
    _COUNTS[name](np.int64(2))


def test_scaling_benchmark_rejects_no_sizes():
    # an empty sweep once returned no rows, and `bench-classical --sizes ,`
    # wrote only the CSV header and exited 0
    with pytest.raises(ValidationError, match=r"^sizes must name at least one size, got none$"):
        scaling_benchmark([])


def test_checked_values_are_stored_as_python_numbers():
    w = PenaltyWeights(np.float64(1.5), np.int64(2), 3)
    assert [type(v) for v in (w.lambda1, w.lambda2, w.lambda3)] == [float] * 3
    cfg = HybridConfig(depth=np.int64(2), near_opt_fraction=np.float32(0.5))
    assert type(cfg.depth) is int and type(cfg.near_opt_fraction) is float
    # the same numbers give the same answer whatever their type
    inst = builtin_ten_unit(700.0)
    assert (near_optimal_set(inst, np.float64(0.05)).members.tolist()
            == near_optimal_set(inst, 0.05).members.tolist())


_PAIR = random_instance(2, rng=0)
_PAIR_NOS = near_optimal_set(_PAIR, 1.0)
_THETA = dict(gamma=[0.1, 0.2], beta=[0.3, 0.4], p=[1.0, 2.0], s1=[1.0, 0.0], s2=[0.0, 1.0])
_CONTINUOUS = dict(p=[1.0, 2.0], s1=[0.0, 1.0], s2=[1.0, 0.0])


def _with(make, base, name):
    return lambda v: make(**{**base, name: v})


# "callable.argument" -> (the name its errors start with, a call that
# passes the value as that argument, a value it takes (two entries or
# more), whether it has a floor of 0, whether its length is fixed).
# Unchecked, a string entry gave a bare ValueError, a complex one a
# TypeError and a ragged list numpy's "inhomogeneous shape" ValueError in
# ThetaVector, ContinuousAssignment, top_k, the metrics and nelder_mead.
_VECTORS = {
    **{f"ThetaVector.{name}": (name, _with(ThetaVector, _THETA, name), _THETA[name], False, False)
       for name in _THETA},
    # unchecked, an all-nan or all -1.0 distribution of the builtin set
    # scored an average Hamming distance of 1.38 and a near-optimal
    # probability of nan, and a (2, 512) one read "distribution has 1024
    # entries, expected 1024"
    "compute_snapshot.probs": (
        "probs", lambda v: compute_snapshot(v, _PAIR_NOS), [0.25] * 4, True, True),
    # unchecked, top_k(np.ones((2, 3)), 2) and sample(np.ones((2, 2)) / 4, 10, 0)
    # returned 2-D results
    "top_k.probs": ("probs", lambda v: top_k(v, 2), [0.25] * 4, True, False),
    "sample.probs": ("probs", lambda v: sample(v, 10, 0), [0.25] * 4, True, False),
    # unchecked, nelder_mead(lambda x: 1.0, [nan, 1.0], max_iter=3) returned x = [nan, 1.0]
    "nelder_mead.x0": ("x0", lambda v: nelder_mead(lambda x: float(x @ x), v, max_iter=1),
                       [1.0, 2.0], False, False),
    # a negative entry is refused as "commitment entries must be 0 or 1"
    "economic_dispatch.commit": (
        "commitment", lambda v: economic_dispatch(_PAIR, v), [1, 1], True, True),
}

# the same, for the tests/oracles.py copies of three names the package no
# longer exports; the signature walk below does not see them
_ORACLE_VECTORS = {
    "ContinuousAssignment.p": ("p", _with(ContinuousAssignment, _CONTINUOUS, "p"),
                               _CONTINUOUS["p"], True, False),
    **{f"ContinuousAssignment.{name}": (name, _with(ContinuousAssignment, _CONTINUOUS, name),
                                        _CONTINUOUS[name], True, True)
       for name in ("s1", "s2")},
    "near_opt_probability.probs": (
        "probs", lambda v: near_opt_probability(v, _PAIR_NOS), [0.25] * 4, True, True),
    "avg_hamming_top_k.probs": (
        "probs", lambda v: avg_hamming_top_k(v, _PAIR_NOS), [0.25] * 4, True, True),
}
_ALL_VECTORS = {**_VECTORS, **_ORACLE_VECTORS}

# vector arguments that are not checked, and why
_UNCHECKED_VECTORS = {
    "DispatchSolution.powers": "a result the package builds",
    "NearOptimalSet.members": "a result the package builds",
    "NmResult.x": "a result the package builds",
    "RunHistory.final_distribution": "a result the package builds",
    "qaoa_distribution.diag": "runs once per evaluation on arrays the run built; size-checked",
    "qaoa_distribution.out": "runs once per evaluation on arrays the run built; size-checked",
    "nelder_mead.f": "a callable, not a vector",
    "scaling_benchmark.sizes": "each entry goes through _count (see _COUNTS)",
}


def _bad_vectors(good, floored, sized):
    head = list(good[:-1])
    cases = {
        "str": head + ["1"],
        "complex": head + [1j],
        "ragged": head + [[1.0, 1.0]],
        "2-D": np.array([good]),
        "nan": head + [math.nan],
        "inf": head + [math.inf],
    }
    if floored:
        cases["negative"] = head + [-1.0]
    if sized:
        cases["short"] = head
    return cases


_VECTOR_CASES = [(argument, case) for argument in sorted(_ALL_VECTORS)
                 for case in _bad_vectors(*_ALL_VECTORS[argument][2:])]


@pytest.mark.parametrize("argument, case", _VECTOR_CASES,
                         ids=[f"{argument}-{case}" for argument, case in _VECTOR_CASES])
def test_vector_arguments_reject(argument, case):
    name, call, good, floored, sized = _ALL_VECTORS[argument]
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} "):
        call(_bad_vectors(good, floored, sized)[case])


_PROBS_CASES = _bad_vectors([0.25] * 4, True, True)


@pytest.mark.parametrize("case", sorted(_PROBS_CASES))
def test_compute_snapshot_refuses_each_probs_the_two_metrics_refuse(case):
    # compute_snapshot once ran both metrics, near_opt_probability first; it
    # now checks probs itself, once, and must refuse the same values alike
    with pytest.raises(ValidationError) as want:
        near_opt_probability(_PROBS_CASES[case], _PAIR_NOS)
    with pytest.raises(ValidationError) as got:
        compute_snapshot(_PROBS_CASES[case], _PAIR_NOS)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("argument", sorted(_ALL_VECTORS))
def test_vector_arguments_take_lists_and_numpy_arrays(argument):
    _, call, good, _, _ = _ALL_VECTORS[argument]
    for value in (good, np.array(good), np.array(good, dtype=np.float32)):
        call(value)


def test_vector_arguments_take_bools_and_numpy_integers():
    # commitments of bools and numpy integers are priced as 0/1 ones
    want = economic_dispatch(_PAIR, (1, 0)).cost
    for commit in ([True, False], np.array([1, 0], dtype=np.int8)):
        assert economic_dispatch(_PAIR, commit).cost == want
    assert ContinuousAssignment(p=[True], s1=[0], s2=[0]).p.tolist() == [1.0]


def test_theta_vector_refuses_scalar_angles():
    # unchecked, a scalar angle was taken; .pack() then raised "zero-dimensional
    # arrays cannot be concatenated" and objective "iteration over a 0-d array"
    with pytest.raises(ValidationError, match="^gamma must be a vector, got 0.1"):
        ThetaVector(gamma=0.1, beta=0.2, p=[1.0], s1=[1.0], s2=[1.0])


def test_vector_errors_quote_a_few_entries_not_the_vector():
    with pytest.raises(ValidationError) as info:
        near_opt_probability(np.full(1024, math.nan), near_optimal_set(builtin_ten_unit(), 0.05))
    assert str(info.value) == ("probs must be finite and >= 0, "
                               "got [nan, nan, nan, nan, nan] and 1019 more")


def test_finite_vector_returns_a_float64_vector_as_itself():
    # run_hybrid relies on this: its one ThetaVector is a set of views of
    # the buffer each proposal is written into
    buffer = np.arange(6.0)
    view = buffer[2:4]
    assert _finite_vector(view, "x") is view


def test_finite_vector_takes_ints_past_int64_as_floats():
    # numpy holds them as objects; they are real numbers all the same
    assert _finite_vector([2**64, 1], "x").tolist() == [2.0**64, 1.0]
    with pytest.raises(ValidationError, match="^x is too large for a float"):
        _finite_vector([10**400, 1], "x")
    # a bool beside them is 0 or 1, as in a bool array; it went through
    # _finite_float, which refused it: "x must be a number, got True"
    assert _finite_vector([True, 1], "x").tolist() == [1.0, 1.0]
    assert _finite_vector([True, 2**64], "x").tolist() == [1.0, 2.0**64]


def test_every_vector_argument_is_checked_or_exempted():
    found = set()
    for export in dir(ucqaoa):
        obj = getattr(ucqaoa, export)
        if export.startswith("_") or not (
            inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception)
        ):
            continue
        for param in inspect.signature(obj).parameters.values():
            if re.search(r"\b(ndarray|Sequence)\b", str(param.annotation)):
                found.add(f"{export}.{param.name}")
    assert found == set(_VECTORS) | set(_UNCHECKED_VECTORS)
