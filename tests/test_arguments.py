"""Every scalar argument of the public API goes through one of two checkers:
`instance._finite_float` for real numbers and `instance._count` for
integers.  Each entry point below refuses a bool, a string, None, nan and
a value under its floor (and, for a count, a non-integral float) with a
ValidationError naming the argument, and takes numpy scalars as it takes
Python numbers.  `HybridConfig`'s counts and the instance load have their
own tables in test_hybrid.py and test_instance.py."""

import math
import re

import numpy as np
import pytest

from ucqaoa.baseline import random_instance, scaling_benchmark, solve_approx
from ucqaoa.dispatch import near_optimal_set
from ucqaoa.errors import ValidationError
from ucqaoa.hybrid import HybridConfig
from ucqaoa.instance import UnitSpec, builtin_ten_unit
from ucqaoa.metrics import top_k
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


def test_checked_values_are_stored_as_python_numbers():
    w = PenaltyWeights(np.float64(1.5), np.int64(2), 3)
    assert [type(v) for v in (w.lambda1, w.lambda2, w.lambda3)] == [float] * 3
    cfg = HybridConfig(depth=np.int64(2), near_opt_fraction=np.float32(0.5))
    assert type(cfg.depth) is int and type(cfg.near_opt_fraction) is float
    # the same numbers give the same answer whatever their type
    inst = builtin_ten_unit(700.0)
    assert (near_optimal_set(inst, np.float64(0.05)).members.tolist()
            == near_optimal_set(inst, 0.05).members.tolist())
