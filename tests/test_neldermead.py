import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucqaoa.errors import NonFiniteObjectiveError, ValidationError
from ucqaoa.neldermead import nelder_mead


def test_quadratic_1d():
    res = nelder_mead(lambda x: (x[0] - 2.0) ** 2, [0.0])
    assert res.x[0] == pytest.approx(2.0, abs=1e-4)
    assert res.fun == pytest.approx(0.0, abs=1e-8)


def test_rosenbrock_2d():
    def rosen(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    d, max_iter = 2, 2000
    res = nelder_mead(rosen, [-1.2, 1.0], max_iter=max_iter)
    assert res.fevals <= (d + 1) + (d + 2) * max_iter
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_constant_objective_runs_full_budget():
    seen = []
    res = nelder_mead(lambda x: 5.0, [1.0, 2.0, 3.0], max_iter=500,
                      callback=lambda it, x, fx: seen.append(it))
    assert seen[-1] == 500
    assert res.fun == 5.0


def test_sphere_runs_full_budget():
    seen = []
    nelder_mead(lambda x: float(np.sum(x**2)), [3.0, -1.0], max_iter=40,
                callback=lambda it, x, fx: seen.append(it))
    assert seen[-1] == 40


def test_callback_fires_at_zero_and_every_iteration():
    seen = []

    def cb(iteration, x, fx):
        seen.append((iteration, fx))

    res = nelder_mead(lambda x: float(np.sum(x**2)), [4.0],
                      max_iter=10, callback=cb)
    assert [it for it, _ in seen] == list(range(11))
    assert seen[-1][1] == res.fun


def test_best_value_is_monotone_nonincreasing():
    best = []
    res = nelder_mead(lambda x: float(np.sum((x - 1.0) ** 2)),
                      [5.0, -5.0, 2.0], max_iter=200,
                      callback=lambda it, x, fx: best.append(fx))
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert best[-1] == res.fun


def test_non_finite_objective_aborts():
    def bad(x):
        return float("nan") if x[0] > 2.1 else x[0] ** 2

    with pytest.raises(NonFiniteObjectiveError):
        nelder_mead(bad, [2.05])


def test_non_finite_error_quotes_five_entries_on_one_line():
    # the whole vertex was quoted as a numpy repr, seven lines at 32 entries
    with pytest.raises(NonFiniteObjectiveError) as info:
        nelder_mead(lambda x: float("inf"), np.arange(32.0))
    assert str(info.value) == (
        "objective returned inf at x=[0.0, 1.0, 2.0, 3.0, 4.0] and 27 more; "
        "check for overflow or oversized penalty weights")


def test_input_validation():
    with pytest.raises(ValidationError):
        nelder_mead(lambda x: 0.0, [])
    with pytest.raises(ValidationError):
        nelder_mead(lambda x: 0.0, [1.0], max_iter=0)


@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
       st.floats(-3.0, 3.0))
@settings(max_examples=25)
def test_recovers_shifted_sphere_minimum(x0, shift):
    res = nelder_mead(lambda x: float(np.sum((x - shift) ** 2)),
                      np.array(x0), max_iter=600)
    assert np.allclose(res.x, shift, atol=1e-3)


def test_result_never_worse_than_start():
    rng = np.random.default_rng(11)
    q = rng.uniform(0.5, 3.0, size=4)

    def f(x):
        return float(np.sum(q * x**2) + np.sin(x[0]))

    x0 = rng.uniform(-2, 2, size=4)
    res = nelder_mead(f, x0, max_iter=50)
    assert res.fun <= f(x0) + 1e-12
