"""Derivative-free simplex minimizer (Nelder-Mead), written from scratch.

Standard coefficients: reflection 1, expansion 2, contraction 1/2,
shrink 1/2.  It runs a fixed iteration budget: one "iteration" is one
simplex update step, and a run makes exactly max_iter of them.  The
optional callback fires once for the initial simplex (iteration 0) and
once after every step, which is what the run-history cadence counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteObjectiveError, ValidationError
from .instance import _count, _finite_vector, _quote

Callback = Callable[[int, np.ndarray, float], None]

_INITIAL_EDGE = 0.05  # initial simplex edge, relative to max(1, |x0[k]|)


@dataclass(frozen=True, eq=False)
class NmResult:
    x: np.ndarray
    fun: float
    fevals: int


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    for k in range(d):
        simplex[k + 1, k] += _INITIAL_EDGE * max(1.0, abs(x0[k]))
    return simplex


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    max_iter: int = 1000,
    callback: Optional[Callback] = None,
) -> NmResult:
    """Minimize f from x0 over exactly max_iter iterations.  An iteration
    evaluates f at most d + 2 times, so a run makes at most
    (d + 1) + (d + 2) * max_iter evaluations.

    Raises NonFiniteObjectiveError if f returns NaN/inf at any vertex
    (typical causes: numerical overflow, penalty weights far too large).
    """
    x0 = _finite_vector(x0, "x0")
    if x0.size < 1:
        raise ValidationError("x0 must be a vector of dimension >= 1")
    max_iter = _count(max_iter, "max_iter", 1)
    d = x0.size
    fevals = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal fevals
        fevals += 1
        value = float(f(x))
        if not np.isfinite(value):
            raise NonFiniteObjectiveError(
                f"objective returned {value} at x={_quote(x.tolist())}; "
                "check for overflow or oversized penalty weights"
            )
        return value

    simplex = _initial_simplex(x0)
    values = np.array([evaluate(x) for x in simplex])

    iteration = 0
    while True:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        if callback is not None:
            callback(iteration, simplex[0].copy(), float(values[0]))
        if iteration >= max_iter:
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = evaluate(reflected)

        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
            f_contracted = evaluate(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                # shrink toward the best vertex
                for k in range(1, d + 1):
                    candidate = simplex[0] + 0.5 * (simplex[k] - simplex[0])
                    values[k] = evaluate(candidate)
                    simplex[k] = candidate
        iteration += 1

    # the loop ends right after a sort, so the best vertex is first
    return NmResult(x=simplex[0].copy(), fun=float(values[0]), fevals=fevals)
