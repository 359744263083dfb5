"""Derivative-free simplex minimizer (Nelder-Mead), written from scratch.

Standard coefficients: reflection 1, expansion 2, contraction 1/2,
shrink 1/2.  One "iteration" is one simplex update step; the optional
callback fires once for the initial simplex (iteration 0) and once after
every step, which is what the run-history cadence counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteObjectiveError, ValidationError

Callback = Callable[[int, np.ndarray, float], None]


@dataclass(frozen=True, eq=False)
class NmResult:
    x: np.ndarray
    fun: float
    iterations: int
    fevals: int
    message: str
    trace: list[float] = field(default_factory=list)  # best value per iteration


def _initial_simplex(x0: np.ndarray, step_scale: float) -> np.ndarray:
    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    for k in range(d):
        simplex[k + 1, k] += step_scale * max(1.0, abs(x0[k]))
    return simplex


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    max_iter: int = 1000,
    tol_x: float = 1e-8,
    tol_f: float = 1e-12,
    step_scale: float = 0.05,
    callback: Optional[Callback] = None,
) -> NmResult:
    """Minimize f from x0.  Terminates when the simplex diameter drops
    below tol_x, the objective spread drops below tol_f, or max_iter
    iterations have run (whichever first).  Tolerances of 0.0 disable the
    corresponding test (strict <).  An iteration evaluates f at most
    d + 2 times, so a run makes at most (d + 1) + (d + 2) * max_iter
    evaluations.

    The spread test must hold on two consecutive iterations before it
    fires (a single hit can be an accident of vertices landing
    symmetrically about a minimum, far apart in x); a degenerate start,
    e.g. a constant objective, still terminates at iteration 0.

    Raises NonFiniteObjectiveError if f returns NaN/inf at any vertex
    (typical causes: numerical overflow, penalty weights far too large).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValidationError("x0 must be a vector of dimension >= 1")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    d = x0.size
    fevals = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal fevals
        fevals += 1
        value = float(f(x))
        if not np.isfinite(value):
            raise NonFiniteObjectiveError(
                f"objective returned {value} at x={x!r}; "
                "check for overflow or oversized penalty weights"
            )
        return value

    simplex = _initial_simplex(x0, step_scale)
    values = np.array([evaluate(x) for x in simplex])

    trace: list[float] = []
    iteration = 0
    spread_streak = 0
    message = "iteration budget exhausted"
    while True:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        trace.append(float(values[0]))
        if callback is not None:
            callback(iteration, simplex[0].copy(), float(values[0]))

        diameter = float(np.max(np.abs(simplex[1:] - simplex[0])))
        spread = float(values[-1] - values[0])
        spread_streak = spread_streak + 1 if spread < tol_f else 0
        if diameter < tol_x:
            message = "simplex diameter below tol_x"
            break
        if spread_streak >= (2 if iteration > 0 else 1):
            message = "objective spread below tol_f"
            break
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

    best = int(np.argmin(values))
    return NmResult(
        x=simplex[best].copy(),
        fun=float(values[best]),
        iterations=iteration,
        fevals=fevals,
        message=message,
        trace=trace,
    )
