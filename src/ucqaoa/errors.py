"""Exception types shared across the package.

The CLI maps these onto exit codes: 0 success, 2 validation/file error
(a ValidationError or an OSError), 3 infeasible instance, 4 size guard
exceeded, 1 non-finite objective.
"""


class ValidationError(ValueError):
    """Malformed input: bad instance document, bad field value, bad config."""


class InfeasibleError(RuntimeError):
    """No feasible commitment exists for the requested computation."""


class SizeGuardError(ValueError):
    """Problem size exceeds a documented guard (enumeration, qubit count, ...)."""


class NonFiniteObjectiveError(RuntimeError):
    """An objective value, or the distribution it is sampled from, is NaN/inf."""
