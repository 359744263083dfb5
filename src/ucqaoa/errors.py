"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 2,
infeasible instances exit 3, size-guard violations exit 4.
"""


class ValidationError(ValueError):
    """Malformed input: bad instance document, bad field value, bad config."""


class InfeasibleError(RuntimeError):
    """No feasible commitment exists for the requested computation."""


class SizeGuardError(ValueError):
    """Problem size exceeds a documented guard (enumeration, qubit count, ...)."""


class NonFiniteObjectiveError(RuntimeError):
    """An objective value, or the distribution it is sampled from, is NaN/inf."""
