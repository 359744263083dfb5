"""Penalized unconstrained objective reduced to a QUBO and its cost table.

The constrained problem is rewritten with three squared penalty families:
load balance, lower generation limit (slack s1), upper generation limit
(slack s2); the b/c cost terms apply regardless of y, unlike the physical
cost convention of :mod:`ucqaoa.instance`, where OFF units contribute
nothing.  For a fixed continuous assignment (p, s1, s2) the objective
is quadratic in the binary ON/OFF variables (using y**2 == y), which
gives the QUBO whose diagonal cost table drives the QAOA circuit.

The only pairwise coupling is the rank-1 load term 2*lambda1*p[i]*p[j],
so the objective at y is const + lin @ y + lambda1 * (p @ y)**2, and the
2**n cost table the program uses (`_cost_table`) is two subset-sum
doublings, one over lin and one over p, in 2n numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteObjectiveError, ValidationError
from .instance import UcInstance, _finite_float


@dataclass(frozen=True)
class PenaltyWeights:
    """Multipliers for the three squared penalty families (all >= 0)."""

    lambda1: float  # load balance
    lambda2: float  # lower generation limit
    lambda3: float  # upper generation limit

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), name, 0))

    @classmethod
    def default_for(cls, inst: UcInstance) -> "PenaltyWeights":
        """Load-scaled default keeping penalty and cost terms commensurate:
        each weight is 10 * max fixed cost / L**2.

        Raises ValidationError unless that is a positive finite float.  At
        0, as when every fixed cost is 0 or L**2 overflows, the penalties
        would vanish and the minimizer would settle on the infeasible
        all-OFF commitment; when L**2 rounds to 0 or the quotient overflows
        there is no such float.
        """
        try:
            w = 10.0 * max(u.a for u in inst.units) / inst.load**2
        except (OverflowError, ZeroDivisionError):  # L**2 past float range, or 0
            w = 0.0
        if not 0.0 < w < math.inf:
            raise ValidationError(
                "default penalty weights 10*max(a)/L**2 are not a positive finite float "
                "for this instance; pass explicit weights (lambda1, lambda2, lambda3)"
            )
        return cls(lambda1=w, lambda2=w, lambda3=w)


def _cost_table(
    inst: UcInstance, w: PenaltyWeights, p: np.ndarray, s1: np.ndarray, s2: np.ndarray,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
    vectors: str = "the given p, s1, s2",
) -> np.ndarray:
    """Cost table over all 2**n bitstrings at fixed (p, s1, s2): entry k is
    the penalized objective of the commitment whose unit-i bit is bit i of
    k (unit 0 = LSB), built from the rank-1 coupling.

    Entry k is const + S_lin[k] + lambda1 * S_p[k]**2, where S_v[k] sums v
    over the set bits of k, each by one doubling over the bits, and with
    d = p - s1, e = p + s2:
      const = sum(b*p + c*p**2) + lambda1*L**2 + lambda2*sum(d**2)
              + lambda3*sum(e**2)
      lin = a - 2*lambda1*L*p + lambda2*(p_min**2 - 2*d*p_min)
            + lambda3*(p_max**2 - 2*e*p_max)
    The table is written to ``out`` and S_p to ``scratch``, real 2**n
    arrays allocated when not given.  Checks that every entry is finite:
    otherwise, before the table reaches a circuit, raises
    NonFiniteObjectiveError naming the weights and ``vectors``, which says
    where p, s1 and s2 came from.  n must be within the simulator's guard,
    p, s1 and s2 finite, non-negative length-n vectors and the arrays 2**n
    long, all checked once by the caller.
    """
    n = inst.n
    a, b, c, lo, hi = inst.coeff_arrays
    load = inst.load
    table = np.empty(1 << n) if out is None else out
    s_p = np.empty(1 << n) if scratch is None else scratch
    # From finite inputs, numpy's first non-finite result is an overflow it
    # raises on, so no pass over the table is needed.  Python float products
    # overflow silently: const and the load slope are checked instead.
    try:
        with np.errstate(over="raise", invalid="raise"):
            d = p - s1
            e = p + s2
            slope = 2.0 * w.lambda1 * load
            const = (float(b @ p + c @ (p * p)) + w.lambda1 * load * load
                     + w.lambda2 * float(d @ d) + w.lambda3 * float(e @ e))
            if not (math.isfinite(const) and math.isfinite(slope)):
                raise FloatingPointError
            lin = (a - slope * p + w.lambda2 * lo * (lo - 2.0 * d)
                   + w.lambda3 * hi * (hi - 2.0 * e))
            table[0], s_p[0] = const, 0.0
            for m in range(n):
                h = 1 << m
                np.add(table[:h], lin[m], out=table[h : 2 * h])
                np.add(s_p[:h], p[m], out=s_p[h : 2 * h])
            np.square(s_p, out=s_p)
            s_p *= w.lambda1
            table += s_p
    except FloatingPointError:
        raise NonFiniteObjectiveError(
            f"cost table is not finite at {w} and {vectors}") from None
    return table
