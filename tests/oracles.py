"""Literal reference helpers that only the tests use.

Each is the plain, unvectorised definition of a quantity the package
computes another way, so the tests can check the fast paths against it:
the penalized objective term by term, its Ising form applied gate by
gate, the mixer applied qubit by qubit, a grid search over the dispatch
and the dispatch's breakpoint found by plain bisection.
"""

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ucqaoa.baseline import OFF, ON
from ucqaoa.dispatch import INFEASIBLE_COST, DispatchSolution, _dispatch_rows
from ucqaoa.errors import SizeGuardError, ValidationError
from ucqaoa.instance import Commitment, UcInstance, UnitSpec, _check_lengths, index_to_bits
from ucqaoa.qaoa import _qubit_count
from ucqaoa.qubo import ContinuousAssignment, PenaltyWeights, Qubo


def hamming(a: Union[str, Sequence[int]], b: Union[str, Sequence[int]]) -> int:
    """Number of positions at which two equal-length bitstrings differ."""
    if len(a) != len(b):
        raise ValidationError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(int(x) != int(y) for x, y in zip(a, b))


def unit_cost(u: UnitSpec, y: int, p: float) -> float:
    """a*y + b*p + c*p**2, evaluated literally (b/c terms ignore y)."""
    return u.a * y + u.b * p + u.c * p * p


def all_commitments(n: int) -> Iterator[Commitment]:
    """All 2**n commitments in ascending index order."""
    for k in range(1 << n):
        yield index_to_bits(k, n)


def single_node_bound(inst: UcInstance, fixed: Sequence[int]) -> float:
    """The branch-and-bound bound of one node, solved on its own.

    One dispatch on the node's boxes (ON units in [p_min, p_max], OFF
    units at zero, undecided units anywhere in [0, p_max]), priced by the
    single cost expression written out: startup cost of each ON unit plus
    b*p + c*p**2 of every unit.  A fully fixed node is thereby the
    economic dispatch of its commitment.  Infinite when nothing covers the
    load.
    """
    a, b, c, lo, hi = inst.coeff_arrays
    states = np.asarray(fixed)
    on = states == ON
    box_lo = np.where(on, lo, 0.0)
    box_hi = np.where(states == OFF, 0.0, hi)
    p, feasible = _dispatch_rows(b[None], c[None], box_lo[None], box_hi[None], inst.load)
    if not feasible[0]:
        return math.inf
    powers = p[0]
    return float((np.where(on, a, 0.0) + b * powers + c * powers * powers).sum())


# ---------------------------------------------------------------------------
# dispatch by bisection


def bisection_dispatch_rows(
    b: np.ndarray,
    c: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    load: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact economic dispatch of every row of ``(rows, n)`` boxes, by the
    plain binary search over the breakpoints that `_dispatch_rows` replaced.

    Per row, minimizes sum(b*p + c*p**2) s.t. sum(p) = load, lo <= p <= hi.
    At marginal cost lambda unit i supplies clip((lambda - b)/2c, lo, hi),
    so the total supply S(lambda) is nondecreasing and piecewise linear,
    with breakpoints b + 2c*lo and b + 2c*hi; a unit with c == 0 is a
    vertical jump of hi - lo at lambda == b.  A binary search over the
    sorted breakpoints finds the first one, lambda*, whose supply just
    right of it covers the load.  Every unit is linear in lambda between
    the breakpoint before lambda* and lambda*, so the dispatch is the
    interpolation between their unit powers that meets the load; load
    still left at lambda* is a jump, filled lowest-index-first by the units
    jumping there.  S is summed afresh at each probe, never accumulated
    across breakpoints, so the result is exact to rounding however widely
    the curvatures differ.  ``b`` and ``c`` broadcast against the boxes.

    Returns ``(powers, feasible)``; the powers of a row whose boxes cannot
    cover the load are meaningless.
    """
    lam_lo = b + 2.0 * c * lo
    lam_hi = b + 2.0 * c * hi
    slope = np.divide(0.5, c, out=np.zeros(np.shape(c)), where=c > 0)

    def supply(lam: np.ndarray, right: bool = True) -> np.ndarray:
        """Unit powers at marginal cost ``lam`` (one per row), taken just
        right or just left of it; the two differ only for units jumping there."""
        ramp = np.minimum(np.maximum(lo + (lam - lam_lo) * slope, lo), hi)
        if right:
            return np.where(lam >= lam_hi, hi, ramp)
        return np.where(lam <= lam_lo, lo, np.where(lam >= lam_hi, hi, ramp))

    x = np.sort(np.concatenate((lam_lo, lam_hi), axis=1), axis=1)
    row = np.arange(len(x))[:, None]
    first = np.zeros((len(x), 1), dtype=np.intp)
    last = np.full((len(x), 1), x.shape[1] - 1)
    for _ in range((x.shape[1] - 1).bit_length()):
        mid = (first + last) // 2
        covers = supply(x[row, mid]).sum(axis=1, keepdims=True) >= load
        # min() keeps rows that cannot cover the load inside the array
        first = np.where(covers, first, np.minimum(mid + 1, last))
        last = np.where(covers, mid, last)

    lam = x[row, first]
    start = np.where(first > 0, supply(x[row, first - 1]), lo)  # all at lo below the first
    end = supply(lam, right=False)
    s_start = start.sum(axis=1, keepdims=True)
    rise = end.sum(axis=1, keepdims=True) - s_start
    t = np.divide(load - s_start, rise, out=np.ones(rise.shape), where=rise > 0)
    p = start + np.clip(t, 0.0, 1.0) * (end - start)
    room = supply(lam) - end
    left = load - p.sum(axis=1, keepdims=True)
    p += np.clip(left - (np.cumsum(room, axis=1) - room), 0.0, room)
    feasible = (lo.sum(axis=1) <= load) & (hi.sum(axis=1) >= load)
    return p, feasible


# ---------------------------------------------------------------------------
# penalized objective, term by term


def optimal_slacks(inst: UcInstance, p: Sequence[float], commit: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Penalty-minimizing slacks for given powers and commitment:
    s1 = max(0, p - p_min*y), s2 = max(0, p_max*y - p)."""
    _, _, _, lo, hi = inst.coeff_arrays
    p = np.asarray(p, dtype=float)
    y = np.asarray(commit, dtype=float)
    return np.maximum(0.0, p - lo * y), np.maximum(0.0, hi * y - p)


def penalized_objective(
    inst: UcInstance,
    w: PenaltyWeights,
    commit: Sequence[int],
    ca: ContinuousAssignment,
) -> float:
    """Literal evaluation of the penalized objective.

    sum(a*y + b*p + c*p**2)
      + lambda1 * (sum(p*y) - L)**2
      + lambda2 * sum((p - s1 - p_min*y)**2)
      + lambda3 * sum((p + s2 - p_max*y)**2)

    Note b/c terms apply regardless of y, unlike the physical total_cost.
    """
    _check_lengths(inst, commit, ca.p)
    a, b, c, lo, hi = inst.coeff_arrays
    y = np.asarray(commit, dtype=float)
    p, s1, s2 = ca.p, ca.s1, ca.s2
    value = float(np.sum(a * y + b * p + c * p * p))
    value += w.lambda1 * float(np.sum(p * y) - inst.load) ** 2
    value += w.lambda2 * float(np.sum((p - s1 - lo * y) ** 2))
    value += w.lambda3 * float(np.sum((p + s2 - hi * y) ** 2))
    return value


# ---------------------------------------------------------------------------
# Ising form, the gate-by-gate cost phase and the qubit-by-qubit mixer


@dataclass(frozen=True, eq=False)
class IsingModel:
    """offset + sum(h[i]*z[i]) + sum(j[(i,j)]*z[i]*z[j]) over z in {-1,+1}."""

    n: int
    offset: float
    h: np.ndarray
    j: dict[tuple[int, int], float]

    def value(self, z: Sequence[int]) -> float:
        zv = np.asarray(z, dtype=float)
        v = self.offset + float(np.dot(self.h, zv))
        for (i, jj), coeff in self.j.items():
            v += coeff * zv[i] * zv[jj]
        return v


def qubo_to_ising(q: Qubo) -> IsingModel:
    """Substitute y = (z + 1)/2; values agree exactly at corresponding points."""
    quarter = 0.25 * q.quadratic  # y[i]*y[j] = (z[i]*z[j] + z[i] + z[j] + 1) / 4
    offset = q.constant + 0.5 * float(q.linear.sum()) + float(quarter.sum())
    h = 0.5 * q.linear + quarter.sum(axis=1) + quarter.sum(axis=0)
    rows, cols = np.nonzero(quarter)  # row-major, i < j
    j = dict(zip(zip(rows.tolist(), cols.tolist()), quarter[rows, cols].tolist()))
    return IsingModel(n=q.n, offset=offset, h=h, j=j)


def gate_decomposed_phase(sv: np.ndarray, ising: IsingModel, gamma: float) -> np.ndarray:
    """Cost phase applied gate by gate from the Ising form.

    One global offset phase, a Z phase per nonzero field, and a ZZ phase
    per coupling; since every factor is diagonal they commute, so this
    must match apply_cost_phase on the corresponding QUBO table exactly
    (not just up to global phase, because the offset is applied too).
    """
    n = _qubit_count(len(sv))
    if ising.n != n:
        raise ValueError(f"state has {n} qubits, model has {ising.n}")
    out = sv * np.exp(-1j * gamma * ising.offset)
    for i in range(n):
        h = ising.h[i]
        if h == 0.0:
            continue
        view = out.reshape(-1, 2, 1 << i)
        view[:, 0, :] *= np.exp(1j * gamma * h)   # z_i = -1
        view[:, 1, :] *= np.exp(-1j * gamma * h)  # z_i = +1
    for (i, j), coupling in ising.j.items():
        if coupling == 0.0:
            continue
        lo, hi = (i, j) if i < j else (j, i)
        view = out.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        same = np.exp(-1j * gamma * coupling)     # z_i * z_j = +1
        diff = np.exp(1j * gamma * coupling)
        view[:, 0, :, 0, :] *= same
        view[:, 1, :, 1, :] *= same
        view[:, 0, :, 1, :] *= diff
        view[:, 1, :, 0, :] *= diff
    return out


def butterfly_mixer(sv: np.ndarray, beta: float) -> np.ndarray:
    """exp(-1j * beta * X) applied qubit by qubit.

    One 2x2 butterfly per qubit on the pairs of amplitudes that differ in
    that bit only: the literal product of n single-qubit rotations, which
    apply_mixer must equal whichever way it groups them.
    """
    n = _qubit_count(len(sv))
    cos_b = math.cos(beta)
    msin_b = -1j * math.sin(beta)
    out = np.array(sv, dtype=complex)
    for q in range(n):
        view = out.reshape(-1, 2, 1 << q)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = cos_b * a + msin_b * b
        view[:, 1, :] = msin_b * a + cos_b * b
    return out


# ---------------------------------------------------------------------------
# exhaustive grid dispatch (independent of the breakpoint solve)

_GRID_EPS = 1e-9


def _grid(lo: float, hi: float, resolution: float) -> np.ndarray:
    m = int(math.floor((hi - lo) / resolution + 1e-9))
    pts = lo + resolution * np.arange(m + 1)
    if pts[-1] < hi - _GRID_EPS:
        pts = np.append(pts, hi)
    return pts


def dispatch_grid_oracle(
    inst: UcInstance, commit: Sequence[int], resolution: float = 0.01
) -> DispatchSolution:
    """Exhaustive grid search over ON-unit powers summing to the load.

    Supports at most 3 ON units (the grid is exponential).  The last ON
    unit's power is eliminated by the load equality; boundary candidates
    where that unit's box binds are added so narrow feasible slivers are
    not missed.
    """
    _check_lengths(inst, commit)
    a, b, c, lo, hi = inst.coeff_arrays
    on = list(np.flatnonzero(np.asarray(commit, dtype=int)))
    if len(on) > 3:
        raise SizeGuardError(f"grid oracle supports at most 3 ON units, got {len(on)}")
    L = inst.load
    powers = np.zeros(inst.n)

    def result(p_on: Optional[np.ndarray]) -> DispatchSolution:
        if p_on is None:
            return DispatchSolution(powers=np.zeros(inst.n), cost=INFEASIBLE_COST, feasible=False)
        powers[on] = p_on
        cost = float(np.sum(a[on] + b[on] * p_on + c[on] * p_on * p_on))
        return DispatchSolution(powers=powers, cost=cost, feasible=True)

    if len(on) == 0:
        return result(None)

    if len(on) == 1:
        i = on[0]
        if lo[i] - _GRID_EPS <= L <= hi[i] + _GRID_EPS:
            return result(np.array([L]))
        return result(None)

    def last_axis_candidates(remaining: float, i: int, j: int) -> np.ndarray:
        """Grid over unit i plus the points where unit j's box would bind."""
        pts = _grid(lo[i], hi[i], resolution)
        extra = [remaining - hi[j], remaining - lo[j]]
        extra = [x for x in extra if lo[i] - _GRID_EPS <= x <= hi[i] + _GRID_EPS]
        if extra:
            pts = np.concatenate([pts, np.array(extra)])
        return pts

    if len(on) == 2:
        i, j = on
        p_i = last_axis_candidates(L, i, j)
        p_j = L - p_i
        ok = (p_j >= lo[j] - _GRID_EPS) & (p_j <= hi[j] + _GRID_EPS)
        if not ok.any():
            return result(None)
        p_i, p_j = p_i[ok], p_j[ok]
        costs = b[i] * p_i + c[i] * p_i**2 + b[j] * p_j + c[j] * p_j**2
        k = int(np.argmin(costs))
        return result(np.array([p_i[k], p_j[k]]))

    i, j, m = on
    best_cost = math.inf
    best = None
    for p_i in _grid(lo[i], hi[i], resolution):
        rem = L - p_i
        p_j = last_axis_candidates(rem, j, m)
        p_m = rem - p_j
        ok = (p_m >= lo[m] - _GRID_EPS) & (p_m <= hi[m] + _GRID_EPS)
        if not ok.any():
            continue
        p_j, p_m = p_j[ok], p_m[ok]
        costs = (
            b[i] * p_i + c[i] * p_i**2
            + b[j] * p_j + c[j] * p_j**2
            + b[m] * p_m + c[m] * p_m**2
        )
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best = np.array([p_i, p_j[k], p_m[k]])
    return result(best)
