"""Literal reference helpers that only the tests use.

Each is the plain, unvectorised definition of a quantity the package
computes another way, so the tests can check the fast paths against it:
the physical cost unit by unit and a feasibility check of a dispatch,
the penalized objective term by term at a checked continuous assignment,
the two convergence metrics each on its own checked distribution (the
package's `compute_snapshot` computes both at once), the paper's matrix
QUBO (each squared penalty expanded into a constant, a linear vector and
a dense strictly upper-triangular coupling matrix) with its cost table
doubled pairwise over the bits, its Ising form applied gate by gate, the
mixer applied qubit by qubit on the uniform state, the QAOA distribution
with every step in a fresh array, the branch-and-bound bounds column by
column, a grid search over the dispatch, the dispatch's breakpoint by
plain bisection, and the inverses of the CLI's instance and history I/O.
Beside them sit conveniences for calling the package's kernels outside
a run: angles without a continuous part, each circuit layer into fresh
arrays, and the branch-and-bound bound of one node.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ucqaoa.baseline import OFF, ON, UNDECIDED
from ucqaoa.dispatch import (
    INFEASIBLE_COST,
    DispatchSolution,
    NearOptimalSet,
    _dispatch_costs,
    _dispatch_rows,
    _envelope,
    _node_bounds,
)
from ucqaoa.errors import SizeGuardError, ValidationError
from ucqaoa.instance import (
    Commitment,
    UcInstance,
    UnitSpec,
    _check_commitment,
    _finite_vector,
    index_to_bits,
)
from ucqaoa.metrics import top_k
from ucqaoa.hybrid import ThetaVector
from ucqaoa.qaoa import QUBIT_GUARD, _qubit_count, _rotation_block, apply_cost_phase, apply_mixer
from ucqaoa.qubo import PenaltyWeights


def _check_lengths(inst: UcInstance, *vectors: Sequence) -> None:
    for v in vectors:
        if len(v) != inst.n:
            raise ValidationError(f"expected length {inst.n}, got {len(v)}")


def hamming(a: Union[str, Sequence[int]], b: Union[str, Sequence[int]]) -> int:
    """Number of positions at which two equal-length bitstrings differ."""
    if len(a) != len(b):
        raise ValidationError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(int(x) != int(y) for x, y in zip(a, b))


def unit_cost(u: UnitSpec, y: int, p: float) -> float:
    """a*y + b*p + c*p**2, evaluated literally (b/c terms ignore y)."""
    return u.a * y + u.b * p + u.c * p * p


# ---------------------------------------------------------------------------
# physical cost and feasibility of a dispatch

DEFAULT_FEASIBILITY_TOL = 1e-6  # relative; a check tolerance, far above dispatch rounding


@dataclass(frozen=True)
class LimitViolation:
    """One box-constraint violation found by check_feasible."""

    unit: int
    kind: str  # "below_min" | "above_max" | "off_nonzero"
    power: float
    bound: float


@dataclass(frozen=True)
class FeasibilityReport:
    load_met: bool
    limit_violations: tuple[LimitViolation, ...]

    @property
    def feasible(self) -> bool:
        return self.load_met and not self.limit_violations


def _check_powers(inst: UcInstance, powers: Sequence[float]) -> list[float]:
    """Powers as floats, checked to be length n and finite."""
    _check_lengths(inst, powers)
    p = np.asarray(powers, dtype=float)
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        named = ", ".join(f"unit {i} has {p[i]}" for i in bad.tolist())
        raise ValidationError(f"powers must be finite: {named}")
    return p.tolist()


def total_cost(inst: UcInstance, commit: Sequence[int], powers: Sequence[float]) -> float:
    """Physical cost of a commitment: the sum of unit_cost over the units,
    with p forced to 0 on OFF units, so they contribute nothing.  Every
    commitment entry must be 0 or 1 and every power finite."""
    on = _check_commitment(inst, commit).tolist()
    powers = _check_powers(inst, powers)
    return sum(unit_cost(u, int(y), p if y else 0.0) for u, y, p in zip(inst.units, on, powers))


def check_feasible(
    inst: UcInstance,
    commit: Sequence[int],
    powers: Sequence[float],
    tol: float = DEFAULT_FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Check load balance and per-unit limits at relative tolerance ``tol``.

    The load is met iff |sum of ON powers - L| <= tol*L.  ON units must sit
    inside [p_min, p_max]; OFF units must hold p = 0 (within tol*L).
    Every commitment entry must be 0 or 1 and every power finite.
    """
    on = _check_commitment(inst, commit).tolist()
    powers = _check_powers(inst, powers)
    violations: list[LimitViolation] = []
    on_total = 0.0
    slack = tol * inst.load
    for i, (u, y, p) in enumerate(zip(inst.units, on, powers)):
        if y:
            on_total += p
            if p < u.p_min - slack:
                violations.append(LimitViolation(i, "below_min", p, u.p_min))
            elif p > u.p_max + slack:
                violations.append(LimitViolation(i, "above_max", p, u.p_max))
        elif abs(p) > slack:
            violations.append(LimitViolation(i, "off_nonzero", p, 0.0))
    load_met = abs(on_total - inst.load) <= slack
    return FeasibilityReport(load_met=load_met, limit_violations=tuple(violations))


def all_commitments(n: int) -> Iterator[Commitment]:
    """All 2**n commitments in ascending index order."""
    for k in range(1 << n):
        yield index_to_bits(k, n)


def node_bound(inst: UcInstance, fixed: Sequence[int]) -> float:
    """`dispatch._node_bounds` of one node, its envelope built for the call."""
    return float(_node_bounds(inst, _envelope(inst), np.array([fixed]))[0][0])


def single_node_bound(inst: UcInstance, fixed: Sequence[int]) -> float:
    """The branch-and-bound bound of one node, solved on its own.

    Infinite when the node's boxes (ON units in [p_min, p_max], OFF units
    at zero, undecided units in [0, p_max]) cannot cover the load.  A fully
    fixed node is the economic dispatch of its commitment: one dispatch on
    its boxes, priced by the single cost expression written out, startup
    cost of each ON unit plus b*p + c*p**2 of every unit.  Otherwise every
    unit becomes two columns, built unit by unit.  A decided unit keeps its
    box and gets an empty tail.  An undecided unit is its cost's convex
    envelope on {0} u [p_min, p_max]: a linear column at the mean cost
    f(p*)/p* on [0, p*], where p* = clip(sqrt(a/c), p_min, p_max) (p_max
    when c = 0), and a tail column that continues f from p* to p_max.  The
    dispatch cost of the 2n columns, scaled by (1 - 1e-12), is the bound.
    """
    a, b, c, lo, hi = (v.tolist() for v in inst.coeff_arrays)
    states = list(fixed)
    box_lo = np.array([lo[i] if s == ON else 0.0 for i, s in enumerate(states)])
    box_hi = np.array([0.0 if s == OFF else hi[i] for i, s in enumerate(states)])
    if not box_lo.sum() <= inst.load <= box_hi.sum():
        return math.inf
    if UNDECIDED not in states:
        b_row, c_row = np.array(b), np.array(c)
        powers = _dispatch_rows(b_row[None], c_row[None], box_lo[None], box_hi[None], inst.load)[0]
        startup = np.array([a[i] if s == ON else 0.0 for i, s in enumerate(states)])
        return float((startup + b_row * powers + c_row * powers * powers).sum())
    heads, tails = [], []  # (startup, price, curvature, lo, hi) of each column
    for i, s in enumerate(states):
        knee = min(max(math.sqrt(a[i] / c[i]), lo[i]), hi[i]) if c[i] > 0 else hi[i]
        tail_price = b[i] + 2.0 * c[i] * knee
        if s == UNDECIDED:
            mean = (a[i] / knee if knee > 0 else 0.0) + b[i] + c[i] * knee
            heads.append((0.0, mean, 0.0, 0.0, knee))
            tails.append((0.0, tail_price, c[i], 0.0, hi[i] - knee))
        else:
            heads.append((a[i] if s == ON else 0.0, b[i], c[i], box_lo[i], box_hi[i]))
            tails.append((0.0, tail_price, c[i], 0.0, 0.0))
    startup, price, curve, col_lo, col_hi = np.array(heads + tails).T
    powers = _dispatch_rows(price[None], curve[None], col_lo[None], col_hi[None], inst.load)[0]
    return float((startup + price * powers + curve * powers * powers).sum()) * (1.0 - 1e-12)


def node_bounds_columns(inst: UcInstance, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The branch-and-bound bounds of every row of a ``(k, n)`` state
    array and each row's relaxed unit powers, with the unit envelopes
    built inside the call.

    The reference for `baseline._node_bounds`, which takes envelopes built
    once per solve: its bounds and powers must match these bit for bit.
    A unit's relaxed power is its chord column plus its tail column; fully
    fixed rows are the economic dispatch's own rows and powers.
    """
    on, off = states == ON, states == OFF
    free = ~(on | off)
    if not free.any():
        costs, _, powers = _dispatch_costs(inst, on)
        return costs, powers
    a, b, c, lo, hi = inst.coeff_arrays
    with np.errstate(over="ignore"):
        ratio = np.divide(a, c, out=np.full(inst.n, math.inf), where=c > 0)
        knee = np.minimum(np.maximum(np.sqrt(ratio), lo), hi)
        mean = np.minimum(np.divide(a, knee, out=np.zeros(inst.n), where=knee > 0) + b + c * knee,
                          np.finfo(float).max)
    zero = np.zeros(states.shape)
    box_lo, box_hi = np.where(on, lo, 0.0), np.where(off, 0.0, hi)
    startup = np.concatenate((np.where(on, a, 0.0), zero), axis=1)
    price = np.concatenate((np.where(free, mean, b), zero + (b + 2.0 * c * knee)), axis=1)
    curve = np.concatenate((np.where(free, 0.0, c), zero + c), axis=1)
    col_lo = np.concatenate((box_lo, zero), axis=1)
    col_hi = np.concatenate((np.where(free, knee, box_hi), np.where(free, hi - knee, 0.0)), axis=1)
    p = _dispatch_rows(price, curve, col_lo, col_hi, inst.load)
    feasible = (box_lo.sum(axis=1) <= inst.load) & (box_hi.sum(axis=1) >= inst.load)
    cost = (startup + price * p + curve * p * p).sum(axis=1)
    return (np.where(feasible, cost * (1.0 - 1e-12), INFEASIBLE_COST),
            p[:, :inst.n] + p[:, inst.n:])


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


@dataclass(frozen=True, eq=False)
class ContinuousAssignment:
    """Fixed continuous part (p, s1, s2) of equal lengths; all entries finite and >= 0."""

    p: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p", "s1", "s2"):  # s1 and s2 are sized to p, checked first
            size = None if name == "p" else self.p.size
            object.__setattr__(self, name, _finite_vector(getattr(self, name), name, size, 0))


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

    Note b/c terms apply regardless of y, unlike total_cost.
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
# the two convergence metrics, each checking its own distribution


def near_opt_probability(probs: np.ndarray, nos: NearOptimalSet) -> float:
    """Total probability mass on the near-optimal commitments."""
    probs = _finite_vector(probs, "probs", 1 << nos.n, 0)
    return float(probs[nos.members].sum())


def avg_hamming_top_k(probs: np.ndarray, nos: NearOptimalSet, k: int = 50) -> float:
    """Mean over the top-k bitstrings of the distance to the closest member."""
    probs = _finite_vector(probs, "probs", 1 << nos.n, 0)
    members = nos.members
    if members.size == 0:
        raise ValidationError("near-optimal set is empty")
    ranked = top_k(probs, k)
    dists = np.bitwise_count(ranked[:, None] ^ members[None, :]).min(axis=1)
    return float(dists.mean())


# ---------------------------------------------------------------------------
# the QUBO as a dense coupling matrix, and its cost table bit by bit


@dataclass(frozen=True, eq=False)
class Qubo:
    """constant + linear @ y + y @ quadratic @ y over binary y.

    y[i]**2 terms are folded into linear (y binary); quadratic is an
    (n, n) float array that is strictly upper triangular, so entry [i, j]
    with i < j is the coefficient of y[i]*y[j] and the rest is zero.
    """

    n: int
    constant: float
    linear: np.ndarray
    quadratic: np.ndarray

    def value(self, commit: Sequence[int]) -> float:
        y = np.asarray(commit, dtype=float)
        return self.constant + float(self.linear @ y) + float(y @ self.quadratic @ y)


def build_qubo(inst: UcInstance, w: PenaltyWeights, ca: ContinuousAssignment) -> Qubo:
    """Reduce the penalized objective at fixed (p, s1, s2) to a QUBO over y.

    Assembled by explicit expansion of each squared term, so it equals the
    penalized objective exactly at every bitstring; the only pairwise
    coupling is 2*lambda1*p[i]*p[j] from the load penalty.
    """
    _check_lengths(inst, ca.p)
    a, b, c, lo, hi = inst.coeff_arrays
    p, s1, s2 = ca.p, ca.s1, ca.s2

    constant = float(np.sum(b * p + c * p * p))
    linear = a.copy()

    # lambda1 * (sum(p*y) - L)**2
    constant += w.lambda1 * inst.load**2
    linear += w.lambda1 * (p * p - 2.0 * inst.load * p)
    quadratic = np.triu(np.outer(2.0 * w.lambda1 * p, p), 1)

    # lambda2 * sum((d - p_min*y)**2), d = p - s1
    d = p - s1
    constant += w.lambda2 * float(np.sum(d * d))
    linear += w.lambda2 * (lo * lo - 2.0 * d * lo)

    # lambda3 * sum((e - p_max*y)**2), e = p + s2
    e = p + s2
    constant += w.lambda3 * float(np.sum(e * e))
    linear += w.lambda3 * (hi * hi - 2.0 * e * hi)

    return Qubo(n=inst.n, constant=constant, linear=linear, quadratic=quadratic)


def qubo_diagonal(q: Qubo) -> np.ndarray:
    """Cost table over all 2**n bitstrings; entry k is the QUBO value of the
    commitment whose unit-i bit is bit i of k (unit 0 = LSB).

    Built by doubling: the entries with top bit m are those below 2**m plus
    linear[m] plus the couplings quadratic[i, m] of the lower set bits i,
    whose subset sums are themselves doubled bit by bit in place.  About
    3 * 2**n adds into the one output array.
    """
    if q.n > QUBIT_GUARD:
        raise SizeGuardError(f"cost table guard is n <= {QUBIT_GUARD}, got {q.n}")
    diag = np.empty(1 << q.n)
    diag[0] = q.constant
    for m in range(q.n):
        h = 1 << m
        upper = diag[h : 2 * h]
        upper[0] = q.linear[m]
        for i in range(m):
            lo = 1 << i
            np.add(upper[:lo], q.quadratic[i, m], out=upper[lo : 2 * lo])
        upper += diag[:h]
    return diag


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


def uniform_state(n: int) -> np.ndarray:
    """|+>^n: every amplitude 2**(-n/2)."""
    if n < 1 or n > QUBIT_GUARD:
        raise SizeGuardError(f"qubit count must be in [1, {QUBIT_GUARD}], got {n}")
    return np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)


def circuit_angles(gamma: Sequence[float], beta: Sequence[float]) -> ThetaVector:
    """The checked angles qaoa_distribution reads, with no units."""
    return ThetaVector(gamma, beta, [], [], [])


def phase_fresh(sv: np.ndarray, diag: np.ndarray, gamma: float) -> np.ndarray:
    """apply_cost_phase into new arrays; sv is left as it was."""
    return apply_cost_phase(sv, diag, gamma, np.empty(len(sv), dtype=complex), np.empty(len(sv)))


def mix_fresh(sv: np.ndarray, beta: float) -> np.ndarray:
    """apply_mixer on a copy of sv, which the kernel overwrites as scratch."""
    return apply_mixer(np.array(sv, dtype=complex), beta, np.empty(len(sv), dtype=complex))


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


def reference_distribution(diag: np.ndarray, gamma: Sequence[float],
                           beta: Sequence[float]) -> np.ndarray:
    """The depth-P QAOA distribution with every step in a fresh array.

    The same operations in the same order as the package's kernels, which
    write into arrays they are handed: a uniform state, each cost phase
    into a new array, the mixer's three block products each into a new
    array, then |amplitude|**2.  The two must agree to the bit.
    """
    diag = np.asarray(diag, dtype=float)
    n = _qubit_count(len(diag))
    sv = uniform_state(n)
    a = n // 3
    b = (n - a) // 2
    c = n - a - b
    for g, bt in zip(gamma, beta):
        angle = -g * diag
        phased = np.empty(len(sv), dtype=complex)
        np.cos(angle, out=phased.real)
        np.sin(angle, out=phased.imag)
        phased *= sv
        s = phased.reshape(-1, 1 << a) @ _rotation_block(a, bt)
        s = _rotation_block(b, bt) @ s.reshape(1 << c, 1 << b, 1 << a)
        sv = (_rotation_block(c, bt) @ s.reshape(1 << c, -1)).reshape(-1)
    return np.abs(sv) ** 2


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


# ---------------------------------------------------------------------------
# the inverses of the CLI's file I/O: an instance writer, a history reader

def serialize_instance(inst: UcInstance) -> str:
    """Inverse of load_instance; floats round-trip bit-exactly via repr."""
    units = [asdict(u) for u in inst.units]
    return json.dumps({"name": inst.name, "load": inst.load, "units": units}, indent=2) + "\n"


_HISTORY_TYPES = {"iter": int, "objective": float, "near_opt_prob": float,
                  "avg_hamming_top50": float, "best_bitstring": str, "elapsed_ms": float}


def _history_row(path: str, i: int, row) -> dict:
    """Row ``i`` of a history file with each field read back as its type;
    a missing, null or unreadable field is a validation error naming it."""
    if not isinstance(row, dict):
        raise ValidationError(f"{path}: row {i} is not an object")
    out = {}
    for f, kind in _HISTORY_TYPES.items():
        value = row.get(f)
        if value is None:
            raise ValidationError(f"{path}: row {i} has no {f}")
        # a JSON true or 1.5 would convert silently, but export writes neither
        bad = isinstance(value, bool) or (kind is int and isinstance(value, float))
        try:
            out[f] = kind(value)
        except (TypeError, ValueError):
            bad = True
        if bad:
            raise ValidationError(f"{path}: row {i} {f}: {value!r} is not of type {kind.__name__}")
    return out


def load_history(path: str) -> tuple[dict, ...]:
    """Read a history file written by export_history (format by extension)."""
    if path.endswith(".json"):
        with open(path) as fh:
            try:
                rows = json.load(fh)
            except ValueError as exc:
                raise ValidationError(f"{path}: malformed JSON: {exc}") from exc
        if not isinstance(rows, list):
            raise ValidationError(f"{path}: expected a JSON array of rows")
    elif path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    else:
        raise ValidationError(f"cannot infer history format from path: {path!r}")
    return tuple(_history_row(path, i, row) for i, row in enumerate(rows))
