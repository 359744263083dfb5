"""Classical outer loop over (gamma, beta, p, s1, s2).

Packs all continuous decision variables into one flat vector, evaluates
the QAOA expectation of the penalized objective at each proposal, and
minimizes with the simplex method while recording convergence metrics
against the near-optimal set of a bound-pruned search.  Each proposal
is simulated once: the metric snapshots read the distribution the
objective already computed at the best vertex.

A run allocates its 2**n memory once, in a private workspace: the cost
table, one real scratch array (the table's subset sums, then the
standardized phase table, then with shots the normalized distribution),
the circuit's two complex state arrays and two distribution arrays.
Every evaluation writes into these in place.  One distribution array
holds the best vertex's distribution while the next
evaluation writes into the other (using it as scratch on the way), and
the two swap on a strict improvement, so a snapshot or the run's final
distribution never reads an array that is being overwritten.  The public
`objective` builds a fresh workspace per call and runs the same kernels.

Inputs are validated at the boundary, not per proposal: the public
`objective` checks its theta, `run_hybrid` the one `ThetaVector` it reuses
for every proposal, and `nelder_mead` raises on any non-finite objective.  An
evaluation builds the cost table straight from the rank-1 structure of
the penalty (`qubo._cost_table`), hands the circuit theta's own angle
vectors, and samples through `qaoa._sample_counts`, the kernel of the
public `qaoa.sample`, which checks only the distribution's total.

The phase separator sees a standardized (zero-mean, unit-spread) copy of
the cost table; the reported expectation always uses the true table.
Shifting a diagonal Hamiltonian is a global phase and scaling it only
redefines the units of gamma, so this is numerical conditioning, not a
change of algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics as _metrics
from . import qaoa
from .dispatch import near_optimal_set
from .errors import NonFiniteObjectiveError, ValidationError
from .instance import UcInstance, _count, _finite_float, _finite_vector, index_to_string
from .metrics import HistoryRecord
from .neldermead import nelder_mead
from .qubo import PenaltyWeights, _cost_table


@dataclass(frozen=True, eq=False)
class ThetaVector:
    """Flat parameter layout, every entry finite: gamma (P), beta (P), p (N), s1 (N), s2 (N).

    The p/s components live on the whole real line inside the simplex
    search; the objective maps them through abs() (an even function, so
    the contract is directly testable) before they touch the QUBO.  The
    angles, in radians, are not wrapped into [0, 2*pi): wrapping would put
    discontinuities in the simplex's search space.
    """

    gamma: np.ndarray
    beta: np.ndarray
    p: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "p", "s1", "s2"):
            object.__setattr__(self, name, _finite_vector(getattr(self, name), name))
        if self.gamma.size != self.beta.size or self.gamma.size < 1:
            raise ValidationError("gamma and beta must have equal length P >= 1")
        if not (self.p.size == self.s1.size == self.s2.size):
            raise ValidationError("p, s1, s2 must have equal length N")

    @property
    def depth(self) -> int:
        return int(self.gamma.size)

    @property
    def n_units(self) -> int:
        return int(self.p.size)

    def pack(self) -> np.ndarray:
        return np.concatenate([self.gamma, self.beta, self.p, self.s1, self.s2])

    @classmethod
    def unpack(cls, vec: np.ndarray, depth: int, n_units: int) -> "ThetaVector":
        vec = np.asarray(vec, dtype=float)
        if vec.size != 2 * depth + 3 * n_units:
            raise ValidationError(
                f"expected a {2 * depth + 3 * n_units}-vector, got {vec.size}"
            )
        P, N = depth, n_units
        return cls(
            gamma=vec[:P],
            beta=vec[P : 2 * P],
            p=vec[2 * P : 2 * P + N],
            s1=vec[2 * P + N : 2 * P + 2 * N],
            s2=vec[2 * P + 2 * N :],
        )


@dataclass(frozen=True)
class HybridConfig:
    depth: int = 1
    weights: Optional[PenaltyWeights] = None  # None -> PenaltyWeights.default_for
    max_iterations: int = 1500
    seed: int = 0
    shots: int = 0  # 0 = exact expectation
    metric_cadence: int = 10
    near_opt_fraction: float = 0.05

    def __post_init__(self) -> None:
        for name, least in (("depth", 1), ("max_iterations", 1), ("metric_cadence", 1),
                            ("shots", 0), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        object.__setattr__(self, "near_opt_fraction",
                           _finite_float(self.near_opt_fraction, "near_opt_fraction", 0))
        if not isinstance(self.weights, (PenaltyWeights, type(None))):
            raise ValidationError(f"weights must be PenaltyWeights or None, got {self.weights!r}")


@dataclass(frozen=True, eq=False)
class RunHistory:
    records: tuple[HistoryRecord, ...]
    final_theta: ThetaVector
    final_distribution: np.ndarray


class _Workspace:
    """The 2**n arrays of one run, written in place by every evaluation:
    2 complex and 4 real arrays (4 MB at 16 units, 64 MB at 20).

    ``best`` holds the distribution at the best vertex so far and ``next``
    receives each new one; `keep_next` swaps them.
    """

    __slots__ = ("table", "scratch", "states", "best", "next")

    def __init__(self, n: int) -> None:
        qaoa._check_qubits(n)
        size = 1 << n
        self.best, self.next = np.empty(size), np.empty(size)
        self.table, self.scratch = np.empty(size), np.empty(size)
        self.states = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))

    def keep_next(self) -> None:
        self.best, self.next = self.next, self.best


def _phase_table(diag: np.ndarray, out: np.ndarray, square: np.ndarray) -> np.ndarray:
    """Standardized copy of the cost table used for the phase separator.

    Dollar-scale costs would wrap e^(-i*gamma*cost) thousands of times at
    any O(1) angle, leaving the simplex a white-noise landscape.  Shifting
    is a global phase (no effect on the distribution) and scaling only
    changes the units of gamma, so conditioning to zero mean and unit
    spread alters nothing physical while keeping angles near O(1).

    The copy is written to ``out`` with ``square`` as scratch, real arrays
    of diag's size.
    """
    centred = np.subtract(diag, diag.mean(), out=out)
    # == diag.std(), bit for bit
    spread = np.sqrt(np.mean(np.multiply(centred, centred, out=square)))
    if spread == 0.0:
        out.fill(0.0)
        return out
    return np.divide(centred, spread, out=out)


def _evaluate(
    inst: UcInstance,
    w: PenaltyWeights,
    theta: ThetaVector,
    ws: _Workspace,
    shots: int = 0,
    rng=None,
    vectors: str = "the given p, s1, s2",
) -> tuple[float, np.ndarray]:
    """Expectation at theta and the distribution it was taken over.

    The distribution is ``ws.next``, written in place, as is every other
    array of the workspace, which must be for inst.n units.  Validates
    nothing: theta must be for inst.n units with finite entries.  A
    NonFiniteObjectiveError names ``vectors`` as where theta's p, s1 and
    s2 came from.
    """
    diag = _cost_table(inst, w, np.abs(theta.p), np.abs(theta.s1), np.abs(theta.s2),
                       out=ws.table, scratch=ws.scratch, vectors=vectors)
    try:  # the table is finite (_cost_table checks), but its mean or spread may overflow
        with np.errstate(over="raise"):
            phases = _phase_table(diag, out=ws.scratch, square=ws.next)
    except FloatingPointError:
        raise NonFiniteObjectiveError(f"standard deviation of the cost table overflows at {w} "
                                      f"and {vectors}") from None
    probs = qaoa.qaoa_distribution(phases, theta, out=ws.next, states=ws.states)
    if shots > 0:  # the phase table is spent, so its array takes the normalized copy
        np.divide(qaoa._sample_counts(probs, shots, rng, ws.scratch), shots, out=probs)
    return float(np.dot(probs, diag)), probs


def objective(inst: UcInstance, w: PenaltyWeights, theta: ThetaVector) -> float:
    """Exact QAOA expectation of the penalized objective at theta.

    The diagonal table is built once per call, in a fresh workspace, and
    reused across all P layers; phases see its standardized copy, the
    expectation the true values.  A sampled expectation belongs to a run:
    `run_hybrid` takes it with `HybridConfig.shots`.

    Raises ValidationError unless theta is for inst.n units and all its
    entries are finite, and SizeGuardError past the simulator's guard.
    """
    if theta.n_units != inst.n:
        raise ValidationError(f"theta is for {theta.n_units} units, instance has {inst.n}")
    theta.__post_init__()  # its own check, again: a caller may write into its arrays
    return _evaluate(inst, w, theta, _Workspace(inst.n))[0]


def initial_theta(inst: UcInstance, cfg: HybridConfig, seed=None) -> ThetaVector:
    """Deterministic start: small random angles in (0, pi/4), powers split
    proportionally to capacity, slacks zeroing the limit penalties at all-ON."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    _, _, _, lo, hi = inst.coeff_arrays
    gamma = rng.uniform(0.0, np.pi / 4.0, cfg.depth)
    beta = rng.uniform(0.0, np.pi / 4.0, cfg.depth)
    # where load * hi or hi.sum() passes the largest float, split by hi / hi.max();
    # fmax takes lo where the share is nan (0/0 when every p_max is 0), so p = 0
    with np.errstate(over="ignore", invalid="ignore"):
        total = hi.sum()
        share = inst.load * hi / total
        if not (np.isfinite(total) and np.isfinite(share).all()):
            scaled = hi / hi.max()
            share = inst.load * scaled / scaled.sum()
        p = np.fmin(np.fmax(share, lo), hi)
    return ThetaVector(gamma=gamma, beta=beta, p=p, s1=p - lo, s2=hi - p)


def run_hybrid(inst: UcInstance, cfg: HybridConfig) -> RunHistory:
    """Full hybrid run: simplex descent with metric snapshots.

    Snapshots land at iteration 0, every metric-cadence iterations, and at
    the final iteration; each scores the distribution the optimizer
    evaluated at its current best vertex against the near-optimal set at
    ``cfg.near_opt_fraction``, found up front by a bound-pruned search.
    Snapshots simulate nothing and draw no random numbers: with shots > 0
    they report the sampled histogram behind the recorded objective, and
    the cadence only selects which iterations are written.
    """
    # Allocated before the near-optimal set's temporaries, and with the
    # distribution arrays (one of which the run keeps) first, the workspace
    # reuses the same memory run after run: a process keeping 30 runs at 16
    # units peaked about 0.8 MB lower than with it allocated after them.
    ws = _Workspace(inst.n)
    w = cfg.weights if cfg.weights is not None else PenaltyWeights.default_for(inst)
    nos = near_optimal_set(inst, cfg.near_opt_fraction)
    rng = np.random.default_rng(cfg.seed)
    theta0 = initial_theta(inst, cfg, rng)
    x0 = theta0.pack()
    k_top = 50

    start = time.perf_counter()
    records: list[HistoryRecord] = []
    # Each vertex is simulated once, here.  nelder_mead accepts every point
    # that beats its best vertex, and its stable sort keeps the older vertex
    # first on a tie, so the distribution of the lowest value seen so far
    # (strict <) is the one at simplex[0] whenever the callback fires.  It
    # stays in ws.best; each evaluation writes ws.next.
    best_value = np.inf
    # one checked theta per run, over `proposal`: _finite_vector keeps a float64 view uncopied
    proposal = x0.copy()
    theta = ThetaVector.unpack(proposal, cfg.depth, inst.n)

    def fun(x: np.ndarray) -> float:
        nonlocal best_value
        proposal[:] = x
        value, _ = _evaluate(inst, w, theta, ws, cfg.shots, rng, "the optimizer's p, s1, s2")
        if value < best_value:
            best_value = value
            ws.keep_next()
        return value

    def record(iteration: int, fval: float) -> None:
        snap = _metrics.compute_snapshot(ws.best, nos, k=k_top)
        records.append(
            HistoryRecord(
                iter=iteration,
                objective=float(fval),
                near_opt_prob=snap.near_opt_prob,
                avg_hamming_top50=snap.avg_hamming_top50,
                best_bitstring=index_to_string(int(np.argmax(ws.best)), inst.n),
                elapsed_ms=(time.perf_counter() - start) * 1e3,
            )
        )

    def callback(iteration: int, x: np.ndarray, fval: float) -> None:
        if iteration % cfg.metric_cadence == 0 or iteration == cfg.max_iterations:
            record(iteration, fval)

    result = nelder_mead(fun, x0, max_iter=cfg.max_iterations, callback=callback)
    x = result.x
    x[2 * cfg.depth :] = np.abs(x[2 * cfg.depth :])
    return RunHistory(
        records=tuple(records),
        final_theta=ThetaVector.unpack(x, cfg.depth, inst.n),
        final_distribution=ws.best,
    )
