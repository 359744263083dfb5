"""Classical outer loop over (gamma, beta, p, s1, s2).

Packs all continuous decision variables into one flat vector, evaluates
the QAOA expectation of the penalized objective at each proposal, and
minimizes with the simplex method while recording convergence metrics
against a brute-force near-optimal set.  Each proposal is simulated once:
the metric snapshots read the distribution the objective already computed
at the best vertex.

Inputs are validated at the boundary, not per proposal: the public
`objective` checks its theta, `run_hybrid` starts from a finite point,
and `nelder_mead` raises on any non-finite value it is handed back.  An
evaluation builds the cost table straight from the rank-1 structure of
the penalty (`qubo._cost_table`) and hands the circuit theta's own angle
vectors.

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
from .dispatch import NearOptimalSet, near_optimal_set
from .errors import SizeGuardError, ValidationError
from .instance import UcInstance, index_to_string
from .neldermead import nelder_mead
from .qubo import ContinuousAssignment, PenaltyWeights, _cost_table


@dataclass(frozen=True, eq=False)
class ThetaVector:
    """Flat parameter layout: gamma (P), beta (P), p (N), s1 (N), s2 (N).

    The p/s components live on the whole real line inside the simplex
    search; the objective maps them through abs() (an even function, so
    the contract is directly testable) before they touch the QUBO.
    """

    gamma: np.ndarray
    beta: np.ndarray
    p: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "p", "s1", "s2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
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
        if self.depth < 1:
            raise ValidationError(f"depth must be >= 1, got {self.depth}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.metric_cadence < 1:
            raise ValidationError(f"metric_cadence must be >= 1, got {self.metric_cadence}")
        if self.shots < 0:
            raise ValidationError(f"shots must be >= 0, got {self.shots}")


@dataclass(frozen=True, slots=True)
class HistoryRecord:
    iter: int
    objective: float
    near_opt_prob: float
    avg_hamming_top50: float
    best_bitstring: str
    elapsed_ms: float


@dataclass(frozen=True, eq=False)
class RunHistory:
    records: tuple[HistoryRecord, ...]
    final_theta: ThetaVector
    final_distribution: np.ndarray


def _phase_table(diag: np.ndarray) -> np.ndarray:
    """Standardized copy of the cost table used for the phase separator.

    Dollar-scale costs would wrap e^(-i*gamma*cost) thousands of times at
    any O(1) angle, leaving the simplex a white-noise landscape.  Shifting
    is a global phase (no effect on the distribution) and scaling only
    changes the units of gamma, so conditioning to zero mean and unit
    spread alters nothing physical while keeping angles near O(1).
    """
    centred = diag - diag.mean()
    spread = np.sqrt(np.mean(centred * centred))  # == diag.std(), bit for bit
    if spread == 0.0:
        return np.zeros_like(diag)
    return centred / spread


def _evaluate(
    inst: UcInstance,
    w: PenaltyWeights,
    theta: ThetaVector,
    shots: int = 0,
    rng=None,
) -> tuple[float, np.ndarray]:
    """Expectation at theta and the distribution it was taken over.

    Validates nothing: theta must be for inst.n units with finite entries.
    """
    diag = _cost_table(inst, w, np.abs(theta.p), np.abs(theta.s1), np.abs(theta.s2))
    probs = qaoa.qaoa_distribution(_phase_table(diag), theta)
    if shots > 0:
        probs = qaoa.sample(probs, shots, rng) / shots
    return qaoa.expectation(probs, diag), probs


def objective(inst: UcInstance, w: PenaltyWeights, theta: ThetaVector) -> float:
    """Exact QAOA expectation of the penalized objective at theta.

    The diagonal table is built once per call and reused across all P
    layers; phases see its standardized copy, the expectation the true
    values.  A sampled expectation belongs to a run: `run_hybrid` takes
    it with `HybridConfig.shots`.

    Raises ValidationError unless theta is for inst.n units and all its
    entries are finite.
    """
    if theta.n_units != inst.n:
        raise ValidationError(f"theta is for {theta.n_units} units, instance has {inst.n}")
    # built for their checks only: _evaluate validates nothing
    ContinuousAssignment(p=np.abs(theta.p), s1=np.abs(theta.s1), s2=np.abs(theta.s2))
    qaoa.VariationalParams(theta.gamma, theta.beta)
    return _evaluate(inst, w, theta)[0]


def initial_theta(inst: UcInstance, cfg: HybridConfig, seed=None) -> ThetaVector:
    """Deterministic start: small random angles in (0, pi/4), powers split
    proportionally to capacity, slacks zeroing the limit penalties at all-ON."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    _, _, _, lo, hi = inst.coeff_arrays
    gamma = rng.uniform(0.0, np.pi / 4.0, cfg.depth)
    beta = rng.uniform(0.0, np.pi / 4.0, cfg.depth)
    p = np.clip(inst.load * hi / hi.sum(), lo, hi)
    return ThetaVector(gamma=gamma, beta=beta, p=p, s1=p - lo, s2=hi - p)


def run_hybrid(
    inst: UcInstance,
    cfg: HybridConfig,
    nos: Optional[NearOptimalSet] = None,
) -> RunHistory:
    """Full hybrid run: simplex descent with metric snapshots.

    Snapshots land at iteration 0, every metric-cadence iterations, and at
    the final iteration; each scores the distribution the optimizer
    evaluated at its current best vertex against the near-optimal set
    (computed up front by brute force unless supplied).  Snapshots
    simulate nothing and draw no random numbers: with shots > 0 they
    report the sampled histogram behind the recorded objective, and the
    cadence only selects which iterations are written.
    """
    if inst.n > qaoa.QUBIT_GUARD:
        raise SizeGuardError(f"instance has {inst.n} units, simulator guard is {qaoa.QUBIT_GUARD}")
    w = cfg.weights if cfg.weights is not None else PenaltyWeights.default_for(inst)
    if nos is None:
        nos = near_optimal_set(inst, cfg.near_opt_fraction)
    elif nos.n != inst.n:
        raise ValidationError(f"near-optimal set is for {nos.n} units, instance has {inst.n}")
    rng = np.random.default_rng(cfg.seed)
    theta0 = initial_theta(inst, cfg, rng)
    x0 = theta0.pack()
    k_top = 50

    start = time.perf_counter()
    records: list[HistoryRecord] = []
    # Each vertex is simulated once, here.  nelder_mead accepts every point
    # that beats its best vertex, and its stable sort keeps the older vertex
    # first on a tie, so the distribution of the lowest value seen so far
    # (strict <) is the one at simplex[0] whenever the callback fires.
    best_value, best_probs = np.inf, None

    def fun(x: np.ndarray) -> float:
        nonlocal best_value, best_probs
        theta = ThetaVector.unpack(x, cfg.depth, inst.n)
        value, probs = _evaluate(inst, w, theta, cfg.shots, rng)
        if value < best_value:
            best_value, best_probs = value, probs
        return value

    def record(iteration: int, fval: float) -> None:
        snap = _metrics.compute_snapshot(best_probs, nos, k=k_top)
        records.append(
            HistoryRecord(
                iter=iteration,
                objective=float(fval),
                near_opt_prob=snap.near_opt_prob,
                avg_hamming_top50=snap.avg_hamming_top50,
                best_bitstring=index_to_string(int(np.argmax(best_probs)), inst.n),
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
        final_distribution=best_probs,
    )
