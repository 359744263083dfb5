"""Exact statevector simulation of the depth-P QAOA circuit.

Layers: uniform superposition, then P alternations of a diagonal cost
phase and a single-qubit X-rotation mixer, then measurement statistics.

Conventions (fixed package-wide):
  * cost phase multiplies amplitude k by exp(-1j * gamma * diag[k])
    (minimization sign; an opposite-sign convention only flips gamma),
  * the mixer applies exp(-1j * beta * X) to every qubit,
  * basis index k has unit i at bit i (unit 0 = least significant bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError, ValidationError

QUBIT_GUARD = 20  # 2**20 complex doubles = 16 MB


@dataclass(frozen=True, eq=False)
class VariationalParams:
    """Angle vectors (gamma, beta) of equal length P >= 1, in radians.

    Angles are not wrapped into [0, 2*pi); the circuit is well defined at
    any real angle and wrapping would put discontinuities in the outer
    optimizer's search space.
    """

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)
        if gamma.shape != beta.shape or gamma.ndim != 1 or gamma.size < 1:
            raise ValidationError("gamma and beta must be equal-length vectors, P >= 1")
        if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(beta))):
            raise ValidationError("angles must be finite")

    @property
    def depth(self) -> int:
        return int(self.gamma.size)


def _qubit_count(size: int) -> int:
    n = size.bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ValidationError(f"state size must be a power of two >= 2, got {size}")
    if n > QUBIT_GUARD:
        raise SizeGuardError(f"qubit guard is n <= {QUBIT_GUARD}, got {n}")
    return n


def uniform_state(n: int) -> np.ndarray:
    """|+>^n: every amplitude 2**(-n/2)."""
    if n < 1 or n > QUBIT_GUARD:
        raise SizeGuardError(f"qubit count must be in [1, {QUBIT_GUARD}], got {n}")
    return np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)


def apply_cost_phase(sv: np.ndarray, diag: np.ndarray, gamma: float) -> np.ndarray:
    """amplitude[k] *= exp(-1j * gamma * diag[k])."""
    if len(sv) != len(diag):
        raise ValueError(f"state size {len(sv)} != table size {len(diag)}")
    return sv * np.exp(-1j * gamma * np.asarray(diag, dtype=float))


def apply_mixer(sv: np.ndarray, beta: float) -> np.ndarray:
    """exp(-1j * beta * X) on every qubit, via per-qubit butterflies."""
    n = _qubit_count(len(sv))
    cos_b = math.cos(beta)
    msin_b = -1j * math.sin(beta)
    out = sv.copy()
    for q in range(n):
        view = out.reshape(-1, 2, 1 << q)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = cos_b * a + msin_b * b
        view[:, 1, :] = msin_b * a + cos_b * b
    return out


def qaoa_distribution(diag: np.ndarray, vp: VariationalParams) -> np.ndarray:
    """Basis-state probabilities after the depth-P circuit on the cost table."""
    n = _qubit_count(len(diag))
    sv = uniform_state(n)
    for gamma, beta in zip(vp.gamma, vp.beta):
        sv = apply_cost_phase(sv, diag, gamma)
        sv = apply_mixer(sv, beta)
    return np.abs(sv) ** 2


def expectation(probs: np.ndarray, diag: np.ndarray) -> float:
    """Mean cost under the distribution: sum(probs * diag)."""
    if len(probs) != len(diag):
        raise ValueError(f"distribution size {len(probs)} != table size {len(diag)}")
    return float(np.dot(probs, diag))


def sample(probs: np.ndarray, shots: int, seed=None) -> np.ndarray:
    """Multinomial shot counts per basis index; deterministic for a fixed seed.

    ``seed`` may be an int or a numpy Generator (the latter draws from and
    advances the shared stream).
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    p = np.asarray(probs, dtype=float)
    return rng.multinomial(shots, p / p.sum())
