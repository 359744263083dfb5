"""Exact statevector simulation of the depth-P QAOA circuit.

Layers: uniform superposition, then P alternations of a diagonal cost
phase and a single-qubit X-rotation mixer, then measurement statistics.
The cost table is given once per circuit and enters each layer only as
a diagonal phase, so the mixer is the one dense kernel per layer: the n
qubits are split into three near-equal groups, and each group's
rotations are applied together as one dense Kronecker block, three
matrix products per layer in place of n per-qubit butterflies.

Conventions (fixed package-wide):
  * cost phase multiplies amplitude k by exp(-1j * gamma * diag[k])
    (minimization sign; an opposite-sign convention only flips gamma),
  * the mixer applies exp(-1j * beta * X) to every qubit,
  * basis index k has unit i at bit i (unit 0 = least significant bit).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError, ValidationError
from .instance import _count

QUBIT_GUARD = 20  # 2**20 amplitudes (16 MB) and cost-table entries (8 MB)


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
    """amplitude[k] *= exp(-1j * gamma * diag[k]).

    The phase factors are written as cos and sin into the real and
    imaginary parts of one new array, which sv is multiplied into; no
    complex exp and no complex temporaries.
    """
    if len(sv) != len(diag):
        raise ValueError(f"state size {len(sv)} != table size {len(diag)}")
    angle = -gamma * np.asarray(diag, dtype=float)
    out = np.empty(len(sv), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    out *= sv
    return out


@functools.cache
def _hamming_index(k: int) -> np.ndarray:
    """popcount(i ^ j) over a 2**k x 2**k grid, built once per k (read-only)."""
    idx = np.arange(1 << k)
    dist = np.bitwise_count(idx[:, None] ^ idx)
    dist.flags.writeable = False
    return dist


def _rotation_block(k: int, beta: float) -> np.ndarray:
    """exp(-1j * beta * X) on each of k qubits, as one 2**k x 2**k matrix.

    Entry [i, j] of the k-fold Kronecker power is
    cos(beta)**(k - d) * (-1j * sin(beta))**d with d = popcount(i ^ j), so
    the block is a (k + 1)-entry table indexed by Hamming distance, and
    it is symmetric.  The distance index depends on k alone and is cached;
    k <= QUBIT_GUARD // 3 + 1, so at most 8 of them are ever built.
    """
    cos_b, msin_b = math.cos(beta), -1j * math.sin(beta)
    table = np.array([cos_b ** (k - d) * msin_b ** d for d in range(k + 1)])
    return table[_hamming_index(k)]


def apply_mixer(sv: np.ndarray, beta: float) -> np.ndarray:
    """exp(-1j * beta * X) on every qubit, via three Kronecker blocks.

    The qubits split into groups of a = n // 3 low, b = (n - a) // 2
    middle and c = n - a - b high bits; viewed as a (2**c, 2**b, 2**a)
    array the state is rotated by one matrix product per axis.
    """
    n = _qubit_count(len(sv))
    a = n // 3
    b = (n - a) // 2
    c = n - a - b
    s = sv.reshape(-1, 1 << a) @ _rotation_block(a, beta)  # blocks are symmetric
    s = _rotation_block(b, beta) @ s.reshape(1 << c, 1 << b, 1 << a)
    return (_rotation_block(c, beta) @ s.reshape(1 << c, -1)).reshape(-1)


def qaoa_distribution(diag: np.ndarray, vp: VariationalParams) -> np.ndarray:
    """Basis-state probabilities after the depth-P circuit on the cost table.

    Reads only ``vp.gamma`` and ``vp.beta``, so any object carrying
    finite, equal-length angle vectors under those names will do, such as
    a `hybrid.ThetaVector`; `VariationalParams` is the validating one.
    """
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
    shots = _count(shots, "shots", 1)
    rng = np.random.default_rng(seed)
    p = np.asarray(probs, dtype=float)
    return rng.multinomial(shots, p / p.sum())
