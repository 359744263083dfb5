"""Exact statevector simulation of the depth-P QAOA circuit.

Layers: uniform superposition, then P alternations of a diagonal cost
phase and a single-qubit X-rotation mixer, then measurement statistics.
The cost table is given once per circuit and enters each layer only as
a diagonal phase, so the mixer is the one dense kernel per layer: the n
qubits are split into three near-equal groups, and each group's
rotations are applied together as one dense Kronecker block, three
matrix products per layer in place of n per-qubit butterflies.

Every kernel writes through numpy ``out=`` arguments into arrays its
caller hands it, so a run can hold one set of 2**n buffers for all its
evaluations: a distribution array (which is also the phase angle scratch
until the last step) and two complex state arrays that the cost phase and
the three mixer products take turns writing.  `qaoa_distribution` is the
one checked entry: it checks the sizes once per circuit, whatever the
depth, and allocates whatever its caller did not give, so the result is
the same to the bit either way.  The per-layer kernels check and
allocate nothing.

Conventions (fixed package-wide):
  * cost phase multiplies amplitude k by exp(-1j * gamma * diag[k])
    (minimization sign; an opposite-sign convention only flips gamma),
  * the mixer applies exp(-1j * beta * X) to every qubit,
  * basis index k has unit i at bit i (unit 0 = least significant bit).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NonFiniteObjectiveError, SizeGuardError, ValidationError
from .instance import _count, _finite_vector

# 2**20 amplitudes (16 MB) and cost-table entries (8 MB); a hybrid run's
# workspace of 2 complex and 4 real 2**n arrays is 64 MB there
QUBIT_GUARD = 20


def _qubit_count(size: int) -> int:
    n = size.bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ValidationError(f"state size must be a power of two >= 2, got {size}")
    if n > QUBIT_GUARD:
        raise SizeGuardError(f"qubit guard is n <= {QUBIT_GUARD}, got {n}")
    return n


def _check_size(arr, size: int, what: str) -> None:
    if arr is not None and len(arr) != size:
        raise ValidationError(f"{what} size {len(arr)} != state size {size}")


def apply_cost_phase(sv: np.ndarray, diag: np.ndarray, gamma: float,
                     out: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """amplitude[k] *= exp(-1j * gamma * diag[k]), written to ``out``.

    The phase angles go to the real array ``angle``, their cos and sin
    into the real and imaginary parts of the complex array ``out``, which
    sv is multiplied into; no complex exp and no complex temporaries.
    Every array must be sv's size; sv is left as it was.
    """
    np.multiply(-gamma, diag, out=angle)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    np.multiply(out, sv, out=out)
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


def apply_mixer(sv: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """exp(-1j * beta * X) on every qubit, via three Kronecker blocks.

    The qubits split into groups of a = n // 3 low, b = (n - a) // 2
    middle and c = n - a - b high bits; viewed as a (2**c, 2**b, 2**a)
    array the state is rotated by one matrix product per axis.  The
    products go sv -> out -> sv -> out, so sv, a complex array of a
    power-of-two size like ``out``, is overwritten as scratch.
    """
    n = len(sv).bit_length() - 1
    a = n // 3
    b = (n - a) // 2
    c = n - a - b
    cube = (1 << c, 1 << b, 1 << a)
    blocks = {k: _rotation_block(k, beta) for k in {a, b, c}}  # groups of equal size share one
    # the blocks are symmetric, so the low block multiplies from the right
    np.matmul(sv.reshape(-1, 1 << a), blocks[a], out=out.reshape(-1, 1 << a))
    np.matmul(blocks[b], out.reshape(cube), out=sv.reshape(cube))
    np.matmul(blocks[c], sv.reshape(1 << c, -1), out=out.reshape(1 << c, -1))
    return out


def qaoa_distribution(diag: np.ndarray, theta, out: np.ndarray | None = None,
                      states=None) -> np.ndarray:
    """Basis-state probabilities after the depth-P circuit on the cost table.

    Reads only ``theta.gamma`` and ``theta.beta``: a `hybrid.ThetaVector`
    carries them validated (finite, of equal length P >= 1).

    The probabilities go to the real array ``out``, which holds the phase
    angles until then; ``states`` is a pair of complex arrays for the
    state.  Whatever is not given is allocated.  The sizes are checked
    here, once per circuit; the layers check nothing.
    """
    diag = np.asarray(diag, dtype=float)
    size = len(diag)
    n = _qubit_count(size)
    _check_size(out, size, "out")
    if out is None:
        out = np.empty(size)
    if states is None:
        states = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    for state in states:
        _check_size(state, size, "state")
    sv, spare = states
    sv.fill(2.0 ** (-n / 2.0))  # |+>^n, in place
    for gamma, beta in zip(theta.gamma, theta.beta):
        apply_cost_phase(sv, diag, gamma, out=spare, angle=out)
        apply_mixer(spare, beta, out=sv)
    np.abs(sv, out=out)
    return np.square(out, out=out)


def sample(probs: np.ndarray, shots: int, seed=None) -> np.ndarray:
    """Multinomial shot counts per basis index; deterministic for a fixed seed.

    ``seed`` may be an int or a numpy Generator (the latter draws from and
    advances the shared stream).
    """
    shots = _count(shots, "shots", 1)
    rng = np.random.default_rng(seed)
    p = _finite_vector(probs, "probs", least=0)
    if not p.any():
        raise ValidationError("probs has no mass to sample: every entry is 0")
    return _sample_counts(p, shots, rng)


def _sample_counts(probs: np.ndarray, shots: int, rng, scratch=None) -> np.ndarray:
    """`sample` on checked arguments, normalizing into ``scratch`` (allocated
    when not given): bit for bit ``probs / probs.sum()``.  Checks the total alone."""
    total = probs.sum()
    if not 0.0 < total < math.inf:  # a non-finite cost table makes it nan
        raise NonFiniteObjectiveError(f"distribution to sample has total probability {total}; "
                                      "check for overflow or oversized penalty weights")
    return rng.multinomial(shots, np.divide(probs, total, out=scratch))
