"""Index-space kernels for statevector manipulation, in numpy.

Every hot loop of the brute-force protocol engine lands here: signed-permutation
application of Pauli strings, the X-basis split, and the handful of expectation
values the spin Hamiltonian needs. Amplitudes are real ``float64`` or
``complex128`` arrays whose last axis has length ``2**n``; qubit structure
enters only through bit masks on that axis, so the kernels are agnostic of
any qubit-ordering convention.

Each kernel acts along the last axis and broadcasts over any leading ones.
The same function therefore serves a single statevector of shape ``(2**n,)``
and a batch of them, such as the ``(2**m, 2**(N-m))`` transposed view of the
protocol engine's branch matrix; reductions return a scalar for one vector
and one value per row for a batch.
"""

from __future__ import annotations

import numpy as np

#: The one kernel implementation; recorded by tools that log the environment.
BACKEND = "numpy"


def popcount(idx):
    """Per-element popcount of a nonnegative integer array."""
    return np.bitwise_count(idx).astype(np.int64)


def _indices(amps: np.ndarray) -> np.ndarray:
    return np.arange(amps.shape[-1], dtype=np.int64)


def apply_pauli_signs(amps: np.ndarray, flip_mask: int, phase_mask: int) -> np.ndarray:
    """out[..., j] = (-1)**popcount((j ^ flip) & phase) * amps[..., j ^ flip]."""
    src = _indices(amps) ^ flip_mask
    out = np.take(amps, src, axis=-1)
    out *= 1.0 - 2.0 * (popcount(src & phase_mask) & 1)
    return out


def project_x(amps: np.ndarray, qubit_mask: int) -> np.ndarray:
    """Split one qubit into its X outcomes in place: a Walsh-Hadamard butterfly.

    Each pair (a, b) of amplitudes whose indices differ only in ``qubit_mask``
    becomes (a + b, a - b), sqrt(2) (<+|psi>, <-|psi>) on that qubit. ``amps``
    (a strided view will do) is returned; the one temporary is half its size.
    """
    pairs = amps.reshape(amps.shape[:-1] + (-1, 2, qubit_mask), copy=False)
    a, b = pairs[..., 0, :], pairs[..., 1, :]
    diff = a - b
    a += b
    b[...] = diff
    return amps


def _weights(amps: np.ndarray) -> np.ndarray:
    # conj() of a real array is the array itself, so real input costs one product.
    return (amps.conj() * amps).real


def norm_sq(amps: np.ndarray):
    """<psi|psi>."""
    return _weights(amps).sum(axis=-1)


def z_expectations(amps: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-bit <Z> (bit value 0 counts as eigenvalue +1); entry b is bit b."""
    w = _weights(amps)
    lead = w.shape[:-1]
    out = np.empty(lead + (n_bits,), dtype=np.float64)
    for b in range(n_bits):
        # Index j = (high, bit b, low): a view, no per-element mask.
        out[..., b] = w.reshape(lead + (-1, 2, 1 << b))[..., 1, :].sum(axis=(-2, -1))
    out *= -2.0
    out += w.sum(axis=-1)[..., None]
    return out


def diag_z_total(amps: np.ndarray, n_bits: int):
    """Sum over bits of <Z_b>, computed in one pass via popcounts."""
    return _weights(amps) @ (n_bits - 2 * popcount(_indices(amps))).astype(np.float64)


def complement_overlap(amps: np.ndarray):
    """<psi| FlipAll |psi> = sum_j conj(a[j]) a[all_ones ^ j]; real for real amps."""
    return np.einsum("...j,...j->...", amps.conj(), amps[..., ::-1])
