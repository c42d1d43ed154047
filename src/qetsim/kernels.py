"""Index-space kernels for statevector manipulation, in numpy.

Every hot loop of the brute-force protocol engine lands here: signed-permutation
application of Pauli strings, X-basis projectors, and the handful of expectation
values the spin Hamiltonian needs. Amplitudes are ``complex128`` arrays whose
last axis has length ``2**n``; qubit structure enters only through bit masks
on that axis, so the kernels are agnostic of any qubit-ordering convention.

Each kernel acts along the last axis and broadcasts over any leading ones.
The same function therefore serves a single statevector of shape ``(2**n,)``
and a batch of them, such as the ``(2**(N-m), 2**m)`` branch matrix of the
protocol engine; reductions return a scalar for one vector and one value per
row for a batch.
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
    signs = 1.0 - 2.0 * (popcount(src & phase_mask) & 1)
    return signs * amps[..., src]


def project_x(amps: np.ndarray, qubit_mask: int, sign) -> np.ndarray:
    """Apply (1 + sign * X_qubit) / 2.

    ``sign`` is +1 or -1, or an array of them along the last axis, in which
    case index j is projected onto the outcome ``sign[j]``.
    """
    return 0.5 * (amps + sign * amps[..., _indices(amps) ^ qubit_mask])


def _weights(amps: np.ndarray) -> np.ndarray:
    return np.real(amps) ** 2 + np.imag(amps) ** 2


def norm_sq(amps: np.ndarray):
    """<psi|psi>."""
    return _weights(amps).sum(axis=-1)


def z_expectations(amps: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-bit <Z> (bit value 0 counts as eigenvalue +1); entry b is bit b."""
    w = _weights(amps)
    lead = w.shape[:-1]
    total = w.sum(axis=-1)
    out = np.empty(lead + (n_bits,), dtype=np.float64)
    for b in range(n_bits):
        # Index j = (high, bit b, low): a view, no per-element mask.
        ones = w.reshape(lead + (-1, 2, 1 << b))[..., 1, :].sum(axis=(-2, -1))
        out[..., b] = total - 2.0 * ones
    return out


def diag_z_total(amps: np.ndarray, n_bits: int):
    """Sum over bits of <Z_b>, computed in one pass via popcounts."""
    return _weights(amps) @ (n_bits - 2 * popcount(_indices(amps))).astype(np.float64)


def complement_overlap(amps: np.ndarray):
    """<psi| FlipAll |psi> = sum_j conj(a[j]) a[all_ones ^ j]."""
    return np.einsum("...j,...j->...", amps.conj(), amps[..., ::-1])
