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


def _runs(n_bits: int, mask: int) -> list[tuple[int, bool]]:
    """Maximal runs of adjacent bits that are all in ``mask`` or all outside
    it, as (length, inside), from the most significant bit down."""
    runs: list[tuple[int, bool]] = []
    for b in range(n_bits - 1, -1, -1):
        inside = bool(mask >> b & 1)
        if runs and runs[-1][1] == inside:
            runs[-1] = (runs[-1][0] + 1, inside)
        else:
            runs.append((1, inside))
    return runs


def apply_pauli_signs(amps: np.ndarray, flip_mask: int, phase_mask: int) -> np.ndarray:
    """out[..., j] = (-1)**popcount((j ^ flip) & phase) * amps[..., j ^ flip].

    XOR with ``flip_mask`` reverses every run of adjacent flipped bits, so the
    gather is a view that splits the last axis into runs and walks the flipped
    ones backwards, then one C-order copy. Each phase bit negates, in place,
    the half of the copy whose *source* index has that bit set. No index array
    is built: the copy is the only allocation.
    """
    lead, n_bits = amps.shape[:-1], amps.shape[-1].bit_length() - 1
    runs = _runs(n_bits, flip_mask)
    split = amps.reshape(lead + tuple(1 << length for length, _ in runs))
    backwards = tuple(slice(None, None, -1) if flipped else slice(None)
                      for _, flipped in runs)
    out = split[(..., *backwards)].copy(order="C").reshape(amps.shape)
    for b in range(n_bits):
        if phase_mask >> b & 1:
            # Source bit b is output bit b, inverted where the string flips it.
            half = out.reshape(lead + (-1, 2, 1 << b))[..., 1 ^ (flip_mask >> b & 1), :]
            np.negative(half, out=half)
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
    """Per-bit <Z> of the lowest ``n_bits`` index bits (bit value 0 counts as
    eigenvalue +1); entry b is bit b, summed over every value of the bits above.

    A top-down fold over one weight array: the top bit's set weight is the sum
    of the upper half; the upper half is then added into the lower half in
    place, which goes on as the weights of the lower bits. The one entry left
    at the end is the total weight.
    """
    w = _weights(amps)
    out = np.empty(w.shape[:-1] + (n_bits,), dtype=np.float64)
    for b in range(w.shape[-1].bit_length() - 2, -1, -1):
        lo, hi = w[..., :1 << b], w[..., 1 << b:2 << b]
        if b < n_bits:
            out[..., b] = hi.sum(axis=-1)
        lo += hi
        w = lo
    out *= -2.0
    out += w
    return out


def diag_z_total(amps: np.ndarray, n_bits: int):
    """Sum over bits of <Z_b>, computed in one pass via popcounts."""
    z_total = np.bitwise_count(np.arange(amps.shape[-1])).astype(np.float64)
    z_total *= -2.0
    z_total += n_bits
    return _weights(amps) @ z_total


def complement_overlap(amps: np.ndarray):
    """<psi| FlipAll |psi> = sum_j conj(a[j]) a[all_ones ^ j]; real for real amps."""
    return np.einsum("...j,...j->...", amps.conj(), amps[..., ::-1])
