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

The Z and norm reductions read squared amplitudes, a weight array. The
amplitude-first forms (``norm_sq``, ``z_expectations``, ``diag_z_total``)
square their input themselves; the weight-input forms (``z_fold``,
``z_diagonal``) take a weight array from ``weights``, so that a caller that
reduces one ensemble several ways squares it once, into a buffer of its own.
"""

from __future__ import annotations

import functools

import numpy as np

#: The one kernel implementation; recorded by tools that log the environment.
BACKEND = "numpy"


def popcount(idx):
    """Per-element popcount of a nonnegative integer array."""
    return np.bitwise_count(idx).astype(np.int64)


@functools.lru_cache(maxsize=256)
def _runs(n_bits: int, mask: int) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """Maximal runs of adjacent bits that are all in ``mask`` or all outside
    it, from the most significant bit down: the axis lengths that split an
    index into them, and a slice per run that walks it backwards where it is
    in ``mask``. Cached: a tiled caller asks for the same few masks once per
    tile."""
    runs: list[list] = []
    for b in range(n_bits - 1, -1, -1):
        inside = bool(mask >> b & 1)
        if runs and runs[-1][1] == inside:
            runs[-1][0] += 1
        else:
            runs.append([1, inside])
    return (tuple(1 << length for length, _ in runs),
            tuple(slice(None, None, -1) if inside else slice(None) for _, inside in runs))


def apply_pauli_signs(amps: np.ndarray, flip_mask: int, phase_mask: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """out[..., j] = (-1)**popcount((j ^ flip) & phase) * amps[..., j ^ flip].

    XOR with ``flip_mask`` reverses every run of adjacent flipped bits, so the
    gather is a view that splits the last axis into runs and walks the flipped
    ones backwards, then one C-order copy, into ``out`` when it is given (a
    C-ordered array of ``amps``'s shape that does not overlap it). Each phase
    bit negates, in place, the half of the copy whose *source* index has that
    bit set. No index array is built: the copy is the only allocation.
    """
    lead, n_bits = amps.shape[:-1], amps.shape[-1].bit_length() - 1
    lengths, backwards = _runs(n_bits, flip_mask)
    gather = amps.reshape(lead + lengths)[(..., *backwards)]
    if out is None:
        out = gather.copy(order="C").reshape(amps.shape)
    else:
        np.copyto(out.reshape(gather.shape), gather)
    for b in range(min(n_bits, phase_mask.bit_length())):
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


def weights(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|amps|**2 elementwise, written into ``out`` when it is given.

    The weight array is what the reductions below read. A caller that needs
    several of them for one ensemble squares its amplitudes once, into a
    buffer it reuses, and runs ``z_diagonal`` before ``z_fold``, which
    overwrites the weights.
    """
    if np.iscomplexobj(amps):
        return np.add(np.square(amps.real), np.square(amps.imag), out=out)
    return np.multiply(amps, amps, out=out)


def z_fold(w: np.ndarray, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit <Z> of the lowest ``n_bits`` index bits and the total weight,
    from a weight array that the fold overwrites.

    Entry b of the first result is bit b (bit value 0 counts as eigenvalue
    +1), summed over every value of the bits above. A top-down fold: the top
    bit's set weight is the sum of the upper half; the upper half is then
    added into the lower half in place, which goes on as the weights of the
    lower bits. The one entry left at the end is the total weight, the
    second result.
    """
    out = np.empty(w.shape[:-1] + (n_bits,), dtype=np.float64)
    for b in range(w.shape[-1].bit_length() - 2, -1, -1):
        lo, hi = w[..., :1 << b], w[..., 1 << b:2 << b]
        if b < n_bits:
            out[..., b] = hi.sum(axis=-1)
        lo += hi
        w = lo
    out *= -2.0
    out += w
    return out, w[..., 0].copy()


#: Fewest index bits ``z_diagonal``'s low table spans, where the last axis
#: has that many: its matrix-vector product then runs over rows of 256
#: weights, and its output is at most 1/256 of the weight array.
_LOW_BITS = 8


@functools.lru_cache(maxsize=None)
def _z_table(width: int, n_bits: int) -> np.ndarray:
    """The Z sum of the lowest ``n_bits`` bits of every j < 2**width.

    Built by doubling, with no index array: the upper half of the table is
    the lower half less 2 for a Z bit (b < n_bits), unchanged for a bit above.
    Built once per (width, n_bits) and read-only, since every caller shares
    it; ``z_diagonal`` asks for widths of about half a statevector's bits,
    so the cache holds a few small tables.
    """
    table = np.empty(1 << width)
    table[0] = min(width, n_bits)
    for b in range(width):
        np.subtract(table[:1 << b], 2.0 if b < n_bits else 0.0, out=table[1 << b:2 << b])
    table.flags.writeable = False
    return table


def z_diagonal(w: np.ndarray, n_bits: int):
    """Sum over the lowest ``n_bits`` index bits of <Z_b>, from a weight
    array, summed over every value of the bits above; ``w`` is only read.

    The Z sum of index j is n_bits - 2 popcount(j). Split j's bits into a
    high and a low part: popcount(j) = popcount(hi) + popcount(lo), so the
    sum is a low-bit table dotted with every run of 2**lo weights, plus a
    high-bit table dotted with the runs' sums. The low part takes half the
    Z bits, at least ``_LOW_BITS`` index bits where the axis has them, so
    both tables have about 2**(n_bits / 2) entries or 256; none is
    2**n_bits long.
    """
    lo = min(w.shape[-1].bit_length() - 1, max(n_bits - n_bits // 2, _LOW_BITS))
    hi = max(0, n_bits - lo)
    lead = w.shape[:-1]
    runs = w.reshape(-1, 1 << lo)
    total = (runs @ _z_table(lo, n_bits)).reshape(lead + (-1,)).sum(axis=-1)
    if hi:
        run_sums = runs.sum(axis=-1).reshape(-1, 1 << hi)
        total += (run_sums @ _z_table(hi, hi)).reshape(lead + (-1,)).sum(axis=-1)
    return total


def norm_sq(amps: np.ndarray):
    """<psi|psi>."""
    return weights(amps).sum(axis=-1)


def z_expectations(amps: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-bit <Z> of the lowest ``n_bits`` index bits (bit value 0 counts as
    eigenvalue +1); entry b is bit b, summed over every value of the bits
    above. ``z_fold`` over one weight array."""
    return z_fold(weights(amps), n_bits)[0]


def diag_z_total(amps: np.ndarray, n_bits: int):
    """Sum over the lowest ``n_bits`` index bits of <Z_b>: ``z_diagonal``
    over one weight array, a popcount reduction independent of the fold."""
    return z_diagonal(weights(amps), n_bits)


def complement_overlap(amps: np.ndarray):
    """<psi| FlipAll |psi> = sum_j conj(a[j]) a[all_ones ^ j]; real for real amps."""
    return np.vecdot(amps, amps[..., ::-1])


def mirror_overlap(amps: np.ndarray):
    """sum_j conj(a[j]) a[all_ones ^ j] over the lower half of the index
    range, one value per row of a batch; twice its real part is
    ``complement_overlap``. j and its complement lie in opposite halves, and
    the upper half's terms are the conjugates of the lower half's, so this
    reads each pair once: the reversed operand, which numpy reads at half
    the speed of a forward one, is half as long.
    """
    half = amps.shape[-1] // 2
    return np.vecdot(amps[..., :half], amps[..., :half - 1:-1])
