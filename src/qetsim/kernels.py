"""Index-space kernels for statevector manipulation, in numpy.

Every hot loop of the brute-force protocol engine lands here: signed-permutation
application of Pauli strings, the X-basis split, and the handful of expectation
values the spin Hamiltonian needs. Amplitudes are real ``float64`` or
``complex128`` arrays whose last axis has length ``2**n``; qubit structure
enters only through bit masks on that axis, so the kernels are agnostic of
any qubit-ordering convention.

Each kernel acts along the last axis and broadcasts over any leading ones.
The same function therefore serves a single statevector of shape ``(2**n,)``
and a batch of them, such as the protocol engine's branch matrix or the
stacked column sums of its one pass; reductions return a scalar for one
vector and one value per row for a batch.

The Z and norm reductions read squared amplitudes, a weight array. The
amplitude-first forms (``norm_sq``, ``z_expectations``, ``diag_z_total``)
square their input themselves; the weight-input forms take a weight array
from ``weights``, so that a caller that reduces one ensemble several ways
squares it once, into a buffer of its own. There are three of those:

* ``z_fold``, per-bit <Z> and the total weight by a top-down fold that
  overwrites the weights: one pass a bit, a Python loop over the bits. It
  serves ``z_expectations`` and ``protocol_oracle.output_term_energies``,
  whose per-row values the shot sampler averages. It keeps its loop: the
  sampler's values, and so the bytes ``efficiency --shots`` prints, follow
  its rounding, and a table-driven fold moves their last digits.
* ``z_per_bit``, per-bit <Z> from cached +-1 sign tables over a low and a
  high part of the index, the weights only read: a few products, whatever
  the number of bits. The protocol pass's E_out reads it.
* ``z_diagonal``, the Z sum over the bits from popcount tables split the
  same way, the weights only read. The protocol pass's trace accounting
  and ``diag_z_total`` read it. The two accountings reach <Z> through
  different tables, so an error in one moves that accounting alone.
"""

from __future__ import annotations

import functools

import numpy as np

#: The one kernel implementation; recorded by tools that log the environment.
BACKEND = "numpy"


@functools.lru_cache(maxsize=256)
def _runs(n_bits: int, mask: int) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """Maximal runs of adjacent bits that are all in ``mask`` or all outside
    it, from the most significant bit down: the axis lengths that split an
    index into them, and a slice per run that walks it backwards where it is
    in ``mask``. Cached: callers ask for the same few masks again and
    again."""
    runs: list[list] = []
    for b in range(n_bits - 1, -1, -1):
        inside = bool(mask >> b & 1)
        if runs and runs[-1][1] == inside:
            runs[-1][0] += 1
        else:
            runs.append([1, inside])
    return (tuple(1 << length for length, _ in runs),
            tuple(slice(None, None, -1) if inside else slice(None) for _, inside in runs))


def apply_pauli_signs(amps: np.ndarray, flip_mask: int, phase_mask: int) -> np.ndarray:
    """out[..., j] = (-1)**popcount((j ^ flip) & phase) * amps[..., j ^ flip].

    XOR with ``flip_mask`` reverses every run of adjacent flipped bits, so the
    gather is a view that splits the last axis into runs and walks the flipped
    ones backwards, then one C-order copy. Each phase bit negates, in place,
    the half of the copy whose *source* index has that bit set. No index
    array is built: the copy is the only allocation.
    """
    lead, n_bits = amps.shape[:-1], amps.shape[-1].bit_length() - 1
    lengths, backwards = _runs(n_bits, flip_mask)
    out = amps.reshape(lead + lengths)[(..., *backwards)].copy(order="C").reshape(amps.shape)
    for b in range(min(n_bits, phase_mask.bit_length())):
        if phase_mask >> b & 1:
            # Source bit b is output bit b, inverted where the string flips it.
            half = out.reshape(lead + (-1, 2, 1 << b))[..., 1 ^ (flip_mask >> b & 1), :]
            np.negative(half, out=half)
    return out


#: Elements of one tile: 128 KiB of float64, so that a tile and the few
#: buffers of its size that a pass uses stay in a core's L2 cache. Timed on
#: the oracle benchmark's cells at 2^13 to 2^16 (2-CPU Xeon VM, 2 MiB of L2
#: a core): 2^14 and 2^15 ran alike, 2^13 and 2^16 slower.
TILE = 1 << 14

#: Most index bits one Sylvester product spans. Timed at 2 to 5 bits on
#: the input bits of N = 12 to 22 (2-CPU Xeon VM, BLAS at one thread): 4
#: was the fastest or within 6% of the fastest, and 5 took up to 1.6 times
#: as long, its products of order 32 costing more than the passes over
#: memory that they save.
_BLOCK_BITS = 4


@functools.lru_cache(maxsize=256)
def _blocks(mask: int) -> tuple[tuple[int, int], ...]:
    """(low, bits) of every block of ``project_x``, ``low`` the bit a block
    starts at: each run of adjacent bits of ``mask`` is cut into as few
    blocks of at most ``_BLOCK_BITS`` bits as it takes, of near-equal sizes.
    A run that starts below bit ``_BLOCK_BITS`` first gives a block that
    spans the index bits below it too, ``_BLOCK_BITS`` bits in all where the
    run is long enough. Cached, like ``_runs``."""
    blocks = []
    low = 0
    while mask >> low:
        length = 0
        while mask >> (low + length) & 1:
            length += 1
        if length and low < _BLOCK_BITS:
            bits = min(length, _BLOCK_BITS - low)
            blocks.append((low, bits))
            low, length = low + bits, length - bits
        count = -(-length // _BLOCK_BITS)
        for j in range(count):
            # Hermite's identity: these sizes add up to the length.
            bits = (length + j) // count
            blocks.append((low, bits))
            low += bits
        low += 1
    return tuple(blocks)


@functools.lru_cache(maxsize=None)
def _sylvester(bits: int, low: int) -> np.ndarray:
    """The Kronecker product of the +-1 Sylvester matrix of order 2**bits,
    entry (i, j) = (-1)**popcount(i & j), with the identity of order
    2**low. Symmetric, and read-only, since every caller shares it."""
    matrix = np.ones((1, 1))
    for _ in range(bits):
        matrix = np.block([[matrix, matrix], [matrix, -matrix]])
    matrix = np.kron(matrix, np.eye(1 << low))
    matrix.flags.writeable = False
    return matrix


def project_x(amps: np.ndarray, qubit_mask: int, scale: float = 1.0) -> np.ndarray:
    """Split every qubit of ``qubit_mask`` into its X outcomes in place, times
    ``scale``: a Walsh-Hadamard transform along those index bits.

    On one qubit, each pair (a, b) of amplitudes whose indices differ only
    in its bit becomes (a + b, a - b), sqrt(2) (<+|psi>, <-|psi>) on that
    qubit; the qubits' transforms commute, and the mask's is their product.
    Adjacent mask bits go in blocks of up to four (the blocked transform of
    Fino and Algazi, 1976), and a block is one product with a cached
    Sylvester matrix per tile. With the index split as (high, block, low),
    the matrix multiplies the block axis from the left; a block that starts
    below bit 4 multiplies the (high, block and low) view from the right,
    its matrix spread over the low bits by a Kronecker product with the
    identity, since a short low axis would make many tiny products.
    ``scale`` is folded into the first block's matrix, so it costs no pass.

    Each product's result, at most ``TILE`` elements, goes into one buffer,
    then back into its tile: beside a small matrix, that buffer is the one
    allocation, whatever the size of ``amps``. ``amps`` (a strided view
    will do) is returned. On one bit at scale 1 the product adds and
    subtracts finite values exactly, so it gives the butterfly's bits; a
    larger block sums in BLAS's order.
    """
    blocks = _blocks(qubit_mask)
    if not blocks:
        if scale != 1.0:
            amps *= scale
        return amps
    lead = amps.shape[:-1]
    rows = [amps] if not lead else [amps[index] for index in np.ndindex(lead)]
    buffer = np.empty(TILE, np.result_type(amps, 1.0))
    for i, (low, bits) in enumerate(blocks):
        right = low < _BLOCK_BITS
        matrix = _sylvester(bits, low if right else 0)
        if i == 0 and scale != 1.0:
            matrix = scale * matrix
        for tile in (_right_tiles if right else _left_tiles)(rows, bits, low):
            out = buffer[:tile.size].reshape(tile.shape)
            if right:
                np.matmul(tile, matrix, out=out)
            else:
                np.matmul(matrix, tile, out=out)
            np.copyto(tile, out)
    return amps


def _right_tiles(rows, bits: int, low: int):
    """A block's tiles where it spans the lowest ``bits + low`` index bits:
    runs of whole rows of each row's (high, 2**(bits + low)) view."""
    width = 1 << (bits + low)
    for row in rows:
        view = row.reshape(-1, width)
        for r in range(0, len(view), TILE // width):
            yield view[r:r + TILE // width]


def _left_tiles(rows, bits: int, low: int):
    """A block's tiles in each row's (high, 2**bits, 2**low) view: runs of
    high indices where a tile holds several, else part of the low axis at
    one high index."""
    width = min(1 << low, TILE >> bits)
    step = max(1, (TILE >> bits) >> low)
    for row in rows:
        view = row.reshape(-1, 1 << bits, 1 << low)
        for h in range(0, len(view), step):
            for c in range(0, 1 << low, width):
                yield view[h:h + step, :, c:c + width]


def weights(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|amps|**2 elementwise, written into ``out`` when it is given.

    The weight array is what the reductions below read. A caller that needs
    several of them for one ensemble squares its amplitudes once, into a
    buffer it reuses, and runs ``z_fold``, which overwrites the weights,
    last.
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


#: Fewest index bits the low tables of ``z_diagonal`` and ``z_per_bit``
#: span, where the last axis has that many: their products then run over
#: rows of 256 weights, and their outputs are small beside the weights.
_LOW_BITS = 8


def _split(w: np.ndarray, n_bits: int) -> tuple[int, int]:
    """(lo, hi): the index bits a low table spans, half the ``n_bits`` Z
    bits but at least ``_LOW_BITS`` where the last axis of ``w`` has them,
    and the Z bits left above them for a high table."""
    lo = min(w.shape[-1].bit_length() - 1, max(n_bits - n_bits // 2, _LOW_BITS))
    return lo, max(0, n_bits - lo)


@functools.lru_cache(maxsize=None)
def _z_table(width: int, n_bits: int) -> np.ndarray:
    """The Z sum of the lowest ``n_bits`` bits of every j < 2**width.

    Built by doubling, with no index array: the upper half of the table is
    the lower half less 2 for a Z bit (b < n_bits), unchanged for a bit above.
    Built once per (width, n_bits) and read-only, since every caller shares
    it; ``z_diagonal`` asks for widths of about half a statevector's bits,
    so the cache holds a few small tables; the solvers' full one is not cached.
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
    lo, hi = _split(w, n_bits)
    lead = w.shape[:-1]
    runs = w.reshape(-1, 1 << lo)
    total = (runs @ _z_table(lo, n_bits)).reshape(lead + (-1,)).sum(axis=-1)
    if hi:
        run_sums = runs.sum(axis=-1).reshape(-1, 1 << hi)
        total += (run_sums @ _z_table(hi, hi)).reshape(lead + (-1,)).sum(axis=-1)
    return total


@functools.lru_cache(maxsize=None)
def _sign_table(width: int, n_bits: int) -> np.ndarray:
    """The (2**width, min(width, n_bits)) table whose entry (j, b) is the Z
    eigenvalue of bit b of j: +1 where the bit is clear, -1 where it is set.

    Built by doubling, with no index array: the upper half of the table is
    the lower half with column b (the bit just added) set to -1. Built once
    per (width, n_bits) and read-only, like ``_z_table``: ``z_per_bit``
    splits the index as ``z_diagonal`` does, so the cache holds a few small
    tables.
    """
    bits = min(width, n_bits)
    table = np.empty((1 << width, bits))
    table[0] = 1.0
    for b in range(width):
        upper = table[1 << b:2 << b]
        upper[...] = table[:1 << b]
        if b < bits:
            upper[:, b] = -1.0
    table.flags.writeable = False
    return table


def z_per_bit(w: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-bit <Z> of the lowest ``n_bits`` index bits, from a weight array
    that is only read: ``z_fold``'s first result, by products with tables.

    Split the index bits as ``z_diagonal`` does. A low sign table turns
    every run of 2**lo weights into that run's <Z> of each low bit, and the
    runs' values are summed; a high sign table does the same for the bits
    above, on the runs' sums. Each table has about 2**(n_bits / 2) rows, or
    256, and the call costs a few products, not a pass per bit. The sums
    run in BLAS's order, so the result agrees with the fold's to a few ulps
    of the total weight, not bit for bit.
    """
    lo, hi = _split(w, n_bits)
    lead, runs_per_row = w.shape[:-1], w.shape[-1] >> lo
    runs = w.reshape(-1, 1 << lo)
    low = runs @ _sign_table(lo, n_bits)
    z = low.reshape(lead + (runs_per_row, low.shape[-1])).sum(axis=-2)
    if not hi:
        return z
    run_sums = runs.sum(axis=-1).reshape(-1, 1 << hi)
    high = (run_sums @ _sign_table(hi, hi)).reshape(lead + (-1, hi)).sum(axis=-2)
    return np.concatenate((z, high), axis=-1)


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

