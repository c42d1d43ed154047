"""Kernel-level checks: against dense linear algebra, and batches against rows."""

from __future__ import annotations

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qetsim import kernels

#: Test ids name the kernel backend that ``kernels.BACKEND`` reports.
BACKENDS = [kernels.BACKEND]


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def dense_signed_permutation(n_qubits: int, flip_mask: int, phase_mask: int) -> np.ndarray:
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim))
    for j in range(dim):
        src = j ^ flip_mask
        mat[j, src] = -1.0 if bin(src & phase_mask).count("1") % 2 else 1.0
    return mat


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 5])
def test_apply_pauli_signs_matches_dense_matrix(backend, n_qubits):
    rng = np.random.default_rng(7 * n_qubits)
    amps = random_state(n_qubits, rng)
    full = (1 << n_qubits) - 1
    for flip_mask, phase_mask in [(0, 0), (full, 0), (0, full), (full, full), (1, 2), (5 & full, 3 & full)]:
        mat = dense_signed_permutation(n_qubits, flip_mask, phase_mask)
        out = kernels.apply_pauli_signs(amps, flip_mask, phase_mask)
        assert np.allclose(out, mat @ amps, atol=0, rtol=0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pauli_signs_involution(backend):
    # Z-type (flip 0) and X-type (phase 0) strings square to the identity exactly.
    amps = random_state(6, np.random.default_rng(3))
    for flip, phase in [(0, 0b101101), (0b110011, 0), (0b111111, 0b111111)]:
        once = kernels.apply_pauli_signs(amps, flip, phase)
        twice = kernels.apply_pauli_signs(once, flip, phase)
        if flip & phase:
            # Y-carrying strings square to the identity only up to the i**2
            # bookkeeping handled a layer up, so here: (-1)**(number of Y sites).
            twice = twice * (-1.0) ** bin(flip & phase).count("1")
        assert np.array_equal(twice, amps)


def kron_butterfly(n_qubits: int, bit: int) -> np.ndarray:
    """sqrt(2) times the Hadamard on bit ``bit`` (bit 0 is the rightmost factor)."""
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    return reduce(np.kron, [h2 if b == bit else np.eye(2)
                            for b in range(n_qubits - 1, -1, -1)])


def butterfly_reference(amps: np.ndarray, mask: int) -> np.ndarray:
    """The dense Kronecker butterflies of ``kron_butterfly``, applied bit by bit."""
    n = amps.shape[-1].bit_length() - 1
    for bit in range(n):
        if mask >> bit & 1:
            amps = amps @ kron_butterfly(n, bit)  # symmetric: rows times H
    return amps


def one_bit_butterfly(amps: np.ndarray, bit: int) -> np.ndarray:
    """(a + b, a - b) over the pairs of one bit, in a new array."""
    pairs = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << bit))
    a, b = pairs[..., 0, :], pairs[..., 1, :]
    return np.stack([a + b, a - b], axis=-2).reshape(amps.shape)


def projector(amps: np.ndarray, mask: int, sign: int) -> np.ndarray:
    """(1 + sign X) / 2 from two butterflies: split, drop the other outcome, merge."""
    split = kernels.project_x(amps.copy(), mask)
    other = (np.arange(amps.shape[-1]) & mask) == (0 if sign < 0 else mask)
    split[..., other] = 0.0
    return kernels.project_x(split, mask) / 2.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_project_x_resolves_identity_and_is_idempotent(backend):
    amps = random_state(5, np.random.default_rng(11))
    mask = 0b00100
    plus = projector(amps, mask, 1)
    minus = projector(amps, mask, -1)
    # (a+b)/2 and (a-b)/2 round independently, so completeness holds to an ulp.
    assert np.allclose(plus + minus, amps, rtol=0, atol=1e-15)
    assert np.array_equal(projector(plus, mask, 1), plus)
    # Opposite-sign projection of an eigenbranch annihilates it outright.
    assert not np.any(projector(plus, mask, -1))
    # Branch weights resolve the norm.
    total = kernels.norm_sq(plus) + kernels.norm_sq(minus)
    assert total == pytest.approx(kernels.norm_sq(amps), abs=1e-13)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("real", [True, False])
def test_project_x_is_sqrt2_hadamard_in_place(backend, real):
    n = 5
    rng = np.random.default_rng(29)
    amps = random_state(n, rng)
    if real:
        amps = amps.real.copy()
    for bit in range(n):
        want = kron_butterfly(n, bit) @ amps
        work = amps.copy()
        assert kernels.project_x(work, 1 << bit) is work
        assert np.allclose(work, want, rtol=0, atol=1e-15)
        # H^2 = 1, so two butterflies give back 2 psi.
        assert np.allclose(kernels.project_x(work, 1 << bit), 2.0 * amps, rtol=0, atol=1e-15)
    # On a strided view (the protocol engine splits the columns of its branch
    # matrix through a transpose) it writes through to the parent array.
    columns = np.stack([random_state(n, rng).real for _ in range(3)], axis=1)
    want = kron_butterfly(n, 2) @ columns
    kernels.project_x(columns.T, 1 << 2)
    assert np.allclose(columns, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mask", [0xFFFF, 0xFFFE, 0x5A5A, 0x8000, 0x00F0])
def test_project_x_across_tiles_is_the_butterflies_bit_by_bit(mask):
    # 2^16 amplitudes make four tiles: a block high in the index takes part
    # of its low axis per tile, a block low in it a run of whole rows. A
    # complex batch of two goes through a strided view.
    n = 16
    rng = np.random.default_rng(mask)
    amps = rng.standard_normal(1 << n)
    columns = rng.standard_normal((1 << (n - 1), 2)) + 1j * rng.standard_normal((1 << (n - 1), 2))
    for work, scale in [(amps, 2.0 ** -8), (columns.T, 1.0)]:
        want = work.copy()
        for bit in range(work.shape[-1].bit_length() - 1):
            if mask >> bit & 1:
                want = one_bit_butterfly(want, bit)
        want *= scale
        kernels.project_x(work, mask & (work.shape[-1] - 1), scale)
        assert np.abs(work - want).max() <= 1e-12 * np.abs(want).max()


def test_project_x_allocates_no_full_size_temporary():
    # One product buffer of a tile, whatever the array's size: measured at
    # 1.01 tiles, a quarter of the 2^16 array.
    n = 16
    amps = random_state(n, np.random.default_rng(31)).real.copy()
    want = amps.copy()
    kernels.project_x(want.copy(), 1 << 3)  # warm-up outside the trace
    tracemalloc.start()
    try:
        out = kernels.project_x(amps, 1 << 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is amps and not np.array_equal(amps, want)
    assert peak < 1.1 * kernels.TILE * amps.itemsize, peak / (kernels.TILE * amps.itemsize)


@pytest.mark.parametrize("backend", BACKENDS)
def test_z_expectations_on_basis_states(backend):
    n = 4
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0b0110] = 1.0
    got = kernels.z_expectations(amps, n)
    assert np.array_equal(got, [1.0, -1.0, -1.0, 1.0])  # entry b is bit b
    assert kernels.diag_z_total(amps, n) == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_z_expectations_match_dense_diagonal(backend):
    n = 6
    amps = random_state(n, np.random.default_rng(17))
    w = np.abs(amps) ** 2
    idx = np.arange(1 << n)
    expected = np.array([np.sum(w * (1.0 - 2.0 * ((idx >> b) & 1))) for b in range(n)])
    assert np.allclose(kernels.z_expectations(amps, n), expected, atol=1e-13)
    assert kernels.diag_z_total(amps, n) == pytest.approx(expected.sum(), abs=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_complement_overlap(backend):
    n = 3
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 0.6
    amps[-1] = -0.8j
    got = complex(kernels.complement_overlap(amps))
    assert got == pytest.approx(0.6 * (-0.8j) + 0.8j * 0.0 + np.conj(-0.8j) * 0.6)
    basis = np.zeros(1 << n, dtype=np.complex128)
    basis[0] = 1.0
    assert complex(kernels.complement_overlap(basis)) == 0.0


def test_batch_equals_row_by_row_calls():
    n = 5
    rng = np.random.default_rng(23)
    batch = np.stack([random_state(n, rng) for _ in range(6)])
    permutations = {
        "apply_pauli_signs": lambda a: kernels.apply_pauli_signs(a, 0b10110, 0b00111),
        # project_x works in place: each call gets its own copy.
        "project_x": lambda a: kernels.project_x(a.copy(), 0b00100),
        "project_x top bit": lambda a: kernels.project_x(a.copy(), 0b10000),
    }
    reductions = {
        "norm_sq": kernels.norm_sq,
        "z_expectations": lambda a: kernels.z_expectations(a, n),
        "diag_z_total": lambda a: kernels.diag_z_total(a, n),
        "complement_overlap": kernels.complement_overlap,
    }
    for name, fn in permutations.items():
        # Elementwise kernels: a row of the batch is bit-identical to the row alone.
        assert np.array_equal(fn(batch), np.stack([fn(row) for row in batch])), name
    for name, fn in reductions.items():
        # Reductions may sum in another order along a batched axis.
        got = fn(batch)
        rows = np.stack([fn(row) for row in batch])
        assert got.shape == rows.shape, name
        assert np.allclose(got, rows, rtol=0, atol=1e-15), name


def gather_reference(amps: np.ndarray, flip_mask: int, phase_mask: int) -> np.ndarray:
    """The defining gather: an index array, ``np.take`` and a sign vector."""
    src = np.arange(amps.shape[-1], dtype=np.int64) ^ flip_mask
    out = np.take(amps, src, axis=-1)
    out *= 1.0 - 2.0 * (np.bitwise_count(src & phase_mask) & 1)
    return out


@st.composite
def kernel_inputs(draw):
    """Amplitudes of shape lead + (2**n,), C-ordered or with a strided last axis."""
    n = draw(st.integers(0, 10))
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.standard_normal(lead + (1 << n, 2)) @ np.array([1.0, 1j])
    amps = amps.real.copy() if dtype is np.float64 else amps
    if draw(st.booleans()):
        # Same values, last axis strided: a transpose of a C-ordered array.
        amps = np.moveaxis(np.ascontiguousarray(np.moveaxis(amps, -1, 0)), 0, -1)
    full = (1 << n) - 1
    return amps, n, draw(st.integers(0, full)), draw(st.integers(0, full))


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_apply_pauli_signs_equals_the_gather_bit_for_bit(case):
    # Both sides only move values and flip signs, so they agree bit for bit
    # (the drawn values have no zeros, whose sign a complex product by +-1
    # may change).
    amps, _, flip_mask, phase_mask = case
    got = kernels.apply_pauli_signs(amps, flip_mask, phase_mask)
    want = gather_reference(amps, flip_mask, phase_mask)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(kernel_inputs(), st.data())
def test_project_x_is_scale_times_the_butterflies(case, data):
    # Any mask: adjacent and isolated bits, and runs longer than a block of
    # four; a leading batch axis, and a strided last axis (the transpose of
    # C-ordered columns), which the call must write through.
    amps, n, mask, _ = case
    full = (1 << n) - 1
    mask = data.draw(st.sampled_from([mask, full, full & 0b1010101010, full & 0b1111101110,
                                      1 << (n - 1) if n else 0]))
    scale = data.draw(st.sampled_from([1.0, 2.0 ** (-0.5 * mask.bit_count()), 3.7]))
    want = scale * butterfly_reference(amps, mask)
    before = amps.copy()
    assert kernels.project_x(amps, mask, scale) is amps
    assert np.abs(amps - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
    if mask.bit_count() == 1 and scale == 1.0:
        # A one-bit product adds and subtracts (its other entries are 0):
        # the butterfly's bits.
        assert np.array_equal(amps, one_bit_butterfly(before, mask.bit_length() - 1))


@settings(max_examples=200, deadline=None)
@given(kernel_inputs(), st.data())
def test_z_reductions_equal_per_bit_masked_sums(case, data):
    amps, n, _, _ = case
    low = data.draw(st.integers(0, n))
    w = np.abs(amps) ** 2
    idx = np.arange(1 << n)
    total = w.sum(axis=-1)
    want = np.zeros(amps.shape[:-1] + (n,))
    for b in range(n):
        want[..., b] = np.where(idx >> b & 1, -w, w).sum(axis=-1)
    scale = 1e-13 * np.maximum(total, np.finfo(float).tiny)
    # Entry b is bit b; with fewer bits asked for, the low ones.
    z = kernels.z_expectations(amps, low)
    assert z.shape == amps.shape[:-1] + (low,)
    assert np.all(np.abs(z - want[..., :low]) <= scale[..., None])
    assert np.all(np.abs(kernels.diag_z_total(amps, n) - want.sum(axis=-1)) <= n * scale)
    assert np.all(np.abs(kernels.diag_z_total(amps, low) - want[..., :low].sum(axis=-1))
                  <= max(low, 1) * scale)


@pytest.mark.parametrize("width, n_bits",
                         [(0, 0), (3, 5), (8, 8), (8, 3), (9, 12), (16, 16)])
def test_z_tables_are_cached_read_only_and_equal_a_fresh_build(width, n_bits):
    # (16, 16) is the full-width table the ground-state solvers build uncached.
    table = kernels._z_table(width, n_bits)
    assert kernels._z_table(width, n_bits) is table
    fresh = kernels._z_table.__wrapped__(width, n_bits)
    assert fresh is not table and table.tobytes() == fresh.tobytes()
    low = min(width, n_bits)
    assert table.tolist() == [low - 2 * (j & ((1 << low) - 1)).bit_count()
                              for j in range(1 << width)]
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14), st.sampled_from([(), (2,), (3, 2)]), st.data())
def test_sign_tables_give_the_fold_per_bit(width, lead, data):
    # The protocol pass's per-bit <Z> against the fold's first result, on
    # signed values like the pass's cos 2t W + sin 2t sigma M: the two sum
    # in different orders, so they agree to a few ulps of each row's total
    # (at most 6 ulps in 9000 seeded draws of these shapes).
    n_bits = data.draw(st.sampled_from(sorted({max(width - 1, 0), width})))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.standard_normal(lead + (1 << width,)) * rng.uniform(0.0, 1.0, 1 << width) ** 8
    before = w.copy()
    want, _ = kernels.z_fold(w.copy(), n_bits)
    got = kernels.z_per_bit(w, n_bits)
    assert np.array_equal(w, before)  # only read
    assert got.shape == want.shape == lead + (n_bits,)
    scale = 16.0 * np.finfo(float).eps * np.abs(w).sum(axis=-1)
    assert np.all(np.abs(got - want) <= scale[..., None])


@pytest.mark.parametrize("width, n_bits", [(0, 0), (1, 1), (3, 5), (8, 8), (8, 3), (9, 12)])
def test_sign_tables_are_cached_read_only_and_equal_a_fresh_build(width, n_bits):
    table = kernels._sign_table(width, n_bits)
    assert kernels._sign_table(width, n_bits) is table
    fresh = kernels._sign_table.__wrapped__(width, n_bits)
    assert fresh is not table and table.tobytes() == fresh.tobytes()
    bits = min(width, n_bits)
    assert table.shape == (1 << width, bits)
    assert table.tolist() == [[-1.0 if j >> b & 1 else 1.0 for b in range(bits)]
                              for j in range(1 << width)]
    with pytest.raises(ValueError, match="read-only"):
        table[0, ...] = 0.0


@pytest.mark.parametrize("name, bound", [("apply_pauli_signs", 1.1), ("z_expectations", 1.13)])
def test_kernel_peak_memory_on_one_vector(name, bound):
    # The signed permutation allocates its output and nothing else; the
    # Z reduction one weight array, folded in place.
    n = 16
    amps = np.random.default_rng(37).standard_normal(1 << n)
    run = {"apply_pauli_signs": lambda: kernels.apply_pauli_signs(amps, (1 << n) - 1, 1 << 15),
           "z_expectations": lambda: kernels.z_expectations(amps, n)}[name]
    run()  # warm-up outside the trace
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * amps.nbytes, peak / amps.nbytes
