"""Brute-force execution of the full teleportation protocol.

Every closed-form energy in this package has an independent check here:
start from the exact ground state, split it into all 2^(N-m) X-basis
measurement outcomes on the input qubits, account the injected energy,
apply the outcome-conditioned rotation, and read the extracted energy off
the rotated ensemble. Nothing in this module uses or imports the closed
forms, and its best angle maximises its own measured energy curve; the two
paths meet only in the tests and in ``verify``.

An X measurement leaves the measured qubits in the product state |alpha>,
so outcome alpha is fully described by the unnormalised m-qubit output
state <alpha|psi>. All outcomes are held as the rows of one real
(2^(N-m), 2^m) branch matrix ``Branches.states``:

* the ground state is laid out as a C-ordered (inputs, outputs) matrix;
  one in-place ``kernels.project_x`` over all the input bits, a blocked
  Walsh-Hadamard transform with the scale 2^(-(N-m)/2) folded into its
  first product, leaves row alpha holding <alpha|psi>, sign included;
* a row's squared norm is its outcome probability, so ensemble traces are
  plain sums of per-row expectations, and a zero-probability row weighs
  nothing without special-casing; the total probability is one dot product
  over the whole matrix, and only the sampler, which draws rows, takes each
  row's own;
* the conditioned rotation is one real signed permutation of the columns,
  scaled per row by the parity of the row index: the product of its signs;
* every ensemble reduction is a sum over rows, so ``extracted_energy`` and
  the angle curve stream the measured rows through tiles of ``TILE``
  elements: each tile is rotated, its FlipAll overlap taken, squared once
  and its weights added up, and the Z accountings run at the end on those
  sums. A call holds the measured rows and a few tile-sized buffers, and
  the one Python loop runs over tiles, of which a matrix of up to ``TILE``
  elements is one;
* a ``ProtocolReport`` holds floats only, so no array outlives the call.

The ensemble average state is never materialized as a density matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import InvalidPartition, InvalidRange
from .model import (
    DEFAULT_ORACLE_CAP,
    ModelParams,
    Partition,
    ThetaChoice,
    check_oracle_cap,
    interaction_constant,
    local_constant,
)
from .simkernel import StateVector


@dataclass
class Branches:
    """Every X-basis outcome on the input qubits, one row each.

    Row r of ``states`` is the unnormalised output state <alpha|psi> of
    outcome r, over the output qubits in ascending order (the first is the
    most significant bit); its squared norm is the outcome's probability.
    Bit i of r, from the most significant of its N-m bits, set means the
    i-th input qubit (ascending) measured -1; ``parity[r] = (-1)**popcount(r)``
    is the product.
    """

    states: np.ndarray
    parity: np.ndarray


@dataclass
class ProtocolReport:
    """Energy accounting of one protocol run at a fixed rotation angle.

    Floats only: ``total_probability`` is the summed probability of the
    measured rows, 1 up to rounding.
    """

    e_in: float
    e_out: float
    e_out_via_trace: float
    eta: float
    total_probability: float


def measure_branches(params: ModelParams, part: Partition,
                     oracle_cap: int = DEFAULT_ORACLE_CAP) -> Branches:
    """All 2^(N-m) X-basis outcomes on the input qubits, from the ground state."""
    if part.n_qubits != params.n_qubits:
        raise InvalidPartition(
            f"partition is over {part.n_qubits} qubits, model over {params.n_qubits}")
    check_oracle_cap(params.n_qubits, oracle_cap)
    n_in, m = part.n_inputs, part.m_outputs
    # Axis q-1 of the (2,)*N view is qubit q; reorder to (inputs, outputs).
    # The transform runs in place on this call's own copy of the state, made
    # C-ordered so that its flat view is a view: for an output set other than
    # the last m qubits the reordered matrix is strided, and its flat reshape
    # would be a copy.
    axes = [q - 1 for q in part.input_qubits + part.output_qubits_sorted]
    states = np.ascontiguousarray(
        StateVector.ground_state(params).amplitudes.reshape((2,) * params.n_qubits)
        .transpose(axes).reshape(1 << n_in, 1 << m))
    kernels.project_x(states.reshape(-1), ((1 << n_in) - 1) << m, 2.0 ** (-0.5 * n_in))
    # (-1)^popcount(r) by doubling: setting bit b flips the sign.
    parity = np.empty(1 << n_in)
    parity[0] = 1.0
    for b in range(n_in):
        np.negative(parity[:1 << b], out=parity[1 << b:2 << b])
    return Branches(states, parity)


def injected_energy(branches: Branches, params: ModelParams,
                    part: Partition) -> tuple[float, float]:
    """Measurement cost, and the total probability of the measured rows.

    Each measured qubit is left in an X eigenstate, where <Z> is exactly
    zero, so its probability-weighted post-measurement energy
    h<Z_j> + N h^2 / c is the constant times the total probability, which
    is one dot product over the rows.
    """
    probability = float(np.vdot(branches.states, branches.states))
    return part.n_inputs * local_constant(params) * probability, probability


def _phase_mask(part: Partition, y_qubit: int | None) -> int:
    """The Y qubit's bit in the output register: the rotation flips every
    bit and also takes the sign of this one (the first sorted output is the
    most significant bit)."""
    outputs = part.output_qubits_sorted
    if y_qubit is None:
        y_qubit = outputs[0]
    elif y_qubit not in part.output_qubits:
        raise InvalidPartition(f"qubit {y_qubit} is not an output qubit")
    return 1 << (len(outputs) - 1 - outputs.index(y_qubit))


def apply_conditional_unitary(branches: Branches, part: Partition, theta: float,
                              y_qubit: int | None = None) -> np.ndarray:
    """Rotate every row by cos(theta) - i*parity*sin(theta) * Y_y X X ... X.

    The Y factor sits on the lowest-indexed output qubit unless ``y_qubit``
    overrides it; the extracted energy does not depend on the choice.
    -i * (Y X ... X) is the real signed permutation S of the columns, so row
    r becomes cos(theta) * psi_r + parity_r * sin(theta) * S psi_r.
    """
    out = _signed_flip(branches.states, branches.parity, math.sin(theta),
                       _phase_mask(part, y_qubit))
    out += math.cos(theta) * branches.states
    return out


def _signed_flip(rows: np.ndarray, parity: np.ndarray, scale: float,
                 phase: int, out: np.ndarray | None = None) -> np.ndarray:
    """scale * parity_r * S psi_r for every row, into ``out`` when it is
    given; at scale 1, the rotated rows at theta = pi/2. S reverses the
    columns and negates where the source column has the ``phase`` bit. One
    pass applies parity and scale together: parity is +-1, so this equals
    scaling after the parity, bit for bit."""
    out = kernels.apply_pauli_signs(rows, rows.shape[-1] - 1, phase, out)
    out *= scale * parity[:, None]
    return out


def output_term_energies(states: np.ndarray, parity: np.ndarray,
                         params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-row energies of the output-site terms and of the interaction term.

    ``states`` holds unnormalised output rows (measured or rotated), so each
    value already carries its row's probability and ensemble values are sums
    over rows. Returns a (rows, m) array of h<Z_j> + N h^2 / c, columns in
    ascending output-qubit order, and a (rows,) array of 2k<X...X> + 4k^2/c;
    on the measured register of row r, X...X reads ``parity[r]``.
    """
    m = states.shape[-1].bit_length() - 1
    # One weight array gives each row's norm and per-bit <Z>.
    z, norm = kernels.z_fold(kernels.weights(states), m)
    sites = params.h * z[:, ::-1]
    sites += local_constant(params) * norm[:, None]
    flip = parity * kernels.complement_overlap(states)
    return sites, 2.0 * params.k * flip + interaction_constant(params) * norm


# ---------------------------------------------------------------------------
# Ensemble sums, tile by tile
# ---------------------------------------------------------------------------

#: Elements of the branch matrix in one tile, the kernels' tile (2^14): it
#: keeps the buffers of an N = 16 call at a quarter of the rows each.
TILE = kernels.TILE

#: A product with these sums a chunk, or a tile's rows, in one BLAS call:
#: numpy's own sum over the rows of a narrow C-ordered array runs its inner
#: loop once per row, several times slower. A tile has at most TILE // 2
#: rows, and a chunk of a row that spans several is TILE // 2 columns long.
_ONES = np.ones(TILE // 2)
_ONES.flags.writeable = False


class _Tiling(NamedTuple):
    """How a (rows, width) branch matrix splits into tiles.

    S reverses a row's columns, so a tile is a block of ``block`` rows by a
    pair of ``chunk``-column chunks, c and its mirror n_chunks - 1 - c, laid
    side by side: S then reverses the tile's own columns. Where at least two
    rows fit in a tile, the chunk is the whole row and a tile is a block of
    whole rows; otherwise a tile is one row's pair of half-tile chunks.
    """

    block: int
    chunk: int
    n_chunks: int
    #: A tile's rows, and the columns of its one or two chunks.
    shape: tuple[int, int]
    #: Index bits within a chunk, and above it.
    bits: tuple[int, int]

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def of(rows: int, width: int) -> _Tiling:
        chunk = min(width, TILE // 2)
        n_chunks = width // chunk
        block = min(rows, TILE // width) if n_chunks == 1 else 1
        return _Tiling(block, chunk, n_chunks, (block, chunk * min(2, n_chunks)),
                       (chunk.bit_length() - 1, n_chunks.bit_length() - 1))

    def tiles(self, branches: Branches, part: Partition, y_qubit: int | None):
        """Every tile of the measured rows, as one ``_Tile`` that each step
        updates and that holds the pass's buffers.

        A block of whole rows is a view; a chunk pair is copied into one
        buffer, which each tile reuses. The tile's signed flip takes the
        phase mask ``min(phase, chunk)``: a Y bit inside the chunk is that
        bit of the tile, and one above it is the tile's half bit times a
        sign per tile, because the two chunk indices are complements, so
        that bit of one is set exactly where it is clear in the other.
        """
        phase = _phase_mask(part, y_qubit)
        states, parity = branches.states, branches.parity
        block, chunk, n_chunks = self.block, self.chunk, self.n_chunks
        tile = _Tile(min(phase, chunk), self.shape)
        if n_chunks > 1:
            split = states.reshape(len(states), n_chunks, chunk)
            gather = np.empty((block, 2, chunk))
        for r in range(0, len(states), block):
            tile.parity = parity[r:r + block]
            for c in range((n_chunks + 1) // 2):
                tile.pair = slice(c, n_chunks - c, max(1, n_chunks - 1 - 2 * c))
                if n_chunks == 1:
                    tile.values = states[r:r + block]
                else:
                    np.copyto(gather, split[r:r + block, tile.pair])
                    tile.values = gather.reshape(self.shape)
                tile.sign = -1.0 if c & phase // chunk else 1.0
                yield tile


class _Tile:
    """The current tile of a pass: its ``values``, its rows' ``parity``, its
    chunks as the slice ``pair`` and the sign of its Y phase; and the pass's
    tile-sized buffers, ``rows`` for the rotated rows and ``w`` for weights."""

    __slots__ = ("phase", "rows", "w", "values", "parity", "pair", "sign")

    def __init__(self, phase: int, shape: tuple[int, int]):
        self.phase = phase
        self.rows, self.w = np.empty(shape), np.empty(shape)

    def flip(self, scale: float) -> np.ndarray:
        """scale * parity_r * S of the tile's rows, into ``rows``."""
        return _signed_flip(self.values, self.parity, self.sign * scale, self.phase,
                            self.rows)


class _Sums:
    """One ensemble's reductions, added up over its tiles: the parity-read
    FlipAll overlap, its weights summed over rows for every tile column, and,
    where a row spans several chunks, each chunk's total weight.

    Every tile holds the same output bits at the same columns, so the column
    sums give the <Z> and popcount of the bits within a chunk (a pair's half
    bit is a bit above them, summed over); the chunk totals give those of
    the bits above a chunk.
    """

    def __init__(self, tiling: _Tiling):
        self.tiling = tiling
        self.flip = 0.0
        self.columns = None
        self.chunks = np.zeros(tiling.n_chunks) if tiling.n_chunks > 1 else None

    def add(self, rows: np.ndarray, tile: _Tile) -> None:
        """Reduce ``rows``, an ensemble's values at ``tile``. Their weights go
        into a new array for the first tile and into the buffer ``tile.w``
        after it. A chunk pair's FlipAll products all lie inside the tile."""
        self.flip += 2.0 * float(tile.parity @ kernels.mirror_overlap(rows))
        first = self.columns is None
        w = kernels.weights(rows, out=None if first else tile.w)
        columns = w[0] if len(w) == 1 else _ONES[:len(w)] @ w
        if first:
            self.columns = columns
        else:
            self.columns += columns
        if self.tiling.n_chunks > 1:
            self.chunks[tile.pair] += columns.reshape(2, -1) @ _ONES

    def z_total(self) -> float:
        """Sum over the output bits of <Z>: the popcount diagonal, which only
        reads the sums."""
        lo, hi = self.tiling.bits
        total = kernels.z_diagonal(self.columns, lo)
        if hi:
            total += kernels.z_diagonal(self.chunks, hi)
        return float(total)

    def fold(self) -> tuple[float, np.ndarray]:
        """Total weight and the outputs' <Z> (ascending qubit order), from
        the per-bit fold, which overwrites the sums."""
        lo, hi = self.tiling.bits
        z, weight = kernels.z_fold(self.columns, lo)
        if hi:
            z = np.concatenate([z, kernels.z_fold(self.chunks, hi)[0]])
        return float(weight), z[::-1]


def _drained(weight: float, z: np.ndarray, flip: float, params: ModelParams) -> float:
    """Ensemble energy drained from the output terms plus the interaction,
    from its total weight, the outputs' <Z> and the parity-read <FlipAll>:
    ``output_term_energies`` summed over the rows."""
    sites = params.h * z
    sites += local_constant(params) * weight
    return -float(sites.sum() + (2.0 * params.k * flip + interaction_constant(params) * weight))


def extracted_energy(params: ModelParams, part: Partition, theta: float,
                     y_qubit: int | None = None,
                     oracle_cap: int = DEFAULT_ORACLE_CAP) -> ProtocolReport:
    """Run the whole protocol at a fixed angle and account every energy flow.

    The headline number ``e_out`` is minus the ensemble expectation of the
    output-site terms plus the interaction term after the rotation. A second,
    independent accounting ``e_out_via_trace`` is the injected energy minus
    the total ensemble energy; the two must agree to near machine precision.
    Both read the same rotated weight sums, total weight and FlipAll
    overlap; their Z sums come from two kernels over those sums (the
    popcount diagonal, which runs first, and the per-bit fold).

    The rotated rows are made, squared and reduced one tile at a time, so
    apart from the measured rows a call holds one tile's buffers.
    """
    branches = measure_branches(params, part, oracle_cap)
    e_in, probability = injected_energy(branches, params, part)

    tiling = _Tiling.of(*branches.states.shape)
    cos, sin = math.cos(theta), math.sin(theta)
    rotated = _Sums(tiling)
    for tile in tiling.tiles(branches, part, y_qubit):
        rows = tile.flip(sin)
        rows += np.multiply(tile.values, cos, out=tile.w)
        rotated.add(rows, tile)
    # Total <H>: the measured qubits sit in X eigenstates and add nothing to
    # the Z sum, and FlipAll reads each row's parity on them. The diagonal
    # reads the sums before the fold overwrites them.
    z_total = rotated.z_total()
    weight, z = rotated.fold()
    e_out = _drained(weight, z, rotated.flip, params)
    total = params.h * z_total + 2.0 * params.k * rotated.flip + params.c * weight
    return ProtocolReport(e_in=e_in, e_out=e_out, e_out_via_trace=e_in - total,
                          eta=e_out / e_in, total_probability=probability)


# ---------------------------------------------------------------------------
# Angle sweeps and numeric optimization
# ---------------------------------------------------------------------------

def _quadratic(branches: Branches, params: ModelParams, part: Partition,
               y_qubit: int | None) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the ensemble drained energy
    A cos^2 t + B sin^2 t + 2C cos t sin t.

    Every rotated row is cos(t) psi + parity sin(t) S psi, so every
    expectation is quadratic in (cos t, sin t); the drained energy at t = 0,
    pi/2 and pi/4 fixes the three numbers. Each tile of psi is read once:
    its S psi is computed, and its pi/4 rows (psi + parity S psi) / sqrt(2)
    are built in that array's place, each ensemble squared into one buffer.
    """
    tiling = _Tiling.of(*branches.states.shape)
    sums = [_Sums(tiling) for _ in range(3)]
    for tile in tiling.tiles(branches, part, y_qubit):
        sums[0].add(tile.values, tile)
        rows = tile.flip(1.0)
        sums[1].add(rows, tile)
        rows += tile.values
        rows *= math.sqrt(0.5)
        sums[2].add(rows, tile)
    a, b, mid = (_drained(*s.fold(), s.flip, params) for s in sums)
    return a, b, mid - 0.5 * (a + b)


def output_energy_curve(params: ModelParams, part: Partition, thetas,
                        y_qubit: int | None = None,
                        oracle_cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Drained energy at every angle in ``thetas``, branches enumerated once.

    Matches ``extracted_energy`` to rounding (same branch states, same
    operator expectations), but costs one signed permutation plus O(1) per angle.
    """
    branches = measure_branches(params, part, oracle_cap)
    a, b, c = _quadratic(branches, params, part, y_qubit)
    t = np.asarray(thetas, dtype=float)
    ct, st = np.cos(t), np.sin(t)
    return a * ct * ct + b * st * st + 2.0 * c * ct * st


def optimize_theta_numeric(params: ModelParams, part: Partition,
                           oracle_cap: int = DEFAULT_ORACLE_CAP) -> ThetaChoice:
    """The exact maximiser of the oracle's own drained-energy curve.

    The curve a cos^2 t + b sin^2 t + 2c cos t sin t is
    (a+b)/2 + R cos(2t - phi) with phi = atan2(2c, a - b), so its maximum on
    [0, pi/2] is at t = phi / 2, read off the three measured coefficients.
    a - b > 0 and c >= 0 up to rounding; c is clamped at 0 so that phi lies
    in [0, pi/2] and theta in [0, pi/4].
    """
    branches = measure_branches(params, part, oracle_cap)
    a, b, c = _quadratic(branches, params, part, None)
    return ThetaChoice.from_components(a - b, max(0.0, 2.0 * c))


def simulate_with_outputs(params: ModelParams, output_set, theta: float,
                          oracle_cap: int = DEFAULT_ORACLE_CAP) -> ProtocolReport:
    """Run the protocol with an arbitrary output set.

    The report depends only on how many qubits are outputs, not which; the
    spin model is permutation symmetric and the tests lean on that.
    """
    part = Partition(params.n_qubits, frozenset(output_set))
    return extracted_energy(params, part, theta, oracle_cap=oracle_cap)


# ---------------------------------------------------------------------------
# Sampling demonstration (not used by any verification path)
# ---------------------------------------------------------------------------

#: Most shots one estimate draws: about 24 bytes each, 240 MB at the cap.
MAX_SHOTS = 10_000_000


@dataclass
class SampleEstimate:
    """Monte Carlo estimate of the protocol energies from finite shots."""

    e_in: float
    e_out: float
    n_shots: int
    seed: int


def sample_protocol(params: ModelParams, part: Partition, theta: float,
                    n_shots: int = 4096, seed: int = 0,
                    oracle_cap: int = DEFAULT_ORACLE_CAP) -> SampleEstimate:
    """Estimate the energies by sampling outcomes instead of enumerating them.

    Exists to show what a shot-based experiment would see; the exact
    enumeration above is what everything else in the package relies on.
    """
    if not 1 <= n_shots <= MAX_SHOTS:
        raise InvalidRange(f"need 1 to {MAX_SHOTS} shots, got {n_shots}")
    if not 0 <= seed < 1 << 64:
        raise InvalidRange(f"seed must lie in [0, 2**64), got {seed}")
    branches = measure_branches(params, part, oracle_cap)
    row_probs = np.einsum("ij,ij->i", branches.states, branches.states)
    probs = row_probs / np.sum(row_probs)
    # Per-outcome energies of the normalized branch states; a drawn outcome
    # has nonzero probability, so dividing by it is safe. Every outcome leaves
    # the measured qubits in X eigenstates, so each shot injects the same.
    sites, interaction = output_term_energies(
        apply_conditional_unitary(branches, part, theta), branches.parity, params)
    drained = -(sites.sum(axis=1) + interaction)

    rng = np.random.default_rng(np.uint64(seed))
    draws = rng.choice(len(probs), size=n_shots, p=probs)
    return SampleEstimate(
        e_in=part.n_inputs * local_constant(params),
        e_out=float(np.mean(drained[draws] / row_probs[draws])),
        n_shots=n_shots,
        seed=seed,
    )
