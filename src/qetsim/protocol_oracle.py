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
  nothing without special-casing; the total probability is the sum of the
  column weights that the pass below adds up, and only the sampler, which
  draws rows, takes each row's own;
* the columns hold the outputs ascending, so the first output carries the
  rotation's Y on the top bit (H commutes with every qubit permutation, so
  which output does moves no ground-state energy), and the conditioned
  rotation takes row r to cos t psi_r + parity_r sin t S psi_r, with S the
  columns reversed and those from the upper half negated, and parity_r the
  product of the row's outcome signs; the generator squares to one, so
  every energy after it is x0 + x1 cos 2t + x2 sin 2t;
* one pass over the measured rows adds up their column weights and
  parity-weighted mirror products, and the Z accountings run once at the
  end on those sums: ``_terms`` measures the rows and returns the
  coefficients of both accountings, and ``_angle_form`` reads every angle
  off them, for ``extracted_energies`` (and its one-angle case
  ``extracted_energy``) and the angle curve alike; the optimizer reads
  the coefficients themselves. E_out reads its per-bit <Z> through
  ``kernels.z_per_bit``'s sign tables and the trace accounting through
  ``kernels.z_diagonal``'s popcount tables, so the two stay independent.
  No rotated row is built: a call holds the measured rows and a few
  tile-sized buffers. Rows that fit in a tile of ``TILE`` elements
  stream through tiles in blocks, the pass's one Python loop, which runs
  once for a matrix of up to ``TILE`` elements; longer rows are reduced
  whole, by a few numpy reductions over all of them. Only the sampler
  rotates the rows, with ``apply_conditional_unitary``, and reads them
  through ``kernels.z_fold``;
* a ``ProtocolReport`` holds floats only, so no array outlives the call.

The ensemble average state is never materialized as a density matrix.
"""

from __future__ import annotations

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
    check_angles,
    check_oracle_cap,
    interaction_constant,
    local_constant,
)
from .simkernel import StateVector


@dataclass
class Branches:
    """Every X-basis outcome on the input qubits, one row each.

    Row r of ``states`` is the unnormalised output state <alpha|psi> of
    outcome r, over the output qubits in ascending order from the most
    significant bit, so the first output, which carries the rotation's Y,
    is the top bit; its squared norm is the outcome's probability.
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
    """All 2^(N-m) X-basis outcomes on the input qubits, from the ground
    state, the outputs ascending from the top output bit."""
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
    axes = [q - 1 for q in (*part.input_qubits, *part.output_qubits_sorted)]
    states = np.ascontiguousarray(
        StateVector.ground_state(params).amplitudes.reshape((2,) * params.n_qubits)
        .transpose(axes).reshape(1 << n_in, 1 << m))
    kernels.project_x(states.reshape(-1), ((1 << n_in) - 1) << m, 2.0 ** (-0.5 * n_in))
    return Branches(states, _parity(n_in))


#: (-1)**popcount(j) for every j < 2**12, read-only: the head of every
#: parity vector, which ``_parity`` copies.
_PARITY = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << 12)) & 1)
_PARITY.flags.writeable = False


def _parity(n_bits: int) -> np.ndarray:
    """(-1)**popcount(r) for every r < 2**n_bits, as a new array.

    The lowest bits' parities are one copy from ``_PARITY``, and each bit
    above doubles the vector: setting bit b flips the sign. So up to 4096
    rows cost one copy, and more rows one negation per bit above the
    table's: the memory traffic of doubling from one entry, in fewer calls.
    """
    low = min(n_bits, len(_PARITY).bit_length() - 1)
    parity = np.empty(1 << n_bits)
    parity[:1 << low] = _PARITY[:1 << low]
    for b in range(low, n_bits):
        np.negative(parity[:1 << b], out=parity[1 << b:2 << b])
    return parity


def injected_energy(probability: float, params: ModelParams, part: Partition) -> float:
    """Measurement cost of measured rows whose total probability is
    ``probability``.

    Each measured qubit is left in an X eigenstate, where <Z> is exactly
    zero, so its probability-weighted post-measurement energy
    h<Z_j> + N h^2 / c is the constant times the total probability.
    """
    return part.n_inputs * local_constant(params) * probability


def apply_conditional_unitary(branches: Branches, theta: float) -> np.ndarray:
    """Rotate every row by cos(theta) - i*parity*sin(theta) * Y X ... X.

    The Y factor sits on the top output bit, the first output. -i * (Y X
    ... X) is the real signed permutation S of the columns, so row r becomes
    cos(theta) * psi_r + parity_r * sin(theta) * S psi_r. S reverses the
    columns and negates those from the upper half.
    """
    check_angles(theta)
    states = branches.states
    out = kernels.apply_pauli_signs(states, states.shape[-1] - 1, states.shape[-1] >> 1)
    # Parity is +-1, so one pass applies it and sin(theta) together.
    out *= math.sin(theta) * branches.parity[:, None]
    out += math.cos(theta) * states
    return out


def output_term_energies(states: np.ndarray, parity: np.ndarray,
                         params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-row energies of the output-site terms and of the interaction term.

    ``states`` holds unnormalised output rows (measured or rotated), so each
    value already carries its row's probability and ensemble values are sums
    over rows. Returns a (rows, m) array of h<Z_j> + N h^2 / c, its sites in
    the column order of the branch matrix (the output on the top bit
    first), and a (rows,) array of 2k<X...X> + 4k^2/c; on the measured
    register of row r, X...X reads ``parity[r]``.
    """
    m = states.shape[-1].bit_length() - 1
    # One weight array gives each row's norm and per-bit <Z>.
    z, norm = kernels.z_fold(kernels.weights(states), m)
    sites = params.h * z[:, ::-1]
    sites += local_constant(params) * norm[:, None]
    flip = parity * kernels.complement_overlap(states)
    return sites, 2.0 * params.k * flip + interaction_constant(params) * norm


# ---------------------------------------------------------------------------
# Every rotated energy from one pass over the measured rows
# ---------------------------------------------------------------------------

#: Elements of the branch matrix in one tile, the kernels' tile (2^14): it
#: keeps the buffers of an N = 16 call at a quarter of the rows each.
TILE = kernels.TILE

#: A product with these sums a tile's rows or the column sums in
#: one BLAS call: numpy's own sum over the rows of a narrow C-ordered array
#: runs its inner loop once per row, several times slower.
_ONES = np.ones(TILE)
_ONES.flags.writeable = False

#: Interleaved partial sums that a block of whole rows is added up in, row
#: r into sum r mod 32: at m = 1 every row holds the same two weights, and
#: one sequential sum lets their roundings add up. At N = 10-18, m = 1-3,
#: |total probability - 1| peaks at 8.9e-14 with one sum, 1.6e-15 with 32.
_LANES = 32


class _Terms(NamedTuple):
    """The measured rows' total probability, and the coefficients
    (x0, x1, x2) of x0 + x1 cos 2t + x2 sin 2t, the rotated ensemble's
    energy at angle t: the drained one (minus the output terms and the
    interaction) and <H>."""

    probability: float
    drained: tuple[float, float, float]
    total: tuple[float, float, float]


def _terms(params: ModelParams, part: Partition, oracle_cap: int) -> _Terms:
    """The coefficients of every rotated energy, from one measurement and
    one pass over the measured rows psi_r.

    The rotation's generator squares to one, so each energy is
    x0 + x1 cos 2t + x2 sin 2t. With the Y factor on the top output bit,
    S psi reads sigma_j psi_rev(j), with rev(j) = 2^m - 1 - j and
    sigma_j = +1 in the upper half of the columns, -1 in the lower, so
    sigma_rev(j) = -sigma_j. From the column weights W_j = sum_r psi_rj^2
    and the mirror products M_j = sum_r parity_r psi_rj psi_r,rev(j), at
    angle t:

    * the rotated column weights are
      cos^2 t W_j + sin^2 t W_rev(j) + sin 2t sigma_j M_j;
    * reversal negates every Z, so each Z reduction of them is that of
      cos 2t W + sin 2t sigma M; and sigma M, antisymmetric under reversal,
      adds no weight: the total is sum_j W_j at every t;
    * the parity-read FlipAll overlap is
      cos 2t sum_j M_j + sin 2t <Z_Y>(W). -<Z_Y>(W) and
      sum_j M_j = sum_j sigma_j (sigma M)_j are the upper-half totals of W
      and sigma M minus their lower-half totals.

    The Z kernels run once, on the sums of W and sigma M stacked, so x1
    reads W's reductions and x2 sigma M's.
    """
    width = 1 << part.m_outputs
    chunk = min(width, TILE) // 2
    sums, chunks = _mirror_sums(measure_branches(params, part, oracle_cap), chunk)
    probability = float(sums[0] @ _ONES[:2 * chunk])
    # The output bits the column sums resolve: every bit for whole rows,
    # else those within a chunk, and the chunk totals the ones above. The
    # top bit's halves are those of whichever holds it.
    lo = (chunk if chunks is not None else width).bit_length() - 1
    top = sums if chunks is None else chunks
    minus_zy, sum_m = (top.reshape(2, 2, -1).sum(axis=2) @ (-1.0, 1.0)).tolist()
    flip = np.array((sum_m, -minus_zy))
    # Two table reductions, which only read the sums: the popcount diagonal
    # for the trace accounting, the per-bit signs for E_out.
    diagonal = kernels.z_diagonal(sums, lo)
    z = kernels.z_per_bit(sums, lo).sum(axis=-1)
    if chunks is not None:
        hi = chunks.shape[1].bit_length() - 1
        diagonal += kernels.z_diagonal(chunks, hi)
        z += kernels.z_per_bit(chunks, hi).sum(axis=-1)
    drained0 = -(part.m_outputs * local_constant(params) + interaction_constant(params))
    drained = -(params.h * z + 2.0 * params.k * flip)
    total = params.h * diagonal + 2.0 * params.k * flip
    return _Terms(probability, (drained0 * probability, *drained.tolist()),
                  (params.c * probability, *total.tolist()))


def _angle_form(x, thetas) -> np.ndarray:
    """x0 + x1 cos 2t + x2 sin 2t at every angle t of ``thetas``: each
    energy the protocol reports, read off the coefficients ``x``."""
    t = 2.0 * np.asarray(thetas, dtype=float)
    return x[0] + x[1] * np.cos(t) + x[2] * np.sin(t)


def _mirror_sums(branches: Branches, chunk: int) -> tuple[np.ndarray, np.ndarray | None]:
    """W over a pair of ``chunk``-column chunks and sigma M there, stacked;
    and, where a row spans more than one pair, each chunk's totals of the two.

    Every chunk holds the same output bits at the same columns. Chunk c of
    a row's lower half pairs with its mirror n_chunks - 1 - c: S reverses
    the pair's own columns, sigma is -1 on the lower chunk and +1 on the
    mirror, and M_rev(j) = M_j, so the pass adds up W over both chunks and
    M over the lower one.

    Where a row fits in a tile, its two halves are the one pair: blocks of
    whole rows are squared a tile at a time into a buffer and added up in
    ``_LANES`` interleaved sums, and a row of one tile is its own sum.
    Longer rows are reduced whole on the (rows, n_chunks, chunk) view, with
    no Python loop and no tile squared: einsum adds up the column sums over
    the rows and chunks, and vecdot the chunks' totals. Neither copies the
    reversed mirror view.
    """
    states, parity = branches.states, branches.parity
    rows, width = states.shape
    n_chunks = width // chunk
    split = states.reshape(rows, n_chunks, chunk)
    sums = np.zeros((2, 2 * chunk))
    upper = sums[1, chunk:][::-1]  # sigma M there: the lower chunks' M, reversed
    chunks = None
    if n_chunks > 2:
        half = n_chunks // 2
        low, up = split[:, :half], split[:, half:]
        mirror = up[:, ::-1, ::-1]  # [r, c]: chunk n_chunks - 1 - c, reversed
        np.einsum("rcj,rcj->j", low, low, out=sums[0, :chunk])
        np.einsum("rcj,rcj->j", up, up, out=sums[0, chunk:])
        upper[...] = np.einsum("rcj,rcj,r->j", low, mirror, parity)
        totals = parity @ np.vecdot(low, mirror)
        chunks = np.stack((np.vecdot(split, split).sum(axis=0),
                           np.concatenate((-totals, totals[::-1]))))
    else:
        block = max(1, TILE // width)
        squares = np.empty((min(rows, block), 2, chunk))
        products = np.empty((min(rows, block), chunk))
        for r in range(0, rows, block):
            p = parity[r:r + block]
            tile = split[r:r + block]
            w = kernels.weights(tile, out=squares[:len(p)])
            mirrored = np.multiply(tile[:, 0], tile[:, 1, ::-1], out=products[:len(p)])
            if len(p) > 1:  # whole rows
                lanes = min(_LANES, len(p))
                w = _ONES[:len(p) // lanes] @ w.reshape(len(p) // lanes, -1)
                sums[0] += _ONES[:lanes] @ w.reshape(lanes, -1)
                upper += p @ mirrored
                continue
            mirrored *= p[0]  # one row, a tile long, whose sums are its own values
            sums[0] += w.reshape(-1)
            upper += mirrored[0]
    np.negative(upper, out=sums[1, :chunk])
    return sums, chunks


def extracted_energies(params: ModelParams, part: Partition, thetas,
                       oracle_cap: int = DEFAULT_ORACLE_CAP) -> list[ProtocolReport]:
    """Run the whole protocol at every angle in ``thetas`` and account every
    energy flow: one report per angle, in order, from one measurement and
    one pass over the measured rows.

    The headline number ``e_out`` is minus the ensemble expectation of the
    output-site terms plus the interaction term after the rotation. A second,
    independent accounting ``e_out_via_trace`` is the injected energy minus
    the total ensemble energy; the two must agree to near machine precision.
    Both read the same total weight and FlipAll overlap; their Z sums come
    from two kernels over the pass's sums (the popcount diagonal and the
    per-bit sign tables), and ``_angle_form`` reads every angle off the
    coefficients. Every angle is refused, if its double is not finite,
    before any branch is measured; no angle measures nothing. Apart from
    the measured rows a call holds a few tile-sized buffers and a few
    values per angle, and no rotated row is built.
    """
    thetas = [float(t) for t in thetas]
    check_angles(*thetas)
    if not thetas:
        return []
    terms = _terms(params, part, oracle_cap)
    e_in = injected_energy(terms.probability, params, part)
    return [ProtocolReport(e_in=e_in, e_out=e_out, e_out_via_trace=e_in - total,
                           eta=e_out / e_in, total_probability=terms.probability)
            for e_out, total in zip(_angle_form(terms.drained, thetas).tolist(),
                                    _angle_form(terms.total, thetas).tolist())]


def extracted_energy(params: ModelParams, part: Partition, theta: float,
                     oracle_cap: int = DEFAULT_ORACLE_CAP) -> ProtocolReport:
    """``extracted_energies`` at the one angle ``theta``."""
    return extracted_energies(params, part, (theta,), oracle_cap)[0]


# ---------------------------------------------------------------------------
# Angle sweeps and numeric optimization
# ---------------------------------------------------------------------------

def output_energy_curve(params: ModelParams, part: Partition, thetas,
                        oracle_cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Drained energy at every angle in ``thetas``, branches enumerated once.

    Equals ``extracted_energies``' ``e_out`` at every angle, bit for bit:
    the same coefficients d0, d1, d2 from the same pass, read by the same
    ``_angle_form``, at O(1) per angle. No angle measures nothing.
    """
    thetas = np.asarray(thetas, dtype=float)
    check_angles(*thetas.ravel().tolist())
    if not thetas.size:
        return np.empty(thetas.shape)
    return _angle_form(_terms(params, part, oracle_cap).drained, thetas)


def optimize_theta_numeric(params: ModelParams, part: Partition,
                           oracle_cap: int = DEFAULT_ORACLE_CAP) -> ThetaChoice:
    """The exact maximiser of the oracle's own drained-energy curve.

    The curve d0 + d1 cos 2t + d2 sin 2t is d0 + R cos(2t - phi) with
    phi = atan2(d2, d1), so its maximum on [0, pi/2] is at t = phi / 2,
    read off the two measured coefficients. d1 > 0 and d2 >= 0 up to
    rounding; d2 is clamped at 0 so that phi lies in [0, pi/2] and theta
    in [0, pi/4].
    """
    _, d1, d2 = _terms(params, part, oracle_cap).drained
    return ThetaChoice.from_components(d1, max(0.0, d2))


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
    check_angles(theta)  # before the rows are measured
    branches = measure_branches(params, part, oracle_cap)
    row_probs = np.einsum("ij,ij->i", branches.states, branches.states)
    probs = row_probs / np.sum(row_probs)
    # Per-outcome energies of the normalized branch states; a drawn outcome
    # has nonzero probability, so dividing by it is safe. Every outcome leaves
    # the measured qubits in X eigenstates, so each shot injects what rows of
    # total probability 1 do.
    sites, interaction = output_term_energies(
        apply_conditional_unitary(branches, theta), branches.parity, params)
    drained = -(sites.sum(axis=1) + interaction)

    rng = np.random.default_rng(np.uint64(seed))
    draws = rng.choice(len(probs), size=n_shots, p=probs)
    return SampleEstimate(
        e_in=injected_energy(1.0, params, part),
        e_out=float(np.mean(drained[draws] / row_probs[draws])),
        n_shots=n_shots,
        seed=seed,
    )
