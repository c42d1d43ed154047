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

* the ground state is laid out as (inputs, outputs); one in-place
  ``kernels.project_x`` butterfly per input qubit (a fast Walsh-Hadamard
  transform) and one scale by 2^(-(N-m)/2) leave row alpha holding
  <alpha|psi>, sign included;
* a row's squared norm is its outcome probability, so ensemble traces are
  plain sums of per-row expectations, and a zero-probability row weighs
  nothing without special-casing; the total probability is one dot product
  over the whole matrix, and only the sampler, which draws rows, takes each
  row's own;
* the conditioned rotation is one real signed permutation of the columns,
  scaled per row by the parity of the row index: the product of its signs;
* each ensemble is squared once, into one weight array that every Z and
  norm reduction reads, so a call holds a fixed set of arrays of the branch
  matrix's size: the measured rows, the rotated rows and one buffer;
* a ``ProtocolReport`` holds floats only, so no array outlives the call.

The ensemble average state is never materialized as a density matrix, and
no Python loop runs over branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    # The butterflies run in place on this call's own copy of the state.
    axes = [q - 1 for q in part.input_qubits + part.output_qubits_sorted]
    states = (StateVector.ground_state(params).amplitudes.reshape((2,) * params.n_qubits)
              .transpose(axes).reshape(1 << n_in, 1 << m))
    for i in range(n_in):
        kernels.project_x(states.T, 1 << i)
    states *= 2.0 ** (-0.5 * n_in)
    parity = 1.0 - 2.0 * (kernels.popcount(np.arange(1 << n_in)) & 1)
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


def _rotation_masks(part: Partition, y_qubit: int | None) -> tuple[int, int]:
    """(flip, phase) masks of Y on ``y_qubit`` and X on the other outputs,
    over the output register: every bit flips, and the Y qubit's bit (the
    first sorted output on the most significant bit) also takes the sign."""
    outputs = part.output_qubits_sorted
    if y_qubit is None:
        y_qubit = outputs[0]
    elif y_qubit not in part.output_qubits:
        raise InvalidPartition(f"qubit {y_qubit} is not an output qubit")
    m = len(outputs)
    return (1 << m) - 1, 1 << (m - 1 - outputs.index(y_qubit))


def apply_conditional_unitary(branches: Branches, part: Partition, theta: float,
                              y_qubit: int | None = None) -> np.ndarray:
    """Rotate every row by cos(theta) - i*parity*sin(theta) * Y_y X X ... X.

    The Y factor sits on the lowest-indexed output qubit unless ``y_qubit``
    overrides it; the extracted energy does not depend on the choice.
    -i * (Y X ... X) is the real signed permutation S of the columns, so row
    r becomes cos(theta) * psi_r + parity_r * sin(theta) * S psi_r.
    """
    return _rotate(branches, part, theta, y_qubit)[0]


def _rotate(branches: Branches, part: Partition, theta: float,
            y_qubit: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The rotated rows, and the flat buffer that held their cos(theta) * psi
    term, now free for the caller to reuse. It is allocated after the signed
    permutation, whose own working set it would otherwise add to."""
    out = _signed_flip(branches, part, y_qubit, math.sin(theta))
    scratch = np.empty(out.size)
    out += np.multiply(branches.states, math.cos(theta), out=scratch.reshape(out.shape))
    return out, scratch


def _signed_flip(branches: Branches, part: Partition, y_qubit: int | None,
                 scale: float) -> np.ndarray:
    """scale * parity_r * S psi_r for every row; at scale 1, the rotated
    branches at theta = pi/2. One pass applies parity and scale together:
    parity is +-1, so this equals scaling after the parity, bit for bit."""
    out = kernels.apply_pauli_signs(branches.states, *_rotation_masks(part, y_qubit))
    out *= scale * branches.parity[:, None]
    return out


def _term_energies(weight, z, flip, params: ModelParams):
    """Output-site and interaction energies from a weight, the outputs' <Z>
    and the parity-read <FlipAll>: per row, or summed over the ensemble."""
    sites = params.h * z
    sites += local_constant(params) * np.asarray(weight)[..., None]
    interaction = 2.0 * params.k * flip + interaction_constant(params) * weight
    return sites, interaction


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
    return _term_energies(norm, z[:, ::-1],
                          parity * kernels.complement_overlap(states), params)


def _weight_sums(w: np.ndarray, m: int) -> tuple[float, np.ndarray]:
    """Total weight and the outputs' <Z> (ascending qubit order) of an
    ensemble, from its rows' weights, which the fold overwrites.

    ``w`` is the C-ordered weight matrix as one flat vector: its rows are
    consecutive blocks whose lowest m index bits are the output qubits, so
    one fold over the vector gives the ensemble's <Z> and, as its last
    entry, its total weight.
    """
    z, weight = kernels.z_fold(w, m)
    return float(weight), z[::-1]


def _flip_sum(rows: np.ndarray, parity: np.ndarray, w: np.ndarray) -> float:
    """The parity-read <FlipAll> summed over the rows: the one per-row
    reduction, taken to a scalar at once. Its per-row values go into the
    flat buffer ``w``, whose contents are spent, so it runs before the
    weights are squared into that buffer."""
    per_row = kernels.complement_overlap(rows, out=w[:rows.shape[0]])
    return float(parity @ per_row)


def _drained(weight: float, z: np.ndarray, flip: float, params: ModelParams) -> float:
    """Ensemble energy drained from the output terms plus the interaction."""
    sites, interaction = _term_energies(weight, z, flip, params)
    return -float(sites.sum() + interaction)


def _ensemble_drained(rows: np.ndarray, parity: np.ndarray, params: ModelParams,
                      w: np.ndarray) -> float:
    """``_drained`` of one ensemble, its weights squared into the flat
    buffer ``w``."""
    m = rows.shape[-1].bit_length() - 1
    flip = _flip_sum(rows, parity, w)
    kernels.weights(rows, out=w.reshape(rows.shape))
    weight, z = _weight_sums(w, m)
    return _drained(weight, z, flip, params)


def extracted_energy(params: ModelParams, part: Partition, theta: float,
                     y_qubit: int | None = None,
                     oracle_cap: int = DEFAULT_ORACLE_CAP) -> ProtocolReport:
    """Run the whole protocol at a fixed angle and account every energy flow.

    The headline number ``e_out`` is minus the ensemble expectation of the
    output-site terms plus the interaction term after the rotation. A second,
    independent accounting ``e_out_via_trace`` is the injected energy minus
    the total ensemble energy; the two must agree to near machine precision.
    Both read the same rotated weight array, total weight and FlipAll
    overlap; their Z sums come from two kernels over that array (the
    popcount diagonal, which runs first, and the per-bit fold).

    Three arrays of the branch matrix's size are held: the measured rows, the
    rotated rows and one buffer, which takes the rotation's cos(theta) * psi
    term and then the rotated weights.
    """
    branches = measure_branches(params, part, oracle_cap)
    e_in, probability = injected_energy(branches, params, part)

    m = part.m_outputs
    rotated, w = _rotate(branches, part, theta, y_qubit)
    flip = _flip_sum(rotated, branches.parity, w)
    kernels.weights(rotated, out=w.reshape(rotated.shape))
    # Total <H>: the measured qubits sit in X eigenstates and add nothing to
    # the Z sum, and FlipAll reads each row's parity on them. The diagonal
    # reads the weights before the fold overwrites them.
    z_total = float(kernels.z_diagonal(w, m))
    weight, z = _weight_sums(w, m)
    e_out = _drained(weight, z, flip, params)
    total = params.h * z_total + 2.0 * params.k * flip + params.c * weight
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
    pi/2 and pi/4 fixes the three numbers. S psi is computed once, and the
    pi/4 rows are (psi + parity S psi) / sqrt(2), built in its place. The
    three ensembles square into one weight buffer in turn, allocated after
    the signed permutation, whose own working set it would otherwise add to.
    """
    rows = _signed_flip(branches, part, y_qubit, 1.0)
    w = np.empty(rows.size)
    a = _ensemble_drained(branches.states, branches.parity, params, w)
    b = _ensemble_drained(rows, branches.parity, params, w)
    rows += branches.states
    rows *= math.sqrt(0.5)
    mid = _ensemble_drained(rows, branches.parity, params, w)
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
