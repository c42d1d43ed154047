"""Brute-force protocol engine: branch bookkeeping, energies, and the
adjudication of the two hand-derived four-qubit two-output expressions."""

from __future__ import annotations

import ast
import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st, target

from qetsim import closedform as cf
from qetsim import kernels
from qetsim import protocol_oracle as po
from qetsim import simkernel
from qetsim.errors import InvalidPartition, InvalidRange, OracleCapExceeded
from qetsim.model import (ModelParams, Partition, ground_state_amplitudes, interaction_constant,
                          local_constant)
from qetsim.simkernel import StateVector
from test_dense_reference import Reference


def _case(n, m, h=1.0, k=1.0):
    return ModelParams(n, h, k), Partition.last(n, m)


def _signs(row: int, n_inputs: int) -> list[int]:
    """Outcome signs of a branch row, read off its index: bit set means -1,
    the first input qubit on the most significant bit."""
    return [-1 if row >> (n_inputs - 1 - i) & 1 else 1 for i in range(n_inputs)]


def _row_probabilities(branches: po.Branches) -> np.ndarray:
    """Each outcome's probability: its row's dot product with itself."""
    return np.array([row @ row for row in branches.states])


def test_branch_enumeration_order_and_weights():
    p, part = _case(3, 1)
    branches = po.measure_branches(p, part)
    assert branches.states.shape == (4, 2)
    assert [_signs(r, 2) for r in range(4)] == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    assert branches.parity.tolist() == [1, -1, -1, 1]
    assert branches.parity.tolist() == [math.prod(_signs(r, 2)) for r in range(4)]
    # X-measurement outcomes on this ground state are uniform; a row's
    # probability is its squared norm.
    assert np.allclose(_row_probabilities(branches), 0.25, atol=1e-15)

    p2, part2 = _case(2, 1)
    assert np.allclose(_row_probabilities(po.measure_branches(p2, part2)), 0.5,
                       atol=1e-15)
    p4, part4 = _case(4, 2)
    assert np.sum(_row_probabilities(po.measure_branches(p4, part4))) == pytest.approx(
        1.0, abs=1e-13)


def test_branch_rows_are_output_states_of_the_projected_ground_state():
    # Row alpha is <alpha|psi>: the full projected state (kernels-free, built
    # from explicit |+>, |-> vectors) factors as |alpha> (x) row, for every
    # output set at N = 4 and 5. Reordered to (inputs, outputs), the ground
    # state is a strided view for most of them, one whose flat reshape is a
    # copy (at N = 4, outputs {1, 2}): the transform must reach the rows.
    kets = {1: np.array([1.0, 1.0]) / math.sqrt(2.0), -1: np.array([1.0, -1.0]) / math.sqrt(2.0)}
    for n in (4, 5):
        p = ModelParams(n, 1.0, 0.7)
        psi = StateVector.ground_state(p).amplitudes.reshape((2,) * n)
        for m in range(1, n):
            for outputs in itertools.combinations(range(1, n + 1), m):
                part = Partition(n, frozenset(outputs))
                branches = po.measure_branches(p, part)
                for r, row in enumerate(branches.states):
                    # Contract the inputs from the last, so that the axes of
                    # the ones left keep their numbers; the outputs remain.
                    expected = psi
                    for q, sign in reversed(list(zip(part.input_qubits,
                                                     _signs(r, n - m)))):
                        expected = np.tensordot(expected, kets[sign], axes=(q - 1, 0))
                    assert np.allclose(row, expected.reshape(-1), rtol=0, atol=1e-15), outputs


@pytest.mark.parametrize("m", [1, 8, 15])
def test_engine_is_real_and_holds_no_sign_matrix(m):
    # Every amplitude of the protocol is real, and a row's sign product is
    # one number. At N = 16 a run stays within eight 2^N float64 arrays.
    n = 16
    p, part = _case(n, m, k=0.7)
    branches = po.measure_branches(p, part, oracle_cap=n)
    assert branches.states.dtype == np.float64
    assert branches.parity.shape == (1 << (n - m),)
    runs = {
        "extracted_energy": lambda: po.extracted_energy(p, part, 0.3, oracle_cap=n),
        "output_energy_curve": lambda: po.output_energy_curve(
            p, part, np.linspace(0.0, 1.5, 32), oracle_cap=n),
    }
    for name, run in runs.items():
        run()  # first-call allocations (caches, imports) stay out of the peak
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (1 << n) * 8, (name, peak / ((1 << n) * 8))


#: Warm tracemalloc peak at N = 16, in units of one 2^N float64 array, plus
#: 0.02. A call holds the measured rows, the parity vector of 2^(N-m)
#: entries (half a unit at m = 1) and a few tile-sized buffers, a quarter of
#: a unit each at N = 16: the transform's product buffer, or the pass's
#: squared tile and its half-tile mirror products beside the stacked sums
#: of a tile's columns (two tiles where a row fills a tile or more), and
#: then one more tile per angle the Z kernels read. Reports hold no arrays,
#: so two of them held while a curve runs (the pattern of the oracle
#: benchmark) peak as one call does.
PROTOCOL_PEAK_UNITS = {
    "extracted_energy": {1: 1.91, 8: 1.67, 15: 1.91},
    "output_energy_curve": {1: 1.91, 8: 1.67, 15: 2.03},
    "two reports and a curve": {1: 1.91, 8: 1.67, 15: 2.03},
}


@pytest.mark.parametrize("m", [1, 8, 15])
def test_protocol_calls_keep_a_fixed_set_of_arrays(m):
    # Nothing of the branch matrix outlives a call: once it returns, the
    # memory still traced is a few small objects, with the result alive.
    n = 16
    p, part = _case(n, m, k=0.7)
    angles = np.linspace(0.0, 1.5, 32)
    runs = {
        "extracted_energy": lambda: po.extracted_energy(p, part, 0.3, oracle_cap=n),
        "output_energy_curve": lambda: po.output_energy_curve(
            p, part, angles, oracle_cap=n),
        "two reports and a curve": lambda: (
            po.extracted_energy(p, part, 0.3, oracle_cap=n),
            po.extracted_energy(p, part, 0.9, oracle_cap=n),
            po.output_energy_curve(p, part, angles, oracle_cap=n)),
    }
    for name, run in runs.items():
        run()
        tracemalloc.start()
        try:
            result = run()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        units = peak / ((1 << n) * 8)
        assert units <= PROTOCOL_PEAK_UNITS[name][m], (name, units)
        assert held < 64 * 1024, (name, held)


#: Warm tracemalloc peak at N = 18, in units of one 2^N float64 array,
#: plus 0.02 or more. A tile is 1/16 of a unit, and a call holds the rows
#: and a few tile-sized buffers: measured 1.164 at m = 9 and 1.220 / 1.251
#: (extracted_energy / curve) at m = 17, where the sums span two tiles and
#: the curve's Z kernels read two more. At m = 1 the parity vector adds
#: half a unit: 1.595.
N18_PEAK_UNITS = {1: 1.62, 9: 1.19, 17: 1.28}


@pytest.mark.parametrize("m", sorted(N18_PEAK_UNITS))
def test_calls_at_n18_hold_the_measured_rows_and_a_few_tiles(m):
    bound = N18_PEAK_UNITS[m]
    n = 18
    p, part = _case(n, m, k=0.7)
    runs = {
        "extracted_energy": lambda: po.extracted_energy(p, part, 0.3, oracle_cap=n),
        "output_energy_curve": lambda: po.output_energy_curve(
            p, part, np.linspace(0.0, 1.5, 32), oracle_cap=n),
    }
    for name, run in runs.items():
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / ((1 << n) * 8) <= bound, (name, peak / ((1 << n) * 8))


def _whole_matrix_energies(params, part, thetas, y_qubit):
    """e_out and e_out_via_trace at each angle by the whole-matrix algorithm:
    the rotated rows from ``apply_conditional_unitary``, one weight array of
    the whole ensemble, and the kernels over it."""
    branches = po.measure_branches(params, part, params.n_qubits, y_qubit)
    e_in = po.injected_energy(float(np.vdot(branches.states, branches.states)), params, part)
    m = part.m_outputs
    lc, ic = local_constant(params), interaction_constant(params)
    out = []
    for theta in thetas:
        rotated = po.apply_conditional_unitary(branches, theta)
        flip = float(branches.parity @ kernels.complement_overlap(rotated))
        w = kernels.weights(rotated).reshape(-1)
        z_total = float(kernels.z_diagonal(w, m))
        z, weight = kernels.z_fold(w, m)
        e_out = -(params.h * float(z.sum()) + m * lc * weight + 2.0 * params.k * flip
                  + ic * weight)
        total = params.h * z_total + 2.0 * params.k * flip + params.c * weight
        out.append((e_out, e_in - total))
    return out


def _error(value, ref):
    """The error measure of ``qetsim verify``: absolute below 1, relative above."""
    return abs(value - ref) / max(1.0, abs(ref))


@st.composite
def cells(draw):
    n = draw(st.integers(2, 18))
    m = draw(st.integers(1, n - 1))
    theta = draw(st.floats(0.0, math.pi / 2.0))
    return n, m, theta, 10.0 ** draw(st.floats(-2.0, 2.0))


@st.composite
def streamed_cases(draw):
    n, m, theta, ratio = draw(cells())
    y_qubit = draw(st.sampled_from(Partition.last(n, m).output_qubits_sorted))
    return n, m, theta, y_qubit, ratio


#: (N, m) cells whose branch matrix splits into several tiles: by blocks of
#: whole rows (m <= 13), by pairs of chunks (m >= 15), and into one tile per
#: row, its two halves (m = 14).
MULTI_TILE_CELLS = [(15, 1), (16, 3), (18, 9), (15, 14), (16, 15), (18, 17)]


def test_multi_tile_cells_split_along_rows_and_columns(monkeypatch):
    # The pass squares each tile once, a (rows, 2, chunk) block of rows by a
    # chunk and its mirror: the squared shapes show how a cell is split.
    squared = []
    weights = kernels.weights

    def counted(amps, out=None):
        squared.append(amps.shape)
        return weights(amps, out)

    monkeypatch.setattr(kernels, "weights", counted)
    split = {}
    for n, m in MULTI_TILE_CELLS:
        squared.clear()
        po.extracted_energy(*_case(n, m, k=0.7), 0.3, oracle_cap=n)
        (block, two, chunk), = set(squared)
        assert two == 2 and block * 2 * chunk <= kernels.TILE, (n, m, squared[0])
        assert len(squared) == (1 << (n - m)) // block * (1 << m) // (2 * chunk), (n, m)
        split[n, m] = ((1 << (n - m)) // block, (1 << m) // chunk)
    assert all(blocks * chunks // 2 > 1 for blocks, chunks in split.values()), split
    assert any(blocks > 1 and chunks == 2 for blocks, chunks in split.values()), split
    assert any(chunks >= 4 for _, chunks in split.values()), split


@settings(max_examples=40, deadline=None)
@example((18, 17, 0.7, 2, 0.7))   # 8 pairs of chunks a row
@example((18, 17, 0.7, 18, 30.0))
@example((16, 15, 1.2, 5, 0.01))
@example((16, 15, 0.2, 3, 5.0))
@example((15, 14, 0.4, 3, 1.0))   # one tile per row, its two halves
@example((16, 3, 0.9, 15, 0.05))  # several blocks of whole rows
@example((18, 9, 0.3, 12, 70.0))
@example((15, 1, 1.5, 15, 2.0))
@given(streamed_cases())
def test_streamed_sums_equal_the_whole_matrix_reduction(case):
    # extracted_energy and the angle curve stream the rows through tiles;
    # the reference rotates, squares and reduces the whole ensemble at once.
    n, m, theta, y_qubit, ratio = case
    params, part = ModelParams(n, 1.0, ratio), Partition.last(n, m)
    thetas = [theta, 0.0, math.pi / 4.0, math.pi / 2.0]
    want = _whole_matrix_energies(params, part, thetas, y_qubit)
    rep = po.extracted_energy(params, part, theta, y_qubit=y_qubit, oracle_cap=n)
    curve = po.output_energy_curve(params, part, thetas, y_qubit=y_qubit, oracle_cap=n)
    errors = [_error(rep.e_out, want[0][0]), _error(rep.e_out_via_trace, want[0][1])]
    errors += [_error(got, ref) for got, (ref, _) in zip(curve, want)]
    worst = max(errors)
    target(worst, label="worst error against the whole matrix")
    assert worst <= 1e-10, (case, errors)


@st.composite
def dense_cases(draw):
    return (*draw(cells()), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=30, deadline=None)
@example((18, 17, 0.7, 0.7, 1))   # 8 pairs of chunks a row
@example((16, 15, 1.2, 0.01, 4))
@example((15, 14, 0.4, 1.0, 5))   # one tile per row, its two halves
@example((16, 3, 0.9, 0.05, 6))  # several blocks of whole rows
@example((18, 9, 0.3, 70.0, 7))
@example((15, 1, 1.5, 2.0, 8))
@given(dense_cases())
def test_dense_rows_equal_the_whole_matrix_reduction(case):
    # Measured ground-state rows are nonzero in columns 0 and 2^m - 1 only,
    # so they cannot show a wrong interior column: here the measured rows
    # are random and dense, with random parities, and the pass still meets
    # the whole-matrix reduction of the rotated rows.
    n, m, theta, ratio, seed = case
    params, part = ModelParams(n, 1.0, ratio), Partition.last(n, m)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((1 << (n - m), 1 << m))
    states /= np.linalg.norm(states)
    dense = po.Branches(states, rng.choice([-1.0, 1.0], size=len(states)))
    thetas = [theta, 0.0, math.pi / 4.0, math.pi / 2.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(po, "measure_branches", lambda *args, **kwargs: dense)
        want = _whole_matrix_energies(params, part, thetas, None)
        rep = po.extracted_energy(params, part, theta, oracle_cap=n)
        curve = po.output_energy_curve(params, part, thetas, oracle_cap=n)
    errors = [_error(rep.e_out, want[0][0]), _error(rep.e_out_via_trace, want[0][1])]
    errors += [_error(got, ref) for got, (ref, _) in zip(curve, want)]
    worst = max(errors)
    target(worst, label="worst error against the whole matrix, dense rows")
    assert worst <= 1e-12, (case, errors)


def test_reports_hold_floats_and_branches_hold_rows_and_parity():
    p, part = _case(5, 2, k=0.7)
    rep = po.extracted_energy(p, part, 0.3)
    values = [getattr(rep, f.name) for f in dataclasses.fields(po.ProtocolReport)]
    assert len(values) == 5 and all(type(v) is float for v in values), values
    assert [f.name for f in dataclasses.fields(po.Branches)] == ["states", "parity"]


@pytest.mark.parametrize("n", range(2, 11))
def test_shared_weight_reductions_equal_the_amplitude_kernels(n):
    # One weight array of the whole ensemble, read by the popcount diagonal
    # and then folded in place, against the kernels that square the ensemble
    # themselves, one weight array each.
    for m in range(1, n):
        p, part = _case(n, m, k=0.7)
        rows = po.apply_conditional_unitary(po.measure_branches(p, part), 0.4)
        ensemble = rows.reshape(-1)
        w = kernels.weights(ensemble)
        diag = kernels.z_diagonal(w, m)
        z, weight = kernels.z_fold(w, m)
        assert abs(weight - kernels.norm_sq(ensemble)) <= 1e-15, (n, m)
        assert np.max(np.abs(z - kernels.z_expectations(ensemble, m))) <= 1e-15, (n, m)
        assert abs(diag - kernels.diag_z_total(ensemble, m)) <= 1e-15, (n, m)


def test_each_ensemble_is_squared_once(monkeypatch):
    # The measured rows are the one ensemble the pass squares, as a (rows,
    # 2, chunk) tile, for one angle, a curve and the optimizer alike; the
    # per-row path squares the rotated rows. No reduction squares its
    # amplitudes again.
    squared = []
    weights = kernels.weights

    def counted(amps, out=None):
        squared.append(amps.shape)
        return weights(amps, out)

    def squares_again(*args):
        raise AssertionError("a reduction squared its amplitudes again")

    monkeypatch.setattr(kernels, "weights", counted)
    for name in ("norm_sq", "z_expectations", "diag_z_total"):
        monkeypatch.setattr(kernels, name, squares_again)
    p, part = _case(5, 2, k=0.7)
    po.extracted_energy(p, part, 0.3)
    assert squared == [(8, 2, 2)]
    squared.clear()
    po.output_energy_curve(p, part, [0.1, 0.2])
    assert squared == [(8, 2, 2)]
    squared.clear()
    po.optimize_theta_numeric(p, part)
    assert squared == [(8, 2, 2)]
    squared.clear()
    po.sample_protocol(p, part, 0.3, n_shots=16)
    assert squared == [(8, 4)]


@pytest.mark.parametrize("kernel", ["z_fold", "z_diagonal"])
def test_the_two_accountings_read_independent_z_reductions(monkeypatch, kernel):
    # e_out reads the per-bit fold and e_out_via_trace the popcount diagonal.
    # An error of 1e-6 in one of them moves that accounting alone, so the
    # two disagree: the shared weight array did not merge the reductions.
    p, part = _case(6, 3, k=0.7)
    theta = cf.optimal_theta(p, part).theta
    exact = po.extracted_energy(p, part, theta)
    assert abs(exact.e_out - exact.e_out_via_trace) <= 1e-13
    reduction = getattr(kernels, kernel)
    if kernel == "z_fold":
        def off(w, n_bits):
            z, weight = reduction(w, n_bits)
            return z + 1e-6, weight
    else:
        def off(w, n_bits):
            return reduction(w, n_bits) + 1e-6
    monkeypatch.setattr(kernels, kernel, off)
    rep = po.extracted_energy(p, part, theta)
    assert abs(rep.e_out - rep.e_out_via_trace) > 1e-7
    moved, kept = (("e_out", "e_out_via_trace") if kernel == "z_fold"
                   else ("e_out_via_trace", "e_out"))
    assert getattr(rep, kept) == getattr(exact, kept)
    assert getattr(rep, moved) != getattr(exact, moved)


def test_measured_qubits_end_in_x_eigenstates():
    # After the X measurement each input qubit carries no Z polarization, so
    # its post-measurement energy is exactly the additive constant. Read off
    # the explicit states |alpha> (x) row, one input qubit at a time, each
    # outcome weighted by its row's dot product.
    p, part = _case(4, 1, k=0.3)
    branches = po.measure_branches(p, part)
    kets = {1: np.array([1.0, 1.0]) / math.sqrt(2.0),
            -1: np.array([1.0, -1.0]) / math.sqrt(2.0)}
    z = np.diag([1.0, -1.0])
    per_qubit = np.zeros(part.n_inputs)
    for r, prob in enumerate(_row_probabilities(branches)):
        for i, sign in enumerate(_signs(r, part.n_inputs)):
            ket = kets[sign]
            per_qubit[i] += prob * (p.h * (ket @ z @ ket) + local_constant(p))
    assert np.allclose(per_qubit, local_constant(p), atol=1e-14)
    probability = np.sum(_row_probabilities(branches))
    assert po.injected_energy(probability, p, part) == pytest.approx(per_qubit.sum(),
                                                                     rel=1e-14)
    rep = po.extracted_energy(p, part, 0.3)
    assert rep.total_probability == pytest.approx(probability, rel=1e-15)
    assert rep.e_in == po.injected_energy(rep.total_probability, p, part)


def test_injected_energy_totals():
    # e_in reads the pass's total weight, the measured rows' probability.
    p, part = _case(3, 1)
    rep = po.extracted_energy(p, part, 0.3)
    assert rep.total_probability == pytest.approx(1.0, abs=1e-15)
    assert rep.e_in == po.injected_energy(rep.total_probability, p, part)
    assert rep.e_in == pytest.approx(6.0 / math.sqrt(13.0), rel=1e-13)
    assert rep.e_in == pytest.approx(cf.input_energy(p, part), rel=1e-13)
    assert po.injected_energy(1.0, p, part) == pytest.approx(6.0 / math.sqrt(13.0),
                                                             rel=1e-13)

    p, part = _case(4, 1)
    rep = po.extracted_energy(p, part, 0.3)
    assert rep.e_in == pytest.approx(12.0 / math.sqrt(20.0), rel=1e-13)


def test_injected_energy_skips_degenerate_branches(monkeypatch):
    # A zero-probability row weighs nothing: appended to the measured rows,
    # it moves no energy and no probability.
    p, part = _case(3, 1)
    branches = po.measure_branches(p, part)
    dead = po.Branches(
        states=np.vstack([branches.states, np.zeros((4, 2))]),
        parity=np.append(branches.parity, [1.0, -1.0, -1.0, 1.0]),
    )
    live = po.extracted_energy(p, part, 0.3)
    monkeypatch.setattr(po, "measure_branches", lambda *args, **kwargs: dead)
    rep = po.extracted_energy(p, part, 0.3)
    for field in dataclasses.fields(po.ProtocolReport):
        assert getattr(rep, field.name) == pytest.approx(getattr(live, field.name),
                                                         rel=1e-15, abs=1e-16), field.name


def test_conditional_unitary_preserves_norm():
    p, part = _case(4, 2, k=0.7)
    branches = po.measure_branches(p, part)
    for theta in (0.0, 0.3, math.pi / 4.0, 1.4):
        rotated = po.apply_conditional_unitary(branches, theta)
        assert np.allclose(np.sum(np.abs(rotated) ** 2, axis=1),
                           _row_probabilities(branches), rtol=0, atol=1e-15)


def test_conditional_unitary_at_zero_angle_is_identity():
    p, part = _case(3, 2)
    branches = po.measure_branches(p, part)
    rotated = po.apply_conditional_unitary(branches, 0.0)
    assert np.array_equal(rotated, branches.states)


def test_extracted_energy_at_zero_angle_vanishes():
    # Doing nothing extracts nothing; the residual is the measurement
    # neutrality of the interaction plus output terms, at float precision.
    for n, m in [(2, 1), (3, 1), (3, 2), (5, 2)]:
        p, part = _case(n, m)
        rep = po.extracted_energy(p, part, 0.0)
        assert abs(rep.e_out) <= 1e-12
        assert abs(rep.e_out_via_trace) <= 1e-12


def test_extracted_energy_matches_closed_form_at_optimum():
    p, part = _case(3, 1)
    theta = cf.optimal_theta(p, part).theta
    rep = po.extracted_energy(p, part, theta)
    assert rep.e_in == pytest.approx(1.6641005886756874, rel=1e-13)
    assert rep.e_out == pytest.approx(0.29461729071148773, rel=1e-12)
    assert rep.eta == pytest.approx(0.17704295804975825, rel=1e-12)
    assert rep.total_probability == pytest.approx(1.0, abs=1e-15)
    assert rep.e_out == rep.eta * rep.e_in


def test_extracted_energy_at_generic_angles():
    p, part = _case(3, 2)
    rep = po.extracted_energy(p, part, math.pi / 4.0)
    assert rep.e_out == pytest.approx(-8.0 / math.sqrt(13.0), rel=1e-12)
    for theta in (0.1, 0.8, 1.3):
        rep = po.extracted_energy(p, part, theta)
        assert rep.e_out == pytest.approx(
            cf.output_energy_at_theta(p, part, theta), abs=1e-13
        )


def test_two_accountings_agree():
    for n, m, k in [(3, 1, 1.0), (4, 2, 0.1), (5, 4, 10.0), (6, 3, 1.0)]:
        p, part = _case(n, m, k=k)
        theta = cf.optimal_theta(p, part).theta
        rep = po.extracted_energy(p, part, theta)
        assert rep.e_out == pytest.approx(rep.e_out_via_trace, abs=1e-10)


def test_four_qubit_two_output_adjudication():
    # Two incompatible hand-derived expressions exist for this case. The
    # brute-force run sides with the one the general closed form reduces to.
    p, part = _case(4, 2)
    theta = cf.optimal_theta(p, part).theta
    rep = po.extracted_energy(p, part, theta)
    consistent = 0.14514555174644264  # = (12/sqrt(20)) * (sqrt(1+(1/3)^2) - 1)
    q = math.sqrt(5.0)
    r_var = 1.0 / 4.0
    variant = (8.0 / q) * (math.sqrt(1.0 + r_var * r_var) - 1.0)
    assert rep.e_out == pytest.approx(consistent, rel=1e-10)
    assert abs(rep.e_out - variant) > 0.03
    assert variant == pytest.approx(0.11010901891749143, rel=1e-10)


def test_output_energy_curve_matches_pointwise_runs():
    p, part = _case(4, 2, k=0.6)
    thetas = np.linspace(0.0, math.pi / 2.0, 9)
    curve = po.output_energy_curve(p, part, thetas)
    direct = [po.extracted_energy(p, part, float(t)).e_out for t in thetas]
    assert np.allclose(curve, direct, atol=1e-13)


def test_numeric_theta_matches_closed_form():
    # The oracle's angle is the exact argmax of its measured curve, so it
    # meets tan 2theta = B / A to rounding, from k = 0 to k/h = 1e6.
    for n, m in ((n, m) for n in range(2, 11) for m in range(1, n)):
        for ratio in (0.0, 1e-6, 0.01, 0.1, 1.0, 10.0, 1e3, 1e6):
            for h in (0.3, 1.0, 7.0):
                p, part = _case(n, m, h=h, k=ratio * h)
                numeric = po.optimize_theta_numeric(p, part)
                closed = cf.optimal_theta(p, part)
                assert numeric.theta == pytest.approx(closed.theta, abs=1e-12)
                assert numeric.cos_2theta == pytest.approx(closed.cos_2theta, abs=1e-12)
                assert numeric.sin_2theta == pytest.approx(closed.sin_2theta, abs=1e-12)


def test_numeric_theta_extracts_the_closed_form_maximum():
    for n, m, k in [(2, 1, 1.0), (3, 1, 1.0), (4, 3, 0.1), (5, 2, 10.0)]:
        p, part = _case(n, m, k=k)
        numeric = po.optimize_theta_numeric(p, part)
        best = cf.max_output_energy(p, part)
        got = po.extracted_energy(p, part, numeric.theta).e_out
        assert got == pytest.approx(best, rel=1e-11)


def test_rotation_axis_placement_is_irrelevant():
    p, part = _case(5, 3, k=2.0)
    theta = 0.41
    base = po.extracted_energy(p, part, theta)
    for q in part.output_qubits_sorted:
        rep = po.extracted_energy(p, part, theta, y_qubit=q)
        assert rep.e_out == pytest.approx(base.e_out, abs=1e-12)
    with pytest.raises(InvalidPartition):
        po.extracted_energy(p, part, theta, y_qubit=1)  # qubit 1 is an input


def _dense_ground_state(monkeypatch, seed):
    """Make ``measure_branches`` start from a random dense state: the
    ground state's rows are nonzero in columns 0 and 2^m - 1 only, which
    every relabelling of the outputs keeps in place."""
    rng = np.random.default_rng(seed)

    class Dense:
        @staticmethod
        def ground_state(params):
            amps = rng.standard_normal(1 << params.n_qubits)
            return StateVector(params.n_qubits, amps / np.linalg.norm(amps))

    monkeypatch.setattr(po, "StateVector", Dense)
    return rng


@pytest.mark.parametrize("n, outputs", [
    (5, (3, 4, 5)), (6, (1, 3, 4)), (7, (2, 5, 6, 7)), (16, tuple(range(2, 17)))])
def test_y_qubit_moves_its_column_bit_to_the_top(monkeypatch, n, outputs):
    # Branch matrices for every choice of Y output are the default matrix
    # with that output's column bit moved to the top, bit for bit.
    rng = _dense_ground_state(monkeypatch, n)
    p, part = ModelParams(n, 1.0, 0.7), Partition(n, frozenset(outputs))
    m, rows = len(outputs), 1 << (n - len(outputs))
    for q in outputs:
        state = rng.bit_generator.state
        default = po.measure_branches(p, part, n)
        rng.bit_generator.state = state
        moved = po.measure_branches(p, part, n, y_qubit=q)
        want = np.moveaxis(default.states.reshape((rows,) + (2,) * m),
                           1 + outputs.index(q), 1).reshape(rows, 1 << m)
        assert np.array_equal(moved.states, want), q
        assert np.array_equal(moved.parity, default.parity)
    with pytest.raises(InvalidPartition):
        po.measure_branches(p, part, n, y_qubit=min(set(range(1, n + 1)) - set(outputs)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_y_placement_against_the_density_matrix_on_a_random_state(monkeypatch, n):
    # On the ground state no relabelling of the outputs moves a branch row,
    # so where Y sits cannot show there. On a random state it moves E_out,
    # and the oracle must follow the reference with Y on each output in turn.
    rng = _dense_ground_state(monkeypatch, n)
    start = rng.bit_generator.state
    amps = rng.standard_normal(1 << n)
    state = amps / np.linalg.norm(amps)  # what every oracle call below starts from
    theta = 0.41
    for outputs in (frozenset({n - 1, n}), frozenset({1, n}), frozenset(range(2, n + 1))):
        ref = Reference(n, 1.0, 0.7, outputs, state=state)
        p, part = ModelParams(n, 1.0, 0.7), Partition(n, outputs)
        want = {y: ref.run(theta, y)[1] for y in sorted(outputs)}
        assert max(want.values()) - min(want.values()) > 1e-3, want
        for y, e_out in want.items():
            rng.bit_generator.state = start
            assert po.extracted_energy(p, part, theta, y_qubit=y).e_out == pytest.approx(
                e_out, abs=1e-12), (sorted(outputs), y)
            rng.bit_generator.state = start
            curve = po.output_energy_curve(p, part, [theta], y_qubit=y)
            assert curve[0] == pytest.approx(e_out, abs=1e-12), (sorted(outputs), y)


@pytest.mark.parametrize("n, m", [(15, 14), (16, 15), (18, 17)])
def test_y_placement_is_irrelevant_across_tiles(n, m):
    # Rows wider than a tile: Y on the first, a middle and the last output
    # leaves the single angle and the curve where the default Y puts them.
    p, part = _case(n, m, k=0.7)
    thetas = [0.0, 0.4, math.pi / 4.0, 1.2]
    base = po.extracted_energy(p, part, 0.4, oracle_cap=n)
    base_curve = po.output_energy_curve(p, part, thetas, oracle_cap=n)
    outputs = part.output_qubits_sorted
    for q in (outputs[0], outputs[m // 2], outputs[-1]):
        rep = po.extracted_energy(p, part, 0.4, y_qubit=q, oracle_cap=n)
        curve = po.output_energy_curve(p, part, thetas, y_qubit=q, oracle_cap=n)
        for got, want in zip(dataclasses.astuple(rep), dataclasses.astuple(base)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (q, rep, base)
        assert np.allclose(curve, base_curve, rtol=0, atol=1e-12), q


@pytest.mark.parametrize("n", range(10, 19))
def test_total_probability_is_one_to_a_few_roundings(n):
    # At m = 1 every row holds the same two weights; a sequential sum over
    # the rows of a block lets their roundings add up.
    for m in (1, 2, 3):
        for ratio in (0.1, 0.7, 10.0):
            rep = po.extracted_energy(*_case(n, m, k=ratio), 0.3, oracle_cap=n)
            assert abs(rep.total_probability - 1.0) <= 1e-14, (n, m, ratio,
                                                               rep.total_probability)


@pytest.mark.parametrize("n, m, y_qubit", [
    (3, 1, None), (4, 2, None), (6, 3, 5), (7, 4, None)])
def test_output_term_energies_are_each_rows_expectations(monkeypatch, n, m, y_qubit):
    # Row r as a normalised m-qubit state, its qubits in the branch matrix's
    # column order: site j is the j-th column bit from the top, and the
    # interaction reads X...X as the row's parity times its own FlipAll.
    _dense_ground_state(monkeypatch, n)
    p, part = _case(n, m, k=0.7)
    branches = po.measure_branches(p, part, y_qubit=y_qubit)
    sites, interaction = po.output_term_energies(branches.states, branches.parity, p)
    assert sites.shape == (1 << (n - m), m) and interaction.shape == (1 << (n - m),)
    for r, (row, parity) in enumerate(zip(branches.states, branches.parity)):
        weight = row @ row
        state = StateVector(m, row / math.sqrt(weight))
        want = [weight * simkernel.site_energy(state, p, j) for j in range(1, m + 1)]
        assert np.allclose(sites[r], want, rtol=1e-13, atol=1e-15), r
        flip = parity * simkernel.flip_all_expectation(state)
        assert interaction[r] == pytest.approx(
            weight * (2.0 * p.k * flip + interaction_constant(p)), rel=1e-13, abs=1e-15), r


def test_simulate_with_arbitrary_output_sets():
    p = ModelParams(4, 1.0, 1.0)
    theta = 0.3
    tail = po.extracted_energy(p, Partition.last(4, 2), theta)
    head = po.simulate_with_outputs(p, {1, 2}, theta)
    straddle = po.simulate_with_outputs(p, {1, 4}, theta)
    for rep in (head, straddle):
        assert rep.e_in == pytest.approx(tail.e_in, abs=1e-12)
        assert rep.e_out == pytest.approx(tail.e_out, abs=1e-12)
    with pytest.raises(InvalidPartition):
        po.simulate_with_outputs(ModelParams(3, 1.0, 1.0), {1, 2, 3}, theta)


def test_oracle_cap_enforcement():
    with pytest.raises(OracleCapExceeded):
        po.measure_branches(*_case(13, 1))
    with pytest.raises(OracleCapExceeded):
        po.extracted_energy(*_case(5, 1), 0.2, oracle_cap=4)
    with pytest.raises(InvalidPartition):
        po.extracted_energy(ModelParams(4, 1.0, 1.0), Partition.last(5, 1), 0.2)
    assert po.extracted_energy(*_case(5, 1), 0.2, oracle_cap=5).e_in > 0.0


def test_sampling_is_deterministic_and_unbiased_here():
    # Branch symmetry makes every outcome carry the same energies, so the
    # shot estimator has zero variance; what remains to check is seed
    # stability and agreement with the enumeration.
    p, part = _case(3, 1)
    theta = cf.optimal_theta(p, part).theta
    a = po.sample_protocol(p, part, theta, n_shots=512, seed=7)
    b = po.sample_protocol(p, part, theta, n_shots=512, seed=7)
    c = po.sample_protocol(p, part, theta, n_shots=512, seed=8)
    assert a == b
    assert (a.n_shots, a.seed) == (512, 7)
    exact = po.extracted_energy(p, part, theta)
    for est in (a, c):
        assert est.e_in == pytest.approx(exact.e_in, abs=1e-12)
        assert est.e_out == pytest.approx(exact.e_out, abs=1e-12)


@pytest.mark.parametrize("shots", [0, -2])
def test_sampling_needs_at_least_one_shot(shots):
    p, part = _case(3, 1)
    with pytest.raises(InvalidRange):
        po.sample_protocol(p, part, 0.3, n_shots=shots)


def test_sampling_refuses_shots_past_the_cap_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    monkeypatch.setattr(po, "measure_branches", no_allocation)
    monkeypatch.setattr(po.np.random, "default_rng", no_allocation)
    p, part = _case(3, 1)
    for shots in (po.MAX_SHOTS + 1, 2_000_000_000):
        with pytest.raises(InvalidRange, match="shots"):
            po.sample_protocol(p, part, 0.3, n_shots=shots)


def test_engine_modules_import_nothing_from_the_closed_form_side():
    # Read from the source: importing qetsim loads every module, so
    # sys.modules cannot show which module imports which.
    src = Path(__file__).resolve().parents[1] / "src" / "qetsim"
    forbidden = {"closedform", "analysis", "verify", "cli"}
    for name in ("kernels.py", "simkernel.py", "protocol_oracle.py"):
        imported = set()
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert not imported & forbidden, (name, imported & forbidden)


@pytest.mark.parametrize("h", [1e-160, 1e-200, 1e-300])
def test_engine_at_tiny_field_matches_unit_field_and_closed_forms(h):
    # h*h and k*k are subnormal here; the amplitudes depend on k/h alone,
    # and every oracle energy scales with h.
    for n, m, ratio in [(2, 1, 0.01), (3, 1, 1.0), (5, 2, 10.0), (6, 5, 0.1)]:
        p, part = _case(n, m, h=h, k=ratio * h)
        unit = ground_state_amplitudes(ModelParams(n, 1.0, ratio))
        tiny = ground_state_amplitudes(p)
        assert tiny.a_all_zero == pytest.approx(unit.a_all_zero, rel=1e-15)
        assert tiny.a_all_one == pytest.approx(unit.a_all_one, rel=1e-15)
        rep = po.extracted_energy(p, part, cf.optimal_theta(p, part).theta)
        want = cf.report(p, part)
        assert rep.e_in == pytest.approx(want.e_in, rel=1e-10, abs=0)
        assert rep.e_out == pytest.approx(want.e_out_max, rel=1e-10, abs=0)
        assert rep.e_out_via_trace == pytest.approx(want.e_out_max, rel=1e-10, abs=0)
