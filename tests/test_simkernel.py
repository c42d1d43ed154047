"""Statevector substrate: Pauli application, expectations, ground-state solvers."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qetsim.errors import (
    DimensionMismatch,
    NoConvergence,
    OracleCapExceeded,
    QetError,
)
from qetsim.model import ModelParams, ground_state_amplitudes
from qetsim import simkernel as sk

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
_DENSE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_pauli(letters: str, coefficient: complex = 1.0) -> np.ndarray:
    mat = np.array([[coefficient]], dtype=complex)
    for s in letters:  # qubit 1 is the most significant bit: leftmost kron factor
        mat = np.kron(mat, _DENSE[s])
    return mat


def random_state(n_qubits: int, seed: int) -> sk.StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return sk.StateVector(n_qubits, amps / np.linalg.norm(amps))


def test_state_vector_basics():
    s = sk.StateVector.basis(3, 5)
    assert s.norm_sq() == 1.0
    assert s.amplitudes[5] == 1.0
    with pytest.raises(DimensionMismatch):
        sk.StateVector(3, np.zeros(7, dtype=complex))
    with pytest.raises(DimensionMismatch):
        s.overlap(sk.StateVector.basis(2, 0))
    t = random_state(3, 0)
    assert t.overlap(s) == pytest.approx(np.conj(s.overlap(t)))


def test_states_are_real_until_a_complex_amplitude_enters():
    # Every state the protocol builds is real; a Y factor makes one complex.
    p = ModelParams(5, 1.0, 0.7)
    states = [sk.StateVector.basis(5, 3), sk.StateVector.ground_state(p)]
    states += [sk.exact_ground_state(p, method)[1] for method in ("dense", "lanczos")]
    assert [s.amplitudes.dtype for s in states] == [np.float64] * 4
    assert sk.StateVector(2, [1, 0, 0, 0]).amplitudes.dtype == np.float64
    with_y = sk.apply_pauli_string(states[1], sk.PauliString("XYIII"))
    assert with_y.amplitudes.dtype == np.complex128
    assert sk.StateVector(2, np.zeros(4, dtype=np.complex64)).amplitudes.dtype == np.complex128


def test_ground_state_vector_matches_amplitudes():
    p = ModelParams(4, 1.0, 2.0)
    g = ground_state_amplitudes(p)
    s = sk.StateVector.ground_state(p)
    assert s.amplitudes[0] == g.a_all_zero
    assert s.amplitudes[-1] == g.a_all_one
    assert not np.any(s.amplitudes[1:-1])
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_pauli_string_masks():
    p = sk.PauliString("XIY")
    assert p.flip_mask == 0b101
    assert p.phase_mask == 0b001
    assert p.n_y == 1
    assert sk.PauliString("ZZ").flip_mask == 0
    assert sk.PauliString("ZZ").phase_mask == 0b11
    with pytest.raises(ValueError):
        sk.PauliString("XQ")


def test_apply_pauli_string_single_qubit():
    zero = sk.StateVector.basis(1, 0)
    one = sk.StateVector.basis(1, 1)
    assert np.array_equal(sk.apply_pauli_string(zero, sk.PauliString("X")).amplitudes, [0, 1])
    assert np.array_equal(sk.apply_pauli_string(zero, sk.PauliString("Y")).amplitudes, [0, 1j])
    assert np.array_equal(sk.apply_pauli_string(one, sk.PauliString("Y")).amplitudes, [-1j, 0])
    assert np.array_equal(sk.apply_pauli_string(one, sk.PauliString("Z")).amplitudes, [0, -1])


@pytest.mark.parametrize("letters", ["XZ", "YY", "ZIX", "XYZ", "IIII"])
def test_apply_pauli_string_matches_dense(letters):
    n = len(letters)
    state = random_state(n, seed=n * 31 + 1)
    got = sk.apply_pauli_string(state, sk.PauliString(letters, coefficient=0.5 - 2.0j))
    expected = dense_pauli(letters, 0.5 - 2.0j) @ state.amplitudes
    assert np.allclose(got.amplitudes, expected, atol=1e-15)


@pytest.mark.parametrize("letters", ["Y", "XY", "ZYYX"])
def test_pauli_strings_are_involutions(letters):
    state = random_state(len(letters), seed=5)
    p = sk.PauliString(letters)
    back = sk.apply_pauli_string(sk.apply_pauli_string(state, p), p)
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_apply_pauli_string_dimension_check():
    with pytest.raises(DimensionMismatch):
        sk.apply_pauli_string(sk.StateVector.basis(2, 0), sk.PauliString("XXX"))


def kron_hamiltonian(p: ModelParams) -> np.ndarray:
    """H = sum_j (h Z_j + N h^2/c) + 2k X...X + 4k^2/c from explicit Kronecker products."""
    n = p.n_qubits
    ham = 2.0 * p.k * dense_pauli("X" * n) + (4.0 * p.k * p.k / p.c) * np.eye(1 << n)
    for q in range(n):
        letters = "I" * q + "Z" + "I" * (n - q - 1)
        ham += p.h * dense_pauli(letters) + (n * p.h * p.h / p.c) * np.eye(1 << n)
    return ham


def test_hamiltonian_assembly():
    p = ModelParams(3, 1.0, 1.0)
    ham = sk.build_hamiltonian(p)
    assert ham.dtype == np.float64
    assert np.allclose(ham, kron_hamiltonian(p), atol=1e-13)
    assert np.array_equal(ham, ham.T)
    # Diagonal entry of the all-zeros state: 3h + c; anti-diagonal coupling 2k.
    assert ham[0, 0] == pytest.approx(3.0 + math.sqrt(13.0), rel=1e-15)
    assert ham[0, 7] == 2.0
    assert ham[3, 4] == 2.0  # |011> couples to its complement |100>
    assert ham[1, 2] == 0.0


def test_dense_caps():
    with pytest.raises(OracleCapExceeded):
        sk.build_hamiltonian(ModelParams(13, 1.0, 1.0))
    assert sk.build_hamiltonian(ModelParams(4, 1.0, 1.0), oracle_cap=4).shape == (16, 16)
    with pytest.raises(OracleCapExceeded):
        sk.build_hamiltonian(ModelParams(5, 1.0, 1.0), oracle_cap=4)


def test_expectation_dense_and_pauli_paths_agree():
    p = ModelParams(3, 1.0, 0.7)
    state = random_state(3, seed=9)
    psi = state.amplitudes
    dense_val = np.vdot(psi, sk.build_hamiltonian(p) @ psi)
    assert dense_val.imag == pytest.approx(0.0, abs=1e-15)
    assert np.vdot(psi, kron_hamiltonian(p) @ psi).real == pytest.approx(dense_val.real,
                                                                         abs=1e-12)
    strings = [sk.PauliString(z, coefficient=p.h) for z in ("ZII", "IZI", "IIZ")]
    strings.append(sk.PauliString("XXX", coefficient=2.0 * p.k))
    strings.append(sk.PauliString("III", coefficient=p.c))
    pauli_val = sum(state.overlap(sk.apply_pauli_string(state, s)) for s in strings)
    assert pauli_val.real == pytest.approx(dense_val.real, abs=1e-12)
    assert sk.total_energy(state, p) == pytest.approx(dense_val.real, abs=1e-12)


def test_ground_state_expectations():
    p = ModelParams(3, 1.0, 1.0)
    g = sk.StateVector.ground_state(p)
    z = sk.site_z_expectations(g)
    assert np.allclose(z, -3.0 / math.sqrt(13.0), atol=1e-15)
    assert sk.flip_all_expectation(g) == pytest.approx(-2.0 / math.sqrt(13.0), abs=1e-15)
    # Every term was shifted to read zero on the ground state.
    for q in (1, 2, 3):
        assert sk.site_energy(g, p, q) == pytest.approx(0.0, abs=1e-14)
    assert sk.interaction_energy(g, p) == pytest.approx(0.0, abs=1e-14)
    psi = g.amplitudes
    dense_val = np.vdot(psi, kron_hamiltonian(p) @ psi).real
    assert dense_val == pytest.approx(0.0, abs=1e-13)
    assert sk.total_energy(g, p) == pytest.approx(dense_val, abs=1e-13)


def test_site_z_ordering_follows_qubit_labels():
    # |011> on 3 qubits: qubit 1 is 0 (Z = +1), qubits 2 and 3 are 1 (Z = -1).
    s = sk.StateVector.basis(3, 0b011)
    assert np.array_equal(sk.site_z_expectations(s), [1.0, -1.0, -1.0])


@pytest.mark.parametrize("n", range(2, 11))
def test_dense_and_block_solvers_agree(n):
    """Dense and Lanczos against each other and against the analytic state,
    the ground state of the {|0...0>, |1...1>} block; its energy is 0."""
    p = ModelParams(n, 1.0, 0.7)
    e_dense, v_dense = sk.exact_ground_state(p, "dense")
    e_lanczos, v_lanczos = sk.exact_ground_state(p, "lanczos")
    analytic = sk.StateVector.ground_state(p)
    assert abs(e_dense) <= 1e-10
    assert abs(e_lanczos) <= 1e-12
    assert abs(e_lanczos - e_dense) <= 1e-10
    assert abs(v_dense.overlap(analytic)) >= 1.0 - 1e-10
    assert abs(v_lanczos.overlap(analytic)) >= 1.0 - 1e-12
    assert abs(v_lanczos.overlap(v_dense)) >= 1.0 - 1e-10
    assert v_lanczos.norm_sq() == pytest.approx(1.0, abs=1e-14)


def test_dense_solver_confirms_frozen_amplitudes():
    # Independent check of the closed-form digits asserted in test_model.
    _, v = sk.exact_ground_state(ModelParams(3, 1.0, 1.0), "dense")
    amps = v.amplitudes
    phase = amps[0] / abs(amps[0])
    amps = amps / phase  # eigensolver returns an arbitrary global sign
    assert amps[0].real == pytest.approx(0.2897841486884301, abs=1e-12)
    assert amps[-1].real == pytest.approx(-0.9570920264890529, abs=1e-12)
    assert np.max(np.abs(amps[1:-1])) <= 1e-12


def test_exact_ground_state_argument_handling():
    for method in ("sparse", "block"):
        with pytest.raises(ValueError, match="use 'lanczos' or 'dense'"):
            sk.exact_ground_state(ModelParams(3, 1.0, 1.0), method)
    with pytest.raises(OracleCapExceeded):
        sk.exact_ground_state(ModelParams(13, 1.0, 1.0), "dense")
    with pytest.raises(TypeError):
        sk.exact_ground_state(ModelParams(3, 1.0, 1.0), "dense", with_state=False)
    e, state = sk.exact_ground_state(ModelParams(3, 1.0, 1.0), "dense")
    assert isinstance(state, sk.StateVector) and abs(e) <= 1e-12


def test_decoupled_limit_ground_state_is_all_ones():
    p = ModelParams(4, 1.0, 0.0)
    e, v = sk.exact_ground_state(p, "dense")
    assert abs(e) <= 1e-12
    assert abs(v.amplitudes[-1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_lanczos_decoupled_limit_is_minus_all_ones(n):
    # At k = 0 the ground energy of H is exactly 0; the solver must still
    # find |1...1> rather than stop on the next level up at 2h.
    e, v = sk.exact_ground_state(ModelParams(n, 1.0, 0.0), "lanczos")
    assert abs(e) <= 1e-12
    assert v.amplitudes[-1].real == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(v.amplitudes[:-1])) <= 1e-12


@pytest.mark.parametrize("ratio", [1e-3, 0.1, 1.0, 10.0, 1e3])
def test_lanczos_sign_convention(ratio):
    p = ModelParams(6, 1.0, ratio)
    _, v = sk.exact_ground_state(p, "lanczos")
    g = ground_state_amplitudes(p)
    assert v.amplitudes[-1].real < 0.0
    assert v.amplitudes[-1].real == pytest.approx(g.a_all_one, abs=1e-12)
    assert v.amplitudes[0].real == pytest.approx(g.a_all_zero, abs=1e-12)


def test_lanczos_is_repeatable():
    p = ModelParams(9, 1.0, 2.5)
    e1, v1 = sk.exact_ground_state(p, "lanczos")
    e2, v2 = sk.exact_ground_state(p, "lanczos")
    assert e1 == e2
    assert np.array_equal(v1.amplitudes, v2.amplitudes)


def test_lanczos_honours_cap_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    # np.empty builds the field table, the solver's first allocation.
    for name in ("empty", "zeros", "arange"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(OracleCapExceeded):
        sk.exact_ground_state(ModelParams(13, 1.0, 1.0), "lanczos")
    with pytest.raises(OracleCapExceeded):
        sk.exact_ground_state(ModelParams(40, 1.0, 1.0), "lanczos", oracle_cap=30)
    with pytest.raises(AssertionError, match="allocated"):  # below the cap it allocates
        sk.exact_ground_state(ModelParams(4, 1.0, 1.0), "lanczos")


def test_lanczos_non_convergence_is_typed(monkeypatch):
    monkeypatch.setattr(sk, "LANCZOS_MAX_STEPS", 1)
    with pytest.raises(NoConvergence) as info:
        sk.exact_ground_state(ModelParams(5, 1.0, 1.0), "lanczos")
    assert isinstance(info.value, QetError)


@pytest.mark.parametrize("ratio", [0.0, 0.7, 1e3])
def test_lanczos_stores_no_krylov_basis(ratio):
    # Two passes over the recurrence in place of a stored basis: at N = 16
    # one solve peaks at five 2^N float64 arrays (5.01), within six.
    n = 16
    p = ModelParams(n, 1.0, ratio)
    sk.exact_ground_state(p, "lanczos", oracle_cap=n)  # first-call allocations stay out
    tracemalloc.start()
    try:
        sk.exact_ground_state(p, "lanczos", oracle_cap=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (1 << n) * 8, peak / ((1 << n) * 8)
