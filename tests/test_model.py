"""Parameter validation, ground-state amplitudes, and partition bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qetsim import protocol_oracle, simkernel
from qetsim.errors import (
    InvalidPartition,
    NonPositiveCoupling,
    OracleCapExceeded,
    TooFewQubits,
)
from qetsim.model import (
    ModelParams,
    Partition,
    ground_state_amplitudes,
    interaction_constant,
    local_constant,
    qubit_bit,
    qubit_mask,
    validate_params,
)


def test_params_validation():
    assert ModelParams(2, 1.0, 0.5).n_qubits == 2
    with pytest.raises(TooFewQubits):
        ModelParams(1, 1.0, 1.0)
    with pytest.raises(NonPositiveCoupling):
        ModelParams(3, 0.0, 1.0)
    with pytest.raises(NonPositiveCoupling):
        ModelParams(3, -1.0, 1.0)
    with pytest.raises(NonPositiveCoupling):
        ModelParams(3, 1.0, -0.1)
    with pytest.raises(NonPositiveCoupling):
        ModelParams(3, math.nan, 1.0)
    for h, k in ((math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(NonPositiveCoupling):
            ModelParams(3, h, k)
    # k = 0 is the admitted decoupled limit on the dataclass itself ...
    assert ModelParams(3, 1.0, 0.0).k == 0.0
    # -0.0 is the same point and is stored without its sign.
    assert math.copysign(1.0, ModelParams(3, 1.0, -0.0).k) == 1.0
    # ... but the strict entry point refuses it.
    with pytest.raises(NonPositiveCoupling):
        validate_params(3, 1.0, 0.0)


def test_validate_params_oracle_cap():
    p = validate_params(12, 1.0, 1.0, for_oracle=True)
    assert (p.n_qubits, p.h, p.k) == (12, 1.0, 1.0)
    with pytest.raises(OracleCapExceeded):
        validate_params(13, 1.0, 1.0, for_oracle=True)
    assert validate_params(13, 1.0, 1.0).n_qubits == 13  # no cap off the oracle path
    assert validate_params(13, 1.0, 1.0, for_oracle=True, oracle_cap=14).n_qubits == 13
    with pytest.raises(TooFewQubits):
        validate_params(3.5, 1.0, 1.0)


_P6 = ModelParams(6, 1.0, 0.7)
_LAST6 = Partition.last(6, 1)


@pytest.mark.parametrize("entry", [
    lambda cap: simkernel.exact_ground_state(_P6, "lanczos", oracle_cap=cap),
    lambda cap: simkernel.exact_ground_state(_P6, "dense", oracle_cap=cap),
    lambda cap: simkernel.build_hamiltonian(_P6, oracle_cap=cap),
    lambda cap: protocol_oracle.measure_branches(_P6, _LAST6, cap),
    lambda cap: protocol_oracle.sample_protocol(_P6, _LAST6, 0.3, oracle_cap=cap),
    lambda cap: validate_params(6, 1.0, 0.7, for_oracle=True, oracle_cap=cap),
], ids=["lanczos", "dense", "build_hamiltonian", "measure_branches",
        "sample_protocol", "validate_params"])
def test_every_brute_force_entry_refuses_through_the_one_guard(monkeypatch, entry):
    """Each entry that would hold 2**N amplitudes raises the guard's one
    message before numpy allocates anything."""
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    for name in ("zeros", "arange", "empty"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(OracleCapExceeded) as refused:
        entry(5)
    assert str(refused.value) == "N=6 exceeds the statevector cap of 5 qubits"
    monkeypatch.undo()
    entry(6)  # at the cap the same call runs


def test_energy_scale():
    assert ModelParams(3, 1.0, 1.0).c == pytest.approx(math.sqrt(13.0), rel=1e-15)
    assert ModelParams(4, 2.0, 3.0).c == 10.0  # 6-8-10 triangle, exact in floats
    assert ModelParams(2, 1.0, 1.0).ratio == 1.0
    # hypot keeps c finite where the naive square sum would overflow
    big = ModelParams(100000, 1.0, 1e160)
    assert math.isfinite(big.c)
    assert big.c == pytest.approx(2e160, rel=1e-15)


def test_ground_state_amplitudes_frozen_values():
    # Dense-diagonalization cross checks of these digits live in test_simkernel.
    g3 = ground_state_amplitudes(ModelParams(3, 1.0, 1.0))
    assert g3.a_all_zero == pytest.approx(0.2897841486884301, abs=1e-15)
    assert g3.a_all_one == pytest.approx(-0.9570920264890529, abs=1e-15)

    # N=2, h=k: the superposition angle is exactly pi/8.
    g2 = ground_state_amplitudes(ModelParams(2, 1.0, 1.0))
    assert g2.a_all_zero == pytest.approx(math.sin(math.pi / 8.0), abs=1e-15)
    assert g2.a_all_one == pytest.approx(-math.cos(math.pi / 8.0), abs=1e-15)

    # c = 10 exactly here, so both amplitudes are square roots of rationals.
    g = ground_state_amplitudes(ModelParams(4, 2.0, 3.0))
    assert g.a_all_zero == pytest.approx(math.sqrt(0.1), abs=1e-15)
    assert g.a_all_one == pytest.approx(-math.sqrt(0.9), abs=1e-15)


@pytest.mark.parametrize("n,h,k", [(2, 1.0, 1.0), (3, 1.0, 0.1), (5, 0.3, 7.0), (10, 1.0, 1e-8)])
def test_ground_state_amplitude_invariants(n, h, k):
    g = ground_state_amplitudes(ModelParams(n, h, k))
    assert g.a_all_zero >= 0.0 > g.a_all_one
    assert g.a_all_zero**2 + g.a_all_one**2 == pytest.approx(1.0, abs=1e-15)
    # Ratio form -(c + Nh) / (2k), free of the small amplitude's cancellation.
    c = math.hypot(n * h, 2.0 * k)
    assert g.a_all_one / g.a_all_zero == pytest.approx(-(c + n * h) / (2.0 * k), rel=1e-14)


def test_ground_state_amplitude_limits():
    # Weak coupling: the state collapses onto |11...1>.
    weak = ground_state_amplitudes(ModelParams(4, 1.0, 1e-12))
    assert weak.a_all_zero == pytest.approx(0.5e-12, rel=1e-12)
    assert weak.a_all_one == pytest.approx(-1.0, abs=1e-15)
    assert ground_state_amplitudes(ModelParams(4, 1.0, 0.0)).a_all_zero == 0.0
    # Strong coupling: equal-weight superposition.
    strong = ground_state_amplitudes(ModelParams(4, 1.0, 1e12))
    assert strong.a_all_zero == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert strong.a_all_one == pytest.approx(-math.sqrt(0.5), rel=1e-12)


def test_additive_constants():
    p = ModelParams(3, 1.0, 1.0)
    assert local_constant(p) == pytest.approx(3.0 / math.sqrt(13.0), rel=1e-15)
    assert interaction_constant(p) == pytest.approx(4.0 / math.sqrt(13.0), rel=1e-15)
    # Ground-state energy offset: N * local + interaction equals c.
    assert 3 * local_constant(p) + interaction_constant(p) == pytest.approx(p.c, rel=1e-15)


def test_partition_construction():
    part = Partition(5, frozenset({2, 4}))
    assert part.m_outputs == 2
    assert part.n_inputs == 3
    assert part.input_qubits == (1, 3, 5)
    assert part.output_qubits_sorted == (2, 4)

    tail = Partition.last(5, 2)
    assert tail.output_qubits_sorted == (4, 5)
    assert tail.input_qubits == (1, 2, 3)
    assert Partition.last(2, 1).output_qubits_sorted == (2,)


def test_partition_rejects_degenerate_splits():
    with pytest.raises(InvalidPartition):
        Partition(4, frozenset())
    with pytest.raises(InvalidPartition):
        Partition(4, frozenset({1, 2, 3, 4}))  # nobody left to measure
    with pytest.raises(InvalidPartition):
        Partition(4, frozenset({0}))
    with pytest.raises(InvalidPartition):
        Partition(4, frozenset({5}))
    with pytest.raises(InvalidPartition):
        Partition.last(4, 0)
    with pytest.raises(InvalidPartition):
        Partition.last(4, 4)


def test_bit_layout():
    # Qubit 1 is the most significant bit.
    assert qubit_bit(5, 1) == 4
    assert qubit_bit(5, 5) == 0
    assert qubit_mask(5, [1]) == 0b10000
    assert qubit_mask(5, [5]) == 0b00001
    assert qubit_mask(4, [1, 2, 3, 4]) == 0b1111
    assert qubit_mask(4, []) == 0
    part = Partition.last(4, 2)
    assert qubit_mask(4, part.output_qubits_sorted) == 0b0011
    assert qubit_mask(4, part.input_qubits) == 0b1100
