"""The property-suite's commutator check: it must see a non-commuting
interaction, and it must not build a 2^N x 2^N matrix. Its optimality
probe sees a closed-form angle a little off the optimum. The oracle check's
detail line names its e_out error for what it is, and a grid with no cell
is refused."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from qetsim import closedform, kernels, verify
from qetsim.errors import InvalidRange
from qetsim.model import ThetaChoice, interaction_constant


def _with_phase(phase_qubit_bit: int, flip: bool):
    """V with one Z factor put into it: on top of X...X (a Y, up to a phase)
    when ``flip`` is set, else on its own."""

    def apply(params, psi):
        full = (1 << params.n_qubits) - 1 if flip else 0
        return (interaction_constant(params) * psi
                + 2.0 * params.k * kernels.apply_pauli_signs(psi, full, 1 << phase_qubit_bit))

    return apply


@pytest.mark.parametrize("flip", [True, False])
@pytest.mark.parametrize("bit", [0, 2])
def test_commutator_check_sees_a_non_commuting_interaction(monkeypatch, flip, bit):
    monkeypatch.setattr(verify, "_apply_interaction", _with_phase(bit, flip))
    for n in (3, 4, 7):
        for ratio in verify.GRID_RATIOS:
            assert verify._commutator_is_zero(n, ratio) is False


def test_property_suite_fails_on_a_non_commuting_interaction(monkeypatch):
    monkeypatch.setattr(verify, "_apply_interaction", _with_phase(0, True))
    result = verify.check_properties()
    assert not result.passed
    assert "commutator nonzero at N=2, ratio 0.1" in result.detail


def test_commutator_check_holds_for_the_model_and_stays_linear_in_memory():
    tracemalloc.start()
    try:
        assert all(verify._commutator_is_zero(10, ratio) for ratio in verify.GRID_RATIOS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A dense 1024 x 1024 float64 matrix alone is 8 MiB; the check needs a
    # few vectors of 1024 entries.
    assert peak < 1 << 20


def test_oracle_check_labels_its_e_out_error_as_absolute():
    # The e_out error is divided by max(1, E_out) and E_out < 1 in every
    # cell, so it is an absolute error, not a relative one.
    result = verify.check_oracle_agreement(n_max=4)
    assert result.passed
    assert "worst rel err e_in " in result.detail
    assert "worst e_out err (abs below 1) " in result.detail
    assert "worst abs err eta " in result.detail
    # The time is in result.seconds, and only there.
    assert not result.detail.endswith(" s")


def test_oracle_check_refuses_a_grid_without_cells():
    for n_max in (2, 0):
        with pytest.raises(InvalidRange):
            verify.check_oracle_agreement(n_max=n_max)


def test_optimality_probe_sees_a_shifted_closed_form_angle(monkeypatch):
    # Before: 10,000 sampled angles, and a shift of 2e-5 rad still passed.
    exact = closedform.optimal_theta

    def shifted(params, part):
        t = exact(params, part).theta + 1e-5
        return ThetaChoice(t, math.cos(2.0 * t), math.sin(2.0 * t))

    monkeypatch.setattr(closedform, "optimal_theta", shifted)
    result = verify.check_properties()
    assert not result.passed
    assert "the oracle's own optimum beat the closed-form angle" in result.detail
