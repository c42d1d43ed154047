"""Property test: the Lanczos ground state against the analytic two-amplitude
state, the ground state of the {|0...0>, |1...1>} block, whose energy is 0."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from qetsim import simkernel as sk
from qetsim.model import ModelParams


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12),
       log_ratio=st.floats(-3.0, 3.0),
       log_h=st.floats(-2.0, 2.0))
def test_lanczos_matches_block_solver(n, log_ratio, log_h):
    h = 10.0 ** log_h
    p = ModelParams(n, h, h * 10.0 ** log_ratio)
    e_lanczos, v_lanczos = sk.exact_ground_state(p, "lanczos")
    assert abs(e_lanczos) <= 1e-12 * (p.c + n * h)
    assert 1.0 - abs(v_lanczos.overlap(sk.StateVector.ground_state(p))) <= 1e-10
