"""Property test: the Lanczos ground state against the 2x2 sector solver."""

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
    e_block, v_block = sk.exact_ground_state(p, "block")
    assert abs(e_lanczos - e_block) <= 1e-12 * (p.c + n * h)
    assert 1.0 - abs(v_lanczos.overlap(v_block)) <= 1e-10
