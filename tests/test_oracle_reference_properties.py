"""Property tests: the protocol oracle against the density-matrix reference
and against the closed forms.

The reference is ``tests/test_dense_reference.py``'s ``Reference``: explicit
Kronecker operators, a dense eigensolve, projectors on a density matrix and
traces. Here Hypothesis draws the model, the output set and the angle.
The closed forms are checked at N up to 12 and at fields across the float
range.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from qetsim import closedform
from qetsim import protocol_oracle as po
from qetsim.model import ModelParams, Partition
from test_dense_reference import Reference


@st.composite
def protocol_cases(draw):
    n = draw(st.integers(2, 5))
    qubits = list(range(1, n + 1))
    outputs = frozenset(draw(st.lists(st.sampled_from(qubits), min_size=1,
                                      max_size=n - 1, unique=True)))
    ratio = 10.0 ** draw(st.floats(-2.0, 2.0))
    theta = draw(st.floats(0.0, math.pi / 2.0))
    return n, outputs, ratio, theta


@settings(max_examples=80, deadline=None)
@given(protocol_cases())
def test_oracle_matches_density_matrix_reference_anywhere(case):
    n, outputs, ratio, theta = case
    want_in, want_out, want_trace = Reference(n, 1.0, ratio, outputs).run(theta)
    params, part = ModelParams(n, 1.0, ratio), Partition(n, outputs)
    rep = po.extracted_energy(params, part, theta)
    curve = po.output_energy_curve(params, part, [theta])
    assert abs(rep.e_in - want_in) <= 1e-12
    assert abs(rep.e_out - want_out) <= 1e-12
    assert abs(rep.e_out_via_trace - want_trace) <= 1e-12
    assert abs(curve[0] - want_out) <= 1e-12


@st.composite
def closed_form_cases(draw):
    n = draw(st.integers(2, 12))
    outputs = frozenset(draw(st.lists(st.integers(1, n), min_size=1,
                                      max_size=n - 1, unique=True)))
    ratio = 10.0 ** draw(st.floats(-2.0, 2.0))
    h = 10.0 ** draw(st.floats(-300.0, 300.0))
    return n, outputs, ratio, h


@settings(max_examples=40, deadline=None)
@given(closed_form_cases())
def test_oracle_matches_the_closed_forms_at_any_field(case):
    # Energies in units of h, with verify's error measure: relative for
    # E_in, and absolute below 1 for E_out.
    n, outputs, ratio, h = case
    params, part = ModelParams(n, h, ratio * h), Partition(n, outputs)
    theta = closedform.optimal_theta(params, part).theta
    rep = po.extracted_energy(params, part, theta)
    closed = closedform.energies(n, part.m_outputs, params.k, h)
    e_in = closed.e_in[0] / h
    assert abs(rep.e_in / h - e_in) / e_in <= 1e-10
    for e_out in (closed.e_out_max[0], closedform.output_energy_at_theta(params, part, theta)):
        assert abs(rep.e_out / h - e_out / h) / max(1.0, e_out / h) <= 1e-10
