"""Closed-form properties over the input domain, drawn by Hypothesis.

With A = N m h^2 + 4k^2, B = 2(N-m) h k and c = sqrt(N^2 h^2 + 4k^2), the
closed forms are E_in = (N-m) N h^2 / c, E_out(max) = (sqrt(A^2 + B^2) - A) / c
and eta = E_out(max) / E_in, and the ground state's Bell value is
b = sqrt(2^(N-2) (2k/c)^2 + (Nh/c)^2). Each test derives its property from
these in its docstring and checks it on the float64 values the package
computes, at N up to 10^4 (``BELL_N_MAX`` for the Bell value), k/h = 0 or
in [1e-12, 1e12] and h in [1e-100, 1e100].

Dropped: eta < (N-m)/(2N). It holds in exact arithmetic (see
``test_efficiency_is_never_negative``), but the gap is (N-m)/(2N) times
N m h^2 / (N m h^2 + 4k^2), which falls below one rounding error once
k/h passes about 1e8. There the float64 eta reaches the bound and can pass
it by one ulp: at N=45, m=42, k/h=5.86e10 eta is 0.03333333333333334 and
(N-m)/(2N) is 0.03333333333333333.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from qetsim import analysis, closedform
from qetsim.model import ModelParams, Partition

#: Largest N whose Bell value is finite at every k: b <= 2^((N-2)/2), which
#: is 2^1023.5 here. Above N = 1025, 2^(N-2) alone overflows float64, and
#: ``analysis.bell_values`` takes another form.
BELL_N_MAX = 2049


def ratios():
    """k/h: zero, or log-uniform over [1e-12, 1e12]."""
    return st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e))


def fields():
    """h, log-uniform over [1e-100, 1e100]."""
    return st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)


@st.composite
def points(draw, n_min=2, n_max=10_000):
    """One (N, m, k, h) point with 1 <= m < N."""
    n = draw(st.integers(n_min, n_max))
    m = draw(st.integers(1, n - 1))
    h = draw(fields())
    return n, m, draw(ratios()) * h, h


@settings(max_examples=300, deadline=None)
@given(points())
def test_efficiency_is_never_negative(point):
    """0 <= eta.

    sqrt(A^2 + B^2) >= A, so E_out(max) >= 0, and E_in > 0 for m < N.
    (The upper bound: for B > 0, sqrt(A^2 + B^2) - A = B^2 / (sqrt(A^2 + B^2)
    + A) < B^2 / (2A), so eta < B^2 / (2A (N-m) N h^2)
    = (N-m)/(2N) * 4k^2 / (N m h^2 + 4k^2) < (N-m)/(2N). Not tested; see the
    module docstring.)
    """
    n, m, k, h = point
    assert closedform.energies(n, m, k, h).eta[0] >= 0.0


@settings(max_examples=300, deadline=None)
@given(points())
def test_output_energy_never_exceeds_input_energy(point):
    """E_out(max) <= E_in.

    E_out(max) = eta E_in with eta < (N-m)/(2N) < 1/2, so E_out(max) is
    below half of E_in: a margin no rounding closes.
    """
    n, m, k, h = point
    e = closedform.energies(n, m, k, h)
    assert e.e_out_max[0] <= e.e_in[0]


@settings(max_examples=100, deadline=None)
@given(points(n_max=3000))
def test_efficiency_does_not_rise_with_m(point):
    """eta is non-increasing in m at fixed N, k and h.

    Write u = N - m for the input count. With B^2 = 4u^2 h^2 k^2,
    eta = B^2 / (u N h^2 (S + A)) = 4 u k^2 / (N (S + A)) with
    S = sqrt(A^2 + B^2), so eta grows with u iff D = S + A satisfies
    D - u dD/du > 0. Using dA/du = -N h^2 and dB/du = 2hk (so u B dB/du = B^2):
    S (D - u dD/du) = A S + S^2 + u N h^2 S + u N h^2 A - B^2
    = (A + u N h^2)(S + A) > 0. So eta falls strictly as m grows; at k = 0
    it is 0 for every m.
    """
    n, _, k, h = point
    eta = closedform.energies(n, np.arange(1, n), k, h).eta
    assert np.all(np.diff(eta) <= 0.0)


@settings(max_examples=300, deadline=None)
@given(points(n_min=3, n_max=BELL_N_MAX))
def test_bell_value_lies_between_one_and_saturation(point):
    """1 <= b <= 2^((N-2)/2) for N >= 3.

    With s = (2k/c)^2, (Nh/c)^2 = 1 - s and s in [0, 1), so
    b^2 = 2^(N-2) s + (1 - s) is a convex combination of 1 and 2^(N-2).
    """
    n, _, k, h = point
    b = analysis.bell_values([n], [k], h)[0]
    assert 1.0 <= b <= 2.0 ** ((n - 2) / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(points(n_min=3, n_max=BELL_N_MAX), min_size=1, max_size=8), fields())
def test_one_point_path_equals_the_array_path_bit_for_bit(batch, h):
    """A point evaluated alone and inside an array gives the same bits.

    ``closedform.energies`` and ``analysis.bell_values`` apply the same
    elementwise float64 operations to every point, each correctly rounded
    or ``math.hypot`` alike, so a value cannot depend on its neighbours.
    The one-point functions are the array path on one point.
    """
    n = np.array([p[0] for p in batch])
    m = np.array([p[1] for p in batch])
    ratio = np.array([p[2] / p[3] for p in batch])
    e = closedform.energies(n, m, ratio * h, h)
    bell = analysis.bell_values(n, ratio * h, h)
    for i in range(len(batch)):
        params = ModelParams(int(n[i]), h, float(ratio[i] * h))
        one = closedform.report(params, Partition.last(int(n[i]), int(m[i])))
        alone = [one.e_in, one.e_out_max, one.eta,
                 analysis.bell_value_ground_state(params).b_value]
        within = [e.e_in[i], e.e_out_max[i], e.eta[i], bell[i]]
        assert np.array(alone).tobytes() == np.array(within).tobytes()
