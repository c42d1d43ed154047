"""Closed-form energies: frozen spot values, optimality, and numerical stability.

Spot values were frozen from the brute-force statevector engine (which agrees
with these expressions to ~1e-13 relative, see test_protocol_oracle) and from
exact algebra where c or tan(2 theta) happens to be rational.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qetsim import closedform as cf
from qetsim.errors import InvalidRange
from qetsim.model import ModelParams, Partition


def setup_module():
    mp.mp.dps = 50


def _case(n, m, h=1.0, k=1.0):
    return ModelParams(n, h, k), Partition.last(n, m)


def test_input_energy_values():
    p, part = _case(3, 1)
    assert cf.input_energy(p, part) == pytest.approx(6.0 / math.sqrt(13.0), rel=1e-15)
    p, part = _case(3, 2)
    assert cf.input_energy(p, part) == pytest.approx(3.0 / math.sqrt(13.0), rel=1e-15)
    p, part = _case(4, 1)
    assert cf.input_energy(p, part) == pytest.approx(12.0 / math.sqrt(20.0), rel=1e-15)
    # Independent of which qubits are outputs, only of how many.
    p = ModelParams(5, 1.0, 2.0)
    assert cf.input_energy(p, Partition(5, frozenset({1, 3}))) == cf.input_energy(
        p, Partition.last(5, 2)
    )


def test_optimal_theta_values():
    p, part = _case(3, 1)  # A = 7, B = 4
    t = cf.optimal_theta(p, part)
    assert t.theta == pytest.approx(0.5 * math.atan2(4.0, 7.0), abs=1e-15)
    assert t.cos_2theta == pytest.approx(7.0 / math.sqrt(65.0), rel=1e-15)
    assert t.sin_2theta == pytest.approx(4.0 / math.sqrt(65.0), rel=1e-15)

    p, part = _case(3, 2)  # A = 10, B = 2
    assert cf.optimal_theta(p, part).cos_2theta == pytest.approx(5.0 / math.sqrt(26.0), rel=1e-15)

    p, part = _case(4, 1)  # A = 8, B = 6: a 3-4-5 angle, exact in floats
    t = cf.optimal_theta(p, part)
    assert t.cos_2theta == 0.8
    assert t.sin_2theta == 0.6


def test_theta_choice_invariants():
    for a, b in [(7.0, 4.0), (1.0, 0.0), (0.0, 3.0), (1e300, 1e300), (1e-300, 2e-300)]:
        t = cf.ThetaChoice.from_components(a, b)
        assert 0.0 <= t.theta <= math.pi / 4.0 + 1e-15
        assert t.cos_2theta**2 + t.sin_2theta**2 == pytest.approx(1.0, abs=1e-15)
        assert math.cos(2.0 * t.theta) == pytest.approx(t.cos_2theta, abs=1e-15)
    assert cf.ThetaChoice.from_components(0.0, 0.0) == cf.ThetaChoice(0.0, 1.0, 0.0)


def test_output_energy_curve_shape():
    p, part = _case(3, 1)
    assert cf.output_energy_at_theta(p, part, 0.0) == 0.0
    # Worst angle pi/2: E = -2A/c.
    assert cf.output_energy_at_theta(p, part, math.pi / 2.0) == pytest.approx(
        -14.0 / math.sqrt(13.0), rel=1e-14
    )
    p, part = _case(3, 2)
    assert cf.output_energy_at_theta(p, part, math.pi / 4.0) == pytest.approx(
        -8.0 / math.sqrt(13.0), rel=1e-14
    )
    # Period pi in theta.
    for theta in (0.3, 1.1):
        assert cf.output_energy_at_theta(p, part, theta + math.pi) == pytest.approx(
            cf.output_energy_at_theta(p, part, theta), abs=1e-14
        )


def test_max_output_energy_frozen_values():
    p, part = _case(3, 1)
    assert cf.max_output_energy(p, part) == pytest.approx(0.29461729071148773, rel=1e-15)
    assert cf.max_output_energy(p, part) == pytest.approx(
        (math.sqrt(65.0) - 7.0) / math.sqrt(13.0), rel=1e-14
    )
    p, part = _case(3, 2)
    assert cf.max_output_energy(p, part) == pytest.approx(
        (math.sqrt(104.0) - 10.0) / math.sqrt(13.0), rel=1e-13
    )
    p, part = _case(4, 1)  # D = hypot(8, 6) = 10 exactly
    assert cf.max_output_energy(p, part) == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-15)
    assert cf.efficiency(p, part) == pytest.approx(1.0 / 6.0, abs=1e-16)


def test_efficiency_frozen_values():
    p, part = _case(3, 1)
    assert cf.efficiency(p, part) == pytest.approx(0.17704295804975825, rel=1e-15)
    assert cf.efficiency(p, part) == pytest.approx((math.sqrt(65.0) - 7.0) / 6.0, rel=1e-14)
    p, part = _case(4, 2)
    assert cf.efficiency(p, part) == pytest.approx(0.08113883008418978, rel=1e-15)


def test_report_bundles_the_same_numbers():
    p, part = _case(5, 2, h=0.7, k=3.0)
    r = cf.report(p, part)
    assert r.e_in == cf.input_energy(p, part)
    assert r.e_out_max == cf.max_output_energy(p, part)
    assert r.theta_opt == cf.optimal_theta(p, part)
    assert r.eta == cf.efficiency(p, part)
    assert r.eta == r.e_out_max / r.e_in


def test_single_output_alias():
    p = ModelParams(7, 1.0, 2.5)
    assert cf.single_output_efficiency(p) == cf.efficiency(p, Partition.last(7, 1))


def test_decoupled_limit_is_identically_zero():
    p = ModelParams(4, 1.0, 0.0)
    part = Partition.last(4, 1)
    assert cf.max_output_energy(p, part) == 0.0
    assert cf.efficiency(p, part) == 0.0
    t = cf.optimal_theta(p, part)
    assert (t.theta, t.cos_2theta, t.sin_2theta) == (0.0, 1.0, 0.0)
    assert cf.input_energy(p, part) > 0.0  # measurement still deposits energy


@pytest.mark.parametrize("n,m,k", [(3, 1, 1.0), (4, 3, 0.1), (7, 2, 10.0), (10, 5, 1e6)])
def test_optimal_theta_beats_dense_angle_scan(n, m, k):
    p, part = ModelParams(n, 1.0, k), Partition.last(n, m)
    best = cf.max_output_energy(p, part)
    t = cf.optimal_theta(p, part)
    assert cf.output_energy_at_theta(p, part, t.theta) == pytest.approx(best, rel=1e-12)
    thetas = np.linspace(0.0, math.pi, 10_000, endpoint=False)
    values = [cf.output_energy_at_theta(p, part, th) for th in thetas]
    assert max(values) <= best + 1e-12 * max(1.0, abs(best))


def test_optimal_theta_agrees_with_scipy_maximizer():
    for n, m, k in [(3, 1, 1.0), (6, 2, 0.3), (4, 1, 20.0)]:
        p, part = ModelParams(n, 1.0, k), Partition.last(n, m)
        res = minimize_scalar(
            lambda th: -cf.output_energy_at_theta(p, part, th),
            bounds=(0.0, math.pi / 2.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert res.x == pytest.approx(cf.optimal_theta(p, part).theta, abs=1e-8)


def _mp_report(n, m, h, k):
    """All arithmetic in mpmath; float inputs promoted before any operation."""
    n_mp, h_mp, k_mp = mp.mpf(n), mp.mpf(h), mp.mpf(k)
    c = mp.sqrt((n_mp * h_mp) ** 2 + 4 * k_mp**2)
    a = n_mp * m * h_mp**2 + 4 * k_mp**2
    b = 2 * (n_mp - m) * h_mp * k_mp
    e_out = (a / c) * (mp.sqrt(1 + (b / a) ** 2) - 1)
    e_in = (n_mp - m) * n_mp * h_mp**2 / c
    return e_out, e_out / e_in


@pytest.mark.parametrize("ratio", [1e4, 1e6, 1e8, 1e10])
def test_strong_coupling_stability(ratio):
    # B/A ~ (N-m) h / (2 k m) is tiny here; the naive sqrt(1+r^2)-1 in float64
    # keeps at most a couple of digits while the guarded form stays at ~1e-16.
    p, part = _case(10, 1, k=ratio)
    e_out_mp, eta_mp = _mp_report(10, 1, 1.0, ratio)
    stable = cf.max_output_energy(p, part)
    assert float(abs(stable - e_out_mp) / e_out_mp) < 1e-13
    assert float(abs(cf.efficiency(p, part) - eta_mp)) < 1e-13

    _, a, b = cf._cab(p.h, p.k, 10, 1)
    r = b / a
    naive = (a / p.c) * (math.sqrt(1.0 + r * r) - 1.0)
    naive_err = float(abs(naive - e_out_mp) / e_out_mp)
    assert naive_err > 1e-10  # this is the loss the guarded branch exists to avoid


def test_stable_gain_matches_high_precision_everywhere():
    for r in np.logspace(-12, 2, 29):
        expected = mp.sqrt(1 + mp.mpf(r) ** 2) - 1
        assert float(abs(cf._sqrt1pr2m1(float(r)) - expected) / expected) < 1e-15


def test_efficiency_declines_with_more_outputs_at_strong_coupling():
    for n in (10, 100):
        p = ModelParams(n, 1.0, float(n))
        etas = [cf.efficiency(p, Partition.last(n, m)) for m in range(1, n)]
        assert all(x > y for x, y in zip(etas, etas[1:]))


def test_bounds_on_grid():
    for n in range(2, 13):
        for m in (1, n - 1):
            for ratio in (0.1, 1.0, 10.0, 1e4):
                p, part = ModelParams(n, 1.0, ratio), Partition.last(n, m)
                e_in = cf.input_energy(p, part)
                e_out = cf.max_output_energy(p, part)
                eta = cf.efficiency(p, part)
                assert e_in > 0.0
                assert e_out > 0.0
                assert 0.0 < eta < 0.5
                assert eta < cf.asymptotic_efficiency(p, part) + 1e-15


def test_asymptotic_efficiency_values():
    assert cf.asymptotic_efficiency(*_case(10, 1)) == 0.45
    assert cf.asymptotic_efficiency(*_case(100, 1)) == 0.495
    assert cf.asymptotic_efficiency(*_case(1000, 1)) == 0.4995
    assert cf.asymptotic_efficiency(*_case(2, 1)) == 0.25
    assert cf.asymptotic_efficiency(*_case(3, 2)) == pytest.approx(1.0 / 6.0, abs=1e-16)
    # The finite-ratio efficiency approaches the limit from below.
    p, part = _case(10, 1, k=1e8)
    assert cf.efficiency(p, part) == pytest.approx(0.45, abs=1e-15)
    assert cf.efficiency(p, part) <= 0.45


def test_points_beyond_float_range_raise_and_name_the_quantity():
    part = Partition.last(3, 1)
    with pytest.raises(InvalidRange, match="e_out is not finite"):
        cf.efficiency(ModelParams(3, 1.0, 1e200), part)
    with pytest.raises(InvalidRange, match="eta is not finite"):
        cf.report(ModelParams(3, 1e-150, 1e150), part)  # E_in ~ 3e-450 underflows
    with pytest.raises(InvalidRange, match=r"N=3, m=1, k/h=1e\+300"):
        cf.energies([3.0, 3.0], 1, [1.0, 1e300])
    # A nonzero energy below the normal range has lost digits.
    with pytest.raises(InvalidRange, match="e_in is subnormal at N=3, m=1, k/h=1, h="):
        cf.input_energy(ModelParams(3, 1e-320, 1e-320), part)
    with pytest.raises(InvalidRange, match=r"e_out is subnormal at N=8, m=1, k/h=1e-160"):
        cf.energies([3.0, 8.0], 1, [1.0, 1e-160])
    # k = 0 is the decoupled limit, not an overflow: eta is exactly 0, and an
    # exact-zero E_out is not subnormal.
    assert cf.energies([3.0, 8.0], 1, 0.0).eta.tolist() == [0.0, 0.0]
    assert cf.energies(3.0, 1, 0.0, 1e-300).e_out_max.tolist() == [0.0]


@pytest.mark.parametrize("h", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("n, m, ratio", [(3, 1, 1.0), (7, 3, 0.01), (40, 1, 100.0)])
def test_tiny_field_matches_high_precision(h, n, m, ratio):
    # h^2 is subnormal here; the closed forms are evaluated in units of h.
    p, part = ModelParams(n, h, ratio * h), Partition.last(n, m)
    n_mp, h_mp, k_mp = mp.mpf(n), mp.mpf(h), mp.mpf(p.k)
    c = mp.sqrt((n_mp * h_mp) ** 2 + 4 * k_mp**2)
    a = n_mp * m * h_mp**2 + 4 * k_mp**2
    b = 2 * (n_mp - m) * h_mp * k_mp
    e_in = (n_mp - m) * n_mp * h_mp**2 / c
    e_out = (a / c) * (mp.sqrt(1 + (b / a) ** 2) - 1)
    theta = mp.atan2(b, a) / 2
    rep = cf.report(p, part)
    for got, want in [(rep.e_in, e_in), (rep.e_out_max, e_out), (rep.eta, e_out / e_in),
                      (rep.theta_opt.theta, theta),
                      (cf.output_energy_at_theta(p, part, rep.theta_opt.theta), e_out)]:
        assert float(abs(got - want) / want) < 1e-13


def _float_reference(n, m, h, k):
    """The closed forms in Python floats, one point at a time."""
    c = math.hypot(n * h, 2.0 * k)
    a = n * m * h * h + 4.0 * k * k
    b = 2.0 * (n - m) * h * k
    e_in = (n - m) * n * h * h / c
    e_out = 0.0
    if b != 0.0:
        r = b / a
        gain = (r * r / (math.sqrt(1.0 + r * r) + 1.0) if r < 1.0
                else math.hypot(1.0, r) - 1.0)
        e_out = (a / c) * gain
    return c, e_in, e_out, 0.0 if k == 0.0 else e_out / e_in


def test_array_path_equals_float_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    n = rng.integers(2, 300, 2000)
    m = np.minimum(rng.integers(1, 300, 2000), n - 1)
    ratio = 10.0 ** rng.uniform(-3.0, 6.0, 2000)
    ratio[:20] = 0.0
    for h in (1.0, 0.37, 2.5, 1e-3):
        k = ratio * h
        e = cf.energies(n, m, k, h)
        got = list(zip(e.c.tolist(), e.e_in.tolist(), e.e_out_max.tolist(), e.eta.tolist()))
        want = [_float_reference(*point, h, kk)
                for point, kk in zip(zip(n.tolist(), m.tolist()), k.tolist())]
        assert got == want
    p, part = ModelParams(7, 0.37, 2.0 * 0.37), Partition.last(7, 3)
    rep = cf.report(p, part)
    assert (rep.e_in, rep.e_out_max, rep.eta) == _float_reference(7, 3, 0.37, 2.0 * 0.37)[1:]


@pytest.mark.parametrize("h, n, m, ratio", [
    *((h, n, m, ratio) for h in (1e155, 1e200, 1e306)
      for n, m, ratio in [(3, 1, 1.0), (7, 3, 0.01), (40, 1, 100.0)]),
    (1e308, 3, 1, 1.0), (6e307, 3, 2, 0.5),
])
def test_large_field_matches_high_precision(h, n, m, ratio):
    # A and B (and, near the top of the range, N h and c) overflow at the
    # plain path here; those points are evaluated in units of h. Before,
    # they raised "e_in is not finite" although every energy is finite.
    p, part = ModelParams(n, h, ratio * h), Partition.last(n, m)
    c = mp.sqrt(n**2 + 4 * mp.mpf(p.k / h) ** 2)
    a = n * m + 4 * mp.mpf(p.k / h) ** 2
    b = 2 * (n - m) * mp.mpf(p.k / h)
    e_in = (n - m) * n / c * h
    e_out = (a / c) * (mp.sqrt(1 + (b / a) ** 2) - 1) * h
    rep = cf.report(p, part)
    for got, want in [(rep.e_in, e_in), (rep.e_out_max, e_out), (rep.eta, e_out / e_in),
                      (rep.theta_opt.theta, mp.atan2(b, a) / 2),
                      (cf.output_energy_at_theta(p, part, rep.theta_opt.theta), e_out)]:
        assert math.isfinite(got) and float(abs(got - want) / want) < 1e-13


def test_only_points_that_overflow_take_the_unit_field():
    # A row that is finite at the plain path keeps its bits next to one that
    # overflows; the overflowing one is the unit-field row scaled by h.
    h = 1e200
    mixed = cf.energies([3.0, 3.0], 1, [1e-5 * h, h], h)
    alone = cf.energies(3.0, 1, 1e-5 * h, h)
    unit = cf.energies(3.0, 1, 1.0)
    assert mixed.e_in[0] == alone.e_in[0] and mixed.eta[0] == alone.eta[0]
    assert mixed.e_in[1] == unit.e_in[0] * h and mixed.eta[1] == unit.eta[0]
    # Where the scaled value is not finite either, the error names the k/h
    # the caller gave, not k = ratio * h, which overflowed.
    with pytest.raises(InvalidRange, match=r"e_out is not finite at N=3, m=1, k/h=1e\+300, "
                                           r"h=1e\+10"):
        with np.errstate(over="ignore"):
            cf._energies(3.0, 1, np.array([1e300]) * 1e10, 1e10, [1e300])


def test_overflowed_c_takes_the_unit_field():
    # N h and 2k are finite here but their hypot c is not; the plain path
    # would read 2k/c = Nh/c = 0. The point is the unit-field one scaled by h.
    h = 5.5e307
    big, unit = cf.energies(3.0, 1, h, h), cf.energies(3.0, 1, 1.0)
    assert big.e_in[0] == unit.e_in[0] * h and big.eta[0] == unit.eta[0]
    p, part = ModelParams(3, h, h), Partition.last(3, 1)
    assert cf.optimal_theta(p, part) == cf.optimal_theta(ModelParams(3, 1.0, 1.0), part)
