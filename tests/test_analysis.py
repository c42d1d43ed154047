"""Bell values, optimal qubit counts, sweep grids, and the specialization fixtures."""

from __future__ import annotations

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qetsim import analysis as an
from qetsim import closedform as cf
from qetsim.errors import (
    AngleOutOfRange,
    BellUndefinedForN2,
    InvalidRange,
    NonPositiveCoupling,
    NonPositiveRatio,
    QetError,
    UnknownFigure,
)
from qetsim.model import ModelParams, Partition


# ---------------------------------------------------------------------------
# Bell value
# ---------------------------------------------------------------------------

def test_bell_value_frozen_points():
    r = an.bell_value_ground_state(ModelParams(3, 1.0, 1.0))
    assert r.b_value == pytest.approx(math.sqrt(17.0 / 13.0), rel=1e-15)
    assert r.b_value == pytest.approx(1.1435437497937313, rel=1e-15)
    assert r.violates
    assert r.saturation_value == math.sqrt(2.0)

    r8 = an.bell_value_ground_state(ModelParams(8, 1.0, 0.5))
    assert r8.b_value == pytest.approx(1.403292830891247, rel=1e-14)
    assert r8.saturation_value == 8.0


def test_bell_value_product_state_boundary_is_exact():
    r = an.bell_value_ground_state(ModelParams(5, 1.0, 0.0))
    assert r.b_value == 1.0  # hypot puts c = Nh exactly, so b = sqrt(1) exactly
    assert not r.violates


def test_bell_value_saturates_at_strong_coupling():
    for n in (3, 8, 10):
        r = an.bell_value_ground_state(ModelParams(n, 1.0, 1e8))
        assert r.saturation_value - r.b_value <= 1e-6
        assert r.b_value <= r.saturation_value


def test_bell_value_needs_three_qubits():
    with pytest.raises(BellUndefinedForN2):
        an.bell_value_ground_state(ModelParams(2, 1.0, 1.0))
    with pytest.raises(BellUndefinedForN2):
        an.bell_value_ghz_angle(2, 0.2)


@pytest.mark.parametrize("h", [1.0, 0.37, 2.5])
def test_bell_values_equal_the_one_point_path_bit_for_bit(h):
    rng = np.random.default_rng(11)
    n = rng.integers(3, 300, size=400)
    k = h * 10.0 ** rng.uniform(-4.0, 8.0, size=400)
    k[::50] = 0.0
    one = [an.bell_value_ground_state(ModelParams(int(a), h, float(b))).b_value
           for a, b in zip(n, k)]
    assert an.bell_values(n, k, h).tolist() == one
    # Plain floats, one point at a time, in the operation order of the formula.
    for a, b, got in zip(n.tolist(), k.tolist(), one):
        c = math.hypot(a * h, 2.0 * b)
        sx, cz = 2.0 * b / c, a * h / c
        assert got == math.sqrt(math.ldexp(1.0, a - 2) * sx * sx + cz * cz)


@pytest.mark.parametrize("n,k,h,error", [
    ([3, 2, 1], [1.0, -1.0, 1.0], 1.0, "k must be"),  # k < 0 before N = 1
    ([3, 2, 3], [1.0, 1.0, -1.0], 1.0, "needs N >= 3, got N=2"),
    ([3, 1], [1.0, 1.0], 1.0, "need at least 2 qubits"),
    ([3, 3], [1e308, np.inf], 1.0, "k must be"),  # b is finite where 2k overflows
    ([3, 3], [np.nan, 1e308], 1.0, "k must be"),
    ([3], [1.0], 0.0, "h must be"),
    ([3000, 3], [1.0, np.inf], 1.0, "bell is not finite at N=3000"),
])
def test_bell_values_raise_for_the_first_bad_point(n, k, h, error):
    with pytest.raises(QetError, match=error):
        an.bell_values(n, k, h)


@pytest.mark.parametrize("h", [5.5e307, 6e307])
def test_bell_values_where_c_overflows_match_unit_field(h):
    # b depends on N and k/h alone: c = hypot(N h, 2k) overflowing (with
    # N h finite at 5.5e307, and not at 6e307) must not read as b = 0.
    rep = an.bell_value_ground_state(ModelParams(3, h, h))
    assert rep.b_value == an.bell_values([3], [1.0])[0] == 1.1435437497937313
    assert rep.violates


@pytest.mark.parametrize("n", [1026, 1100, 2049, 2051, 3000])
@pytest.mark.parametrize("ratio", [0.0, 1e-3, 1.0, 1e3, 1e8])
def test_bell_values_past_the_power_overflow_match_mpmath(n, ratio):
    # Past N = 1025, 2^(N-2) overflows float64 while b can still be finite.
    with mpmath.workdps(30):
        k = mpmath.mpf(ratio)
        c = mpmath.sqrt(n * n + 4 * k * k)
        want = mpmath.sqrt(mpmath.mpf(2) ** (n - 2) * (2 * k / c) ** 2 + (n / c) ** 2)
        if want >= sys.float_info.max:
            with pytest.raises(InvalidRange, match=f"bell is not finite at N={n}"):
                an.bell_values([n], [ratio])
            return
        got = an.bell_values([n], [ratio])[0]
        assert abs(mpmath.mpf(got) / want - 1) <= 4 * sys.float_info.epsilon


def test_bell_values_keep_a_k_whose_k_over_h_overflows():
    # k/h = 1e460 is not a float, so no unit field can be taken; at the
    # field given, sx = 1 and cz underflows to 0, and b is the saturation.
    assert an.bell_values([3], [1e300], 1e-160)[0] == math.sqrt(2.0)


def test_a_bell_column_checks_its_points_as_bell_values_does():
    # ``grid`` does not validate; the Bell column of an unchecked grid is
    # refused at its first bad point, with the error ``bell_values`` raises.
    points = an.grid([3, 4], [1], [1.0, -1.0], with_bell=True)
    with pytest.raises(QetError, match="k must be finite and >= 0, got -1.0"):
        an.evaluate(points)
    with pytest.raises(QetError, match="k must be finite and >= 0, got -1.0"):
        an.bell_values(points.n, points.ratio)


@pytest.mark.parametrize("ratios, first", [([1.0, -1.0, -2.0], "-1.0"),
                                           ([0.5, math.nan, -1.0], "nan")])
def test_energies_refuse_a_k_that_is_no_coupling_before_evaluating(monkeypatch, ratios,
                                                                   first):
    # A negative k/h once gave the k/h = +1 row, and a nan one "e_in is not
    # finite". Both raise what ModelParams raises, at the first bad point,
    # before any closed form runs.
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated a refused point")

    monkeypatch.setattr(cf, "_ranged", no_evaluation)
    message = f"k must be finite and >= 0, got {first}$"
    with pytest.raises(NonPositiveCoupling, match=message):
        cf.energies(3, 1, ratios)
    with pytest.raises(NonPositiveCoupling, match=message):
        an.evaluate(an.grid([3, 4], [1], ratios))


@pytest.mark.parametrize("h", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_energies_refuse_a_field_that_is_no_coupling_before_evaluating(monkeypatch, h):
    # h = -1 once gave the h = +1 row, and 0, nan and inf an InvalidRange
    # that blamed over- or underflow; now ModelParams's error, before any
    # closed form runs, and ahead of a bad k.
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated a refused point")

    monkeypatch.setattr(cf, "_ranged", no_evaluation)
    for k in (1.0, [1.0, -1.0]):
        with pytest.raises(NonPositiveCoupling, match=f"h must be finite and > 0, got {h}$"):
            cf.energies(3, 1, k, h)


def test_energies_take_an_infinite_k_only_from_a_finite_k_over_h():
    with pytest.raises(NonPositiveCoupling, match="got inf$"):
        cf.energies(3, 1, [1.0, math.inf])
    with pytest.raises(NonPositiveCoupling, match="got -inf$"):
        cf.energies(3, 1, -math.inf)
    # k = 1e10 * 1e300 overflows, from a finite k/h: read in units of h.
    table = an.evaluate(an.grid([3, 5], [1, 2], [1e10]), h=1e300)
    unit = cf.energies(table.n, table.m, 1e10)
    assert np.array_equal(table.eta, unit.eta)
    assert np.array_equal(table.e_in, unit.e_in * 1e300)


def binade_fields():
    """h over every binade from 2^-997 (about 1e-300) to 2^996 (about 1e300)."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(-997, 996))


@settings(max_examples=150, deadline=None)
@given(binade_fields(), st.lists(st.one_of(
    st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)), min_size=1, max_size=6))
@example(1e-160, [0.0, 1e-3, 0.3, 1.0, 7.0, 1e4])
@example(7e300, [0.01, 1.0, 1.4384498882876601e7, 1.5775930613623613e7, 2.5e7])
def test_sweep_bell_column_is_the_bell_table_at_any_field(h, ratios):
    # `sweep --bell` and `bell` print these columns. Both evaluate b from
    # (N, k, h) and the k/h given, through one range rule, and not from the
    # c of the energies, which a point in units of h holds as c times h.
    # The examples are a tiny field, and one where k passes 2^1023.
    n_values = [3, 4, 10, 39, 1100]
    column = an.efficiency_sweep(n_values, [1], ratios, h, with_bell=True).bell
    b = an.bell_table(n_values, ratios, h)[2]
    assert np.array_equal(column.view(np.int64), b.view(np.int64))


def test_bell_table_sorts_dedupes_and_types():
    n, ratio, b, violates, saturation = an.bell_table([4, 3, 4], [1.0, 0.0, 1.0], h=1.5)
    assert n.tolist() == [3, 3, 4, 4] and ratio.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert [c.dtype for c in (n, ratio, b, violates, saturation)] == [
        np.int64, np.float64, np.float64, np.bool_, np.float64]
    assert (b[0], violates[0], saturation[0]) == (1.0, False, math.sqrt(2.0))
    rep = an.bell_value_ground_state(ModelParams(4, 1.5, 1.5))
    assert (b[3], violates[3], saturation[3]) == (
        rep.b_value, rep.violates, rep.saturation_value)


def test_bell_ghz_angle_endpoints_and_range():
    assert an.bell_value_ghz_angle(3, 0.0) == 1.0
    assert an.bell_value_ghz_angle(3, math.pi / 4.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert an.bell_value_ghz_angle(10, math.pi / 4.0) == pytest.approx(16.0, rel=1e-14)
    with pytest.raises(AngleOutOfRange):
        an.bell_value_ghz_angle(3, -0.1)
    with pytest.raises(AngleOutOfRange):
        an.bell_value_ghz_angle(3, 1.0)


@pytest.mark.parametrize("n", [1026, 2049, 3000])
@pytest.mark.parametrize("alpha", [0.0, 1e-300, 1e-3, 0.3, math.pi / 8.0, math.pi / 4.0])
def test_bell_ghz_angle_past_the_power_overflow_matches_mpmath(n, alpha):
    # The angle form goes through the ground-state evaluation: finite
    # wherever b is, InvalidRange where b itself overflows.
    with mpmath.workdps(30):
        a2 = 2 * mpmath.mpf(alpha)
        want = mpmath.sqrt(mpmath.mpf(2) ** (n - 2) * mpmath.sin(a2) ** 2
                           + mpmath.cos(a2) ** 2)
        if want >= sys.float_info.max:
            with pytest.raises(InvalidRange, match=f"bell is not finite at N={n}"):
                an.bell_value_ghz_angle(n, alpha)
            return
        got = an.bell_value_ghz_angle(n, alpha)
        assert abs(mpmath.mpf(got) / want - 1) <= 4 * sys.float_info.epsilon


def test_bell_ground_state_matches_ghz_angle_form():
    for n, k in [(3, 1.0), (4, 0.2), (7, 30.0)]:
        p = ModelParams(n, 1.0, k)
        alpha = 0.5 * math.asin(2.0 * k / p.c)
        assert an.bell_value_ground_state(p).b_value == pytest.approx(
            an.bell_value_ghz_angle(n, alpha), rel=1e-14
        )


def test_bell_value_grows_with_coupling():
    values = [an.bell_value_ground_state(ModelParams(6, 1.0, k)).b_value
              for k in np.logspace(-3, 3, 61)]
    assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Optimal qubit count
# ---------------------------------------------------------------------------

def test_n_opt_frozen_values():
    r = an.n_opt(10.0)
    assert r.n_opt_real == pytest.approx(9.84095901841949, rel=1e-13)
    assert r.n_opt_int == 10
    assert r.eta_at_opt == pytest.approx(0.4196918171640247, rel=1e-13)
    assert r.c_aux == pytest.approx(86.24914232851536, rel=1e-13)

    assert an.n_opt(100.0).n_opt_int == 44
    assert an.n_opt(100.0).n_opt_real == pytest.approx(43.60047804038743, rel=1e-13)
    assert an.n_opt(1000.0).n_opt_int == 201
    assert an.n_opt(1.0).n_opt_int == 3


def test_n_opt_rounding_stays_adjacent():
    for x in (0.3, 1.0, 2.5, 10.0, 47.0, 300.0):
        r = an.n_opt(x)
        assert r.n_opt_int >= 2
        assert abs(r.n_opt_int - r.n_opt_real) <= 1.0


def test_n_opt_agrees_with_exhaustive_scan():
    for x, n_max in [(10.0, 1000), (100.0, 1000), (1000.0, 5000)]:
        best_n, best_eta = an.n_opt_scan(x, n_max=n_max)
        r = an.n_opt(x)
        assert best_n == r.n_opt_int
        assert best_eta == pytest.approx(r.eta_at_opt, rel=1e-14)


def test_scan_efficiency_matches_scalar_closed_form():
    counts = (2, 5, 10, 44, 1000)
    for x in (10.0, 100.0):
        vec = cf.energies(np.array(counts, dtype=float), 1, x).eta
        for count, eta in zip(counts, vec.tolist()):
            assert eta == cf.single_output_efficiency(ModelParams(count, 1.0, x))
        scan_n, scan_eta = an.n_opt_scan(x, n_max=1000)
        assert scan_eta == cf.single_output_efficiency(ModelParams(scan_n, 1.0, x))


def _exhaustive_scan(x, n_max):
    """The scan without its screen: every count through ``closedform.energies``."""
    n = np.arange(2, n_max + 1, dtype=float)
    etas = cf.energies(n, 1, x).eta
    i = int(np.argmax(etas))
    return int(n[i]), float(etas[i])


def _scan_outcome(scan, x, n_max):
    """(count, eta's bits), or the error's class and message."""
    try:
        count, eta = scan(x, n_max)
    except QetError as e:
        return type(e), str(e)
    return count, eta.hex()


@settings(max_examples=300, deadline=None)
@given(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), st.integers(2, 3000))
def test_screened_scan_equals_the_exhaustive_scan(x, n_max):
    assert _scan_outcome(an.n_opt_scan, x, n_max) == _scan_outcome(_exhaustive_scan, x, n_max)


# The verify check's ratios, the pinned ``nopt --scan`` ones, and one whose
# peak (N = 8963) is flat enough that two counts pass the screen.
@pytest.mark.parametrize("x", [10.0, 100.0, 1000.0, 0.5, 3.7, 3e5])
def test_screened_scan_equals_the_exhaustive_scan_at_the_default_bound(x):
    assert (_scan_outcome(an.n_opt_scan, x, 100_000)
            == _scan_outcome(_exhaustive_scan, x, 100_000))


def test_screen_keeps_the_counts_near_a_flat_peak():
    keep = an._near_maximal(np.arange(2, 100_001, dtype=float), 3e5)
    assert (np.flatnonzero(keep) + 2).tolist() == [8963, 8964]


#: tracemalloc peak of one ``n_opt_scan`` per count, at 10^6 counts. Before
#: the screen the scan measured 115 bytes per count at x = 10 and 98 at
#: x = 1e-170, where the screen is skipped; the screened path measures 56.
@pytest.mark.parametrize("x, bytes_per_count", [(10.0, 64), (1e-170, 98)])
def test_scan_peak_memory_per_count(x, bytes_per_count):
    n_max = 1_000_000
    an.n_opt_scan(x, n_max=1000)  # warm-up outside the trace
    tracemalloc.start()
    try:
        an.n_opt_scan(x, n_max=n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 64 KiB for the handful of small arrays and objects beside the columns.
    assert peak <= bytes_per_count * n_max + 65536, peak / n_max


def test_single_output_efficiency_is_unimodal_in_n():
    etas = cf.energies(np.arange(2, 201, dtype=float), 1, 10.0).eta
    d = np.diff(etas)
    peak = int(np.argmax(etas))
    assert np.all(d[:peak] > 0)
    assert np.all(d[peak:] < 0)


def test_n_opt_input_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NonPositiveRatio):
            an.n_opt(bad)
    with pytest.raises(NonPositiveRatio):
        an.n_opt_scan(-2.0)
    with pytest.raises(InvalidRange):
        an.n_opt_scan(10.0, n_max=1)


def test_n_opt_scan_refuses_a_bound_past_its_cap_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    monkeypatch.setattr(an.np, "arange", no_allocation)
    for n_max in (an.SCAN_N_MAX + 1, 2_000_000_000):
        with pytest.raises(InvalidRange, match="n_max"):
            an.n_opt_scan(1.0, n_max=n_max)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_grids_past_their_cap_are_refused_before_they_are_built(monkeypatch):
    cap = an.GRID_POINTS_MAX
    assert len(an.grid([2], [1], np.zeros(cap))) == cap

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    for name in ("repeat", "tile"):
        monkeypatch.setattr(an.np, name, no_allocation)
    monkeypatch.setattr(an, "bell_values", no_allocation)
    # Pairs with m >= N are not counted: 3 pairs here, so cap + 2 points.
    with pytest.raises(InvalidRange, match=f"the grid has {cap + 2} points"):
        an.grid([3, 2], [2, 1, 3], np.zeros((cap + 2) // 3))
    with pytest.raises(InvalidRange, match="the grid has 1001000 points"):
        an.efficiency_sweep(range(2, 1002), range(1, 1001), [1.0, 2.0])
    with pytest.raises(InvalidRange, match="the grid has 701000 points"):
        an.bell_table(range(3, 1003), np.linspace(0.5, 2.0, 701))


def _points(grid):
    return list(zip(grid.n.tolist(), grid.m.tolist(), grid.ratio.tolist()))


def test_sweep_grid_combinatorics():
    grid = an.sweep_grid([3, 4, 5], [1, 2, 3], [1.0])
    assert len(grid) == 8  # (3,3) is dropped: every qubit would be an output
    assert _points(grid) == sorted(_points(grid))
    assert _points(grid)[0] == (3, 1, 1.0)
    assert (3, 3, 1.0) not in _points(grid)
    assert not grid.with_bell
    # Duplicates collapse, input order is irrelevant.
    assert _points(an.sweep_grid([4, 3, 3], [1], [2.0, 0.5])) == _points(
        an.sweep_grid([3, 4], [1], [0.5, 2.0])) == [
        (3, 1, 0.5), (3, 1, 2.0), (4, 1, 0.5), (4, 1, 2.0)]
    assert len(an.sweep_grid([], [1], [1.0])) == 0
    assert len(an.sweep_grid([2], [5], [1.0])) == 0  # no valid split, but 5 could fit larger N


def test_sweep_grid_validation():
    with pytest.raises(InvalidRange):
        an.sweep_grid([1], [1], [1.0])
    with pytest.raises(InvalidRange):
        an.sweep_grid([3], [0], [1.0])
    with pytest.raises(InvalidRange):
        an.sweep_grid([3], [1], [-1.0])
    with pytest.raises(InvalidRange):
        an.sweep_grid([3], [1], [math.inf])
    with pytest.raises(InvalidRange):
        an.sweep_grid([3], [1], [math.nan])
    # k = 0 is the decoupled point that every other command prints; -0.0
    # merges into it and keeps no sign.
    zero = an.sweep_grid([3], [1], [-0.0, 0.0, 1.0]).ratio
    assert zero.tolist() == [0.0, 1.0] and math.copysign(1.0, zero[0]) == 1.0
    with pytest.raises(InvalidRange):
        an.efficiency_sweep([3], [1], [1.0], h=0.0)


@pytest.mark.parametrize("h", [1e-160, 1e-200, 1e-300])
def test_rows_where_h_squared_is_subnormal_are_unit_field_rows_times_h(h):
    # There every point is evaluated in units of h from the k/h given, not
    # from (k/h * h) / h, which can differ from it in the last bit; so E_in
    # and E_out are the h = 1 values times h, and eta and b the h = 1 ones.
    args = (range(3, 40), [1, 2], np.logspace(-2.0, 3.0, 200).tolist())
    tiny, unit = an.efficiency_sweep(*args, h, True), an.efficiency_sweep(*args, 1.0, True)
    for got, want in [(tiny.e_in, unit.e_in * h), (tiny.e_out, unit.e_out * h),
                      (tiny.eta, unit.eta), (tiny.bell, unit.bell)]:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sweep_rows_carry_closed_form_values():
    table = an.efficiency_sweep([3, 4], [1, 2], [0.5, 2.0], h=1.5)
    assert table.n.size == 8
    for n, m, ratio, e_in, e_out, eta in zip(
            table.n.tolist(), table.m.tolist(), table.ratio.tolist(),
            table.e_in.tolist(), table.e_out.tolist(), table.eta.tolist()):
        p = ModelParams(n, 1.5, ratio * 1.5)
        part = Partition.last(n, m)
        assert e_in == cf.input_energy(p, part)
        assert e_out == cf.max_output_energy(p, part)
        assert eta == cf.efficiency(p, part)
        assert eta == pytest.approx(e_out / e_in, rel=1e-14)
    assert np.isnan(table.bell).all()


def test_sweep_row_where_k_overflows():
    # k = (k/h) h overflows: the point is valid, and its row is the one the
    # grid evaluates, as is an ordinary point's.
    for ratio, h in [(1e150, 1e160), (0.5, 2.0)]:
        row = an.sweep_row((3, 1, ratio, False), h)
        grid = an.efficiency_sweep([3], [1], [ratio], h=h)
        assert [row.e_in.item(), row.e_out.item(), row.eta.item()] == [
            grid.e_in.item(), grid.e_out.item(), grid.eta.item()]
    # Every other point is validated as the model validates N, k and h.
    for ratio, h, message in [(math.inf, 1.0, "k must be finite and >= 0, got inf"),
                              (-1.0, 2.0, "k must be finite and >= 0, got -2.0"),
                              (1.0, math.inf, "h must be finite and > 0, got inf"),
                              (1.0, 0.0, "h must be finite and > 0, got 0.0"),
                              (math.nan, 2.0, "k must be finite and >= 0, got nan")]:
        with pytest.raises(QetError, match=message):
            an.sweep_row((3, 1, ratio, False), h)


def test_sweep_bell_column():
    table = an.efficiency_sweep([2, 3], [1], [1.0], with_bell=True)
    assert table.n.tolist() == [2, 3]
    assert math.isnan(table.bell[0])  # undefined below three qubits
    assert table.bell[1] == pytest.approx(1.1435437497937313, rel=1e-14)


def test_efficiency_declines_with_m_at_fixed_ratio():
    etas = an.efficiency_sweep([10], range(1, 10), [10.0]).eta.tolist()
    assert etas == sorted(etas, reverse=True)


# ---------------------------------------------------------------------------
# Figure datasets
# ---------------------------------------------------------------------------

def test_figure_grid_shapes():
    assert len(an.figure_grid("fig2a")) == 45  # 9 output counts x 5 ratios
    assert len(an.figure_grid("fig2b")) == 495
    assert len(an.figure_grid("fig3a")) == 753  # 3 sizes x 251 ratio points
    assert len(an.figure_grid("fig4a")) == 906  # includes the ratio 0 boundary rows
    assert len(an.figure_grid("fig4b")) == 84
    assert len(an.figure_grid("fig7")) == 602
    with pytest.raises(UnknownFigure):
        an.figure_grid("fig1")


def test_ratio_log_grid_density():
    grid = an._ratio_log_grid(-1.0, 4.0)
    assert len(grid) == 251  # 50 points per decade, endpoints included
    assert grid[0] == pytest.approx(0.1, rel=1e-12)
    assert grid[-1] == pytest.approx(1e4, rel=1e-12)
    counts = an._int_log_grid(2, 4.0)
    assert counts[0] == 2 and counts[-1] == 10000
    assert counts == sorted(set(counts))


def test_figure_dataset_large_n_strong_coupling_endpoint():
    table = an.figure_dataset("fig3a")
    last = table.n == 1000
    assert table.ratio[last][-1] == pytest.approx(1e4, rel=1e-12)
    assert table.eta[last][-1] == pytest.approx(0.4995, abs=1e-3)


def test_figure_dataset_three_qubit_asymptotes():
    table = an.figure_dataset("fig7")
    at_tail = table.ratio > 9999.0
    tail = dict(zip(table.m[at_tail].tolist(), table.eta[at_tail].tolist()))
    assert tail[1] == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert tail[2] == pytest.approx(1.0 / 6.0, abs=1e-3)


def test_figure_dataset_bell_boundary_and_monotonicity():
    table = an.figure_dataset("fig4a")
    for n in (3, 8, 10):
        curve = table.n == n
        ratio, bells, eta = table.ratio[curve], table.bell[curve], table.eta[curve]
        assert ratio[0] == 0.0
        assert bells[0] == 1.0
        assert eta[0] == 0.0
        assert np.all(np.diff(bells) >= -1e-12)


def test_figure_dataset_row_count_matches_grid():
    table = an.figure_dataset("fig2a")
    assert table.n.size == 45
    assert np.all(table.n == 10)
    assert set(table.m.tolist()) == set(range(1, 10))


# ---------------------------------------------------------------------------
# Specialization fixtures
# ---------------------------------------------------------------------------

def test_fixture_inventory():
    results = an.specialization_fixture_check()
    assert len(results) == 15
    ids = [r.fixture_id for r in results]
    assert len(set(ids)) == 15
    variants = [r for r in results if r.expected_mismatch]
    assert {r.fixture_id for r in variants} == {
        "four_qubit_two_outputs_extracted_variant",
        "four_qubit_two_outputs_efficiency_variant",
    }
    assert all((r.n_qubits, r.m_outputs) == (4, 2) for r in variants)


@pytest.mark.parametrize("fixture", an._FIXTURES, ids=lambda f: f[0])
def test_fixture_formulas_over_an_array_of_k_keep_each_floats_bits(fixture):
    # The check evaluates each formula once a field over its whole k grid;
    # every element must be what the formula gives on that k as a float.
    formula = fixture[4]
    k = np.concatenate(([0.0], an._FIXTURE_K_GRID,
                        10.0 ** np.random.default_rng(5).uniform(-4.0, 4.0, 40)))
    for h in (*an._FIXTURE_H_GRID, 1e-3, 1e3):
        one_by_one = np.array([float(formula(h, x)) for x in k.tolist()])
        assert np.array_equal(formula(h, k).view(np.int64), one_by_one.view(np.int64))


def test_consistent_fixtures_match_closed_form():
    for r in an.specialization_fixture_check():
        if r.expected_mismatch:
            continue
        assert r.agrees, r.fixture_id
        assert r.max_deviation <= r.tolerance
        assert r.max_deviation <= 1e-13  # observed ~1e-16; keep headroom
        assert r.note == ""


def test_variant_fixtures_disagree_and_say_by_how_much():
    for r in an.specialization_fixture_check():
        if not r.expected_mismatch:
            continue
        assert not r.agrees
        assert r.max_deviation > 1e-2
        assert "follow neither" in r.note
        assert "brute force" in r.note


def test_out_of_float_range_inputs_raise():
    with pytest.raises(InvalidRange, match="x\\*\\*4 overflows"):
        an.n_opt(1e300)
    with pytest.raises(InvalidRange, match="is not finite"):
        an.n_opt_scan(1e200, n_max=100)
    with pytest.raises(InvalidRange, match="bell is not finite at N=3000"):
        an.bell_value_ground_state(ModelParams(3000, 1.0, 1.0))
    # b = 1 at k = 0, but the saturation value 2^((N-2)/2) overflows.
    with pytest.raises(InvalidRange, match="bell saturation is not finite at N=2100"):
        an.bell_value_ground_state(ModelParams(2100, 1.0, 0.0))
