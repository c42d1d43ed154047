"""``floatfmt.g17`` against ``"%.17g" % x`` and ``floatfmt.shortest``
against ``repr(x)``, one value at a time.

Hypothesis draws arbitrary 64-bit patterns; the fixed lists hold the cases
the exact path has to get right or hand to the fallback: powers of ten and
of two with their neighbours one ulp away (where log10 can put the exponent
one off, and where the rounding interval is narrower below), exact ties
(n + 0.25 and n + 0.75 near 1e15, short dyadic rationals, and 16-digit
halfway cases for ``repr``), a near tie that is not exact, the 1e16 and
1e-5/1e-4 layout boundaries, the e+XX and e+XXX forms, short decimals,
signed zeros, subnormals, nan and inf.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qetsim import analysis, floatfmt


def rendered(values: np.ndarray, formatter=floatfmt.g17) -> list[str]:
    """The formatter's rows as text, the NUL padding dropped."""
    return [row.tobytes().rstrip(b"\0").decode() for row in formatter(values)]


#: Each formatter's reference, one value at a time.
REFERENCE = {floatfmt.g17: "%.17g".__mod__, floatfmt.shortest: repr}


def assert_matches(values, formatter=floatfmt.g17) -> None:
    values = np.asarray(values, dtype=np.float64)
    got = rendered(values, formatter)
    want = [REFERENCE[formatter](v) for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def assert_shortest_matches(values) -> None:
    assert_matches(values, floatfmt.shortest)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_arbitrary_bit_patterns(bits):
    assert_matches(np.array(bits, dtype=np.uint64).view(np.float64))


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    both = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([both, -both])


def test_powers_of_ten_and_their_neighbours():
    assert_matches(with_neighbours([float(f"1e{p}") for p in range(-323, 23)]))


def test_exact_ties_round_half_to_even_as_percent_g():
    rng = np.random.default_rng(7)
    whole = np.floor(rng.uniform(1e14, 2.2e15, 2000))
    ties = np.concatenate([whole + 0.25, whole + 0.75, whole + 0.5])
    # odd / 2^18 in [0.1, 1) has 18 fraction bits: x 10^17 ends in .5.
    dyadic = np.arange(26215, 262144, 97) / 2.0 ** 18
    assert_matches(np.concatenate([ties, dyadic, -ties]))
    assert_shortest_matches(np.concatenate([ties, dyadic, -ties]))
    # The 2-adic order of x 10^(16-k) shows these are ties: they take the
    # exact path.
    exact, _, _ = floatfmt._decimal(np.array([2.0 ** 50 + 0.25, 26215 / 2.0 ** 18]))
    assert exact.all()


def near_tie() -> float:
    """A double x in [1e-5, 1e-4) whose D = x 10^21 is 1/2 + 2^-48 past a
    whole number: too near a tie for the double-double to decide, and not
    one."""
    bits = 48
    residue = (2 ** (bits - 1) + 1) * pow(5 ** 21, -1, 2 ** bits) % 2 ** bits
    mant = residue + 2 ** bits * -(-(int(1e-5 * 2 ** 69) - residue) // 2 ** bits)
    assert 2 ** 52 <= mant < 2 ** 53
    return mant / 2.0 ** 69


def test_near_ties_that_are_not_exact_go_to_the_fallback():
    x = near_tie()
    exact, _, k = floatfmt._decimal(np.array([x]))
    assert k[0] == -5 and not exact.any()
    assert_matches([x, -x])
    assert_shortest_matches([x, -x])


def test_short_dyadic_rationals():
    rng = np.random.default_rng(11)
    assert_matches(rng.integers(1, 2**20, 20000) / 2.0 ** rng.integers(0, 70, 20000))


def test_layout_boundaries():
    assert_matches(with_neighbours([
        1e16, 9999999999999998.0, 1e15, 1e-5, 1e-4, 1e-3, 1.0, 0.1,
        1e-10, 1e-99, 1e-100, 9.9999999999999998e-267, 1.5e-5, 1.5e-4, 123456.5,
    ]))


def test_zeros_subnormals_and_non_finite():
    tiny = float(np.finfo(np.float64).tiny)
    assert_matches([0.0, -0.0, 5e-324, -5e-324, 1e-310, tiny, -tiny,
                    np.nextafter(tiny, 0.0), math.nan, -math.nan, math.inf, -math.inf,
                    1.7976931348623157e308, -1e300, 1e17, 9.2233720368547758e18])


def test_log_uniform_values_of_both_signs():
    rng = np.random.default_rng(3)
    values = 10.0 ** rng.uniform(-300, 20, 40000)
    assert_matches(np.concatenate([values, -values]))


def test_exponent_forms_up_to_the_largest_double():
    rng = np.random.default_rng(5)
    values = 10.0 ** rng.uniform(15, 308.25, 40000)
    assert_matches(np.concatenate([values, -values]))
    assert_matches(with_neighbours([float(f"1e{p}") for p in range(16, 309)]))
    assert_matches(with_neighbours([2.0 ** 1000, 9.999999999999999e99]))
    largest = 1.7976931348623157e308
    assert_matches([largest, -largest, np.nextafter(largest, 0.0)])


def test_empty_input():
    assert floatfmt.g17(np.array([])).shape == (0, 0)
    assert floatfmt.shortest(np.array([])).shape == (0, 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_benchmark_sweep_needs_no_fallback(seed):
    # The CSV sweep of the perfbench sweep workload, with the Bell column of
    # the same grid: every value takes the exact path, so a change that sent
    # them all to "%.17g" would show here. Bell values pass 1e16 from about
    # N = 108 and reach 1e30.
    rng = np.random.default_rng(seed)
    ratios = sorted(set((10.0 ** rng.uniform(-2.0, 4.0, 301)).tolist()))
    table = analysis.efficiency_sweep(range(3, 203), range(1, 4), ratios, with_bell=True)
    assert table.bell.max() > 1e29
    for column in (table.ratio, table.e_in, table.e_out, table.eta, table.bell):
        exact, _, _ = floatfmt._decimal(np.abs(column))
        assert exact.all()


@pytest.mark.parametrize("seed", [1, 2])
def test_the_benchmark_json_sweep_needs_no_fallback(seed):
    # The JSON sweep of the perfbench sweep workload: N 3-69, m 1-3 and 100
    # ratios, with Bell values. Every float takes repr's exact path.
    rng = np.random.default_rng(seed)
    ratios = sorted(set((10.0 ** rng.uniform(-2.0, 4.0, 100)).tolist()))
    table = analysis.efficiency_sweep(range(3, 70), range(1, 4), ratios, with_bell=True)
    for column in (table.ratio, table.e_in, table.e_out, table.eta, table.bell):
        exact, _, _ = floatfmt._shortest_decimal(np.abs(column))
        assert exact.all()


# ``floatfmt.shortest`` against ``repr``.

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_shortest_arbitrary_bit_patterns(bits):
    assert_shortest_matches(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
def test_shortest_arbitrary_floats(values):
    # Hypothesis's floats favour short decimals, integers and bounds.
    assert_shortest_matches(values)


def test_shortest_powers_of_ten_and_two_and_their_neighbours():
    assert_shortest_matches(with_neighbours([float(f"1e{p}") for p in range(-323, 309)]))
    assert_shortest_matches(with_neighbours([2.0 ** p for p in range(-1074, 1024)]))
    # At a power of two the interval is narrower below; those go to the
    # fallback, their neighbours do not.
    exact, _, _ = floatfmt._shortest_decimal(np.array([0.5, 1.0, 2.0 ** 60]))
    assert not exact.any()


def test_shortest_layout_boundaries():
    assert_shortest_matches(with_neighbours([
        1e16, 9999999999999998.0, 1e15, 999999999999999.9, 123456789012345.6,
        1e-5, 1e-4, 9.99999999999999e-5, 1.5e-5, 1.5e-4, 1e-3, 1.0, 0.1, 10.0,
        1e22, 1e23, 1e100, 1e-100, 1e-99, 2.2250738585072014e-308,
    ]))
    largest = 1.7976931348623157e308
    assert_shortest_matches([largest, -largest, np.nextafter(largest, 0.0)])


def test_shortest_short_decimals():
    rng = np.random.default_rng(13)
    places = rng.integers(0, 12, 20000).tolist()
    values = [float("%.*f" % (p, v)) for p, v in zip(places, rng.uniform(0, 1e4, 20000).tolist())]
    values += [float(f"{d}e{p}") for d in range(1, 100) for p in range(-30, 31, 3)]
    assert_shortest_matches(np.concatenate([values, np.negative(values)]))


def test_shortest_halfway_cases_at_16_digits():
    # Integers past 2^53 step by 2, 4 or 8: those ending in 5 sit halfway
    # between two 16-digit decimals, and those a quarter or an eighth of the
    # step from one are at an end of the interval.
    rng = np.random.default_rng(17)
    start = rng.integers(2**53 // 10, 10**16 // 10, 20000) * 10
    values = np.concatenate([start + offset for offset in (2, 4, 5, 6, 8, 12, 15, 16, 20)])
    assert_shortest_matches(values.astype(np.float64))
    assert_shortest_matches(values.astype(np.float64) * 1e3)


def test_shortest_zeros_subnormals_and_non_finite():
    tiny = float(np.finfo(np.float64).tiny)
    assert_shortest_matches([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.5e-320, tiny, -tiny,
                             np.nextafter(tiny, 0.0), math.nan, math.inf, -math.inf])


def test_shortest_log_uniform_values_of_both_signs():
    rng = np.random.default_rng(19)
    values = 10.0 ** rng.uniform(-307, 308, 40000)
    assert_shortest_matches(np.concatenate([values, -values]))
