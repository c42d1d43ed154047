"""``floatfmt.g17`` against ``"%.17g" % x``, one value at a time.

Hypothesis draws arbitrary 64-bit patterns; the fixed lists hold the cases
the exact path has to get right or hand to the fallback: powers of ten
with their neighbours one ulp away (where log10 can put the exponent one
off), exact ties (n + 0.25 and n + 0.75 near 1e15, short dyadic
rationals), the 1e16 and 1e-5/1e-4 layout boundaries, signed zeros,
subnormals, nan and inf.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qetsim import analysis, floatfmt


def rendered(values: np.ndarray) -> list[str]:
    """g17's rows as text, the NUL padding dropped."""
    return [row.tobytes().rstrip(b"\0").decode() for row in floatfmt.g17(values)]


def expected(values: np.ndarray) -> list[str]:
    return ["%.17g" % v for v in values.tolist()]


def assert_matches(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got, want = rendered(values), expected(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


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


def test_exact_ties_go_to_the_fallback_and_print_as_percent_g():
    rng = np.random.default_rng(7)
    whole = np.floor(rng.uniform(1e14, 2.2e15, 2000))
    ties = np.concatenate([whole + 0.25, whole + 0.75, whole + 0.5])
    # odd / 2^18 in [0.1, 1) has 18 fraction bits: x 10^17 ends in .5.
    dyadic = np.arange(26215, 262144, 97) / 2.0 ** 18
    assert_matches(np.concatenate([ties, dyadic, -ties]))
    exact, _, _ = floatfmt._decimal(np.array([2.0 ** 50 + 0.25, 26215 / 2.0 ** 18]))
    assert not exact.any()


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


def test_empty_input():
    assert floatfmt.g17(np.array([])).shape == (0, 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_benchmark_sweep_needs_no_fallback(seed):
    # The CSV sweep of the perfbench sweep workload: every value takes the
    # exact path, so a change that sent them all to "%.17g" would show here.
    rng = np.random.default_rng(seed)
    ratios = sorted(set((10.0 ** rng.uniform(-2.0, 4.0, 301)).tolist()))
    table = analysis.efficiency_sweep(range(3, 203), range(1, 4), ratios)
    for column in (table.ratio, table.e_in, table.e_out, table.eta):
        exact, _, _ = floatfmt._decimal(np.abs(column))
        assert exact.all()
