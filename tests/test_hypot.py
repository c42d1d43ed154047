"""``closedform._hypot`` over arrays against ``math.hypot``, bit for bit.

Emitted datasets are pinned byte for byte, and their c = hypot(Nh, 2k) and
sqrt(1 + r^2) - 1 were ``math.hypot``'s bits before the closed forms ran
as array work. The array path ports CPython's ``vector_norm`` and leaves to
``math.hypot`` the elements near a rounding tie and those with an input
that is 0, subnormal, inf or nan; arrays shorter than ``HYPOT_PORT_MIN``
take ``math.hypot`` throughout.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qetsim import closedform
from qetsim.closedform import HYPOT_BLOCK, HYPOT_PORT_MIN

SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.0 ** -1023,
           sys.float_info.min, sys.float_info.max)

#: Both sides of the crossover and of a block's end.
LENGTHS = (1, 2, HYPOT_PORT_MIN - 1, HYPOT_PORT_MIN, HYPOT_BLOCK - 1,
           HYPOT_BLOCK + 1, 2 * HYPOT_BLOCK + 3)

#: The interpreter's own, kept where tests patch ``math.hypot``.
_MATH_HYPOT = math.hypot

#: Largest p with p^2 < 2^53: p^2 - q^2 and 2pq are doubles.
P_MAX = 94_906_265


def _math_hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])


def _assert_same_bits(got: np.ndarray, want: np.ndarray):
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same)
    assert bad.size == 0, (bad.size, got[bad[:3]], want[bad[:3]])


def _binade_floats():
    """A float of either sign from any binade, the subnormal and the top
    one (where a hypot overflows) among them."""
    return st.builds(lambda f, e, s: s * math.ldexp(f, e),
                     st.floats(0.5, 1.0, exclude_max=True), st.integers(-1075, 1024),
                     st.sampled_from((1.0, -1.0)))


@st.composite
def _pythagorean(draw):
    """(p^2 - q^2, 2pq) times 2^e, either way round: the hypot (p^2 + q^2)
    times 2^e is a double, or with 54 bits the tie between two."""
    p = draw(st.integers(2, P_MAX))
    q = draw(st.integers(1, p - 1))
    e = draw(st.integers(-1100, 960))
    a, b = math.ldexp(p * p - q * q, e), math.ldexp(2 * p * q, e)
    return (a, b) if draw(st.booleans()) else (b, a)


def _pairs():
    values = st.one_of(_binade_floats(), st.sampled_from(SPECIAL), st.floats())
    top = st.floats(0.5, 1.0, exclude_max=True).map(lambda f: math.ldexp(f, 1024))
    return st.one_of(st.tuples(values, values), values.map(lambda v: (v, v)),
                     st.tuples(top, top), _pythagorean())


@settings(max_examples=120, deadline=None)
@given(st.lists(_pairs(), min_size=1, max_size=40), st.sampled_from(LENGTHS),
       st.integers(0, 39))
def test_array_hypot_is_math_hypot_bit_for_bit(pairs, length, shift):
    # The drawn pairs, repeated to the length and shifted, so that each
    # lands at several places in a block and on both sides of its ends.
    at = (np.arange(length) + shift) % len(pairs)
    x, y = np.array(pairs, dtype=float)[at].T.copy()
    _assert_same_bits(closedform._hypot(x, y), _math_hypot(x, y))


def _across_binades(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    """Seeded pairs of either sign over every binade; in half of them y is
    within 2^30 of x, where both squares count."""
    def draw(exponents):
        signs = rng.choice((-1.0, 1.0), count)
        return signs * np.ldexp(rng.uniform(0.5, 1.0, count), exponents)

    with np.errstate(over="ignore"):
        x = draw(rng.integers(-1075, 1025, count))
        near = np.frexp(x)[1] + rng.integers(-30, 31, count)
        y = np.where(np.arange(count) % 2 == 0, draw(near),
                     draw(rng.integers(-1075, 1025, count)))
    return x, y


def test_a_million_seeded_pairs_across_binades():
    x, y = _across_binades(np.random.default_rng(24), 1_000_000)
    _assert_same_bits(closedform._hypot(x, y), _math_hypot(x, y))


def test_sqrt1pr2m1_is_math_hypot_minus_one_from_r_1_up():
    rng = np.random.default_rng(7)
    r = np.ldexp(rng.uniform(0.5, 1.0, 3 * HYPOT_BLOCK), rng.integers(1, 1025, 3 * HYPOT_BLOCK))
    r[:4] = (1.0, np.nextafter(1.0, 2.0), sys.float_info.max, math.inf)
    for length in (1, HYPOT_PORT_MIN - 1, r.size):
        want = np.array([math.hypot(1.0, v) - 1.0 for v in r[:length].tolist()])
        _assert_same_bits(np.atleast_1d(closedform._sqrt1pr2m1(r[:length])), want)


def _split(v: float) -> tuple[float, float]:
    t = v * 134217729.0
    hi = t - (t - v)
    return hi, v - hi


def _exact_square(v: float) -> tuple[float, float]:
    """v^2 as the pair (z, zz) of Dekker's product: z + zz is exact."""
    hi, lo = _split(v)
    p, q = hi * hi, hi * lo + lo * hi
    z = p + q
    return z, p - z + q + lo * lo


def _pair_accumulated_hypot(x: float, y: float) -> float:
    """``vector_norm`` as CPython releases that keep each square as one
    exact pair accumulate it, with two error sums where this port keeps
    three: an interpreter whose ``math.hypot`` rounds some ties the other
    way."""
    x, y = abs(x), abs(y)
    if not (min(x, y) >= sys.float_info.min and max(x, y) <= sys.float_info.max):
        return _MATH_HYPOT(x, y)
    scale = math.ldexp(1.0, -math.frexp(max(x, y))[1])
    total, frac1, frac2 = 1.0, 0.0, 0.0

    def add(hi: float, lo: float):
        nonlocal total, frac1, frac2
        s = total + hi
        frac1 += lo
        frac2 += (total - s) + hi
        total = s

    add(*_exact_square(x * scale))
    add(*_exact_square(y * scale))
    h = math.sqrt(total - 1.0 + (frac1 + frac2))
    hi, lo = _exact_square(h)
    add(-hi, -lo)
    return (h + (total - 1.0 + (frac1 + frac2)) / (2.0 * h)) / scale


def _ties(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Legs whose hypot p^2 + q^2 has 54 bits, an odd last one: exactly
    halfway between two doubles. Scaled by powers of two."""
    rand = random.Random(1)
    x, y = [], []
    while len(x) < count:
        p = rand.randrange(1 << 26, P_MAX + 1)
        q = rand.randrange(1, p)
        if (p - q) % 2 == 1 and p * p + q * q >= 1 << 53 and p * q < 1 << 53:
            e = rand.randrange(-900, 900)
            x.append(math.ldexp(p * p - q * q, e))
            y.append(math.ldexp(2 * p * q, e))
    return np.array(x), np.array(y)


def test_ties_follow_the_running_interpreters_hypot(monkeypatch):
    # Where two accumulations round a tie apart, the array path gives the
    # bits of whichever one this interpreter's math.hypot has. On Python
    # 3.10 and 3.11 the pair form rounds 9% of these ties away from
    # math.hypot, and so away from the port's own rounding.
    x, y = _ties(2 * HYPOT_PORT_MIN)
    other = np.array([_pair_accumulated_hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
    _assert_same_bits(closedform._hypot(x, y), _math_hypot(x, y))
    monkeypatch.setattr(math, "hypot", _pair_accumulated_hypot)
    _assert_same_bits(closedform._hypot(x, y), other)


@pytest.mark.parametrize("length", [HYPOT_PORT_MIN - 1, HYPOT_PORT_MIN])
def test_short_arrays_take_math_hypot_throughout(monkeypatch, length):
    calls = []
    monkeypatch.setattr(math, "hypot", lambda a, b: calls.append(a) or _MATH_HYPOT(a, b))
    rng = np.random.default_rng(3)
    x, y = rng.uniform(1.0, 2.0, length), rng.uniform(1.0, 2.0, length)
    closedform._hypot(x, y)
    assert len(calls) == (length if length < HYPOT_PORT_MIN else 0)
