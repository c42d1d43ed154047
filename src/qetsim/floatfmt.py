"""``"%.17g" % x`` and ``repr(x)`` for a whole float64 array at once, byte
for byte.

``g17(x)`` and ``shortest(x)`` return one NUL-padded row of ASCII bytes per
element, holding exactly the text Python's ``"%.17g" % x`` and
``repr(float(x))`` give for it. The CSV and JSON writers lay these rows into
their output with array operations; no Python call is made per value except
for the few values listed under Fallback.

Digits
------
A positive normal x has 17 significant digits N 10^(k-16), where
k = floor(log10 x) and N is D = x 10^(16-k) rounded half to even, an
integer in [10^16, 10^17). D is computed as hi + lo with a known bound on
its error:

* x = f 2^e with f in [1/2, 1) (``frexp``, exact), and 10^p = M 2^E with M
  in [1, 2], for p from -292 (k = 308, the largest double's) up. M is stored
  as the double-double M_hi + M_lo, each part correctly rounded from the
  exact ratio of integers 10^p / 2^E or 2^-E / 10^-p by Python's integer
  division, so |M - M_hi - M_lo| <= 2^-106 M; for 0 <= p <= 22, M_lo is 0.
* f M_hi is Dekker's TwoProduct: with Veltkamp's split of both factors
  into halves of at most 26 bits, every partial product is exact, and the
  product and its rounding error come out as two doubles that sum to
  f M_hi exactly. Nothing overflows or underflows, because f and M_hi are
  both near 1; the 2^(e+E) scale is a power of two applied afterwards,
  and the scaled values are normal, so scaling is exact too.
* The rest, f M_lo, is one rounded product, and adding it to the error
  term is one more rounding. With the table error the total is below
  2^-103 D < 2^-46, about 1.4e-14.

Since D >= 10^16 > 2^53, hi is a whole number. The remainder lo can reach
+-8, half an ulp of hi near 10^17, so floor(lo) is folded into the integer
and D is held as that integer plus a fraction in [0, 1). log10 may put k
one off next to a power of ten, so wherever the unrounded D falls outside
[10^16, 10^17), k is corrected and D computed again. A D within the error
bound of 10^16 or 10^17 gives the same text on either side of the bound.

Where the fraction lies within ``TIE_BAND`` (1e-9) of 0, 1/2 or 1, D may be
whole or a half exactly (x a dyadic rational with few bits, like n + 0.25
near 1e15, or an integer past 2^53). For p = 16 - k >= 0,
D = mant 5^p 2^(p+e-53) with mant = f 2^53 a 53-bit integer, so the 2-adic
order of mant, plus p + e - 53, says exactly which D are: whole where it is
at least 0, a half where it is -1. For p < 0, D = x / 10^-p is never a
half, and where it is whole none of the roundings below is a tie, so it is
left unknown. A known D has its fraction set to exactly 0 or 1/2.

``g17`` rounds D to the nearest integer, half to even where D is known. A
fraction within the band of 1/2 that is not known cannot be decided, and
the element goes to the fallback; every other rounding is decided exactly.
A D that rounds up to 10^17 carries: N = 10^16 and k + 1.

Shortest digits
---------------
``repr`` writes the shortest decimal inside the rounding interval of x, the
reals that parse back to x (Ryu, Adams 2018; Schubfach, Giulietti 2020); of
several shortest ones, the nearest to x, half to even. In units of D the
interval is D +- u, u = ulp(x)/2 10^(16-k) = M 2^(E+e-54), so u is at most
about 11.

* Decimals of at most 15 digits are the multiples of 100 in these units.
  They lie 100 apart, so at most one is inside, and if one is, it is D
  rounded to a multiple of 100.
* 16-digit decimals lie 10 apart, so two may be inside, and ``repr`` takes
  the nearer: D rounded to a multiple of 10.
* Otherwise ``repr`` has 17 digits, which are ``g17``'s.

The first of these that lands inside gives N, with the same carry, and its
trailing zeros are dropped in the layout. An end of the interval parses to
x when x's significand is even. Where D is known and M_lo is 0, the
distances and u are exact and that rule decides; elsewhere a distance
within ``TIE_BAND`` of u cannot be decided. At a significand of exactly
2^52 (f = 1/2) the interval is narrower below x than above it, which these
rules do not cover.

Layout
------
As ``%g`` does, ``g17``'s text is fixed-point when -4 <= k < 17 and
otherwise d.ddde-XX or d.ddde+XX, with at least two exponent digits.
Trailing zeros of the fraction are dropped, and so is a point with nothing
after it. ``repr``'s text is fixed-point when -4 <= k < 16, where a whole
number keeps ".0", and otherwise in the same exponent form. So the layout
depends only on the sign, k and the count of significant digits, and one
table per style maps each such triple to the byte positions of its text;
all exponent texts with a two-digit exponent share one layout per digit
count, as do all with three. Each element gathers its bytes through that
row from a 28-byte row of its own: '.', 'e', '-', its 17 digits, its signed
exponent and NULs.

Fallback
--------
``"%.17g" % x`` or ``repr(x)``, one element at a time, fills the rows of
nan, inf, +-0 and subnormals, and the roundings above that cannot be
decided: for both, a fraction near 1/2 that is not known; for ``repr`` also
a distance near u that is not exact, and a significand of 2^52. Sweep
values seldom meet any of these.

The power, digit and layout tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

#: Bytes of the longest text, "-1.2345678901234567e-308".
WIDTH = 24

#: A rounding remainder or a distance this close to a deciding value may
#: sit exactly on it; such elements go to the fallback.
TIE_BAND = 1e-9

_DIGITS = 17
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
#: Decimal exponents of normal doubles, from 2.2e-308 to 1.8e308.
_K_MIN, _K_MAX = -308, 308
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a 53-bit double

# Each element's bytes are gathered from a 28-byte row of seven 32-bit
# words: '.', 'e', '-' and the first digit; the other 16 digits; the
# exponent's text, "-05", "+16", "-308", or "0" for a 0.000ddd number,
# NUL-padded; then four NULs.
_DOT, _EXP, _MINUS, _FIRST_DIGIT, _K_TEXT, _NUL = 0, 1, 2, 3, 20, 24
_SOURCE_WORDS = 7
_SOURCE_BYTES = 4 * _SOURCE_WORDS


@functools.cache
def _powers() -> np.ndarray:
    """Rows (M_hi, its two Veltkamp halves, M_lo, E) of 10^p = M 2^E, indexed
    by p = 16 - k for k from ``_K_MAX`` down to one below ``_K_MIN``."""
    rows = []
    for p in range(16 - _K_MAX, 16 - _K_MIN + 2):
        if p >= 0:  # M = 10^p / 2^E
            num = 10 ** p
            e = num.bit_length() - 1
            den = 1 << e
        else:  # M = 2^-E / 10^-p, and 10^-p is no power of two
            den = 10 ** -p
            e = -den.bit_length()
            num = 1 << -e
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        t = _SPLIT * hi
        hi_h = t - (t - hi)
        rows.append((hi, hi_h, hi - hi_h, lo, e))
    return np.array(rows)


@functools.cache
def _words() -> tuple[np.ndarray, ...]:
    """The source words: '.e-' and a first digit, for 0..9; four digits, for
    0000..9999; the text of k, for k from ``_K_MIN`` to ``_K_MAX``. Then
    the count of trailing zeros of each 0000..9999 (4 for 0000)."""
    g = np.arange(10_000)
    quads = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    groups = (quads + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    lead = np.array([b".e-%d" % d for d in range(10)]).view(np.uint32)
    k_text = np.array([_exponent_text(k) for k in range(_K_MIN, _K_MAX + 1)],
                      dtype="S4").view(np.uint32)
    zeros = np.cumprod(quads[:, ::-1] == 0, axis=1).sum(axis=1)
    return lead, groups, k_text, zeros


def _exponent_text(k: int) -> bytes:
    """The text of k's source word: its signed exponent, where k is written
    with one, and the "0" before the point of a 0.000ddd number."""
    if k < -4 or k >= 16:
        return b"%+03d" % k
    return b"0" if k < 0 else b""


def _layout(k: int | None, sig: int, short: bool, exponent_digits: int = 2) -> list[int]:
    """Byte sources of the unsigned text with ``sig`` digits: fixed-point at
    exponent k, or with k None, the exponent form. ``short`` gives a whole
    number its ".0", as ``repr`` does."""
    d = _FIRST_DIGIT
    if k is None:
        point = [_DOT, *range(d + 1, d + sig)] if sig > 1 else []
        return [d, *point, _EXP, *range(_K_TEXT, _K_TEXT + 1 + exponent_digits)]
    if k >= 0:
        if sig > k + 1:
            point = [_DOT, *range(d + k + 1, d + sig)]
        else:  # the digit after the last one written is a 0
            point = [_DOT, d + k + 1] if short else []
        return [*range(d, d + k + 1), *point]
    return [_K_TEXT, _DOT, *[_K_TEXT] * (-k - 1), *range(d, d + sig)]


@functools.cache
def _layouts(short: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte sources of every (sign, layout, significant digits) text of one
    style, one NUL-padded row each, in the order ``_code`` counts them; the
    length of each text; and the layout of each k from ``_K_MIN`` to
    ``_K_MAX``. ``g17`` is fixed-point up to k = 16, ``repr`` up to 15."""
    fixed = range(-4, 16 if short else 17)
    forms = [*((k, 2) for k in fixed), (None, 2), (None, 3)]
    texts = [_layout(k, sig, short, digits)
             for k, digits in forms for sig in range(1, _DIGITS + 1)]
    texts += [[_MINUS, *text] for text in texts]
    rows = b"".join(bytes(text).ljust(WIDTH, bytes([_NUL])) for text in texts)
    table = np.frombuffer(rows, dtype=np.uint8).reshape(len(texts), WIDTH)
    k = np.arange(_K_MIN, _K_MAX + 1)
    layout = np.where((k >= fixed.start) & (k < fixed.stop), k - fixed.start,
                      len(fixed) + (np.abs(k) >= 100))
    return table, np.array([len(text) for text in texts]), layout


def _code(negative: np.ndarray, layout: np.ndarray, sig: np.ndarray, layouts: int) -> np.ndarray:
    return (negative * layouts + layout) * _DIGITS + (sig - 1)


def _scaled(f: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = f 2^e 10^(16-k) to within 2^-103 of it."""
    m_hi, m_h, m_l, m_lo, m_exp = _powers().take(_K_MAX - k, axis=0).T
    t = _SPLIT * f
    f_h = t - (t - f)
    f_l = f - f_h
    prod = f * m_hi
    err = f_l * m_l - (((prod - f_h * m_h) - f_l * m_h) - f_h * m_l)  # TwoProduct
    # 2^(e + E) from its bits: D is near 2^56, so the scale is a normal double.
    scale = ((e + m_exp.astype(np.int64) + 1023) << 52).view(np.float64)
    return prod * scale, (err + f * m_lo) * scale


def _split(a: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    q = a // unit
    return q, a - q * unit


def _unrounded(magnitude: np.ndarray) -> tuple[np.ndarray, ...]:
    """(exact, whole, frac, k, known, f, e) for an array of |x|: where
    ``exact`` holds, D = |x| 10^(16-k) = whole + frac to within 2^-103 D,
    with whole an integer, 0 <= frac < 1 and 10^16 <= D < 10^17 up to that
    error; where ``known`` holds too, D is whole + frac exactly. |x| is
    f 2^e, ``frexp``'s split. Elsewhere the element belongs to the fallback
    and the rest are placeholders."""
    exact = (magnitude >= _SMALLEST_NORMAL) & (magnitude < np.inf)
    value = np.where(exact, magnitude, 1.0)
    f, e = np.frexp(value)
    e = e.astype(np.int64)
    k = np.floor(np.log10(value)).astype(np.int64)
    hi, lo = _scaled(f, e, k)
    # Next to a power of ten log10 can put k one off: correct k from the
    # unrounded D and compute D again there.
    for attempt in range(3):
        shift = ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)
        fix = np.flatnonzero(shift)
        if not fix.size or attempt == 2:
            break
        k[fix] = np.clip(k[fix] + shift[fix], _K_MIN - 1, _K_MAX)
        hi[fix], lo[fix] = _scaled(f[fix], e[fix], k[fix])
    exact[fix] = False
    k[fix], hi[fix], lo[fix] = 0, 1e16, 0.0
    whole = np.floor(lo)
    frac = lo - whole
    whole = hi.astype(np.int64) + whole.astype(np.int64)
    # A D that is whole or a half exactly lies within the error bound of
    # one. For p = 16 - k >= 0, D = mant 5^p 2^(p+e-53) with mant = f 2^53
    # an integer, and its 2-adic order says which D are.
    close = np.flatnonzero(np.abs(2 * frac - np.rint(2 * frac)) < TIE_BAND)
    mant, p = (f[close] * 2.0 ** 53).astype(np.int64), 16 - k[close]
    twos = np.bitwise_count((mant & -mant) - 1) + p + (e[close] - 53)
    known = np.zeros(magnitude.shape, dtype=bool)
    known[close] = (p >= 0) & (twos >= -1)
    integral = close[(p >= 0) & (twos >= 0)]
    whole[integral] += frac[integral] > 0.5
    frac[integral] = 0.0
    frac[close[(p >= 0) & (twos == -1)]] = 0.5
    return exact, whole, frac, k, known, f, e


def _carry(n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A D that rounded up to 10^17 is 10^16 at the next exponent."""
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    return n, k + carry


def _decimal(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exact, N, k) for an array of |x|: where ``exact`` holds, |x| rounds to
    N 10^(k-16) at 17 significant digits, 10^16 <= N < 10^17. Elsewhere the
    element belongs to the fallback and N and k are placeholders."""
    exact, whole, frac, k, known, _, _ = _unrounded(magnitude)
    n, unsure = _round(whole, frac, known)
    return (exact & ~unsure, *_carry(n, k))


def _round(whole: np.ndarray, frac: np.ndarray, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = whole + frac rounded to an integer, half to even where D is
    ``known`` exactly, and whether D lies within ``TIE_BAND`` of a half
    without being known."""
    n = whole + (frac > 0.5)
    near = np.abs(frac - 0.5) < TIE_BAND
    tie = np.flatnonzero(near & known)
    n[tie] = whole[tie] + (whole[tie] & 1)
    return n, near & ~known


def _nearest(whole: np.ndarray, frac: np.ndarray, unit: int,
             known: np.ndarray) -> tuple[np.ndarray, ...]:
    """The multiple of ``unit`` nearest to D = whole + frac, half to even
    where D is ``known`` exactly; its distance from D; and whether D lies
    within ``TIE_BAND`` of halfway between two without being known."""
    below = whole % unit
    rest = below + frac
    up = rest > unit / 2
    near = np.abs(rest - unit / 2) < TIE_BAND
    tie = np.flatnonzero(near & known)
    up[tie] = whole[tie] // unit % 2 == 1
    return whole - below + unit * up, np.where(up, unit - rest, rest), near & ~known


def _shortest_decimal(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exact, N, k) for an array of |x|: where ``exact`` holds, ``repr``
    writes |x| with the significant digits of N 10^(k-16), trailing zeros
    dropped, 10^16 <= N < 10^17. Elsewhere the element belongs to the
    fallback and N and k are placeholders."""
    exact, whole, frac, k, known, f, e = _unrounded(magnitude)
    mant = (f * 2.0 ** 53).astype(np.int64)
    # u = ulp(x)/2 10^(16-k) = M 2^(E+e-54), exact where M_lo is 0; there
    # the distances of a known D are exact too, and an end counts where the
    # significand is even.
    m_hi, _, _, m_lo, m_exp = _powers().take(_K_MAX - k, axis=0).T
    u = np.ldexp(m_hi + m_lo, e + m_exp.astype(np.int64) - 54)
    sure = known & (m_lo == 0)
    end = sure & (mant % 2 == 0)
    n_100, d_100, _ = _nearest(whole, frac, 100, known)
    n_10, d_10, unsure_10 = _nearest(whole, frac, 10, known)
    n_1, unsure_1 = _round(whole, frac, known)
    in_100 = (d_100 < u) | (end & (d_100 == u))
    in_10 = (d_10 < u) | (end & (d_10 == u))
    unsure_100 = ~sure & (np.abs(d_100 - u) < TIE_BAND)
    unsure_16 = (~sure & (np.abs(d_10 - u) < TIE_BAND)) | np.where(in_10, unsure_10, unsure_1)
    # At a significand of 2^52 the interval is narrower below x than above.
    exact &= ~(unsure_100 | (~in_100 & unsure_16) | (mant == 1 << 52))
    n = np.where(in_100, n_100, np.where(in_10, n_10, n_1))
    return (exact, *_carry(n, k))


def _render(x: np.ndarray, exact: np.ndarray, n: np.ndarray, k: np.ndarray,
            short: bool) -> np.ndarray:
    """The rows of N 10^(k-16) in ``g17``'s or, with ``short``, ``repr``'s
    layout; the rows of elements that are not ``exact`` from the fallback."""
    lead_words, group_words, k_words, group_zeros = _words()
    lead, rest = _split(n, 10 ** 16)
    upper, lower = _split(rest, 10 ** 8)
    groups = (*_split(upper, 10 ** 4), *_split(lower, 10 ** 4))
    source = np.zeros((x.size, _SOURCE_WORDS), dtype=np.uint32)
    source[:, 0] = lead_words.take(lead)
    for i, group in enumerate(groups):
        source[:, 1 + i] = group_words.take(group)
    source[:, 5] = k_words.take(k - _K_MIN)
    # Trailing zeros: those of the last group, and while a group is all
    # zeros, those of the group before it.
    zeros = group_zeros.take(groups[3])
    rows = np.flatnonzero(groups[3] == 0)
    for group in groups[2::-1]:
        if not rows.size:
            break
        zeros[rows] += group_zeros.take(group[rows])
        rows = rows[group[rows] == 0]
    table, length, layout = _layouts(short)
    code = _code(np.signbit(x), layout.take(k - _K_MIN), _DIGITS - zeros,
                 len(table) // (2 * _DIGITS))

    fallback = np.flatnonzero(~exact)
    fmt = repr if short else "%.17g".__mod__
    texts = np.array([fmt(v).encode() for v in x[fallback].tolist()], dtype=bytes)
    texts = texts.view(np.uint8).reshape(fallback.size, texts.itemsize)
    width = max(length.take(code).max(initial=0), texts.shape[1] if fallback.size else 0)
    index = table.take(code, axis=0)[:, :width].astype(np.intp)
    index += np.arange(0, x.size * _SOURCE_BYTES, _SOURCE_BYTES)[:, None]
    out = source.view(np.uint8).ravel()[index]
    if fallback.size:
        out[fallback] = 0
        out[fallback, :texts.shape[1]] = texts
    return out


def g17(x) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each v of the float64 array ``x``, as
    a (len(x), w) uint8 array: w <= ``WIDTH`` is the longest text's length,
    and shorter texts are padded with NULs."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return _render(x, *_decimal(np.abs(x)), short=False)


def shortest(x) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for each v of the float64 array ``x``,
    the shortest text that reads back as v, laid out as ``g17``'s."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return _render(x, *_shortest_decimal(np.abs(x)), short=True)
