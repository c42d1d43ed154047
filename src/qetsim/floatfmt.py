"""``"%.17g" % x`` for a whole float64 array at once, byte for byte.

``g17(x)`` returns one NUL-padded row of ASCII bytes per element, holding
exactly the text Python's ``"%.17g" % x`` gives for it. The CSV emitter
lays these rows into its output with array operations; no Python call is
made per value except for the few values listed under Fallback.

Digits
------
A positive normal x below 1e16 has 17 significant digits N 10^(k-16), where
k = floor(log10 x) and N is D = x 10^(16-k) rounded half to even, an
integer in [10^16, 10^17). D is computed as hi + lo with a known bound on
its error:

* x = f 2^e with f in [1/2, 1) (``frexp``, exact), and 10^p = M 2^E with M
  in [1, 2]. M is stored as the double-double M_hi + M_lo, each part
  correctly rounded from the exact integer 10^p by Python's integer
  division, so |M - M_hi - M_lo| <= 2^-106 M; for p <= 22, M_lo is 0.
* f M_hi is Dekker's TwoProduct: with Veltkamp's split of both factors
  into halves of at most 26 bits, every partial product is exact, and the
  product and its rounding error come out as two doubles that sum to
  f M_hi exactly. Nothing overflows or underflows, because f and M_hi are
  both near 1; the 2^(e+E) scale is a power of two applied afterwards,
  and the scaled values are normal, so scaling is exact too.
* The rest, f M_lo, is one rounded product, and adding it to the error
  term is one more rounding. With the table error the total is below
  2^-103 D < 2^-46, about 1.4e-14.

Since D >= 10^16 > 2^53, hi is a whole number, and the small remainder lo
decides the rounding. Where the fraction of lo lies within ``TIE_BAND``
(1e-9) of 1/2, D may be an exact tie (x a dyadic rational with few bits,
like n + 0.25 near 1e15), and the element goes to the fallback. Every other
rounding is decided exactly. log10 may put k one off next to a power of
ten, so wherever the unrounded D falls outside [10^16, 10^17), k is
corrected and D computed again. A D within the error bound of 10^16 or
10^17 gives the same text on either side of the bound. A D that rounds up
to 10^17 carries: N = 10^16 and k + 1.

Layout
------
As ``%g`` does, the text is fixed-point when -4 <= k < 17 and otherwise
d.ddde-XX, with at least two exponent digits. Trailing zeros of the
fraction are dropped, and so is a point with nothing after it. So the
layout depends only on the sign, k and the count of significant digits,
and one table maps each such triple to the byte positions of its text;
all e-XX texts share one layout per digit count, as do all e-XXX texts.
Each element gathers its bytes through that row from a 24-byte row of its
own: '.', 'e', '-', its 17 digits and the digits of its exponent.

Fallback
--------
``"%.17g" % x``, one element at a time, fills the rows of nan, inf, +-0,
subnormals, |x| >= 1e16 (the e+XX forms) and roundings inside the tie
band. Sweep values seldom meet any of these.

The power, digit and layout tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

#: Bytes of the longest text, "-1.2345678901234567e-308".
WIDTH = 24

#: A rounding remainder whose fraction is this close to 1/2 may be a tie.
TIE_BAND = 1e-9

_DIGITS = 17
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
_EXACT_LIMIT = 1e16
#: Decimal exponents of the exact path, with one to spare above: the
#: smallest normal is 2.2e-308 and the path ends below 1e16.
_K_MIN, _K_MAX = -308, 16
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a 53-bit double

# Each element's bytes are gathered from a 24-byte row of six 32-bit words:
# '.', 'e', '-' and the first digit; the other 16 digits; then the digits of
# -k for an e-XX text, or '0' for a 0.000ddd one, NUL-padded. The last byte
# is always NUL.
_DOT, _EXP, _MINUS, _FIRST_DIGIT, _K_TEXT, _NUL = 0, 1, 2, 3, 20, 23
_SOURCE_BYTES = 24


@functools.cache
def _powers() -> np.ndarray:
    """Rows (M_hi, its two Veltkamp halves, M_lo, E) of 10^p = M 2^E, indexed
    by p = 16 - k for k from ``_K_MAX`` down to one below ``_K_MIN``."""
    rows = []
    for p in range(16 - _K_MIN + 2):
        v = 10 ** p
        e = v.bit_length() - 1
        hi = v / (1 << e)  # int / int is correctly rounded
        num, den = hi.as_integer_ratio()
        lo = (v * den - (num << e)) / (den << e)
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
    k_text = np.array([b"%02d" % -k if k < -4 else b"0" if k < 0 else b""
                       for k in range(_K_MIN, _K_MAX + 1)], dtype="S4").view(np.uint32)
    zeros = np.cumprod(quads[:, ::-1] == 0, axis=1).sum(axis=1)
    return lead, groups, k_text, zeros


def _layout(k: int, sig: int) -> list[int]:
    """Byte sources of the unsigned text with exponent k and ``sig`` digits."""
    d = _FIRST_DIGIT
    if k >= 0:
        point = [_DOT, *range(d + k + 1, d + sig)] if sig > k + 1 else []
        return [*range(d, d + k + 1), *point]
    if k >= -4:
        return [_K_TEXT, _DOT, *[_K_TEXT] * (-k - 1), *range(d, d + sig)]
    point = [_DOT, *range(d + 1, d + sig)] if sig > 1 else []
    return [d, *point, _EXP, _MINUS, *range(_K_TEXT, _K_TEXT + len("%02d" % -k))]


#: One exponent per layout: k from -4 to 16 each have their own, and every
#: e-XX text, like every e-XXX text, shares one.
_LAYOUT_K = (*range(-4, _K_MAX + 1), -5, -100)


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte sources of every (sign, layout, significant digits) text, one
    NUL-padded row each, in the order ``_code`` counts them; the length of
    each text; and the layout of each k from ``_K_MIN`` to ``_K_MAX``."""
    texts = [_layout(k, sig) for k in _LAYOUT_K for sig in range(1, _DIGITS + 1)]
    texts += [[_MINUS, *text] for text in texts]
    rows = b"".join(bytes(text).ljust(WIDTH, bytes([_NUL])) for text in texts)
    table = np.frombuffer(rows, dtype=np.uint8).reshape(len(texts), WIDTH)
    k = np.arange(_K_MIN, _K_MAX + 1)
    layout = np.where(k >= -4, k + 4, np.where(k >= -99, len(_LAYOUT_K) - 2,
                                               len(_LAYOUT_K) - 1))
    return table, np.array([len(text) for text in texts]), layout


def _code(negative: np.ndarray, layout: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return (negative * len(_LAYOUT_K) + layout) * _DIGITS + (sig - 1)


def _scaled(f: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = f 2^e 10^(16-k) to within 2^-103 of it."""
    m_hi, m_h, m_l, m_lo, m_exp = _powers().take(16 - k, axis=0).T
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


def _decimal(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exact, N, k) for an array of |x|: where ``exact`` holds, |x| rounds to
    N 10^(k-16) at 17 significant digits, 10^16 <= N < 10^17. Elsewhere the
    element belongs to the fallback and N and k are placeholders."""
    exact = (magnitude >= _SMALLEST_NORMAL) & (magnitude < _EXACT_LIMIT)
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
    exact &= np.abs(frac - 0.5) >= TIE_BAND
    n = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    return exact, n, k


def g17(x) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each v of the float64 array ``x``, as
    a (len(x), w) uint8 array: w <= ``WIDTH`` is the longest text's length,
    and shorter texts are padded with NULs."""
    x = np.asarray(x, dtype=np.float64).ravel()
    exact, n, k = _decimal(np.abs(x))
    lead_words, group_words, k_words, group_zeros = _words()
    lead, rest = _split(n, 10 ** 16)
    upper, lower = _split(rest, 10 ** 8)
    groups = (*_split(upper, 10 ** 4), *_split(lower, 10 ** 4))
    source = np.stack([lead_words.take(lead), *(group_words.take(g) for g in groups),
                       k_words.take(k - _K_MIN)], axis=1)
    # Trailing zeros: those of the last group, and while a group is all
    # zeros, those of the group before it.
    zeros = group_zeros.take(groups[3])
    rows = np.flatnonzero(groups[3] == 0)
    for group in groups[2::-1]:
        if not rows.size:
            break
        zeros[rows] += group_zeros.take(group[rows])
        rows = rows[group[rows] == 0]
    table, length, layout = _layouts()
    code = _code(np.signbit(x), layout.take(k - _K_MIN), _DIGITS - zeros)

    fallback = np.flatnonzero(~exact)
    texts = np.array([("%.17g" % v).encode() for v in x[fallback].tolist()], dtype=bytes)
    texts = texts.view(np.uint8).reshape(fallback.size, texts.itemsize)
    width = max(length.take(code).max(initial=0), texts.shape[1] if fallback.size else 0)
    index = table.take(code, axis=0)[:, :width].astype(np.intp)
    index += np.arange(0, x.size * _SOURCE_BYTES, _SOURCE_BYTES)[:, None]
    out = source.view(np.uint8).ravel()[index]
    if fallback.size:
        out[fallback] = 0
        out[fallback, :texts.shape[1]] = texts
    return out
