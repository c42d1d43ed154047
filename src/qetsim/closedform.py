"""Closed-form protocol quantities.

For a partition into N - m measured qubits and m outputs, everything reduces
to two nonnegative coefficients

    A = N m h^2 + 4 k^2      (restoring-force weight of the rotation)
    B = 2 (N - m) h k        (work term unlocked by the measurement record)

and the energy scale c = sqrt(N^2 h^2 + 4 k^2):

    E_in          = (N - m) N h^2 / c
    E_out(theta)  = [B sin 2theta - A (1 - cos 2theta)] / c
    E_out(max)    = (sqrt(A^2 + B^2) - A) / c      at  tan 2theta = B / A
    eta           = E_out(max) / E_in
    b             = sqrt(2^(N-2) (2k/c)^2 + (Nh/c)^2)   (ground-state Bell value)

The sqrt(A^2+B^2) - A difference is evaluated cancellation-free when B << A,
which keeps the strong-coupling tail (k/h up to 1e8 and beyond) smooth.

One array path evaluates E_in, E_out(max) and eta: ``energies`` takes numpy
arrays of (N, m, k) at a field h. The one-point functions (``input_energy``,
``max_output_energy``, ``efficiency``, ``report``) call it with one point, so
a sweep row and a scalar call agree bit for bit. The hypot of c, of c'
below and of the large-r branch of sqrt(1 + r^2) - 1 has ``math.hypot``'s
bits: ``np.hypot`` (the C library's) differs from it in the last bit on
some inputs (in c at 309 of the 180,299 points of the benchmark's CSV
sweep, and in a value at 568), and emitted datasets are pinned byte for
byte. ``_hypot`` computes those bits over an array with a port of
CPython's ``vector_norm``, in blocks of ``HYPOT_BLOCK``. It calls
``math.hypot`` itself on floats, on arrays shorter than ``HYPOT_PORT_MIN``,
at inputs that are 0, subnormal, inf or nan, and wherever the port's last
rounding lies within 2^-30 ulp of a tie, where CPython releases that
accumulate differently could round apart. A point whose E_in, E_out(max)
or eta is not a finite float raises ``InvalidRange``. The Bell value b,
whose one entry ``_bell`` checks N, k and h point by point, takes
sx = 2k/c and cz = Nh/c as k/c' and (Nh/2)/c', with c' = hypot(Nh/2, k)
= c/2, which stays finite where 2k overflows.

One range rule, ``_ranged``, serves every closed form, the ground-state
Bell value among them. A form is evaluated at (h, k), or in units of h
(h -> 1, k -> the caller's k/h, energies scaled back by h; eta, theta and b
are scale-free): at every point where h^2 is subnormal (about h < 1.5e-154)
and the products above would lose digits, unless its k/h overflowed, and
at each point above h = 1 where c or a value is not finite at (h, k). A
value is refused only where the form is not finite in units of h either.
Every other point keeps the (h, k) form, so its values keep their bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BellUndefinedForN2, InvalidRange
from .model import ModelParams, Partition, ThetaChoice, check_angles

#: Below this B/A the difference form sqrt(1+r^2)-1 cancels digits; use the
#: quotient form there and the overflow-safe hypot form above.
STABLE_R_THRESHOLD = 1.0


@dataclass(frozen=True)
class ClosedFormReport:
    """Injected energy, best extractable energy, optimal angle, efficiency."""

    e_in: float
    e_out_max: float
    theta_opt: ThetaChoice
    eta: float


@dataclass(frozen=True, eq=False)
class Energies:
    """E_in, E_out(max) and eta at each point, with the energy scale c."""

    c: np.ndarray
    e_in: np.ndarray
    e_out_max: np.ndarray
    eta: np.ndarray


def _sqrt1pr2m1(r):
    """sqrt(1 + r^2) - 1 to a few ulp for any r >= 0, elementwise.

    Small r: r^2 / (sqrt(1+r^2) + 1), algebraically identical but free of the
    cancellation that costs ~ log10(2/r^2) digits in the difference form.
    Large r: hypot keeps the square from overflowing and the -1 is benign.
    """
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    small = r < STABLE_R_THRESHOLD
    rs = r[small]
    out[small] = rs * rs / (np.sqrt(1.0 + rs * rs) + 1.0)
    big = ~small
    rb = r[big]
    out[big] = _hypot(np.ones_like(rb), rb) - 1.0
    return out[()]


def _raise_at_first(bad, problem: str, how: str, n, m, ratio, h):
    """InvalidRange naming the first point where ``bad`` holds."""
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidRange(f"{problem} at N={n[i]:.0f}, m={m[i]:.0f}, "
                           f"k/h={ratio[i]:g}, h={h:g}: float64 {how} there")


def _require_finite(n, m, ratio, h, **quantities):
    for name, values in quantities.items():
        _raise_at_first(~np.isfinite(values), f"{name} is not finite",
                        "over- or underflows", n, m, ratio, h)


def _require_normal(n, m, ratio, h, **quantities):
    """A nonzero value below the normal range has lost digits."""
    for name, values in quantities.items():
        _raise_at_first((values != 0.0) & (np.abs(values) < sys.float_info.min),
                        f"{name} is subnormal", "loses digits", n, m, ratio, h)


#: Arrays shorter than this take ``math.hypot`` one element at a time. The
#: port below costs about 34 us a block plus 0.027 us an element, and
#: ``math.hypot`` 0.062 us an element (2-CPU Xeon VM, numpy 2.4, Python
#: 3.11): 35 against 4.3 us at 64 elements, 62 against 64 us at 1024.
HYPOT_PORT_MIN = 1024

#: Elements the port works on at a time, so that its temporaries stay in
#: cache. On 180,299 pairs, blocks of 8192 took 6.2 ms, of 1024 11 ms, and
#: one block 16 ms; ``math.hypot`` took 14 ms.
HYPOT_BLOCK = 8192

#: 2^27 + 1: x * _VELTKAMP splits x into two halves of 26 bits.
_VELTKAMP = 134217729.0


def _hypot_each(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, count=x.size)


def _hypot(x, y):
    """``math.hypot`` of two floats, or its bits elementwise over two 1-d
    float arrays: by ``_vector_norm`` in blocks, and by ``math.hypot`` at
    the elements it leaves nan and in arrays shorter than ``HYPOT_PORT_MIN``."""
    if isinstance(x, float):
        return math.hypot(x, y)
    if x.size < HYPOT_PORT_MIN:
        return _hypot_each(x, y)
    out = np.empty(x.size)
    with np.errstate(all="ignore"):
        for start in range(0, x.size, HYPOT_BLOCK):
            block = slice(start, start + HYPOT_BLOCK)
            out[block] = _vector_norm(x[block], y[block])
    redo = np.flatnonzero(np.isnan(out))
    out[redo] = _hypot_each(x[redo], y[redo])
    return out


def _square(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """hi^2, 2 hi lo and lo^2, each exact, where v = hi + lo is split by
    Veltkamp's method into two halves of 26 bits."""
    t = v * _VELTKAMP
    hi = t - (t - v)
    lo = v - hi
    return hi * hi, 2.0 * hi * lo, lo * lo


def _add(total: np.ndarray, x: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """total + x, its rounding error added to ``frac`` (|total| >= |x|)."""
    out = total + x
    frac += (total - out) + x
    return out


def _vector_norm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """CPython's ``vector_norm`` for two coordinates, x first, over arrays;
    nan where ``math.hypot`` must decide.

    Scaled by 2^-e of the larger, each square is split into exact parts and
    added to a sum that starts at 1.0, its rounding errors kept apart. The
    root h of that sum gets one correction from d, the sum less the exact
    square of h: the result is (h + d/2h)/scale. The accumulation may
    differ between CPython releases, but h + d/2h lies far closer than
    2^-30 ulp to the exact root either way, so two releases can round it
    apart only near a tie. Those elements, within 2^-30 ulp of one, are left
    nan, and so are those with an input that is 0, subnormal, inf or nan.
    """
    ax, ay = np.abs(x), np.abs(y)
    big = np.maximum(ax, ay)
    plain = (np.minimum(ax, ay) >= sys.float_info.min) & (big <= sys.float_info.max)
    scale = np.ldexp(1.0, -np.frexp(big)[1])
    total = np.ones_like(big)
    frac1, frac2, frac3 = np.zeros_like(big), np.zeros_like(big), np.zeros_like(big)
    for v in (ax, ay):
        hh, hl, ll = _square(v * scale)
        total = _add(total, hh, frac1)
        total = _add(total, hl, frac2)
        frac3 += ll
    h = np.sqrt(total - 1.0 + (frac1 + frac2 + frac3))
    hh, hl, ll = _square(h)
    total = _add(total, -hh, frac1)
    total = _add(total, -hl, frac2)
    total = _add(total, -ll, frac3)
    correction = (total - 1.0 + (frac1 + frac2 + frac3)) / (2.0 * h)
    rounded = h + correction
    # Exactly what the addition rounded off, since |h| >= |correction|.
    error = (h - rounded) + correction
    # The spacing of doubles where h + correction lies, in [0.5, 2).
    gap = np.where((rounded < 1.0) | ((rounded == 1.0) & (error < 0.0)),
                   2.0 ** -53, 2.0 ** -52)
    plain &= np.abs(np.abs(error) - 0.5 * gap) > gap * 2.0 ** -30
    out = rounded / scale
    out[~plain] = np.nan
    return out


def _cab(h: float, k, n, m):
    """(c, A, B) at field h, over arrays or floats."""
    return _hypot(n * h, 2.0 * k), n * m * h * h + 4.0 * k * k, 2.0 * (n - m) * h * k


def _ranged(form, h: float, k, ratio, *rest, scaled: int = 1) -> list:
    """The one range rule: ``form(h, k, *rest)`` over 1-d arrays, or at one
    point over floats, c first in the values it returns, and energies (c
    among them) in the first ``scaled``. Where h^2 is subnormal, every point
    is evaluated in units of h: ``form(1, ratio, *rest)``, its energies
    times h. Above h = 1 only the points where a value is not finite at
    (h, k) are. A unit field needs the caller's k/h as a float, so a point
    whose ``ratio`` overflowed keeps (h, k)."""
    def at(where, unit: bool) -> list:
        args = (ratio if unit else k, *rest)
        if where is not None:
            args = [a[where] for a in args]
        values = list(form(1.0 if unit else h, *args))
        if unit:
            values[:scaled] = [v * h for v in values[:scaled]]
        return values

    tiny = h * h < sys.float_info.min
    out = at(None, tiny)
    if tiny:
        redo = ~np.isfinite(ratio)
    elif h > 1.0:
        redo = ~np.logical_and.reduce([np.isfinite(v) for v in out])
    else:
        return out
    if redo.all():
        return at(None, not tiny)
    if redo.any():
        for v, w in zip(out, at(redo, not tiny)):
            v[redo] = w
    return out


def _plain(h: float, k, n, m) -> tuple[np.ndarray, ...]:
    """(c, E_in, E_out(max), eta) at field h, unchecked."""
    c, a, b = _cab(h, k, n, m)
    e_in = (n - m) * n * h * h / c
    e_out = np.where(b == 0.0, 0.0, a / c * _sqrt1pr2m1(b / a))
    eta = np.where(k == 0.0, 0.0, e_out / e_in)
    return c, e_in, e_out, eta


def energies(n, m, k, h: float = 1.0) -> Energies:
    """E_in, E_out(max) and eta over arrays of (N, m, k) at field h.

    ``n``, ``m`` and ``k`` are scalars or 1-d arrays, broadcast against each
    other; every returned array is 1-d. Each point goes through the same
    operations, in the same order, as a one-point call, so results do not
    depend on what else is in the arrays. Before evaluating, raises what
    ``ModelParams`` raises where h is not finite and > 0, or at the first
    point whose k is negative, nan or inf; then ``InvalidRange`` at the
    first point where a value is not finite, or where E_in or E_out(max) is
    nonzero but subnormal.
    """
    with np.errstate(all="ignore"):
        return _energies(n, m, k, h, np.asarray(k, dtype=float) / h)


def _bad_coupling(k: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Where k is negative or nan, or infinite but not from a finite k/h."""
    return ~((k >= 0.0) & (np.isfinite(k) | np.isfinite(ratio)))


def _energies(n, m, k, h: float, ratio) -> Energies:
    """``energies`` with each point's k/h given as ``ratio``, which a unit
    field reads: a k = ratio * h that overflowed is valid, and errors name
    that k/h."""
    n, m, k, ratio = np.broadcast_arrays(*np.atleast_1d(
        np.asarray(n, dtype=float), np.asarray(m, dtype=float),
        np.asarray(k, dtype=float), np.asarray(ratio, dtype=float)))
    bad = np.flatnonzero(_bad_coupling(k, ratio))  # no mask held while evaluating
    if bad.size or not (h > 0.0 and math.isfinite(h)):
        # N plays no part: ModelParams raises for this h, then this k.
        ModelParams(2, h, float(k[bad[0]]) if bad.size else 0.0)
    with np.errstate(all="ignore"):
        c, e_in, e_out, eta = _ranged(_plain, h, k, ratio, n, m, scaled=3)
        _require_finite(n, m, ratio, h, e_in=e_in, e_out=e_out, eta=eta)
        _require_normal(n, m, ratio, h, e_in=e_in, e_out=e_out)
    return Energies(c=c, e_in=e_in, e_out_max=e_out, eta=eta)


def _one_point(form, params: ModelParams, part: Partition, scaled: int = 1) -> list:
    """``form``'s values at one point, as floats, through the range rule."""
    return _ranged(form, params.h, params.k, params.ratio,
                   float(params.n_qubits), float(part.m_outputs), scaled=scaled)


def _at(params: ModelParams, part: Partition) -> Energies:
    return energies(params.n_qubits, part.m_outputs, params.k, params.h)


def input_energy(params: ModelParams, part: Partition) -> float:
    """Total measurement energy deposited on the N - m input qubits."""
    return float(_at(params, part).e_in[0])


def output_energy_at_theta(params: ModelParams, part: Partition, theta: float) -> float:
    """Extracted energy for an arbitrary rotation angle (negative if theta is poor).

    1 - cos(2 theta) is written as 2 sin(theta)^2, which matters near the tiny
    optimal angles of the strong-coupling regime where the difference form
    cancels.
    """
    check_angles(theta)
    s, s2 = math.sin(theta), math.sin(2.0 * theta)

    def form(h, k, n, m):
        c, a, b = _cab(h, k, n, m)
        return c, (b * s2 - 2.0 * a * s * s) / c

    return _one_point(form, params, part, scaled=2)[1]


def optimal_theta(params: ModelParams, part: Partition) -> ThetaChoice:
    """The angle maximizing the extracted energy: tan 2theta = B / A. At a
    unit field A and B are in units of h^2; the angle reads their ratio."""
    return _optimal_theta(params.n_qubits, part.m_outputs, params.k, params.h, params.ratio)


def _optimal_theta(n: int, m: int, k: float, h: float, ratio: float) -> ThetaChoice:
    """``optimal_theta`` with the point's k/h given as ``ratio``, which a
    unit field reads: a k = ratio * h that overflowed is valid."""
    _, a, b = _ranged(_cab, h, k, ratio, float(n), float(m))
    return ThetaChoice.from_components(a, b)


#: Largest N at which 2^(N-2) is a finite float64.
_BELL_POWER_N_MAX = 1025


def _bell_form(n: np.ndarray, sx: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """b = sqrt(2^(N-2) sx^2 + cz^2) over arrays of integer N >= 3; the
    ground state has sx = 2k/c and cz = Nh/c, the GHZ angle a has
    sx = sin 2a and cz = cos 2a. The result is not checked for range.

    Past ``_BELL_POWER_N_MAX`` 2^(N-2) overflows although b need not, so
    there b is hypot(2^((N-2)/2) sx, cz), the power applied by ldexp.
    """
    with np.errstate(all="ignore"):
        b = np.sqrt(np.ldexp(1.0, n - 2) * sx * sx + cz * cz)
        big = n > _BELL_POWER_N_MAX
        if big.any():
            nb = n[big]
            odd = np.where(nb % 2 == 1, math.sqrt(2.0), 1.0)
            b[big] = np.hypot(np.ldexp(odd * sx[big], (nb - 2) // 2), cz[big])
    return b


def _bell_plain(h: float, k, n) -> tuple[np.ndarray, np.ndarray]:
    """(c, b) of the ground state, unchecked: sx = 2k/c = k/c' and
    cz = Nh/c = (Nh/2)/c' with c' = hypot(Nh/2, k) = c/2, which stays finite
    where 2k overflows."""
    half_nh = n * h / 2.0
    half_c = _hypot(half_nh, k)
    return 2.0 * half_c, _bell_form(n, k / half_c, half_nh / half_c)


def _bell(n, k: np.ndarray, h: float, ratio: np.ndarray) -> np.ndarray:
    """Bell values of the ground state over paired 1-d arrays of N and k at
    field h, each point's k/h given as ``ratio`` (a k = ratio * h that
    overflowed is valid). The first point in array order that fails raises:
    a b that is not a finite float as ``InvalidRange`` naming its k/h, N < 2,
    h or k as ``ModelParams`` raises, N = 2 as ``BellUndefinedForN2``."""
    n = np.asarray(n, dtype=np.int64)
    bad = (n < 3) | _bad_coupling(k, ratio) | (not (h > 0.0 and math.isfinite(h)))
    stop = int(np.argmax(bad)) if bad.any() else n.size
    with np.errstate(all="ignore"):
        b = _ranged(_bell_plain, h, k[:stop], ratio[:stop], n[:stop])[1]
    bad = ~np.isfinite(b)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidRange(f"bell is not finite at N={n[i]}, k/h={ratio[i]:g}, "
                           f"h={h:g}: float64 over- or underflows there")
    if stop < n.size:
        ModelParams(int(n[stop]), h, float(k[stop]))  # N < 2, h and k raise here
        raise BellUndefinedForN2(f"Bell value needs N >= 3, got N={n[stop]}")
    return b


def max_output_energy(params: ModelParams, part: Partition) -> float:
    """Extracted energy at the optimal angle: (A / c) * (sqrt(1 + (B/A)^2) - 1)."""
    return float(_at(params, part).e_out_max[0])


def efficiency(params: ModelParams, part: Partition) -> float:
    """Energy transfer efficiency eta = E_out(max) / E_in; 0 in the k = 0 limit."""
    return float(_at(params, part).eta[0])


def single_output_efficiency(params: ModelParams) -> float:
    """eta for the best bi-partition, m = 1 (shared code path, bit-for-bit)."""
    return efficiency(params, Partition.last(params.n_qubits, 1))


def asymptotic_efficiency(params: ModelParams, part: Partition) -> float:
    """Strong-coupling limit of eta as k/h -> infinity: (N - m) / (2 N)."""
    n = params.n_qubits
    return (n - part.m_outputs) / (2.0 * n)


def report(params: ModelParams, part: Partition) -> ClosedFormReport:
    """Bundle E_in, E_out(max), theta_opt and eta for one parameter point."""
    e = _at(params, part)
    return ClosedFormReport(
        e_in=float(e.e_in[0]),
        e_out_max=float(e.e_out_max[0]),
        theta_opt=optimal_theta(params, part),
        eta=float(e.eta[0]),
    )
