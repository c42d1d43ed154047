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

The sqrt(A^2+B^2) - A difference is evaluated cancellation-free when B << A,
which keeps the strong-coupling tail (k/h up to 1e8 and beyond) smooth.

One array path evaluates E_in, E_out(max) and eta: ``energies`` takes numpy
arrays of (N, m, k) at a field h. The one-point functions (``input_energy``,
``max_output_energy``, ``efficiency``, ``report``) call it with one point, so
a sweep row and a scalar call agree bit for bit. Every hypot, c and the
large-r branch of sqrt(1 + r^2) - 1 alike, is ``math.hypot`` applied
elementwise: ``np.hypot`` (the C library's) differs from it in the last bit
on some inputs, and emitted datasets are pinned byte for byte. A point whose
E_in, E_out(max) or eta is not a finite float raises ``InvalidRange``.

Below h of about 1.5e-154, h^2 is subnormal and the products above lose
digits. Such a field is evaluated in units of h (h -> 1, k -> k/h), and the
energies are scaled back by h; eta and theta are scale-free. Above h = 1 the
same evaluation serves the points where the plain path overflows: where c is
not finite (N h, 2k or their hypot past the float range, or k itself where
it is k/h times h), or where a result is not (A or B past it). A value is
refused only where the scaled result is not finite either. Every other
point takes the plain path, so its values keep their bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidRange
from .model import ModelParams, Partition, ThetaChoice

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


def _ab(n, m, h, k):
    """(A, B); plain arithmetic, so it takes scalars and arrays alike."""
    return n * m * h * h + 4.0 * k * k, 2.0 * (n - m) * h * k


def _tiny(h: float) -> bool:
    """True where h^2 is subnormal, so the field is evaluated in units of h."""
    return h * h < sys.float_info.min


def _in_units_of_h(params: ModelParams) -> ModelParams:
    return ModelParams(params.n_qubits, 1.0, params.k / params.h)


def _rescue(params: ModelParams, value: float) -> bool:
    """True where a one-point value is to be evaluated in units of h instead:
    h^2 is subnormal, or h > 1 and c or the plain value overflowed."""
    h = params.h
    return _tiny(h) or (h > 1.0 and not (math.isfinite(params.c)
                                         and math.isfinite(value)))


def _coefficients(params: ModelParams, part: Partition) -> tuple[float, float]:
    """(A, B) for the given partition; depends only on N and m."""
    return _ab(params.n_qubits, part.m_outputs, params.h, params.k)


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
    out[big] = np.fromiter(map(math.hypot, repeat(1.0), rb.tolist()), float,
                           count=rb.size) - 1.0
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


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise over two 1-d float arrays."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, count=x.size)


def _plain(n, m, k, h: float) -> tuple[np.ndarray, ...]:
    """(c, E_in, E_out(max), eta) at field h, unchecked."""
    c = _hypot(n * h, 2.0 * k)
    a, b = _ab(n, m, h, k)
    e_in = (n - m) * n * h * h / c
    e_out = np.where(b == 0.0, 0.0, a / c * _sqrt1pr2m1(b / a))
    eta = np.where(k == 0.0, 0.0, e_out / e_in)
    return c, e_in, e_out, eta


def energies(n, m, k, h: float = 1.0) -> Energies:
    """E_in, E_out(max) and eta over arrays of (N, m, k) at field h.

    ``n``, ``m`` and ``k`` are scalars or 1-d arrays, broadcast against each
    other; every returned array is 1-d. Each point goes through the same
    operations, in the same order, as a one-point call, so results do not
    depend on what else is in the arrays. Raises ``InvalidRange`` at the
    first point where a value is not finite, or where E_in or E_out(max) is
    nonzero but subnormal.
    """
    with np.errstate(all="ignore"):
        return _energies(n, m, k, h, np.asarray(k, dtype=float) / h)


def _energies(n, m, k, h: float, ratio) -> Energies:
    """``energies`` with each point's k/h given as ``ratio``. At h > 1 a point
    whose c or plain values are not finite is evaluated from it in units of
    h, so a k = ratio * h that overflowed is valid; errors name that k/h."""
    n, m, k, ratio = np.broadcast_arrays(*np.atleast_1d(
        np.asarray(n, dtype=float), np.asarray(m, dtype=float),
        np.asarray(k, dtype=float), np.asarray(ratio, dtype=float)))
    with np.errstate(all="ignore"):
        if _tiny(h):
            c, e_in, e_out, eta = _plain(n, m, k / h, 1.0)
            c, e_in, e_out = c * h, e_in * h, e_out * h
        else:
            c, e_in, e_out, eta = _plain(n, m, k, h)
        if h > 1.0:
            over = ~(np.isfinite(c) & np.isfinite(e_in) & np.isfinite(e_out)
                     & np.isfinite(eta))
            if over.any():
                unit = _plain(n[over], m[over], ratio[over], 1.0)
                c[over], e_in[over], e_out[over] = (v * h for v in unit[:3])
                eta[over] = unit[3]
        _require_finite(n, m, ratio, h, e_in=e_in, e_out=e_out, eta=eta)
        _require_normal(n, m, ratio, h, e_in=e_in, e_out=e_out)
    return Energies(c=c, e_in=e_in, e_out_max=e_out, eta=eta)


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
    a, b = _coefficients(params, part)
    s = math.sin(theta)
    value = (b * math.sin(2.0 * theta) - 2.0 * a * s * s) / params.c
    if _rescue(params, value):
        return params.h * output_energy_at_theta(_in_units_of_h(params), part, theta)
    return value


def optimal_theta(params: ModelParams, part: Partition) -> ThetaChoice:
    """The angle maximizing the extracted energy: tan 2theta = B / A."""
    a, b = _coefficients(params, part)
    if _rescue(params, a + b):
        return optimal_theta(_in_units_of_h(params), part)
    return ThetaChoice.from_components(a, b)


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
