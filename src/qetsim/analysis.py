"""Derived quantities and datasets built on the closed forms.

Ground-state Bell values, the optimal qubit count for single-output
transfer, efficiency sweeps over (N, m, k/h) grids, a battery of
hand-derived three- and four-qubit specialization fixtures, and the
figure-ready datasets the CLI emits as CSV.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import closedform, kernels, protocol_oracle
from .errors import (
    AngleOutOfRange,
    BellUndefinedForN2,
    InvalidRange,
    NonPositiveRatio,
    UnknownFigure,
)
from .model import ModelParams, Partition

FIXTURE_TOL = 1e-12

#: Points per decade on the logarithmic ratio grids of the figure datasets.
RATIO_DECADE_POINTS = 50

#: Largest ``n_opt_scan`` bound: under tracemalloc the scan peaks at 18
#: bytes per count, and at 98 where its screen is skipped, so 10**7 counts
#: peak near 1 GB.
SCAN_N_MAX = 10_000_000

#: Most points a sweep or Bell grid holds. Under tracemalloc a run to a file
#: peaks at about 170 bytes per row (a sweep with Bell, CSV or JSON; 125
#: without Bell, ``bell`` 85), set by evaluating the table, since each block
#: of rows is written as it is laid out; so a grid at the cap peaks near
#: 0.12 GB.
GRID_POINTS_MAX = 700_000


def _check_grid_size(points: int):
    """Refuse a grid past ``GRID_POINTS_MAX`` points, before it is built."""
    if points > GRID_POINTS_MAX:
        raise InvalidRange(f"the grid has {points} points, more than {GRID_POINTS_MAX}")


_INT64 = np.iinfo(np.int64)


def _check_qubit_counts(n_values: list[int], m_values: list[int] = ()):
    """Refuse a qubit or output count outside int64, before numpy converts
    it (an output count past it would drop every point, not raise)."""
    for what, values in (("qubit count", n_values), ("output count", m_values)):
        if values and (min(values) < _INT64.min or max(values) > _INT64.max):
            bad = next(v for v in values if not _INT64.min <= v <= _INT64.max)
            raise InvalidRange(f"{what} {bad} is outside the int64 range")


# ---------------------------------------------------------------------------
# Bell value of the GHZ-type ground state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BellReport:
    b_value: float
    violates: bool
    saturation_value: float


def bell_values(n, k, h: float = 1.0) -> np.ndarray:
    """Bell values of the ground state over paired arrays of N and k, at field h.

    Every point goes through the same operations as a one-point call, so the
    values do not depend on what else is in the arrays. Points are checked
    in array order and the first one that fails raises, as
    ``closedform._bell`` raises.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(all="ignore"):
        ratio = k / h
    return closedform._bell(n, k, h, ratio)


def _bell_saturation(n: int) -> float:
    """2^((N-2)/2); past N = 2050 it overflows although b can be finite."""
    try:
        return 2.0 ** ((n - 2) / 2.0)
    except OverflowError:
        raise InvalidRange(f"bell saturation is not finite at N={n}: "
                           "float64 overflows there") from None


def bell_value_ground_state(params: ModelParams) -> BellReport:
    """Bell-inequality value of the ground state; needs at least 3 qubits.

    b = sqrt(2^(N-2) (2k/c)^2 + (Nh/c)^2). Equals 1 exactly at k = 0 (the
    product-state boundary) and saturates at 2^((N-2)/2) as k/h grows.
    """
    n = params.n_qubits
    b = float(bell_values([n], [params.k], params.h)[0])
    return BellReport(b_value=b, violates=b > 1.0,
                      saturation_value=_bell_saturation(n))


def bell_table(n_values, ratios, h: float = 1.0) -> tuple[np.ndarray, ...]:
    """Columns N, k/h, b, b > 1 and saturation over the cross product of the
    sorted, deduplicated N and k/h values, in one array evaluation."""
    n_values = sorted(set(n_values))
    ratios = sorted(set(ratios))
    _check_qubit_counts(n_values)
    _check_grid_size(len(n_values) * len(ratios))
    n = np.repeat(np.array(n_values, dtype=np.int64), len(ratios))
    ratio = np.tile(np.array(ratios, dtype=float), len(n_values))
    with np.errstate(over="ignore"):
        k = ratio * h
    b = closedform._bell(n, k, h, ratio)
    saturation = np.repeat([_bell_saturation(v) for v in n_values], len(ratios))
    return n, ratio, b, b > 1.0, saturation


def bell_value_ghz_angle(n: int, alpha: float) -> float:
    """Bell value of cos(a)|0..0> + sin(a)|1..1> parameterized by the angle:
    ``closedform._bell_form`` with sx = sin 2a and cz = cos 2a, so it is
    finite past N = 1025 wherever b is, and ``InvalidRange`` where b
    overflows."""
    if n < 3:
        raise BellUndefinedForN2(f"Bell value needs N >= 3, got N={n}")
    if not 0.0 <= alpha <= math.pi / 4.0 + 1e-15:
        raise AngleOutOfRange(f"alpha must lie in [0, pi/4], got {alpha}")
    b = float(closedform._bell_form(np.array([n]), np.array([math.sin(2.0 * alpha)]),
                                    np.array([math.cos(2.0 * alpha)]))[0])
    if not math.isfinite(b):
        raise InvalidRange(f"bell is not finite at N={n}, alpha={alpha!r}: "
                           "float64 overflows there")
    return b


# ---------------------------------------------------------------------------
# Optimal qubit count at fixed k/h, single output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NOptReport:
    """Where single-output efficiency peaks in N for a fixed coupling ratio."""

    x: float
    n_opt_real: float
    n_opt_int: int
    eta_at_opt: float
    c_aux: float


def _check_ratio(x: float):
    if not (x > 0.0 and math.isfinite(x)):
        raise NonPositiveRatio(f"coupling ratio must be positive and finite, got {x}")


def n_opt(x: float) -> NOptReport:
    """Continuous optimizer of single-output efficiency over N, then rounded.

    The stationary count comes out of the cubic in N hiding inside
    d(eta)/dN = 0; with C = 2^(4/3) (x^2 + 4x^4)^(1/3) it reads
    N* = 1/2 + sqrt(1+C)/2 + sqrt(2 - C + (2+16x^2)/sqrt(1+C))/2.
    Rounding picks whichever of floor/ceil gives the larger efficiency.
    """
    _check_ratio(x)
    try:
        c_aux = 2.0 ** (4.0 / 3.0) * (x * x + 4.0 * x ** 4) ** (1.0 / 3.0)
    except OverflowError:
        c_aux = math.inf
    if not math.isfinite(c_aux):  # 4 x^4 overflows a little below x^4 does
        raise InvalidRange(f"x={x:g} is too large: x**4 overflows float64")
    root = math.sqrt(1.0 + c_aux)
    n_real = 0.5 + 0.5 * root + 0.5 * math.sqrt(
        2.0 - c_aux + (2.0 + 16.0 * x * x) / root)
    lo = max(2, math.floor(n_real))
    candidates = [lo, lo + 1]
    etas = closedform.energies(np.array(candidates, dtype=float), 1, x).eta
    best = int(np.argmax(etas))
    return NOptReport(x=x, n_opt_real=n_real, n_opt_int=candidates[best],
                      eta_at_opt=float(etas[best]), c_aux=c_aux)


#: The screen in ``n_opt_scan`` passes on every count whose rough
#: efficiency is within this fraction of the rough maximum.
_SCAN_MARGIN = 1e-12


def _near_maximal(n: np.ndarray, x: float) -> np.ndarray | None:
    """Mask of the counts whose rough m = 1 efficiency at k/h = x is within
    ``_SCAN_MARGIN`` of the rough maximum, or None where a rough E_in,
    E_out, eta or sqrt(1 + (B/A)^2) - 1 is not a finite float well inside
    the normal range.

    Array operations only: ``np.hypot`` for c, and the quotient form
    r^2 / (sqrt(1 + r^2) + 1) for sqrt(1 + r^2) - 1 at every r = B/A; r^2
    is at most N, so it cannot overflow. Each value is within a few ulps of
    its ``closedform.energies`` counterpart.

    The counts go through in blocks of ``kernels.TILE``, each computed in
    place in the same five block-sized buffers, so that they stay in cache
    and no temporary is allocated per block; only eta is kept for every
    count. The operations are elementwise, so each value has the bits it
    would have over the whole range, and the first block out of range
    returns None.
    """
    # A four-fold margin on either side: where the rough values lie in
    # range, the exact ones are finite and normal too, and raise nowhere.
    lo, hi = 4.0 * sys.float_info.min, sys.float_info.max / 4.0
    eta = np.empty_like(n)
    buffers = np.empty((5, min(n.size, kernels.TILE)))
    for start in range(0, n.size, kernels.TILE):
        block = n[start:start + kernels.TILE]
        c, e_in, e_out, r2, gain = buffers[:, :block.size]
        with np.errstate(all="ignore"):
            np.hypot(block, 2.0 * x, out=c)
            np.subtract(block, 1.0, out=e_in)  # (n - 1) n / c
            e_in *= block
            e_in /= c
            np.add(block, 4.0 * x * x, out=e_out)  # a = n + 4 x^2, until E_out
            np.subtract(block, 1.0, out=r2)  # ((n - 1) 2x / a)^2
            r2 *= 2.0 * x
            r2 /= e_out
            np.square(r2, out=r2)
            np.add(r2, 1.0, out=gain)  # r2 / (sqrt(r2 + 1) + 1)
            np.sqrt(gain, out=gain)
            gain += 1.0
            np.divide(r2, gain, out=gain)
            e_out /= c  # a / c * gain
            e_out *= gain
            ratio = np.divide(e_out, e_in, out=eta[start:start + kernels.TILE])
        for values in (gain, e_in, e_out, ratio):
            if not (values.min() >= lo and values.max() <= hi):  # nan fails both
                return None
    return eta >= eta.max() * (1.0 - _SCAN_MARGIN)


def n_opt_scan(x: float, n_max: int = 100_000) -> tuple[int, float]:
    """Integer argmax of single-output efficiency by exhaustive scan.

    The safety net behind the closed-form count: the best (count,
    efficiency) pair over every N in [2, n_max], with the bits that
    ``closedform.energies`` over the whole range and ``np.argmax`` give.

    Two passes. A screen computes a rough efficiency at every count with
    array operations (``_near_maximal``) and keeps the counts within 1e-12
    (relative) of its maximum; only those go through ``closedform.energies``,
    which is pointwise, so they get the bits they would get in the full
    range. Rough and exact eta agree to about 6e-16, a few ulps, so every
    count that reaches the exact maximum is kept, and the kept counts stay in
    order, so ``argmax`` still picks the first of a tie. Where a rough value
    is not a finite, normal float (x^2 overflows, (B/A)^2 underflows), the
    screen is skipped and the whole range goes through ``energies``, which
    raises or returns as it always has.
    """
    _check_ratio(x)
    if not 2 <= n_max <= SCAN_N_MAX:
        raise InvalidRange(f"scan needs 2 <= n_max <= {SCAN_N_MAX}, got {n_max}")
    n = np.arange(2, n_max + 1, dtype=float)
    keep = _near_maximal(n, x)
    if keep is not None:
        n = n[keep]
    etas = closedform.energies(n, 1, x).eta
    i = int(np.argmax(etas))
    return int(n[i]), float(etas[i])


# ---------------------------------------------------------------------------
# Sweeps and figure datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Grid points as columns, in emission order: by N, then m, then ratio.

    ``n`` and ``m`` are int64, ``ratio`` is k/h. With ``with_bell`` the
    Bell value is computed wherever N >= 3.
    """

    n: np.ndarray
    m: np.ndarray
    ratio: np.ndarray
    with_bell: bool = False

    def __len__(self) -> int:
        return self.n.size


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Closed-form columns over a grid; ``bell`` is nan where not computed."""

    n: np.ndarray
    m: np.ndarray
    ratio: np.ndarray
    e_in: np.ndarray
    e_out: np.ndarray
    eta: np.ndarray
    bell: np.ndarray


def sweep_row(point: tuple[int, int, float, bool], h: float = 1.0) -> SweepTable:
    """One grid point (n, m, ratio, with_bell), validated as the model
    validates it, as a one-row table. Where only k = ratio * h overflows,
    the point is valid: the model validates ratio in k's place, and the
    closed forms evaluate it in units of h."""
    n, m, ratio, with_bell = point
    k = ratio * h
    ModelParams(n, h, ratio if math.isinf(k) and math.isfinite(ratio) else k)
    Partition.last(n, m)
    return evaluate(grid([n], [m], [ratio], with_bell), h)


def grid(n_values, m_values, ratios, with_bell: bool = False) -> Grid:
    """The (N, m, ratio) cross product in the given order; pairs with m >= N
    are dropped. No validation: see ``sweep_grid``. The points are counted,
    and refused past ``GRID_POINTS_MAX``, before the product is built."""
    n_values, m_values = list(n_values), list(m_values)
    _check_qubit_counts(n_values, m_values)
    ratios = np.asarray(ratios, dtype=float)
    # Each N pairs with the m values below it: a sorted search counts them.
    pair_count = np.searchsorted(np.sort(np.asarray(m_values)), n_values).sum()
    _check_grid_size(int(pair_count) * ratios.size)
    pairs = np.array([(n, m) for n in n_values for m in m_values if m < n],
                     dtype=np.int64).reshape(-1, 2)
    return Grid(n=np.repeat(pairs[:, 0], ratios.size),
                m=np.repeat(pairs[:, 1], ratios.size),
                ratio=np.tile(ratios, len(pairs)), with_bell=with_bell)


def sweep_grid(n_values, m_values, ratios, with_bell: bool = False) -> Grid:
    """Validate ranges and build the (N, m, ratio) cross product.

    Points come out sorted by (N, m, ratio). Combinations with m >= N are
    dropped (they describe no valid bi-partition); values that could never
    be valid for any N raise instead. Empty ranges give an empty grid.
    """
    n_values = sorted(set(int(n) for n in n_values))
    m_values = sorted(set(int(m) for m in m_values))
    # -0.0 + 0.0 is 0.0 and every other float is unchanged: a zero coupling
    # has no sign, and the emitters would print one.
    ratios = sorted(set(float(r) + 0.0 for r in ratios))
    for n in n_values:
        if n < 2:
            raise InvalidRange(f"qubit counts must be >= 2, got {n}")
    for m in m_values:
        if m < 1:
            raise InvalidRange(f"output counts must be >= 1, got {m}")
    for r in ratios:
        if not (r >= 0.0 and math.isfinite(r)):
            raise InvalidRange(f"coupling ratios must be finite and >= 0, got {r}")
    return grid(n_values, m_values, ratios, with_bell)


def evaluate(points: Grid, h: float = 1.0) -> SweepTable:
    """E_in, E_out(max), eta (and Bell values) at every grid point, at field h."""
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidRange(f"h must be finite and > 0, got {h}")
    with np.errstate(over="ignore"):
        k = points.ratio * h
    e = closedform._energies(points.n, points.m, k, h, points.ratio)
    bell = np.full(len(points), np.nan)
    if points.with_bell:
        has = points.n >= 3
        bell[has] = closedform._bell(points.n[has], k[has], h, points.ratio[has])
    return SweepTable(points.n, points.m, points.ratio, e.e_in, e.e_out_max, e.eta,
                      bell)


def efficiency_sweep(n_values, m_values, ratios, h: float = 1.0,
                     with_bell: bool = False) -> SweepTable:
    """Closed-form energies over the cross product of the given ranges."""
    return evaluate(sweep_grid(n_values, m_values, ratios, with_bell), h)


def _ratio_log_grid(lo_exp: float, hi_exp: float) -> np.ndarray:
    num = int(round((hi_exp - lo_exp) * RATIO_DECADE_POINTS)) + 1
    return np.logspace(lo_exp, hi_exp, num)


def _int_log_grid(lo: int, hi_exp: float) -> list[int]:
    lo_exp = math.log10(lo)
    num = int(round((hi_exp - lo_exp) * RATIO_DECADE_POINTS)) + 1
    raw = np.rint(np.logspace(lo_exp, hi_exp, num)).astype(int)
    return sorted(set(int(v) for v in raw))


def _fig_m_profile(n: int) -> Grid:
    return grid([n], range(1, n), (0.5, 1.0, 10.0, 100.0, 1000.0))


def _fig2a() -> Grid:
    return _fig_m_profile(10)


def _fig2b() -> Grid:
    return _fig_m_profile(100)


def _fig3a() -> Grid:
    return grid((10, 100, 1000), [1], _ratio_log_grid(-1.0, 4.0))


def _fig3b() -> Grid:
    return grid(_int_log_grid(2, 4.0), [1], (10.0, 100.0, 1000.0))


def _fig4a() -> Grid:
    return grid((3, 8, 10), [1], [0.0, *_ratio_log_grid(-2.0, 4.0)], with_bell=True)


def _fig4b() -> Grid:
    return grid(range(3, 31), [1], (1.0, 10.0, 100.0), with_bell=True)


def _fig7() -> Grid:
    return grid([3], (1, 2), _ratio_log_grid(-2.0, 4.0))


#: Figure name -> grid builder. Grids are pinned (log-spaced ratios at 50
#: points per decade, explicit count lists) so emitted CSVs reproduce byte
#: for byte. The dataset with the k = 0 endpoint row puts it first.
FIGURE_BUILDERS = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig4a": _fig4a,
    "fig4b": _fig4b,
    "fig7": _fig7,
}


def figure_grid(name: str) -> Grid:
    try:
        builder = FIGURE_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(FIGURE_BUILDERS))
        raise UnknownFigure(f"unknown figure {name!r}; known: {known}") from None
    return builder()


def figure_dataset(name: str, h: float = 1.0) -> SweepTable:
    """One fixed figure-style dataset (see ``FIGURE_BUILDERS``)."""
    return evaluate(figure_grid(name), h)


# ---------------------------------------------------------------------------
# Specialization fixtures: hand-derived three- and four-qubit formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixtureResult:
    """One specialized formula checked against the general closed form."""

    fixture_id: str
    n_qubits: int
    m_outputs: int
    max_deviation: float
    tolerance: float
    expected_mismatch: bool
    agrees: bool
    note: str = ""


#: sqrt(1 + r^2) - 1, elementwise over an array of r.
_gain = closedform._sqrt1pr2m1

# Each entry: id, N, m, quantity ("e_in" | "e_out" | "eta"), formula(h, k)
# over a float h and an array of k, and whether the formula is a
# known-inconsistent variant. The two variant entries carry coefficients
# that do not follow from the general expression; they are kept, flagged,
# and quantified instead of silently corrected.
_FIXTURES = (
    ("three_qubit_two_outputs_injected", 3, 2, "e_in",
     lambda h, k: 3.0 * h * h / np.sqrt(9.0 * h * h + 4.0 * k * k), False),
    ("three_qubit_two_outputs_extracted_max", 3, 2, "e_out",
     lambda h, k: 2.0 * (3.0 * h * h + 2.0 * k * k)
     / np.sqrt(9.0 * h * h + 4.0 * k * k)
     * _gain(h * k / (3.0 * h * h + 2.0 * k * k)), False),
    ("three_qubit_two_outputs_efficiency", 3, 2, "eta",
     lambda h, k: 2.0 * (3.0 * h * h + 2.0 * k * k)
     * _gain(h * k / (3.0 * h * h + 2.0 * k * k)) / (3.0 * h * h), False),
    ("three_qubit_one_output_injected", 3, 1, "e_in",
     lambda h, k: 6.0 * h * h / np.sqrt(9.0 * h * h + 4.0 * k * k), False),
    ("three_qubit_one_output_extracted_max", 3, 1, "e_out",
     lambda h, k: (3.0 * h * h + 4.0 * k * k)
     / np.sqrt(9.0 * h * h + 4.0 * k * k)
     * _gain(4.0 * h * k / (3.0 * h * h + 4.0 * k * k)), False),
    ("three_qubit_one_output_efficiency", 3, 1, "eta",
     lambda h, k: (3.0 * h * h + 4.0 * k * k)
     * _gain(4.0 * h * k / (3.0 * h * h + 4.0 * k * k)) / (6.0 * h * h), False),
    ("four_qubit_three_outputs_injected", 4, 3, "e_in",
     lambda h, k: 2.0 * h * h / np.sqrt(4.0 * h * h + k * k), False),
    ("four_qubit_three_outputs_extracted_max", 4, 3, "e_out",
     lambda h, k: (6.0 * h * h + 2.0 * k * k)
     / np.sqrt(4.0 * h * h + k * k)
     * _gain(h * k / (6.0 * h * h + 2.0 * k * k)), False),
    ("four_qubit_three_outputs_efficiency", 4, 3, "eta",
     lambda h, k: (6.0 * h * h + 2.0 * k * k)
     * _gain(h * k / (6.0 * h * h + 2.0 * k * k)) / (2.0 * h * h), False),
    ("four_qubit_two_outputs_injected", 4, 2, "e_in",
     lambda h, k: 4.0 * h * h / np.sqrt(4.0 * h * h + k * k), False),
    ("four_qubit_two_outputs_extracted_variant", 4, 2, "e_out",
     lambda h, k: (4.0 * h * h + 4.0 * k * k)
     / np.sqrt(4.0 * h * h + k * k)
     * _gain(h * k / (2.0 * h * h + 2.0 * k * k)), True),
    ("four_qubit_two_outputs_efficiency_variant", 4, 2, "eta",
     lambda h, k: (4.0 * h * h + 4.0 * k * k)
     * _gain(h * k / (2.0 * h * h + 2.0 * k * k)) / (4.0 * h * h), True),
    ("four_qubit_one_output_injected", 4, 1, "e_in",
     lambda h, k: 6.0 * h * h / np.sqrt(4.0 * h * h + k * k), False),
    ("four_qubit_one_output_extracted_max", 4, 1, "e_out",
     lambda h, k: (2.0 * h * h + 2.0 * k * k)
     / np.sqrt(4.0 * h * h + k * k)
     * _gain(3.0 * h * k / (2.0 * h * h + 2.0 * k * k)), False),
    ("four_qubit_one_output_efficiency", 4, 1, "eta",
     lambda h, k: (2.0 * h * h + 2.0 * k * k)
     * _gain(3.0 * h * k / (2.0 * h * h + 2.0 * k * k)) / (6.0 * h * h), False),
)

_FIXTURE_H_GRID = (0.5, 0.75, 1.0, 1.5, 2.0)
_FIXTURE_K_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def _general_values(quantity: str, e: closedform.Energies) -> np.ndarray:
    return {"e_in": e.e_in, "e_out": e.e_out_max, "eta": e.eta}[quantity]


def _variant_notes() -> dict[str, str]:
    """How far the inconsistent variants, both at (N, m) = (4, 2), sit from
    both references at h = k = 1; one brute-force run serves both."""
    params, part = ModelParams(4, 1.0, 1.0), Partition.last(4, 2)
    general = closedform.energies(4, 2, 1.0)
    report = protocol_oracle.extracted_energy(
        params, part, closedform.optimal_theta(params, part).theta)
    pairs = {"e_out": (general.e_out_max[0], report.e_out),
             "eta": (general.eta[0], report.e_out / report.e_in)}
    return {quantity: f"at h=k=1: general {g:.6f}, brute force {b:.6f}; "
                      "the variant coefficients follow neither"
            for quantity, (g, b) in pairs.items()}


def specialization_fixture_check() -> list[FixtureResult]:
    """Check every specialized formula against the general closed form.

    Consistent fixtures must agree to within 1e-12 absolute on a fixed 5x5
    (h, k) grid. The two variant entries are expected to disagree; their
    result records the deviation and what the brute-force protocol run says
    the correct value is.
    """
    # One closed-form call a field, over every fixture's (N, m, k) in turn,
    # and one call of each formula a field, over the k grid.
    per = len(_FIXTURE_K_GRID)
    ns = np.repeat([f[1] for f in _FIXTURES], per)
    ms = np.repeat([f[2] for f in _FIXTURES], per)
    k = np.array(_FIXTURE_K_GRID)
    general = [closedform.energies(ns, ms, np.tile(k, len(_FIXTURES)), h)
               for h in _FIXTURE_H_GRID]
    notes = _variant_notes()
    results = []
    for i, (fid, n, m, quantity, formula, is_variant) in enumerate(_FIXTURES):
        cells = slice(i * per, (i + 1) * per)
        dev = max(float(np.max(np.abs(formula(h, k) - _general_values(quantity, e)[cells])))
                  for h, e in zip(_FIXTURE_H_GRID, general))
        results.append(FixtureResult(
            fixture_id=fid, n_qubits=n, m_outputs=m,
            max_deviation=dev, tolerance=FIXTURE_TOL,
            expected_mismatch=is_variant, agrees=dev <= FIXTURE_TOL,
            note=notes[quantity] if is_variant else "",
        ))
    return results
