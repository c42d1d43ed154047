"""End-to-end verification checks shared by the CLI and the test suite.

Each check pits an independent computation path against an analytic claim
and reports a single pass/fail with the worst observed deviation. The
checks are deliberately self-contained so `qetsim verify` and the
acceptance tests exercise exactly the same code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import analysis, closedform, kernels, protocol_oracle, simkernel
from .errors import InvalidRange
from .model import (DEFAULT_ORACLE_CAP, ModelParams, Partition, check_oracle_cap,
                    interaction_constant, qubit_mask)

GRID_RATIOS = (0.1, 1.0, 10.0)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _finish(name: str, passed: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def check_oracle_agreement(n_max: int = 10,
                           oracle_cap: int = DEFAULT_ORACLE_CAP) -> CheckResult:
    """Brute-force protocol vs closed forms over every (N, m, ratio) cell,
    N = 3..n_max; a grid with no cell checks nothing and is refused."""
    if n_max < 3:
        raise InvalidRange(f"the oracle grid starts at N=3, got n_max={n_max}")
    t0 = time.perf_counter()
    # The oracle refuses every N past its cap; refusing the first of them
    # before any cell runs keeps a grid past it from being built.
    top = min(n_max, oracle_cap + 1)
    check_oracle_cap(top, oracle_cap)
    cells = analysis.grid(range(3, top + 1), range(1, top), GRID_RATIOS)
    closed = closedform.energies(cells.n, cells.m, cells.ratio)
    worst_in = worst_out = 0.0
    for n, m, ratio, e_in, e_out in zip(cells.n.tolist(), cells.m.tolist(),
                                        cells.ratio.tolist(), closed.e_in.tolist(),
                                        closed.e_out_max.tolist()):
        params, part = ModelParams(n, 1.0, ratio), Partition.last(n, m)
        rep = protocol_oracle.extracted_energy(
            params, part, closedform.optimal_theta(params, part).theta,
            oracle_cap=oracle_cap)
        worst_in = max(worst_in, abs(rep.e_in - e_in) / e_in)
        worst_out = max(worst_out, abs(rep.e_out - e_out) / max(1.0, e_out))
    passed = worst_in <= 1e-10 and worst_out <= 1e-10
    # E_out < 1 in every cell, so the e_out error is divided by 1: absolute.
    detail = (f"{len(cells)} cells, worst rel err e_in {worst_in:.2e}, "
              f"worst e_out err (abs below 1) {worst_out:.2e}")
    return _finish("oracle-vs-closed-form", passed, detail, t0)


#: Largest N at which the ground-state check repeats the solve with dense eigh.
DENSE_CROSSCHECK_MAX = 8


def check_ground_state(n_max: int = 12) -> CheckResult:
    """Lanczos eigensolve: zero minimum eigenvalue, full overlap with the
    two-amplitude analytic state; for N <= 8, dense eigh gives the same
    energy and the same vector."""
    t0 = time.perf_counter()
    worst_energy = worst_defect = cross_energy = cross_defect = 0.0
    for n in range(2, n_max + 1):
        for ratio in GRID_RATIOS:
            params = ModelParams(n, 1.0, ratio)
            energy, state = simkernel.exact_ground_state(params, "lanczos",
                                                         oracle_cap=n_max)
            overlap = abs(state.overlap(simkernel.StateVector.ground_state(params)))
            worst_energy = max(worst_energy, abs(energy))
            worst_defect = max(worst_defect, 1.0 - overlap)
            if n <= DENSE_CROSSCHECK_MAX:
                e_dense, v_dense = simkernel.exact_ground_state(params, "dense",
                                                                oracle_cap=n_max)
                cross_energy = max(cross_energy, abs(e_dense - energy))
                cross_defect = max(cross_defect, 1.0 - abs(v_dense.overlap(state)))
    passed = all(worst <= 1e-10 for worst in
                 (worst_energy, worst_defect, cross_energy, cross_defect))
    detail = (f"N<={n_max}: worst |E0| {worst_energy:.2e}, "
              f"worst overlap defect {worst_defect:.2e}; "
              f"dense N<={min(n_max, DENSE_CROSSCHECK_MAX)}: "
              f"worst |dE| {cross_energy:.2e}, overlap defect {cross_defect:.2e}")
    return _finish("ground-state", passed, detail, t0)


def _neutrality_cases(n_max: int = 8):
    for n in range(2, n_max + 1):
        for m in sorted({1, max(1, n // 2), n - 1}):
            yield n, m


def check_neutrality(oracle_cap: int = DEFAULT_ORACLE_CAP) -> CheckResult:
    """Measurement leaves the ensemble energy of every output term at zero."""
    t0 = time.perf_counter()
    worst = 0.0
    for n, m in _neutrality_cases():
        part = Partition.last(n, m)
        for ratio in GRID_RATIOS:
            params = ModelParams(n, 1.0, ratio)
            branches = protocol_oracle.measure_branches(params, part, oracle_cap)
            sites, interaction = protocol_oracle.output_term_energies(
                branches.states, branches.parity, params)
            worst = max(worst, float(np.max(np.abs(sites.sum(axis=0)))),
                        abs(float(np.sum(interaction))))
    passed = worst <= 1e-12
    return _finish("measurement-neutrality", passed,
                   f"worst ensemble |<H_out>|, |<V>|: {worst:.2e}", t0)


def check_fixtures() -> CheckResult:
    """Specialized formulas agree; the two flagged variants disagree."""
    t0 = time.perf_counter()
    results = analysis.specialization_fixture_check()
    bad = []
    variant_devs = []
    for r in results:
        if r.expected_mismatch:
            variant_devs.append((r.fixture_id, r.max_deviation))
            if r.agrees:
                bad.append(f"{r.fixture_id} unexpectedly agrees")
        elif not r.agrees:
            bad.append(f"{r.fixture_id} deviates {r.max_deviation:.2e}")
    worst_ok = max(r.max_deviation for r in results if not r.expected_mismatch)
    var_txt = ", ".join(f"{fid} off by {dev:.2e}" for fid, dev in variant_devs)
    detail = f"consistent worst {worst_ok:.2e}; variants: {var_txt}"
    if bad:
        detail = "; ".join(bad)
    return _finish("specialization-fixtures", not bad, detail, t0)


def check_asymptotics() -> CheckResult:
    """Large-coupling efficiency limits approach (N-m)/(2N)."""
    t0 = time.perf_counter()
    cases = [
        (10, 1, 1e6, 0.45), (100, 1, 1e6, 0.495), (1000, 1, 1e6, 0.4995),
        (2, 1, 1e6, 0.25),
        (3, 2, 1e4, 1.0 / 6.0), (3, 1, 1e4, 1.0 / 3.0),
    ]
    n, m, ratio, target = map(np.array, zip(*cases))
    worst = float(np.max(np.abs(closedform.energies(n, m, ratio).eta - target)))
    return _finish("asymptotic-efficiency", worst <= 1e-3,
                   f"{len(cases)} limits, worst |eta - target| {worst:.2e}", t0)


def check_n_opt() -> CheckResult:
    """Closed-form optimal qubit count vs exhaustive integer scan."""
    t0 = time.perf_counter()
    targets = {10.0: 0.42, 100.0: 0.48, 1000.0: 0.496}
    bad = []
    details = []
    for x, eta_target in targets.items():
        rep = analysis.n_opt(x)
        scan_n, scan_eta = analysis.n_opt_scan(x)
        if abs(scan_n - rep.n_opt_real) > 1.0:
            bad.append(f"x={x:g}: scan {scan_n} vs formula {rep.n_opt_real:.2f}")
        if abs(scan_eta - eta_target) > 0.005:
            bad.append(f"x={x:g}: eta {scan_eta:.4f} vs {eta_target}")
        details.append(f"x={x:g}: N*={scan_n} (formula {rep.n_opt_real:.2f}), "
                       f"eta {scan_eta:.4f}")
    return _finish("optimal-qubit-count", not bad,
                   "; ".join(bad) if bad else "; ".join(details), t0)


def check_bell() -> CheckResult:
    """Bell value: exactly 1 at k=0, nondecreasing in k/h, saturating."""
    t0 = time.perf_counter()
    bad = []
    counts = (3, 8, 10)
    ratios = np.concatenate(([0.0], np.logspace(-2.0, 8.0, 501), [1e8]))
    values = analysis.bell_values(np.repeat(counts, ratios.size),
                                  np.tile(ratios, len(counts))).reshape(len(counts), -1)
    for n, (flat, *sweep, top) in zip(counts, values.tolist()):
        if flat != 1.0:
            bad.append(f"N={n}: k=0 value {flat!r} != 1")
        if np.min(np.diff(sweep)) < -1e-12:
            bad.append(f"N={n}: decreasing step {np.min(np.diff(sweep)):.2e}")
        gap = abs(top - 2.0 ** ((n - 2) / 2.0))
        if gap > 1e-6:
            bad.append(f"N={n}: saturation gap {gap:.2e}")
    return _finish("bell-value", not bad,
                   "; ".join(bad) if bad else
                   "k=0 exact, monotone over 501 ratios, saturation within 1e-6",
                   t0)


def _apply_interaction(params: ModelParams, psi: np.ndarray) -> np.ndarray:
    """V psi = 4k^2/c psi + 2k X_1...X_N psi, the flip as the engine applies it."""
    full = (1 << params.n_qubits) - 1
    return (interaction_constant(params) * psi
            + 2.0 * params.k * kernels.apply_pauli_signs(psi, full, 0))


def _commutator_is_zero(n: int, ratio: float) -> bool:
    """[P_j(a), V] = 0 for every input projector, exactly, on one probe vector.

    P_j(a) = (1 + a X_j)/2, so [P_j(a), V] = (a/2) [X_j, V]: X_j stands in
    for both outcomes a = +1 and -1. X_j only moves values, so X_j V psi and
    V X_j psi come from the same float operations on the same operands; they
    are bit-identical exactly when the two signed permutations commute. The
    probe psi = 1..2^N has distinct, exactly representable entries, so a
    nonzero commutator moves some of them. No tolerance, and no 2^N x 2^N
    matrix.
    """
    params = ModelParams(n, 1.0, ratio)
    psi = np.arange(1.0, (1 << n) + 1.0)
    v_psi = _apply_interaction(params, psi)
    for q in range(1, n + 1):
        mask = qubit_mask(n, (q,))
        x_v_psi = kernels.apply_pauli_signs(v_psi, mask, 0)
        v_x_psi = _apply_interaction(params, kernels.apply_pauli_signs(psi, mask, 0))
        if not np.array_equal(x_v_psi, v_x_psi):
            return False
    return True


def check_properties(oracle_cap: int = DEFAULT_ORACLE_CAP) -> CheckResult:
    """The structural property battery behind the protocol's bookkeeping."""
    t0 = time.perf_counter()
    bad = []

    for n in range(2, 11):
        for ratio in GRID_RATIOS:
            if not _commutator_is_zero(n, ratio):
                bad.append(f"commutator nonzero at N={n}, ratio {ratio}")
    commutator_note = "commutator exactly zero N<=10"

    theta_probe = 0.37
    pairs = [((4, {3, 4}), (4, {1, 2})), ((3, {2},), (3, {3},)),
             ((5, {1, 4}), (5, {2, 5})), ((6, {2, 3, 6}), (6, {1, 4, 5}))]
    worst_part = 0.0
    for (n, out_a), (_, out_b) in pairs:
        params = ModelParams(n, 1.0, 1.0)
        ra = protocol_oracle.simulate_with_outputs(params, out_a, theta_probe,
                                                   oracle_cap)
        rb = protocol_oracle.simulate_with_outputs(params, out_b, theta_probe,
                                                   oracle_cap)
        worst_part = max(worst_part, abs(ra.e_in - rb.e_in),
                         abs(ra.e_out - rb.e_out))
    if worst_part > 1e-12:
        bad.append(f"partition invariance off by {worst_part:.2e}")

    worst_y = 0.0
    for n, m in ((4, 2), (5, 3), (6, 4)):
        params = ModelParams(n, 1.0, 1.0)
        part = Partition.last(n, m)
        outs = part.output_qubits_sorted
        base = protocol_oracle.extracted_energy(params, part, theta_probe,
                                                y_qubit=outs[0],
                                                oracle_cap=oracle_cap).e_out
        for y in outs[1:]:
            alt = protocol_oracle.extracted_energy(params, part, theta_probe,
                                                   y_qubit=y,
                                                   oracle_cap=oracle_cap).e_out
            worst_y = max(worst_y, abs(alt - base))
    if worst_y > 1e-12:
        bad.append(f"rotation-placement invariance off by {worst_y:.2e}")

    # The oracle's curve at its own exact argmax against the closed-form angle.
    worst_opt = 0.0
    for n, m, ratio in ((3, 1, 1.0), (4, 3, 0.1), (5, 2, 1.0), (6, 1, 10.0)):
        params = ModelParams(n, 1.0, ratio)
        part = Partition.last(n, m)
        best = protocol_oracle.optimize_theta_numeric(params, part, oracle_cap).theta
        peak = protocol_oracle.output_energy_curve(params, part, [best],
                                                   oracle_cap=oracle_cap)[0]
        theta = closedform.optimal_theta(params, part).theta
        star = protocol_oracle.extracted_energy(params, part, theta,
                                                oracle_cap=oracle_cap).e_out
        worst_opt = max(worst_opt, float(peak) - star)
    if worst_opt > 1e-10:
        bad.append(f"the oracle's own optimum beat the closed-form angle by "
                   f"{worst_opt:.2e}")

    worst_acct = worst_prob = 0.0
    for n, m in _neutrality_cases(8):
        part = Partition.last(n, m)
        for ratio in GRID_RATIOS:
            params = ModelParams(n, 1.0, ratio)
            theta = closedform.optimal_theta(params, part).theta
            for t in (0.2, theta):
                rep = protocol_oracle.extracted_energy(params, part, t,
                                                       oracle_cap=oracle_cap)
                worst_acct = max(worst_acct, abs(rep.e_out - rep.e_out_via_trace))
                worst_prob = max(worst_prob, abs(rep.total_probability - 1.0))
                if rep.e_out > rep.e_in + 1e-10:
                    bad.append(f"extraction above injection at N={n}, m={m}")
    if worst_acct > 1e-10:
        bad.append(f"double accounting off by {worst_acct:.2e}")
    if worst_prob > 1e-12:
        bad.append(f"branch probabilities off by {worst_prob:.2e}")

    detail = ("; ".join(bad) if bad else
              f"{commutator_note}; partition {worst_part:.1e}; "
              f"placement {worst_y:.1e}; optimality margin {worst_opt:.1e}; "
              f"accounting {worst_acct:.1e}; probs {worst_prob:.1e}")
    return _finish("property-suite", not bad, detail, t0)


def check_determinism() -> CheckResult:
    """Figure and sweep emitters are byte-stable across reruns."""
    t0 = time.perf_counter()
    from . import cli

    figs = {cli.render_figure("fig2a") for _ in range(3)}
    sweeps = {cli.render_sweep(range(3, 7), range(1, 4), (0.5, 2.0)) for _ in range(2)}
    passed = len(figs) == len(sweeps) == 1
    detail = ("identical bytes across reruns"
              if passed else "emitted bytes differ between reruns")
    return _finish("deterministic-output", passed, detail, t0)


def run_all(n_max: int = 10, oracle_cap: int = DEFAULT_ORACLE_CAP) -> list[CheckResult]:
    """Every acceptance check, in a fixed order."""
    return [
        check_oracle_agreement(n_max=n_max, oracle_cap=oracle_cap),
        check_ground_state(n_max=min(12, max(oracle_cap, 2))),
        check_neutrality(oracle_cap=oracle_cap),
        check_fixtures(),
        check_asymptotics(),
        check_n_opt(),
        check_bell(),
        check_properties(oracle_cap=oracle_cap),
        check_determinism(),
    ]
