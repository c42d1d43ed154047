"""The three workloads: seeded inputs, the calls into qetsim, and their gates.

Each workload is a fixed batch of calls made by one caller in a closed loop.
The seed picks only coupling ratios, angles and x values; the (N, m) cells
and grid sizes are fixed, so the cost of a batch does not depend on it.

* ``verify``: ``qetsim verify`` with its defaults. Each of the nine checks is
  one op. About three quarters of it is the dense ground-state solve at N=12,
  about a fifth the oracle; it barely touches the closed-form grids.
* ``oracle``: protocol cells through ``protocol_oracle`` alone. ``deep``
  cells have many short branches, ``wide`` cells few long ones, so a change
  that speeds one shape and slows the other shows. No solver, no grids.
* ``sweep``: closed-form datasets through the CLI (CSV sweep, JSON sweep with
  Bell values, the pinned figures, an n_opt scan). Never reaches the oracle
  or the solvers; CSV and JSON use the emit layer two different ways.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qetsim import Partition, ModelParams, cli, closedform, protocol_oracle

#: Check names in ``qetsim verify`` order, keyed by the function behind each.
VERIFY_CHECKS = {
    "check_oracle_agreement": "oracle-vs-closed-form",
    "check_ground_state": "ground-state",
    "check_neutrality": "measurement-neutrality",
    "check_fixtures": "specialization-fixtures",
    "check_asymptotics": "asymptotic-efficiency",
    "check_n_opt": "optimal-qubit-count",
    "check_bell": "bell-value",
    "check_properties": "property-suite",
    "check_determinism": "deterministic-output",
}

#: Tolerance of the oracle gates, the same as ``qetsim verify`` uses.
ORACLE_TOL = 1e-10
#: Relative tolerance of closed-form rows against a 50-digit evaluation.
REFERENCE_TOL = 1e-12
REFERENCE_DPS = 50

#: sha256 of each figure's non-comment lines, as emitted at the commit that
#: introduced this benchmark. Output bytes must stay identical.
FIGURE_SHA256 = {
    "fig2a": "40c6bb8f6dd216192150211ee6e9b605727b7689944714d5b43bdf9d9560b8fc",
    "fig2b": "66708324e75e936528a8120b2839d9e9549a0a8662977bcd3ccb0cf2606c3488",
    "fig3a": "4471b77410cdcc88cdce123412caa6faabcc827ca48efa4421d44da697b6570a",
    "fig3b": "bb4ffcaf2f0ed7128912ac3ce06c15d15157dfd0be35f0396f9e67eb86612848",
    "fig4a": "5c3ed8303a3e7fed891e656f80c8f1de5e6d5f2cc87cda6edd83632f56316411",
    "fig4b": "57221fc663fba60622ba8ea7e3b334945f6b6e499cfc74fa5d4966b40cafa833",
    "fig7": "5866b62163e9fc5abe5b9e1b0497b17d2cbb2cc2ff595ad1578471eb98c99726",
}


@dataclass(frozen=True)
class Sizes:
    verify_argv: tuple[str, ...]
    deep: tuple[tuple[int, int], ...]
    wide: tuple[tuple[int, int], ...]
    curve_points: int
    sweep_n: tuple[int, int]
    sweep_ratios: int
    bell_n: tuple[int, int]
    bell_ratios: int
    nopt_x: int
    sample_rows: int
    sample_bell_rows: int


FULL = Sizes(
    verify_argv=("verify",),
    # N=12, m=1 alone is about half the batch; deep and wide each take about
    # half of it, and a batch fits three times in a 40-second run.
    deep=((10, 2), (12, 1)),
    wide=tuple((n, m) for n in (16, 18, 20) for m in (n - 2, n - 1)),
    curve_points=32,
    sweep_n=(3, 202), sweep_ratios=301,
    bell_n=(3, 69), bell_ratios=100,
    nopt_x=8,
    sample_rows=200, sample_bell_rows=50,
)

#: Small enough for the benchmark's own tests.
TINY = Sizes(
    verify_argv=("verify", "--n-max", "4", "--oracle-cap", "8"),
    deep=((5, 1), (6, 2)),
    wide=((8, 6), (8, 7)),
    curve_points=8,
    sweep_n=(3, 12), sweep_ratios=21,
    bell_n=(3, 8), bell_ratios=10,
    nopt_x=2,
    sample_rows=20, sample_bell_rows=10,
)

M_RANGE = (1, 3)


@dataclass
class Call:
    """One call into qetsim that stands for the ops in ``labels``.

    ``check`` maps the call's return value to ``{label: None or failure}``;
    a label it leaves out counts as failed.
    """

    kind: str
    labels: tuple[str, ...]
    run: Callable[[], object]
    check: Callable[[object], dict]
    outputs: tuple[Path, ...] = ()
    #: The seeded inputs, for the record and for comparing two builds.
    inputs: object = None


@dataclass
class Workload:
    name: str
    calls: list[Call]
    batch: dict


def _log_uniform(rng: np.random.Generator, count: int, lo_exp: float,
                 hi_exp: float) -> list[float]:
    """``count`` distinct floats, log-uniform in [10**lo_exp, 10**hi_exp]."""
    values: set[float] = set()
    while len(values) < count:
        values.update(float(v) for v in 10.0 ** rng.uniform(lo_exp, hi_exp,
                                                           count - len(values)))
    return sorted(values)


def _rel_err(value: float, ref: float) -> float:
    """Error measure of ``qetsim verify``: absolute below 1, relative above."""
    return abs(value - ref) / max(1.0, abs(ref))


def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().split("\n")
            if line and not line.startswith("#")]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify(sizes: Sizes, workdir: Path) -> Workload:
    out = workdir / "verify.txt"
    argv = [*sizes.verify_argv, "--out", str(out)]
    names = tuple(VERIFY_CHECKS.values())

    def check(rc) -> dict:
        lines = out.read_text().split("\n")
        if rc not in (0, 1) or (rc == 1 and not any(l.startswith("[FAIL]") for l in lines)):
            return {name: f"exit code {rc}" for name in names}
        verdicts = {}
        for name in names:
            line = next((l for l in lines if l.startswith((f"[PASS] {name}:",
                                                           f"[FAIL] {name}:"))), None)
            if line is None:
                verdicts[name] = "no result line"
            else:
                verdicts[name] = None if line.startswith("[PASS]") else line
        return verdicts

    return Workload("verify", [Call("verify", names, lambda: cli.main(argv), check,
                                    (out,), tuple(sizes.verify_argv))],
                    {"checks": len(names)})


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle_call(kind: str, n: int, m: int, rng: np.random.Generator,
                 curve_points: int) -> Call:
    ratio = _log_uniform(rng, 1, -2.0, 2.0)[0]
    params = ModelParams(n, 1.0, ratio)
    part = Partition.last(n, m)
    theta_star = closedform.optimal_theta(params, part).theta
    theta = float(rng.uniform(0.0, math.pi / 2.0))
    angles = rng.uniform(0.0, math.pi / 2.0, curve_points)
    label = f"{kind} N={n} m={m}"

    def run():
        return (protocol_oracle.extracted_energy(params, part, theta_star, oracle_cap=n),
                protocol_oracle.extracted_energy(params, part, theta, oracle_cap=n),
                protocol_oracle.output_energy_curve(params, part, angles, oracle_cap=n))

    def check(result) -> dict:
        at_star, at_theta, curve = result
        e_in = closedform.input_energy(params, part)
        errors = {
            "e_out at theta*": _rel_err(at_star.e_out,
                                        closedform.max_output_energy(params, part)),
            "e_out at theta": _rel_err(at_theta.e_out, closedform.output_energy_at_theta(
                params, part, theta)),
            "e_in": max(_rel_err(at_star.e_in, e_in), _rel_err(at_theta.e_in, e_in)),
            "e_out via trace": max(_rel_err(r.e_out, r.e_out_via_trace)
                                   for r in (at_star, at_theta)),
        }
        curve = np.asarray(curve, dtype=float)
        if curve.shape != angles.shape:
            return {label: f"curve has shape {curve.shape}"}
        errors["curve"] = max(_rel_err(float(v), closedform.output_energy_at_theta(
            params, part, float(t))) for v, t in zip(curve, angles))
        bad = [f"{key} off by {err:.2e}" for key, err in errors.items()
               if not err <= ORACLE_TOL]
        return {label: "; ".join(bad) or None}

    return Call(kind, (label,), run, check, inputs=(ratio, theta, tuple(angles)))


def _oracle(sizes: Sizes, rng: np.random.Generator) -> Workload:
    calls = [_oracle_call("deep", n, m, rng, sizes.curve_points) for n, m in sizes.deep]
    calls += [_oracle_call("wide", n, m, rng, sizes.curve_points) for n, m in sizes.wide]
    return Workload("oracle", calls, {"cells": len(calls), "deep": len(sizes.deep),
                                      "wide": len(sizes.wide),
                                      "curve_points": sizes.curve_points})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _reference(n: int, m: int, ratio: float) -> dict:
    """E_in, E_out(max), eta and the Bell value at h=1, k=ratio, in mpmath."""
    from mpmath import mp, mpf, sqrt

    with mp.workdps(REFERENCE_DPS):
        nn, mm, k = mpf(n), mpf(m), mpf(ratio)
        c = sqrt(nn * nn + 4 * k * k)
        a = nn * mm + 4 * k * k
        b = 2 * (nn - mm) * k
        e_in = (nn - mm) * nn / c
        e_out = (sqrt(a * a + b * b) - a) / c
        bell = sqrt(mpf(2) ** (n - 2) * (2 * k / c) ** 2 + (nn / c) ** 2)
        return {"e_in": e_in, "e_out": e_out, "eta": e_out / e_in, "bell": bell}


def _reference_errors(n: int, m: int, ratio: float, got: dict) -> list[str]:
    from mpmath import mp, mpf

    ref = _reference(n, m, ratio)
    bad = []
    with mp.workdps(REFERENCE_DPS):
        for key, value in got.items():
            err = abs(mpf(value) - ref[key]) / abs(ref[key])
            if not err <= REFERENCE_TOL:
                bad.append(f"row n={n} m={m} ratio={ratio!r}: {key} off by {float(err):.2e}")
    return bad


def _grid(n_range, ratios) -> list[tuple[int, int, float]]:
    """The sweep's row order: N, then m (m < N), then ratio, all ascending."""
    return [(n, m, r) for n in range(n_range[0], n_range[1] + 1)
            for m in range(M_RANGE[0], M_RANGE[1] + 1) if m < n for r in ratios]


def _sweep_csv_call(sizes: Sizes, rng: np.random.Generator, workdir: Path) -> Call:
    ratios = _log_uniform(rng, sizes.sweep_ratios, -2.0, 4.0)
    grid = _grid(sizes.sweep_n, ratios)
    sample = sorted(rng.choice(len(grid), size=min(sizes.sample_rows, len(grid)),
                               replace=False).tolist())
    out = workdir / "sweep.csv"
    argv = ["sweep", "--n", "%d:%d" % sizes.sweep_n, "--m", "%d:%d" % M_RANGE,
            "--ratio", ",".join(repr(r) for r in ratios), "--out", str(out)]

    def check(rc) -> dict:
        if rc != 0:
            return {"sweep-csv": f"exit code {rc}"}
        lines = _data_lines(out)
        if lines[0] != cli.SWEEP_HEADER:
            return {"sweep-csv": f"header {lines[0]!r}"}
        rows = lines[1:]
        if len(rows) != len(grid):
            return {"sweep-csv": f"{len(rows)} rows, grid has {len(grid)}"}
        bad = []
        for i in sample:
            n, m, ratio = grid[i]
            f = rows[i].split(",")
            if (int(f[0]), int(f[1]), float(f[2])) != (n, m, ratio):
                bad.append(f"row {i} is {f[:3]}, expected {(n, m, ratio)}")
                continue
            bad += _reference_errors(n, m, ratio, {"e_in": float(f[3]),
                                                   "e_out": float(f[4]),
                                                   "eta": float(f[5])})
        return {"sweep-csv": "; ".join(bad[:3]) or None}

    return Call("sweep-csv", ("sweep-csv",), lambda: cli.main(argv), check, (out,),
                tuple(argv))


def _sweep_json_call(sizes: Sizes, rng: np.random.Generator, workdir: Path) -> Call:
    ratios = _log_uniform(rng, sizes.bell_ratios, -2.0, 4.0)
    grid = _grid(sizes.bell_n, ratios)
    sample = sorted(rng.choice(len(grid), size=min(sizes.sample_bell_rows, len(grid)),
                               replace=False).tolist())
    out = workdir / "sweep-bell.json"
    argv = ["sweep", "--n", "%d:%d" % sizes.bell_n, "--m", "%d:%d" % M_RANGE,
            "--ratio", ",".join(repr(r) for r in ratios), "--bell",
            "--format", "json", "--out", str(out)]

    def check(rc) -> dict:
        if rc != 0:
            return {"sweep-json-bell": f"exit code {rc}"}
        rows = json.loads(out.read_text())["rows"]
        if len(rows) != len(grid):
            return {"sweep-json-bell": f"{len(rows)} rows, grid has {len(grid)}"}
        bad = []
        for i in sample:
            n, m, ratio = grid[i]
            row = rows[i]
            if (row["n"], row["m"], row["ratio"]) != (n, m, ratio):
                bad.append(f"row {i} is {row}, expected {(n, m, ratio)}")
                continue
            bad += _reference_errors(n, m, ratio, {key: row[key] for key in
                                                   ("e_in", "e_out", "eta", "bell")})
        return {"sweep-json-bell": "; ".join(bad[:3]) or None}

    return Call("sweep-json", ("sweep-json-bell",), lambda: cli.main(argv), check,
                (out,), tuple(argv))


def _figure_call(name: str, workdir: Path) -> Call:
    out = workdir / f"{name}.csv"
    label = f"figure-{name}"

    def check(rc) -> dict:
        if rc != 0:
            return {label: f"exit code {rc}"}
        digest = hashlib.sha256("\n".join(_data_lines(out)).encode()).hexdigest()
        return {label: None if digest == FIGURE_SHA256[name] else
                f"data rows changed (sha256 {digest[:12]})"}

    return Call("figure", (label,), lambda: cli.main(["figure", name, "--out", str(out)]),
                check, (out,), name)


def _nopt_call(sizes: Sizes, rng: np.random.Generator, workdir: Path) -> Call:
    xs = _log_uniform(rng, sizes.nopt_x, 0.0, 3.0)
    out = workdir / "nopt.csv"
    argv = ["nopt", "--x", ",".join(repr(x) for x in xs), "--scan", "--out", str(out)]

    def check(rc) -> dict:
        if rc != 0:
            return {"nopt-scan": f"exit code {rc}"}
        rows = [line.split(",") for line in _data_lines(out)[1:]]
        if [float(r[0]) for r in rows] != xs:
            return {"nopt-scan": f"{len(rows)} rows do not match the x values"}
        bad = []
        for x, n_real, _, eta_opt, _, scan_n, scan_eta in rows:
            if abs(int(scan_n) - float(n_real)) > 1.0:
                bad.append(f"x={x}: scan N {scan_n} vs formula {n_real}")
            if not float(scan_eta) >= float(eta_opt):
                bad.append(f"x={x}: scan eta {scan_eta} below formula's {eta_opt}")
        return {"nopt-scan": "; ".join(bad) or None}

    return Call("nopt", ("nopt-scan",), lambda: cli.main(argv), check, (out,), tuple(argv))


def _sweep(sizes: Sizes, rng: np.random.Generator, workdir: Path) -> Workload:
    calls = [_sweep_csv_call(sizes, rng, workdir), _sweep_json_call(sizes, rng, workdir)]
    calls += [_figure_call(name, workdir) for name in sorted(FIGURE_SHA256)]
    calls.append(_nopt_call(sizes, rng, workdir))
    csv_rows = len(_grid(sizes.sweep_n, range(sizes.sweep_ratios)))
    json_rows = len(_grid(sizes.bell_n, range(sizes.bell_ratios)))
    return Workload("sweep", calls, {"csv_rows": csv_rows, "json_bell_rows": json_rows,
                                     "figures": len(FIGURE_SHA256),
                                     "nopt_x": sizes.nopt_x})


WORKLOADS = ("verify", "oracle", "sweep")


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Inputs of one workload from ``seed``; outputs go under ``workdir``."""
    sizes = TINY if tiny else FULL
    rng = np.random.default_rng(seed)
    if name == "verify":
        return _verify(sizes, workdir)
    if name == "oracle":
        return _oracle(sizes, rng)
    if name == "sweep":
        return _sweep(sizes, rng, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
