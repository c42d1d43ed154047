"""Pinned output bytes: every figure, one sweep, the JSON of two sweeps
and a figure, and the bell, nopt and fixtures tables.

The figure and sweep digests hash the non-`#` lines of the CSV, joined by
newlines. The figure digests are those of
``perfbench/workloads.py::FIGURE_SHA256``; the sweep digest was taken before
the closed forms were evaluated over arrays. The table digests hash the
whole output file, `#` lines included, and were taken while ``bell`` still
evaluated one point at a time and each table command wrote its own CSV and
JSON. The sweep and figure JSON digests hash the whole file too; they were
taken while the rows were still dicts passed to ``json.dumps(indent=2)``.
A change to any value in the last bit, to the float format, to a JSON
type or to the row order changes a digest.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr

import pytest

from qetsim import cli

FIGURE_SHA256 = {
    "fig2a": "40c6bb8f6dd216192150211ee6e9b605727b7689944714d5b43bdf9d9560b8fc",
    "fig2b": "66708324e75e936528a8120b2839d9e9549a0a8662977bcd3ccb0cf2606c3488",
    "fig3a": "4471b77410cdcc88cdce123412caa6faabcc827ca48efa4421d44da697b6570a",
    "fig3b": "bb4ffcaf2f0ed7128912ac3ce06c15d15157dfd0be35f0396f9e67eb86612848",
    "fig4a": "5c3ed8303a3e7fed891e656f80c8f1de5e6d5f2cc87cda6edd83632f56316411",
    "fig4b": "57221fc663fba60622ba8ea7e3b334945f6b6e499cfc74fa5d4966b40cafa833",
    "fig7": "5866b62163e9fc5abe5b9e1b0497b17d2cbb2cc2ff595ad1578471eb98c99726",
}

#: `sweep --n 2:8 --m 1:3 --ratio ... --bell --h 1.5`: N = 2 rows leave the
#: bell cell empty, and the ratios reach both branches of sqrt(1 + r^2) - 1.
SWEEP_ARGV = ("sweep", "--n", "2:8", "--m", "1:3", "--bell", "--h", "1.5",
              "--ratio", "0.01,0.3,1,2.5,40,1e4")
SWEEP_ROWS = 108
SWEEP_SHA256 = "937a354ee58994466ae8486b1ef0613a45cc8ae0ed1c0b884cf58d19fe954422"


def _data_digest(path) -> tuple[int, str]:
    lines = [line for line in path.read_text().split("\n")
             if line and not line.startswith("#")]
    return len(lines) - 1, hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FIGURE_SHA256))
def test_figure_rows_are_pinned(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert cli.main(["figure", name, "--out", str(out)]) == 0
    assert _data_digest(out)[1] == FIGURE_SHA256[name]


def test_sweep_rows_with_bell_are_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main([*SWEEP_ARGV, "--out", str(out)]) == 0
    assert _data_digest(out) == (SWEEP_ROWS, SWEEP_SHA256)


#: Whole-file digests of JSON sweep and figure output: the sweep has null
#: bell cells, h != 1 and both sqrt branches, fig4a has the k = 0 row and
#: Bell values, and the last grid is empty (m >= N drops its only point).
GRID_JSON_SHA256 = {
    SWEEP_ARGV: "398b5d5662c195a64d8bca45f36893952329e115d19f3856c7ad95e63a3831aa",
    ("figure", "fig4a"): "2e9694a249d3b365a480ad62fe1d799b7efa2d3b98a8aae23f9ae818764d850f",
    ("sweep", "--n", "3", "--m", "5", "--ratio", "1"):
        "a3d3788b5ceac9ed756b511a015f2173ec4fe4b43000f0d43beaf48d94ae3c54",
}


@pytest.mark.parametrize("argv", list(GRID_JSON_SHA256), ids=("sweep", "fig4a", "empty"))
def test_grid_json_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "grid.json"
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_JSON_SHA256[argv]


#: Unsorted, repeated N and ratios (the commands sort and dedupe them), the
#: k = 0 row where b is exactly 1, and h != 1.
BELL_ARGV = ("bell", "--n", "10,3:9,4", "--ratio", "100,0,0.01,0.5,1,7.5,1e6",
             "--h", "1.5")
NOPT_ARGV = ("nopt", "--x", "1000,0.5,10,3.7,100", "--scan")

TABLE_SHA256 = {
    (BELL_ARGV, "csv"): "46dc1f9672eeecf9b37021ec0b2c62ebe6fdf695a3b603a2bab0aa65e63ff40a",
    (BELL_ARGV, "json"): "59b5487c5ce72c91b70070badc2b2404c589b9b8b664f312cd715e0b53dcb6d8",
    (NOPT_ARGV, "csv"): "cac43914a915af2d527f793a704956cf09755ea5123e257a5171005053b8f108",
    (NOPT_ARGV, "json"): "b1d5149a1d4de1a5704dbfdbd4a3d6029f4684f89b03f7dd20407bc92dfcf7ae",
    (("fixtures",), "csv"): "8b4fd6360e55ac3dd30849ecff9f196e33bfc403552f49a4e8b4ad877607b897",
    (("fixtures",), "json"): "526772683f7bf129512e88afee2e4add98cdb9b94d944a1d716c709fcbd68d28",
}


@pytest.mark.parametrize("argv,fmt", sorted(TABLE_SHA256), ids=lambda v: (
    v if isinstance(v, str) else v[0]))
def test_table_bytes_are_pinned(tmp_path, argv, fmt):
    out = tmp_path / "table.out"
    assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_SHA256[argv, fmt]


#: The first failing point in (N, ratio) order decides the error.
BELL_ERRORS = (
    (("--n", "2:5", "--ratio", "1"), "Bell value needs N >= 3, got N=2"),
    (("--n", "2,3", "--ratio=-1,1"), "k must be finite and >= 0, got -1.0"),
    (("--n", "3:5", "--ratio=1,-1"), "k must be finite and >= 0, got -1.0"),
    (("--n", "3", "--ratio", "1", "--h", "0"), "h must be finite and > 0, got 0.0"),
    (("--n", "1,3", "--ratio", "1"), "need at least 2 qubits, got 1"),
    (("--n", "3000", "--ratio", "1"),
     "bell is not finite at N=3000, k/h=1, h=1: float64 over- or underflows there"),
    (("--n", "3,1100", "--ratio", "1,inf"), "k must be finite and >= 0, got inf"),
    (("--n", "3", "--ratio", "1e308,inf"), "k must be finite and >= 0, got inf"),
    (("--n", "2", "--ratio", "nan"), "k must be finite and >= 0, got nan"),
    (("--n", "2100", "--ratio", "0"),
     "bell saturation is not finite at N=2100: float64 overflows there"),
)


@pytest.mark.parametrize("args,message", BELL_ERRORS)
def test_bell_errors_are_pinned(tmp_path, args, message):
    out = tmp_path / "bell.csv"
    err = io.StringIO()
    with redirect_stderr(err):
        assert cli.main(["bell", *args, "--out", str(out)]) == 2
    assert err.getvalue() == f"error: {message}\n"
    assert not out.exists()
