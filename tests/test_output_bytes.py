"""Pinned output bytes: the data rows of every figure and of one sweep.

The digests hash the non-`#` lines of the CSV, joined by newlines. The
figure digests are those of ``perfbench/workloads.py::FIGURE_SHA256``; the
sweep digest was taken before the closed forms were evaluated over arrays.
A change to any value in the last bit, to the float format or to the row
order changes a digest.
"""

from __future__ import annotations

import hashlib

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
