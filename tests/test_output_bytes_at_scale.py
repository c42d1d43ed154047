"""Pinned output bytes at the size of the benchmark's sweeps.

The small pins in ``test_output_bytes.py`` reach few of the array paths'
blocks and fallbacks; these grids reach all of them. The CSV digests hash
the non-`#` lines joined by newlines, as there; the JSON digest hashes the
whole text. The digests were taken while ``closedform`` still called
``math.hypot`` once per element and ``cli`` found distinct key values with
``np.unique``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from qetsim import analysis, cli


def _ratios(count: int) -> list[float]:
    """``count`` log-uniform ratios in [1e-2, 1e4] from seed 1, sorted."""
    rng = np.random.default_rng(1)
    ratios = sorted(set((10.0 ** rng.uniform(-2.0, 4.0, count)).tolist()))
    assert len(ratios) == count
    return ratios


#: N 3-202, m 1-3 and 301 ratios: 180,299 rows. At h = 1e-200, h^2 is
#: subnormal and every point is evaluated in units of h.
SWEEP_SHA256 = {
    1.0: "55329c0fb253f0237efe98fc8021c4f7592fd627d9f591b3e56443e8813fc20f",
    1e-200: "ae58fc5e07fc06642aeb1a448ebc7c7f0e0484905fbaf6ccff8fd8f7cdca24e6",
}


@pytest.mark.parametrize("h", sorted(SWEEP_SHA256))
def test_benchmark_sweep_rows_are_pinned(h):
    text = cli.render_sweep(range(3, 203), range(1, 4), _ratios(301), h=h)
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    assert len(lines) - 1 == 180_299
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_SHA256[h]


def test_benchmark_bell_sweep_json_is_pinned():
    """N 3-69, m 1-3 and 100 ratios with Bell values: 20,000 rows."""
    table = analysis.efficiency_sweep(range(3, 70), range(1, 4), _ratios(100),
                                      with_bell=True)
    text = cli.rows_to_json(table, ["dataset: sweep"])
    assert table.n.size == 20_000
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "05c4d58dd36d397df4519b17558907c9053fb833be86effb430cc7e419e5a3ff")
