"""Property test: the sweep emitters against the renderers they replaced.

``cli.rows_to_csv`` formats each distinct ratio once and ``cli.rows_to_json``
fills one text template per row. The references below are the earlier
renderers: one ``%.17g`` row template over the table's columns as Python
lists for CSV, and row dicts through ``json.dumps(indent=2)`` for JSON. Hypothesis draws
tables with ratios repeated from a small pool, floats from 0 through the
subnormals and 1e-300 to 1e300, and bell cells that are nan or finite.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qetsim import analysis, cli

OLD_SWEEP_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g,%s"


def columns(table: analysis.SweepTable) -> tuple[list, ...]:
    """The columns as Python lists in header order; a bell value that was
    not computed is None."""
    bell = [None if math.isnan(b) else b for b in table.bell.tolist()]
    return (table.n.tolist(), table.m.tolist(), table.ratio.tolist(),
            table.e_in.tolist(), table.e_out.tolist(), table.eta.tolist(), bell)


def reference_csv(table: analysis.SweepTable, meta: list[str]) -> str:
    *values, bell = columns(table)
    cells = ["" if b is None else "%.17g" % b for b in bell]
    lines = [f"# {m}" for m in meta]
    lines.append(cli.SWEEP_HEADER)
    lines.extend(OLD_SWEEP_ROW % row for row in zip(*values, cells))
    return "\n".join(lines) + "\n"


def reference_json(table: analysis.SweepTable, meta: list[str]) -> str:
    keys = cli.SWEEP_HEADER.split(",")
    rows = [dict(zip(keys, row)) for row in zip(*columns(table))]
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


floats = st.floats(0.0, 1e300)


@st.composite
def tables(draw):
    size = draw(st.integers(0, 25))

    def column(elements):
        return draw(st.lists(elements, min_size=size, max_size=size))

    counts = st.integers(0, 2**63 - 1)
    # 0.0 and -0.0 compare equal but print as 0 and -0.
    pool = draw(st.lists(floats, max_size=4)) + [0.0, -0.0]
    return analysis.SweepTable(
        np.array(column(counts), dtype=np.int64), np.array(column(counts), dtype=np.int64),
        np.array(column(st.sampled_from(pool)), dtype=float),
        *(np.array(column(floats), dtype=float) for _ in range(3)),
        np.array(column(floats | st.just(math.nan)), dtype=float))


@settings(max_examples=100, deadline=None)
@given(tables(), st.lists(st.text(max_size=8), max_size=3))
def test_emitters_equal_the_reference_renderers(table, meta):
    assert cli.rows_to_csv(table, meta) == reference_csv(table, meta)
    assert cli.rows_to_json(table, meta) == reference_json(table, meta)
