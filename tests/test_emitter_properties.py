"""The table writer against the renderers it replaced.

``cli._table`` lays out blocks of rows as arrays, in CSV or JSON, their
floats from ``floatfmt.g17`` and ``floatfmt.shortest``; ``cli._text`` joins
the blocks into the ``str`` compared here, and ``cli.rows_to_csv`` and
``cli.rows_to_json`` do so for a sweep. The references below are the
earlier renderers: one ``%.17g`` row template over the table's columns as
Python lists for the sweep CSV, the earlier per-row ``_table`` and ``_fmt``
that wrote ``bell``, ``nopt`` and ``fixtures``, and row dicts through
``json.dumps(indent=2)`` for JSON. Hypothesis draws
sweeps with ratios repeated from a small pool, floats of either sign from
the subnormals and 1e-300 to 1e300, and bell cells that are nan or finite;
and tables of int, float, bool and string columns, with nans, signed zeros,
subnormals and floats past 1e16, at row counts around the block size.
Fixed tables cover every byte of a benchmark-sized sweep, and tracemalloc
bounds the peak of both sweep writers on the benchmark's tables.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


floats = st.floats(-1e300, 1e300)


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


def old_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return "%.17g" % value


def old_table(header: str, data_rows: list[list], meta: list[str]) -> str:
    """The per-row CSV writer of ``bell``, ``nopt`` and ``fixtures``."""
    lines = [f"# {m}" for m in meta]
    lines.append(header)
    for row in data_rows:
        lines.append(",".join(old_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def old_json_doc(meta: list[str], rows: list[dict]) -> str:
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


#: Floats of every kind a table cell can hold: nan, signed zeros,
#: subnormals, and values of 1e16 or more, the e+XX forms.
cell_floats = st.floats(allow_infinity=False) | st.sampled_from(
    [math.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1e16, -9.999999999999999e22, 2.0 ** 50 + 0.25])
CELLS = {
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "float": (cell_floats, np.float64),
    "bool": (st.booleans(), np.bool_),
    "str": (st.text(st.characters(blacklist_categories=(), blacklist_characters="\x00"),
                    max_size=6), np.str_),
}
B = cli.CSV_BLOCK_ROWS


@st.composite
def typed_tables(draw):
    """(columns, keys): columns of each kind whose cells come from a small
    drawn pool, in drawn or sorted order, so that some blocks hold a
    column's nans and others none; ``keys`` leading columns are inputs."""
    rows = draw(st.sampled_from([0, 1, 2, 5, B - 1, B, B + 1, 2 * B + 3]))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        cells, dtype = CELLS[kind]
        pool = np.array(draw(st.lists(cells, min_size=1, max_size=6)), dtype=dtype)
        at = rng.integers(0, pool.size, rows)
        columns.append(pool[np.sort(at) if draw(st.booleans()) else at])
    return columns, draw(st.integers(0, len(columns)))


def reference_rows(columns: list[np.ndarray]) -> list[list]:
    """Rows of Python values, as the commands built them; nan is None."""
    return [[None if v != v else v for v in row]
            for row in zip(*(c.tolist() for c in columns))]


@settings(max_examples=60, deadline=None)
@given(typed_tables(), st.lists(st.text(max_size=8), max_size=3))
@example(([np.array([math.nan, -0.0, 1e16]), np.array([math.nan, 0.0, 1.5])], 1), [])
def test_table_writers_equal_the_per_row_writers(table, meta):
    columns, keys = table
    header = ",".join(f"c{i}" for i in range(len(columns)))
    rows = reference_rows(columns)
    assert cli._text(cli._table("csv", header, columns, meta, keys)) == old_table(
        header, rows, meta)
    names = header.split(",")
    assert cli._text(cli._table("json", header, columns, meta)) == old_json_doc(
        meta, [dict(zip(names, row)) for row in rows])


@pytest.fixture(scope="module")
def benchmark_sweep() -> analysis.SweepTable:
    """The CSV sweep of the perfbench sweep workload, with Bell values:
    N 3-202, m 1-3 and 301 log-uniform ratios, 180,299 rows."""
    rng = np.random.default_rng(1)
    ratios = sorted(set((10.0 ** rng.uniform(-2.0, 4.0, 301)).tolist()))
    return analysis.efficiency_sweep(range(3, 203), range(1, 4), ratios, with_bell=True)


def without_bell(table: analysis.SweepTable) -> analysis.SweepTable:
    return analysis.SweepTable(table.n, table.m, table.ratio, table.e_in, table.e_out,
                               table.eta, np.full(table.n.size, math.nan))


@pytest.mark.parametrize("bell", [False, True], ids=["plain", "bell"])
def test_every_byte_of_a_benchmark_sized_sweep(benchmark_sweep, bell):
    # The benchmark's own gate reads only 200 sampled rows of this output.
    table = benchmark_sweep if bell else without_bell(benchmark_sweep)
    meta = ["dataset: sweep", f"points: {table.n.size}"]
    assert table.n.size == 180_299
    assert cli.rows_to_csv(table, meta) == reference_csv(table, meta)
    assert cli.rows_to_json(table, meta) == reference_json(table, meta)


def random_table(rows: int, seed: int) -> analysis.SweepTable:
    """Values of both signs over the whole normal range, with zeros,
    subnormals, ties, values past 1e16 and missing bell cells mixed in."""
    rng = np.random.default_rng(seed)

    def column():
        values = 10.0 ** rng.uniform(-310, 20, rows) * rng.choice([-1.0, 1.0], rows)
        odd = rng.random(rows) < 0.05
        values[odd] = rng.choice([0.0, -0.0, 5e-324, 2.0 ** 50 + 0.25, 1e16, 1e-5],
                                 odd.sum())
        return values

    bell = column()
    bell[rng.random(rows) < 0.3] = math.nan
    return analysis.SweepTable(
        rng.integers(-2**63, 2**63, rows), rng.integers(0, 50, rows),
        rng.choice(column()[:7], rows), column(), column(), column(), bell)


@pytest.mark.parametrize("rows", [1, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS,
                                  cli.CSV_BLOCK_ROWS + 1])
def test_tables_around_the_block_size(rows):
    table = random_table(rows, seed=rows)
    assert cli.rows_to_csv(table, ["m"]) == reference_csv(table, ["m"])
    assert cli.rows_to_json(table, ["m"]) == reference_json(table, ["m"])


def test_an_empty_table():
    table = random_table(0, seed=0)
    assert cli.rows_to_csv(table, []) == reference_csv(table, []) == cli.SWEEP_HEADER + "\n"


#: tracemalloc peak of ``rows_to_csv`` on the benchmark sweep without Bell
#: values, whose text is 15.5 MB: the text is held twice, as the blocks and
#: their join, then as the join and the str. Measured 30.96 MB; the emitter
#: that formatted one row at a time peaked at 58.0 MB.
CSV_PEAK_BYTES = 32_000_000


def test_csv_peak_memory_of_a_benchmark_sized_sweep(benchmark_sweep):
    table = without_bell(benchmark_sweep)
    meta = ["dataset: sweep"]
    cli.rows_to_csv(random_table(10, seed=0), meta)  # the formatter's tables, built once
    tracemalloc.start()
    try:
        text = cli.rows_to_csv(table, meta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 15_475_012
    assert peak <= CSV_PEAK_BYTES, peak


#: tracemalloc peak of ``rows_to_json`` on the JSON sweep of the benchmark,
#: with Bell values, whose text is 4.25 MB. Measured 13.15 MB; with the bell
#: column as a list of tokens, 13.85 MB, and with every column as a list of
#: tokens, 18.4 MB.
JSON_PEAK_BYTES = 14_500_000


def test_json_peak_memory_of_the_benchmark_bell_sweep():
    """N 3-69, m 1-3 and 100 log-uniform ratios, 20,000 rows."""
    rng = np.random.default_rng(1)
    ratios = sorted(set((10.0 ** rng.uniform(-2.0, 4.0, 100)).tolist()))
    table = analysis.efficiency_sweep(range(3, 70), range(1, 4), ratios, with_bell=True)
    meta = ["dataset: sweep"]
    cli.rows_to_json(random_table(10, seed=0), meta)  # import json once
    tracemalloc.start()
    try:
        text = cli.rows_to_json(table, meta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.n.size == 20_000
    assert 4_200_000 < len(text) < 4_300_000
    assert peak <= JSON_PEAK_BYTES, peak
