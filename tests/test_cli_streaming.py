"""Tables streamed to their destination block by block.

A command writes each block of ``cli._table`` as soon as it is laid out:
to ``--out``, opened in binary mode once the table is evaluated, or to
standard output's binary buffer, or decoded to a stream that has none.
These tests hold the three destinations to the bytes of ``rows_to_csv``
and ``rows_to_json`` at row counts around the block size, check that a
refused input leaves no file behind (and an existing one as it was), and
bound the memory of a benchmark-sized sweep.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from qetsim import analysis, cli

B = cli.CSV_BLOCK_ROWS


def ratios(rows: int) -> list[float]:
    return (10.0 ** np.linspace(-2.0, 4.0, max(rows, 1))).tolist()


def sweep_argv(rows: int) -> list[str]:
    """A sweep of ``rows`` rows at N = 3, m = 1; no rows where m = N."""
    return ["sweep", "--n", "3", "--m", "1" if rows else "3",
            "--ratio", ",".join(map(repr, ratios(rows)))]


def reference(rows: int, fmt: str) -> str:
    table = analysis.efficiency_sweep([3], [1 if rows else 3], ratios(rows))
    meta = ["dataset: sweep", "h: 1", f"points: {rows}"]
    return (cli.rows_to_csv if fmt == "csv" else cli.rows_to_json)(table, meta)


# 2B rows in JSON: the last block is full, and its rows carry their ","
# in front as the rows of the full block before it do.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 1])
def test_every_destination_gets_the_bytes_of_the_str_writers(tmp_path, capsysbinary,
                                                              rows, fmt):
    want = reference(rows, fmt)
    if fmt == "json":  # only the first row's comma is cut, also from a full block
        assert json.dumps(json.loads(want), indent=2) + "\n" == want
    else:
        assert want.count("\n") == 4 + rows  # three # lines and the header
    argv = [*sweep_argv(rows), "--format", fmt]
    out = tmp_path / "table.out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert cli.main(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == want.encode() and captured.err == b""
    text = io.StringIO()
    with redirect_stdout(text):
        assert cli.main(argv) == 0
    assert text.getvalue() == want


def test_text_already_written_to_stdout_stays_first(monkeypatch):
    # A text layer that buffers is flushed before the blocks reach its buffer.
    stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stream)
    stream.write("before\n")
    assert cli.main(sweep_argv(2)) == 0
    stream.write("after\n")
    stream.flush()
    assert stream.buffer.getvalue().decode() == "before\n" + reference(2, "csv") + "after\n"


def test_a_reader_that_leaves_early_ends_the_output_quietly(monkeypatch):
    # As under ``qetsim sweep ... | head -n 1``: the blocks after the reader
    # closed its end are dropped, with no BrokenPipeError then or at exit.
    read, write = os.pipe()
    os.close(read)
    stream = open(write, "w")
    monkeypatch.setattr(sys, "stdout", stream)
    try:
        assert cli.main(sweep_argv(B + 1)) == 0
        stream.flush()
    finally:
        stream.close()


REFUSED = [
    ("sweep", "--n", "3", "--m", "1", "--ratio=1,-1"),
    ("sweep", "--n", "99999999999999999999", "--m", "1", "--ratio", "1"),
    ("sweep", "--n", "3:100002", "--m", "1,2", "--ratio", "1,2,3,4"),
    ("sweep", "--n", "3:5", "--m", "1", "--ratio", "1", "--bell", "--h", "1e-320"),
    ("figure", "fig2a", "--h", "0"),
    ("figure", "fig3a", "--format", "json", "--h", "1e308"),
    ("efficiency", "--n", "3", "--m", "1", "--ratio=-1"),
    ("efficiency", "--n", "3", "--m", "3", "--ratio", "1", "--format", "json"),
]


def run_refused(argv, out) -> str:
    err = io.StringIO()
    with redirect_stderr(err):
        assert cli.main([*argv, "--out", str(out)]) == 2
    assert err.getvalue().startswith("error: ")
    return err.getvalue()


@pytest.mark.parametrize("argv", REFUSED, ids=lambda argv: " ".join(argv)[:40])
def test_a_refused_table_opens_no_file(tmp_path, argv):
    out = tmp_path / "table.out"
    run_refused(argv, out)
    assert not out.exists()


def test_a_refused_table_leaves_an_existing_file_as_it_was(tmp_path):
    out = tmp_path / "table.out"
    out.write_bytes(b"earlier output\n")
    assert "ratios must be finite" in run_refused(REFUSED[0], out)
    assert out.read_bytes() == b"earlier output\n"


#: tracemalloc peak of ``qetsim sweep --out`` on the CSV sweep of the
#: benchmark, 180,299 rows, whose text is 15.5 MB. Measured 23.5 MB, set by
#: evaluating the table: ``analysis.efficiency_sweep`` alone peaks at 23.5
#: MB and leaves 10.1 MB of columns, and emitting on top of them peaks at
#: 20.5 MB. With the whole text joined, decoded and re-encoded the command
#: peaked at 41.1 MB.
SWEEP_OUT_PEAK_BYTES = 25_000_000


def test_peak_memory_of_a_benchmark_sized_sweep_to_a_file(tmp_path):
    rng = np.random.default_rng(1)
    ratios = sorted(set((10.0 ** rng.uniform(-2.0, 4.0, 301)).tolist()))
    argv = ["sweep", "--n", "3:202", "--m", "1:3", "--ratio", ",".join(map(repr, ratios))]
    out = tmp_path / "sweep.csv"
    assert cli.main([*argv[:2], "3:12", *argv[3:], "--out", str(out)]) == 0  # warm tables
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == 15_475_036
    assert peak <= SWEEP_OUT_PEAK_BYTES, peak
