"""Input-domain properties of the command line, drawn by Hypothesis.

Every run ends in exit 0 with finite output, or in exit 2 with one stderr
line; an uncaught exception would escape ``cli.main`` and fail the test.
Draws stay small: one ``nopt`` value, or a two-row ``bell`` table.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from qetsim import cli


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def data_rows(text: str) -> list[list[str]]:
    body = [ln for ln in text.splitlines() if not ln.startswith("# ")]
    return [row.split(",") for row in body[1:]]


def binades(lo: int, hi: int):
    """Positive floats with a binary exponent drawn uniformly from [lo, hi],
    so that subnormal and near-overflow values come up as often as 1."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(lo, hi))


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.floats(min_value=5e-324, allow_infinity=False),
                   binades(-1074, 1023)))
@example(x=8.3e76)  # here 4 x^4 overflows but x^4 does not
@example(x=1.15e77)
def test_nopt_gives_finite_fields_or_one_error_line(x):
    code, out, err = run_cli("nopt", "--x", repr(x))
    if code == 0:
        assert err == ""
        (row,) = data_rows(out)
        assert all(math.isfinite(float(field)) for field in row)
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(h=st.one_of(st.floats(min_value=5e-324, max_value=1e300),
                   binades(-1074, 995)),
       ratio=st.floats(min_value=0.0, max_value=1e3))
@example(h=5e-324, ratio=1.0)  # k = ratio * h is subnormal
@example(h=1e-310, ratio=0.01)
def test_bell_rows_at_any_field_are_the_unit_field_rows(h, ratio):
    """b depends on N and k/h alone, so at field h every row is the h = 1
    row, its b within 4 ulp."""
    argv = ("bell", "--n", "3,20", "--ratio", repr(ratio))
    _, at_one, _ = run_cli(*argv)
    code, out, err = run_cli(*argv, "--h", repr(h))
    assert code == 0 and err == ""
    rows, rows_one = data_rows(out), data_rows(at_one)
    assert len(rows) == len(rows_one) == 2
    for (n, r, b, violates, sat), (n1, r1, b1, _, sat1) in zip(rows, rows_one):
        assert (n, r, sat) == (n1, r1, sat1)
        assert abs(float(b) - float(b1)) <= 4 * math.ulp(float(b1))
        assert violates == ("true" if float(b) > 1.0 else "false")
