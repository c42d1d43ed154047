"""Outputs of the one table writer that no other pin covers, and
destinations it cannot write.

The digests hash the whole output file, `#` lines included: ``efficiency``
in CSV, whose `#` lines carry the optimal angle and the shot estimate, and
in JSON, one row of mixed ints and floats; and ``figure fig2a`` in CSV,
whose data lines alone ``tests/test_output_bytes.py`` pins. They were taken
while CSV and JSON still had a writer each and JSON held its last block
back. A destination that cannot be written is a ``QetError``: exit 2 and
one line on standard error, with no traceback.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from qetsim import cli

EFFICIENCY_ARGV = ("efficiency", "--n", "6", "--m", "2", "--ratio", "0.7",
                   "--shots", "100", "--seed", "3")

FILE_SHA256 = {
    (EFFICIENCY_ARGV, "csv"): "6f435ebecc3715edbea4bc02f3a3ad86d6c88fa4cf87d2f40f4a62c4a3e2965a",
    (EFFICIENCY_ARGV, "json"): "89abca06a52a316e5f9b215c032abeb89f13432dc0783a72d81bcc476a36d45e",
    (("figure", "fig2a"), "csv"):
        "8bf88e846170e115a264c3fa34d9c3e845e4842041bf61e4861e03b738807081",
}


@pytest.mark.parametrize("argv,fmt", sorted(FILE_SHA256), ids=lambda v: (
    v if isinstance(v, str) else v[0]))
def test_whole_files_are_pinned(tmp_path, argv, fmt):
    out = tmp_path / "table.out"
    assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FILE_SHA256[argv, fmt]


def run_unwritable(out: str) -> str:
    err = io.StringIO()
    with redirect_stderr(err):
        assert cli.main(["sweep", "--n", "3", "--m", "1", "--ratio", "1", "--out", out]) == 2
    return err.getvalue()


def test_an_out_path_in_a_missing_directory_is_refused(tmp_path):
    out = str(tmp_path / "missing" / "sweep.csv")
    assert run_unwritable(out) == f"error: cannot write {out}: No such file or directory\n"


def test_an_out_path_that_is_a_directory_is_refused(tmp_path):
    assert run_unwritable(str(tmp_path)) == f"error: cannot write {tmp_path}: Is a directory\n"


FULL = "/dev/full"
needs_full = pytest.mark.skipif(not os.path.exists(FULL), reason="no /dev/full here")
#: 1.5 kB, less than a write buffer, so the failure shows at the flush; and
#: 33 kB, so it shows at a write.
FULL_TABLES = [("fixtures",), ("bell", "--n", "3:200", "--ratio", "1,2")]


def run_qetsim(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``python -m qetsim`` with standard output buffered, as by default."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "qetsim", *argv], env=env,
                          stderr=subprocess.PIPE, text=True, **kwargs)


@needs_full
@pytest.mark.parametrize("argv", FULL_TABLES, ids=["in-one-buffer", "past-one-buffer"])
def test_a_full_device_as_out_is_refused(argv):
    done = run_qetsim([*argv, "--out", FULL])
    assert (done.returncode, done.stderr) == (
        2, f"error: cannot write {FULL}: No space left on device\n")


@needs_full
@pytest.mark.parametrize("argv", FULL_TABLES, ids=["in-one-buffer", "past-one-buffer"])
def test_a_full_device_as_stdout_is_refused(argv):
    with open(FULL, "wb") as full:
        done = run_qetsim([*argv], stdout=full)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write standard output: No space left on device\n")


def test_a_closed_stdout_is_refused():
    # Python starts with sys.stdout None where descriptor 1 is closed.
    done = run_qetsim(["fixtures"], preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write standard output: it is closed\n")
