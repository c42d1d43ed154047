"""Command-line behavior: output formats, determinism, config and env handling."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qetsim import analysis, cli, protocol_oracle, verify
from qetsim.model import ModelParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str):
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("# ")]
    return meta, body[0], body[1:]


def test_efficiency_point(capsys):
    code, out, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "1", "--ratio", "1")
    assert code == 0 and err == ""
    meta, header, rows = parse_csv(out)
    assert header == cli.SWEEP_HEADER
    assert len(rows) == 1
    fields = rows[0].split(",")
    assert fields[:3] == ["3", "1", "1"]
    assert float(fields[3]) == pytest.approx(1.6641005886756874, rel=1e-15)
    assert float(fields[4]) == pytest.approx(0.29461729071148773, rel=1e-15)
    assert float(fields[5]) == pytest.approx(0.17704295804975825, rel=1e-15)
    assert fields[6] == ""  # bell column exists but is not computed here
    joined = "\n".join(meta)
    assert "theta_opt: 0.25957305712326145" in joined
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_efficiency_json(capsys):
    code, out, _ = run_cli(capsys, "efficiency", "--n", "4", "--m", "1",
                           "--ratio", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["eta"] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert row["e_out"] == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)
    assert row["theta_opt"] == pytest.approx(0.5 * math.atan2(3.0, 4.0), rel=1e-14)


def test_efficiency_with_shot_estimate(capsys):
    code, out, _ = run_cli(capsys, "efficiency", "--n", "3", "--m", "1",
                           "--ratio", "1", "--shots", "64", "--seed", "5")
    assert code == 0
    meta, _, rows = parse_csv(out)
    sampled = {ln.split(":")[0][2:]: ln.split(": ")[1] for ln in meta}
    assert sampled["shots"] == "64"
    assert sampled["seed"] == "5"
    assert float(sampled["sampled_e_in"]) == pytest.approx(1.6641005886756874, abs=1e-12)
    assert float(sampled["sampled_e_out"]) == pytest.approx(0.29461729071148773, abs=1e-12)


def test_efficiency_rejects_bad_partition(capsys):
    code, _, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "3", "--ratio", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("shots", ["0", "-2"])
def test_efficiency_rejects_fewer_than_one_shot(capsys, shots):
    code, out, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "1",
                             "--ratio", "1", "--shots", shots)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "shot" in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_efficiency_rejects_out_of_range_seed(capsys, seed):
    code, out, err = run_cli(capsys, "efficiency", "--n", "4", "--m", "1",
                             "--ratio", "1", "--shots", "8", "--seed", seed)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("nopt", "--x", "1", "--scan", "--n-max", "2000000000"),
    ("efficiency", "--n", "3", "--m", "1", "--ratio", "1", "--shots", "2000000000"),
])
def test_sizes_past_their_cap_exit_2_before_allocating(capsys, monkeypatch, argv):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    monkeypatch.setattr(analysis.np, "arange", no_allocation)
    monkeypatch.setattr(protocol_oracle, "measure_branches", no_allocation)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2000000000" in err


def test_int_lists_past_the_grid_cap_exit_2_before_expanding(capsys, monkeypatch):
    # Values are counted from the range bounds; a list past the cap is a
    # usage error before any range object exists.
    def no_allocation(*args, **kwargs):
        raise AssertionError("expanded past the cap")

    monkeypatch.setattr(cli, "range", no_allocation, raising=False)
    monkeypatch.setattr(analysis, "grid", no_allocation)
    monkeypatch.setattr(analysis, "bell_table", no_allocation)
    for argv, count in [
        (("sweep", "--n", "2:1000000000", "--m", "1", "--ratio", "1"), 999999999),
        (("sweep", "--m", "1:2000000000:2", "--n", "3", "--ratio", "1"), 1000000000),
        (("bell", "--n", "3:400000,3:400000", "--ratio", "1"), 799996),
    ]:
        with pytest.raises(SystemExit) as done:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert done.value.code == 2 and captured.out == ""
        assert f"holds {count} values" in captured.err, captured.err
        assert "Traceback" not in captured.err


def test_int_lists_at_the_grid_cap_expand():
    cap = analysis.GRID_POINTS_MAX
    assert cli._int_list(f"1:{cap}") == list(range(1, cap + 1))
    assert cli._int_list(f"5,1:{2 * cap - 3}:2") == [5, *range(1, 2 * cap - 2, 2)]


@pytest.mark.parametrize("argv, points", [
    (("sweep", "--n", "2:1001", "--m", "1:1000", "--ratio", "1,2"), 1001000),
    (("sweep", "--n", "3:100002", "--m", "1,2", "--ratio", "1,2,3,4"), 800000),
    (("bell", "--n", "3:300002", "--ratio", "1,2,3"), 900000),
])
def test_grids_past_their_cap_exit_2_before_allocating(capsys, monkeypatch, argv, points):
    # Every list is under the cap, but the (N, m, ratio) product is not.
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    for name in ("repeat", "tile"):
        monkeypatch.setattr(analysis.np, name, no_allocation)
    monkeypatch.setattr(analysis, "bell_values", no_allocation)
    monkeypatch.setattr(analysis.closedform, "energies", no_allocation)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: the grid has {points} points, "
                   f"more than {analysis.GRID_POINTS_MAX}\n")


@pytest.mark.parametrize("argv", [
    ("sweep", "--n", "99999999999999999999", "--m", "1", "--ratio", "1"),
    ("bell", "--n", "99999999999999999999", "--ratio", "1"),
    ("efficiency", "--n", "99999999999999999999", "--m", "1", "--ratio", "1"),
    ("bell", "--n", "-99999999999999999999", "--ratio", "1"),
])
def test_qubit_counts_past_int64_exit_2(capsys, argv):
    # Before: an OverflowError traceback where the count became an int64.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: qubit count {argv[2]} is outside the int64 range\n"


def test_output_counts_past_int64_exit_2(capsys):
    # Before: exit 0 with "points: 0", every pair dropped as m >= N, while
    # efficiency refused the same count.
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--m", "9223372036854775808",
                             "--ratio", "1")
    assert code == 2 and out == ""
    assert err == "error: output count 9223372036854775808 is outside the int64 range\n"


def test_largest_int64_qubit_count_runs(capsys):
    # e_in >= 1e16 prints in the e+XX form, which the CSV formatter leaves to
    # "%.17g" one value at a time.
    code, out, _ = run_cli(capsys, "sweep", "--n", "9223372036854775807", "--m", "1",
                           "--ratio", "1")
    assert code == 0
    assert out.splitlines()[-1] == ("9223372036854775807,1,1,9.2233720368547758e+18,"
                                    "1.2360679774997898,1.3401475865450357e-19,")


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # Both numerical solvers run as well: neither needs scipy.
    probe = ("import sys, qetsim, qetsim.cli; from qetsim import simkernel; "
             "p = qetsim.model.ModelParams(6, 1.0, 0.7); "
             "[simkernel.exact_ground_state(p, method) "
             "for method in ('lanczos', 'dense')]; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("flag", ["--ratio", "--h"])
def test_efficiency_rejects_infinite_couplings(capsys, flag):
    argv = {"--n": "3", "--m": "1", "--ratio": "1", flag: "inf"}
    code, out, err = run_cli(capsys, "efficiency", *(x for kv in argv.items() for x in kv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


def test_sweep_grid_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "3:5", "--m", "1:3", "--ratio", "1.0")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == cli.SWEEP_HEADER
    assert len(rows) == 8
    assert rows[0].startswith("3,1,1,")
    assert all(row.endswith(",") for row in rows)  # empty bell column


def test_sweep_bell_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2,3", "--m", "1",
                           "--ratio", "1.0", "--bell")
    assert code == 0
    _, _, rows = parse_csv(out)
    by_n = {row.split(",")[0]: row for row in rows}
    assert by_n["2"].endswith(",")  # bell undefined below three qubits
    assert float(by_n["3"].rsplit(",", 1)[1]) == pytest.approx(1.1435437497937313, rel=1e-14)


def test_sweep_k_zero_row_matches_efficiency(capsys):
    # The decoupled point k = 0 is on the sweep's domain, as on every other
    # command's, with E_in > 0 and nothing extracted.
    code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--m", "1", "--ratio", "0,1")
    assert code == 0
    _, _, rows = parse_csv(out)
    code, point, _ = run_cli(capsys, "efficiency", "--n", "3", "--m", "1", "--ratio", "0")
    assert code == 0
    assert rows[0] == parse_csv(point)[2][0] == "3,1,0,2,0,0,"


@pytest.mark.parametrize("argv", [
    ("efficiency", "--n", "3", "--m", "1", "--ratio={}"),
    ("efficiency", "--n", "3", "--m", "1", "--ratio={}", "--format", "json"),
    ("bell", "--n", "3", "--ratio={}"),
    ("sweep", "--n", "3", "--m", "1", "--ratio={},1"),
])
def test_negative_zero_ratio_prints_as_zero(capsys, argv):
    code, minus, _ = run_cli(capsys, *(a.format("-0") for a in argv))
    assert code == 0
    code, plus, _ = run_cli(capsys, *(a.format("0") for a in argv))
    assert code == 0
    assert minus == plus and "-0" not in minus


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["efficiency", "--n", "3", "--m", "1", "--ratio", "1"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "qetsim", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_cli(capsys, *argv)[1]


def test_sweep_rejects_bad_ranges(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "1:3", "--m", "1", "--ratio", "1.0")
    assert code == 2 and "error:" in err
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "sweep", "--n", "5:2", "--m", "1", "--ratio", "1.0")
    assert exc.value.code == 2


def test_int_list_parsing():
    assert cli._int_list("3:6") == [3, 4, 5, 6]
    assert cli._int_list("2,5,7") == [2, 5, 7]
    assert cli._int_list("1:9:3") == [1, 4, 7]
    assert cli._int_list("4") == [4]
    assert cli._int_list("3:4,10") == [3, 4, 10]
    import argparse
    for bad in ("5:2", "1:5:0", "1:2:3:4"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._int_list(bad)


def test_figure_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path in paths:
        code, _, _ = run_cli(capsys, "figure", "fig7", "--out", str(path))
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    text = blobs[0].decode()
    _, header, rows = parse_csv(text)
    assert header == cli.SWEEP_HEADER
    assert len(rows) == 602


def test_figure_stdout_matches_file_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "figure", "fig2a")
    assert code == 0
    path = tmp_path / "fig.csv"
    run_cli(capsys, "figure", "fig2a", "--out", str(path))
    assert path.read_text() == out
    _, _, rows = parse_csv(out)
    assert len(rows) == 45


def test_figure_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "figure", "fig2a", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 45
    assert doc["rows"][0]["n"] == 10
    assert any("fig2a" in m for m in doc["meta"])


def test_figure_unknown_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "figure", "fig9")
    assert exc.value.code == 2


def test_bell_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bell", "--n", "8", "--ratio", "0.5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == "n,ratio,b_value,violates,saturation"
    fields = rows[0].split(",")
    assert fields[0] == "8"
    assert float(fields[2]) == pytest.approx(1.403292830891247, rel=1e-14)
    assert fields[3] == "true"
    assert float(fields[4]) == 8.0

    code, _, err = run_cli(capsys, "bell", "--n", "2", "--ratio", "1.0")
    assert code == 2 and "error:" in err


def test_nopt_subcommand_with_scan(capsys):
    code, out, _ = run_cli(capsys, "nopt", "--x", "10", "--scan", "--n-max", "500")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == "x,n_opt_real,n_opt_int,eta_at_opt,c_aux,scan_n,scan_eta"
    fields = rows[0].split(",")
    assert fields[2] == "10" and fields[5] == "10"
    assert float(fields[3]) == pytest.approx(0.4196918171640247, rel=1e-13)
    assert float(fields[6]) == pytest.approx(0.4196918171640247, rel=1e-13)

    code, _, err = run_cli(capsys, "nopt", "--x", "0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("scan", [(), ("--scan",)])
@pytest.mark.parametrize("x", ["8.3e76", "1e77", "1.15e77"])
def test_nopt_where_4x4_overflows_before_x4_exits_2(capsys, x, scan):
    # Before: c_aux was inf and the square root raised "math domain error".
    code, out, err = run_cli(capsys, "nopt", "--x", x, *scan)
    assert (code, out) == (2, "")
    assert err == f"error: x={float(x):g} is too large: x**4 overflows float64\n"


def test_nopt_just_below_the_quartic_overflow_prints_a_row(capsys):
    code, out, err = run_cli(capsys, "nopt", "--x", "8.1e76")
    assert code == 0 and err == ""
    _, _, rows = parse_csv(out)
    assert len(rows) == 1 and all(math.isfinite(float(f)) for f in rows[0].split(","))


@pytest.mark.parametrize("h", ["1e-160", "1e-310", "1e-320", "5e-324"])
def test_bell_rows_where_h_squared_is_subnormal_match_unit_field(capsys, h):
    # b depends on N and k/h alone. Before: 1.0307764064044151 at N=3,
    # k/h=1, h=5e-324, where the exact value is 1.1435437497937313.
    argv = ("bell", "--n", "3,8,20", "--ratio", "0,0.01,1,7,1e5")
    _, at_one, _ = run_cli(capsys, *argv)
    code, tiny, err = run_cli(capsys, *argv, "--h", h)
    assert code == 0 and err == ""
    assert parse_csv(tiny)[2] == parse_csv(at_one)[2]
    assert "3,1,1.1435437497937313,true," in at_one


@pytest.mark.parametrize("n", ["3", "10", "2000"])
def test_bell_past_the_2k_overflow_matches_tiny_field(capsys, n):
    # At k/h >= 2^1023, 2k overflows at h = 1 although b is finite: before,
    # N=3, k/h=1e308 exited 2 with "bell is not finite". There sx = 1 and
    # cz^2 underflows, so b is the saturation 2^((N-2)/2) to the last bit,
    # and b depends on k/h alone, so h = 1e-200 prints the same rows.
    argv = ("bell", "--n", n, "--ratio", "8.98846567431158e307,1e308,1.7976931348623157e308")
    code, at_one, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    rows = parse_csv(at_one)[2]
    assert len(rows) == 3 and all(r.split(",")[2] == r.split(",")[4] for r in rows)
    _, tiny, _ = run_cli(capsys, *argv, "--h", "1e-200")
    assert parse_csv(tiny)[2] == rows
    if n == "3":
        assert "3,1e+308,1.4142135623730951,true,1.4142135623730951" in at_one


def test_large_field_bell_matches_unit_field(capsys):
    # b depends on N and k/h alone. Before: N h = 1.8e308 overflowed c and
    # this exited 2 with "bell is not finite at N=3, k/h=1, h=6e+307".
    _, at_one, _ = run_cli(capsys, "bell", "--n", "3", "--ratio", "1")
    code, big, err = run_cli(capsys, "bell", "--n", "3", "--ratio", "1", "--h", "6e307")
    assert code == 0 and err == ""
    assert parse_csv(big)[2] == parse_csv(at_one)[2] == [
        "3,1,1.1435437497937313,true,1.4142135623730951"]


@pytest.mark.parametrize("argv, field", [
    (("bell", "--n", "3", "--ratio", "1", "--h", "5.5e307"), 2),
    (("sweep", "--n", "3", "--m", "1", "--ratio", "1", "--h", "5.5e307", "--bell"), 6),
])
def test_bell_where_only_c_overflows_matches_unit_field(capsys, argv, field):
    # N h = 1.65e308 and 2k = 1.1e308 are finite, c = hypot(N h, 2k) is not.
    # Before: 2k/c = Nh/c = 0 gave b = 0 and "violates" false, with exit 0.
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].split(",")[field] == "1.1435437497937313"


def test_large_field_efficiency_is_the_unit_field_scaled_by_h(capsys):
    # Before: "e_in is not finite" with exit 2, where E_in is about 1.66e308.
    argv = ("efficiency", "--n", "3", "--m", "1", "--ratio", "1")
    _, at_one, _ = run_cli(capsys, *argv)
    code, big, err = run_cli(capsys, *argv, "--h", "1e308")
    assert code == 0 and err == ""
    meta_one, _, (row_one,) = parse_csv(at_one)
    meta_big, _, (row_big,) = parse_csv(big)
    assert meta_big == meta_one  # theta is scale-free
    e_in, e_out, eta = (float(v) for v in row_big.split(",")[3:6])
    e_in1, e_out1, eta1 = (float(v) for v in row_one.split(",")[3:6])
    assert e_in == e_in1 * 1e308 and e_out == e_out1 * 1e308 and eta == eta1
    assert 1.66e308 < e_in < 1.67e308


#: The row of efficiency and sweep at N=3, m=1, k/h=1e150, h=1e160, where
#: k = (k/h) h overflows and the closed forms take the unit-field path.
OVERFLOWING_K_ROW = "3,1,9.9999999999999998e+149,30000000000,10000000000.000002,0.33333333333333343,"


def test_efficiency_agrees_with_sweep_where_k_overflows(capsys):
    # Before: efficiency exited 2 with "k must be finite and >= 0, got inf",
    # while sweep printed this row.
    argv = ("--n", "3", "--m", "1", "--ratio", "1e150", "--h", "1e160")
    code, point, err = run_cli(capsys, "efficiency", *argv)
    assert code == 0 and err == ""
    meta, _, rows = parse_csv(point)
    assert rows == [OVERFLOWING_K_ROW]
    assert meta == ["# theta_opt: 5.0000000000000007e-151", "# cos_2theta: 1",
                    "# sin_2theta: 1.0000000000000001e-150"]
    code, grid, err = run_cli(capsys, "sweep", *argv)
    assert code == 0 and err == ""
    assert parse_csv(grid)[2] == [OVERFLOWING_K_ROW]
    code, doc, _ = run_cli(capsys, "efficiency", *argv, "--format", "json")
    assert code == 0
    assert json.loads(doc)["rows"] == [{
        "n": 3, "m": 1, "ratio": 1e150, "h": 1e160, "e_in": 30000000000.0,
        "e_out": 10000000000.000002, "eta": 0.3333333333333334,
        "theta_opt": 5.000000000000001e-151}]


@pytest.mark.parametrize("ratio, h, message", [
    ("-1", "2", "k must be finite and >= 0, got -2.0"),
    ("1", "0", "h must be finite and > 0, got 0.0"),
    ("nan", "2", "k must be finite and >= 0, got nan"),
    ("1e150", "-1e160", "h must be finite and > 0, got -1e+160"),
])
def test_efficiency_rejects_couplings_the_model_rejects(capsys, ratio, h, message):
    code, out, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "1",
                             f"--ratio={ratio}", f"--h={h}")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_shots_where_k_overflows_exit_2(capsys):
    code, out, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "1", "--ratio", "1e150",
                             "--h", "1e160", "--shots", "10")
    assert code == 2 and out == ""
    assert err == ("error: --shots cannot sample at k/h=1e+150, h=1e+160: "
                   "k = (k/h) h overflows float64 there\n")


@pytest.mark.parametrize("argv, out_line, error", [
    (("bell", "--n", "3", "--ratio", "1e300", "--h", "1e10"),
     "3,1.0000000000000001e+300,1.4142135623730951,true,1.4142135623730951", None),
    (("sweep", "--n", "3", "--m", "1", "--ratio", "1e300", "--h", "1e10"), None,
     "error: e_out is not finite at N=3, m=1, k/h=1e+300, h=1e+10: "
     "float64 over- or underflows there\n"),
    (("sweep", "--n", "3", "--m", "1", "--ratio", "1e300", "--h", "1e10", "--bell"), None,
     "error: e_out is not finite at N=3, m=1, k/h=1e+300, h=1e+10: "
     "float64 over- or underflows there\n"),
])
def test_coupling_past_the_float_range_warns_nothing(capsys, argv, out_line, error):
    # k = ratio * h overflows here. Before: numpy's RuntimeWarning and its
    # source line on stderr, then an error naming k = inf or k/h = inf. Now b
    # comes from k/h at unit field, and an error names the k/h and h given.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    if error is None:
        assert code == 0 and err == "" and out.splitlines()[-1] == out_line
    else:
        assert code == 2 and out == "" and err == error


def test_fixtures_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0  # variants misbehaving would flip the exit code
    _, header, rows = parse_csv(out)
    assert len(rows) == 15
    assert header.split(",")[5:7] == ["expected_mismatch", "agrees"]
    variant_rows = [r for r in rows if r.split(",")[5] == "true"]
    assert len(variant_rows) == 2
    for row in variant_rows:
        assert row.split(",")[6] == "false"  # expected mismatch, and it did


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("h = 2.0\nbell = true\n# trailing comment line\n")
    code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--m", "1",
                           "--ratio", "1.0", "--config", str(cfg))
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert "# h: 2" in meta
    assert rows[0].split(",")[-1] != ""  # bell came from the config flag

    # Explicit flags win over config values.
    code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--m", "1",
                           "--ratio", "1.0", "--config", str(cfg), "--h", "3.0")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert "# h: 3" in meta


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--m", "1",
                           "--ratio", "1.0", "--config", str(missing))
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line with no equals\n")
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--m", "1",
                           "--ratio", "1.0", "--config", str(bad))
    assert code == 2 and "key=value" in err

    badbool = tmp_path / "badbool.cfg"
    badbool.write_text("bell = maybe\n")
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--m", "1",
                           "--ratio", "1.0", "--config", str(badbool))
    assert code == 2 and "true/false" in err


def test_oracle_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("QET_ORACLE_CAP", "2")
    # The closed-form path never touches the brute-force engine.
    code, _, _ = run_cli(capsys, "efficiency", "--n", "3", "--m", "1", "--ratio", "1")
    assert code == 0
    # The shot estimate does, and N=3 now exceeds the cap.
    code, _, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "1",
                           "--ratio", "1", "--shots", "8")
    assert code == 2 and "error:" in err
    # An explicit flag beats the environment.
    code, _, _ = run_cli(capsys, "efficiency", "--n", "3", "--m", "1",
                         "--ratio", "1", "--shots", "8", "--oracle-cap", "12")
    assert code == 0

    monkeypatch.setenv("QET_ORACLE_CAP", "twelve")
    code, _, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "1", "--ratio", "1")
    assert code == 2 and "QET_ORACLE_CAP" in err


@pytest.mark.parametrize("argv", [
    ("efficiency", "--n", "3", "--m", "1", "--ratio", "1", "--oracle-cap", "-5"),
    ("efficiency", "--n", "3", "--m", "1", "--ratio", "1", "--oracle-cap", "1"),
    ("verify", "--oracle-cap", "0"),
    ("verify", "--oracle-cap", "twelve"),
])
def test_oracle_cap_below_two_is_a_usage_error(capsys, argv):
    # Before: efficiency exited 0 and verify failed on its first cell.
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert "--oracle-cap: must be an integer >= 2" in capsys.readouterr().err


def test_oracle_cap_env_is_read_only_where_the_flag_is(monkeypatch, capsys):
    monkeypatch.setenv("QET_ORACLE_CAP", "twelve")
    # Before: exit 2, although bell never runs the brute-force engine.
    code, out, err = run_cli(capsys, "bell", "--n", "3", "--ratio", "1")
    assert code == 0 and err == "" and "\nn,ratio,b_value" in out
    monkeypatch.setenv("QET_ORACLE_CAP", "1")
    code, out, err = run_cli(capsys, "efficiency", "--n", "3", "--m", "1",
                             "--ratio", "1", "--shots", "8")
    assert code == 2 and out == ""
    assert err == "error: QET_ORACLE_CAP must be an integer >= 2, got '1'\n"


def test_render_sweep_matches_library_values():
    text = cli.render_sweep([3], [1], [1.0])
    _, _, rows = parse_csv(text)
    row = analysis.sweep_row((3, 1, 1.0, False))
    expected = ",".join(
        ["3", "1", "1"] + ["%.17g" % v.item() for v in (row.e_in, row.e_out, row.eta)]
    ) + ","
    assert rows[0] == expected


def test_float_formatting_is_full_precision():
    # 17 significant digits: not the shortest spelling, but every float
    # value round-trips exactly and the byte layout is fixed.
    assert cli._fmt(1.6641005886756874) == "1.6641005886756874"
    assert cli._fmt(0.1) == "0.10000000000000001"
    assert float(cli._fmt(0.1)) == 0.1
    assert cli._fmt(12) == "12"
    assert float(cli._fmt(math.pi)) == math.pi


@pytest.mark.parametrize("argv, named", [
    (("efficiency", "--n", "3", "--m", "1", "--ratio", "1e200"), "e_out is not finite"),
    (("efficiency", "--n", "3", "--m", "1", "--ratio", "1e300"), "e_out is not finite"),
    (("sweep", "--n", "3:5", "--m", "1", "--ratio", "1,1e300"), "e_out is not finite"),
    # E_in ~ 3e-450 underflows; h = 1e-300 alone is evaluated in units of h.
    (("efficiency", "--n", "3", "--m", "1", "--ratio", "1e300", "--h", "1e-150"),
     "eta is not finite"),
    (("nopt", "--x", "1e300"), "x=1e+300"),
    (("nopt", "--x", "1e200", "--scan"), "x=1e+200"),
    # Energies scaled back by a subnormal h have lost digits (E_in was 4e-5
    # off its exact value, with exit 0).
    (("efficiency", "--n", "3", "--m", "1", "--ratio", "1", "--h", "1e-320"),
     "e_in is subnormal at N=3, m=1, k/h=1"),
])
def test_closed_forms_out_of_float_range_exit_2(capsys, argv, named):
    # Before: nan cells with exit 0, or a ZeroDivisionError/OverflowError
    # traceback. An uncaught exception would escape cli.main here.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


def test_tiny_field_prints_the_unit_field_eta_and_theta(capsys):
    # h^2 is subnormal at h = 1e-162; eta and theta must read as at h = 1.
    _, at_one, _ = run_cli(capsys, "efficiency", "--n", "3", "--m", "1", "--ratio", "1")
    code, tiny, _ = run_cli(capsys, "efficiency", "--n", "3", "--m", "1", "--ratio", "1",
                            "--h", "1e-162")
    assert code == 0

    def eta_theta(out):
        lines = out.splitlines()
        theta = float(lines[0].split(": ")[1])
        row = dict(zip(lines[-2].split(","), lines[-1].split(",")))
        return float(row["eta"]), theta

    eta, theta = eta_theta(tiny)
    eta_one, theta_one = eta_theta(at_one)
    assert (eta_one, theta_one) == (pytest.approx(0.17704295804975825, rel=1e-13),
                                    pytest.approx(0.2595730571232615, rel=1e-13))
    assert eta == pytest.approx(eta_one, rel=1e-13)
    assert theta == pytest.approx(theta_one, rel=1e-13)


def test_verify_json_and_text_render_the_same_results(monkeypatch, capsys):
    results = [verify.CheckResult("first", True, "worst 1.00e-15", 0.5),
               verify.CheckResult("second", False, "off by 2.00e-03", 1.25)]
    monkeypatch.setattr(verify, "run_all", lambda **kwargs: results)
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "checks": [{"name": "first", "passed": True, "detail": "worst 1.00e-15",
                    "seconds": 0.5},
                   {"name": "second", "passed": False, "detail": "off by 2.00e-03",
                    "seconds": 1.25}],
        "passed": 1, "total": 2}
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert out == ("[PASS] first: worst 1.00e-15 (0.50 s)\n"
                   "[FAIL] second: off by 2.00e-03 (1.25 s)\n"
                   "1/2 checks passed\n")


@pytest.mark.parametrize("argv", [
    ("--n", "3", "--m", "1", "--ratio", "1", "--h", "1e-200", "--shots", "8"),
    ("--n", "2", "--m", "1", "--ratio", "0.01", "--h", "1e-160", "--shots", "16"),
])
def test_shot_estimate_at_a_tiny_field(capsys, argv):
    # Before: a ZeroDivisionError traceback at h = 1e-200, and a sampled
    # e_out of the wrong sign at h = 1e-160, where h*h is subnormal.
    code, out, err = run_cli(capsys, "efficiency", *argv)
    assert code == 0 and err == ""
    meta, header, rows = parse_csv(out)
    sampled = {ln[2:].split(": ")[0]: float(ln.split(": ")[1]) for ln in meta}
    exact = dict(zip(header.split(","), rows[0].split(",")))
    for key in ("e_in", "e_out"):
        assert sampled[f"sampled_{key}"] == pytest.approx(float(exact[key]), rel=1e-10, abs=0)


@pytest.mark.parametrize("argv", [
    ("nopt", "--x", "10", "--h", "5"),
    ("fixtures", "--h", "5"),
    ("verify", "--h", "5"),
    ("bell", "--n", "3", "--ratio", "1", "--oracle-cap", "3"),
    ("sweep", "--n", "3", "--m", "1", "--ratio", "1", "--oracle-cap", "3"),
    ("figure", "fig2a", "--oracle-cap", "3"),
])
def test_commands_refuse_flags_they_do_not_read(capsys, argv):
    # Before: each exited 0, the flag ignored (--h read as --help).
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_without_oracle_cells_exits_2(capsys):
    # Before: "[PASS] oracle-vs-closed-form: 0 cells" and exit 0.
    code, out, err = run_cli(capsys, "verify", "--n-max", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "n_max=2" in err
