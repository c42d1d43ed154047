"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer, install  # noqa: E402
from worker import Reference, Tally, run_batch  # noqa: E402

from qetsim import protocol_oracle  # noqa: E402
from qetsim.errors import OracleCapExceeded  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _batch(name, tmp_path, tracer=None, seed=7):
    tally = Tally()
    workload = workloads.build(name, seed, tmp_path, tiny=True)
    run_batch(workload, tally, tracer)
    return workload, tally


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_gates(name, tmp_path):
    workload, tally = _batch(name, tmp_path)
    assert tally.failures == []
    assert tally.attempted == sum(len(call.labels) for call in workload.calls)
    assert tally.failed == 0


def test_perturbed_oracle_result_is_counted_failed(tmp_path, monkeypatch):
    real = protocol_oracle.extracted_energy

    def perturbed(*args, **kwargs):
        report = real(*args, **kwargs)
        report.e_out *= 1.0 + 1e-6
        return report

    monkeypatch.setattr(protocol_oracle, "extracted_energy", perturbed)
    workload, tally = _batch("oracle", tmp_path)
    assert tally.failed == tally.attempted == len(workload.calls)
    assert all("e_out at theta*" in failure for failure in tally.failures)


def test_raising_op_is_counted_failed_and_the_run_goes_on(tmp_path, monkeypatch):
    real = protocol_oracle.output_energy_curve

    def refuse_first(params, *args, **kwargs):
        if params.n_qubits == workloads.TINY.deep[0][0]:
            raise OracleCapExceeded("refused")
        return real(params, *args, **kwargs)

    monkeypatch.setattr(protocol_oracle, "output_energy_curve", refuse_first)
    workload, tally = _batch("oracle", tmp_path)
    assert (tally.attempted, tally.failed) == (len(workload.calls), 1)
    assert "raised OracleCapExceeded" in tally.failures[0]


def test_batch_time_is_cpu_time_so_time_off_cpu_is_not_counted():
    sleeper = workloads.Call("sleep", ("sleep",), lambda: time.sleep(0.3),
                             lambda _: {"sleep": None})
    cpu, wall, _ = run_batch(workloads.Workload("sleep", [sleeper], {}), Tally())
    assert wall >= 0.3
    assert cpu < 0.1


@pytest.mark.parametrize("name, passes_per_point", [("verify", 5), ("oracle", 2)])
def test_reference_job_is_timed_before_every_call_and_after_the_last(
        name, passes_per_point, tmp_path):
    workload = workloads.build(name, 7, tmp_path, tiny=True)
    _, _, refs = run_batch(workload, Tally(), reference=Reference())
    assert len(refs) == passes_per_point * (len(workload.calls) + 1)
    assert min(refs) > 0


def test_same_seed_same_inputs(tmp_path):
    first = workloads.build("sweep", 11, tmp_path, tiny=True)
    again = workloads.build("sweep", 11, tmp_path, tiny=True)
    other = workloads.build("sweep", 12, tmp_path, tiny=True)
    inputs = [call.inputs for call in first.calls]
    assert inputs == [call.inputs for call in again.calls]
    assert inputs != [call.inputs for call in other.calls]
    assert first.batch == other.batch


def _check_self_times(spans):
    children: dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        children[parent] = children.get(parent, 0.0) + (end - start)
    for span_id, _, name, start, end, self_s in spans:
        assert self_s + children.get(span_id, 0.0) == pytest.approx(end - start, abs=1e-9), name


def test_self_time_plus_children_is_total_on_a_scripted_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    with tracer.span("root"):
        leaf()
        with tracer.span("mid"):
            leaf()
            leaf()
    _check_self_times(tracer.spans)
    assert tracer.stats["root"] == [1, 9.0, 3.0]
    assert tracer.stats["mid"] == [1, 5.0, 3.0]
    assert tracer.stats["leaf"] == [3, 3.0, 3.0]


def test_traced_batch_self_times_add_up_and_wrappers_come_off(tmp_path):
    original = protocol_oracle.extracted_energy
    tracer = Tracer()
    absent, undo = install(tracer, layers.targets(), "qetsim")
    try:
        _, tally = _batch("oracle", tmp_path, tracer)
    finally:
        undo()
    assert protocol_oracle.extracted_energy is original
    assert absent == [] and tally.failed == 0 and tracer.dropped == 0
    _check_self_times(tracer.spans)
    values, missing = layers.span_metrics(tracer, absent, 1)
    assert missing == []
    expected = sum(2 ** (n - m) for n, m in workloads.TINY.deep + workloads.TINY.wide)
    assert values["protocol_oracle.branches"] == 3 * expected
    assert values["kernels.calls"] > 0 and values["protocol_oracle.deep_s"] > 0


def test_names_that_no_longer_exist_are_reported_absent(monkeypatch):
    monkeypatch.delattr(protocol_oracle, "measure_branches")
    tracer = Tracer()
    extra = Target("qetsim.model", "Partition.gone", "model.Partition.gone")
    absent, undo = install(tracer, layers.targets() + [extra], "qetsim")
    undo()
    assert absent == ["protocol_oracle.measure_branches", "model.Partition.gone"]
    _, missing = layers.span_metrics(tracer, absent, 1)
    assert missing == ["protocol_oracle.measure_s"]


def test_import_times_count_outermost_imports_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:        20 |         30 |     numpy",
        "import time:         5 |          5 |         scipy._lib",
        "import time:         7 |         12 |       scipy",
        "import time:         3 |          3 |       scipy.linalg._flapack",
        "import time:         8 |         23 |     scipy.linalg",
        "import time:         4 |         57 |   qetsim.simkernel",
        "import time:         6 |         63 | qetsim",
        "import time:         2 |          2 | qetsim.cli",
    ])
    assert run.import_times(stderr) == pytest.approx({"import.total_s": 65e-6,
                                                     "import.scipy_s": 23e-6})


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "3", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_follows_the_contract(trace, section):
    proc = _run_bench(ROOT, "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
