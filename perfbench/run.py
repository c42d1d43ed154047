"""qetsim benchmark: one seeded workload, measured in fresh processes.

    python3 perfbench/run.py --workload {verify,oracle,sweep} --seed N \\
        --seconds S --trace {0,1}

Set-up is measured SETUP_PROBES + 1 times, each in a fresh interpreter, as
the CPU time from process start to the first timed op (``import qetsim`` plus
building the seeded inputs); the median is ``setup_s``. One more process then
runs the workload in whole batches for about ``--seconds`` and checks every
result. ``cpu_ref`` is the median over batches of one batch's CPU time,
divided by the mean CPU time of a pass of a fixed reference job timed
between its ops (worker.Reference). Times are CPU times because on a shared
virtual machine the hypervisor takes CPUs away for seconds at a time: that
stolen time lands in wall time but not in CPU time. The reference job
cancels part of the rest, the vCPU running slower while the host is busy.
The batch's CPU and wall time are printed and recorded too, ungated. BLAS is
pinned to BLAS_THREADS thread in every process, so a batch's CPU time is the
time of the one thread that computes. With ``--trace 1`` the workload
process also wraps qetsim's public functions (see layers.py) and one
``-X importtime`` probe gives the import metrics.

Prints every metric by name and unit, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json without tracing, the per-layer ones
with it. A record of the run (environment, every batch, spans when traced)
is written to ``.perfbench/`` in the checkout. If anything cannot run, it
exits 1 without printing the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: One thread: CPU time then measures the computing thread alone. With two,
#: OpenBLAS's second thread spins between calls and its CPU time rises and
#: falls with the host's load (oracle batches read 3-8% more CPU than wall).
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6
#: Every process started is killed and waited for before this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float, python_flags=(), keep_stderr=True):
    """Run worker.py in a fresh interpreter; returns (start, result, stderr)."""
    env = {**os.environ, **{var: BLAS_THREADS for var in THREAD_VARS}}
    cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if keep_stderr and err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return start, json.loads(lines[-1]), err


def import_times(stderr: str) -> dict:
    """``import.total_s`` and ``import.scipy_s`` from ``python -X importtime``.

    Each is the summed cumulative time of the outermost imports of that
    package, so nested submodules are not counted twice.
    """
    entries = []  # (depth, name, cumulative_us), in the order printed
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        cumulative, name = fields[1].strip(), fields[2]
        if not cumulative.isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))

    def outermost(package: str) -> float:
        def ours(name):
            return name == package or name.startswith(package + ".")

        # Entries print after their children; walking backwards meets each
        # parent before its children.
        total = 0
        stack: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if ours(name) and not any(ours(n) for _, n in stack):
                total += cumulative
            stack.append((depth, name))
        return total / 1e6

    return {"import.total_s": outermost("qetsim"), "import.scipy_s": outermost("scipy")}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run the probes and the workload; returns (metrics, record)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups, setup_walls = [], []
    for _ in range(SETUP_PROBES):
        start, probe, _ = _spawn(common + ["--setup-only"], deadline)
        setups.append(probe["setup_cpu_s"])
        setup_walls.append(probe["ready"] - start)
    start, result, _ = _spawn(common + ["--seconds", str(seconds)]
                              + (["--trace"] if trace else []), deadline)
    setups.append(result["setup_cpu_s"])
    setup_walls.append(result["ready"] - start)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_s_samples": setups, "setup_wall_s_samples": setup_walls, **result}
    if trace:
        _, _, err = _spawn(common + ["--setup-only"], deadline,
                           python_flags=("-X", "importtime"), keep_stderr=False)
        metrics = {**result["layers"], **import_times(err)}
    else:
        metrics = {"cpu_ref": statistics.median(result["cpus"])
                              / statistics.fmean(result["refs"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": result["peak_rss_mb"]}
    return metrics, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        metrics, record = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.tiny)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {', '.join(missing)}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record["metrics"] = metrics
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))

    print(f"workload {args.workload}, seed {args.seed}, batch {record['batch']}, "
          f"{len(record['walls'])} batch(es)")
    print("environment " + json.dumps(record["environment"]))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"ops_total {record['attempted']} count")
    print(f"ops_failed {record['failed']} count")
    print(f"cpu_s {statistics.median(record['cpus']):.6g} s (ungated)")
    print(f"wall_s {statistics.median(record['walls']):.6g} s (ungated)")
    print(f"reference_cpu_s {statistics.fmean(record['refs']):.6g} s (ungated)")
    setup_wall_s = statistics.median(record["setup_wall_s_samples"])
    print(f"setup_wall_s {setup_wall_s:.6g} s (ungated)")
    for m in wanted:
        note = " (absent)" if m["name"] in record.get("absent", ()) else ""
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}{note}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
