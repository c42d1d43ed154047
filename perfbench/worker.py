"""One workload in one fresh process, started by run.py.

Imports qetsim from the checkout's ``src``, builds the seeded inputs, then
runs whole batches until ``--seconds`` would be exceeded (at least one).
Prints one JSON line: when set-up ended and the CPU time it took, every
batch's CPU and wall time and reference job times (see Reference), op
counts, peak RSS, the environment and, with ``--trace``, per-layer metrics
and spans.
With ``--trace`` one untraced batch runs last, to measure tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Failure messages kept per run; the counts are always complete.
FAILURES_KEPT = 20
#: Reference passes per batch, spread over the points between its calls, so
#: that a batch of one long call (verify) still gets a steady reference time.
REF_PASSES = 10


def _import_qetsim():
    sys.path.insert(0, str(SRC))
    import qetsim.cli

    if not Path(qetsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qetsim was imported from {qetsim.__file__}, not {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import importlib.metadata
    import importlib.util
    import platform

    import numpy

    from qetsim import kernels
    from run import THREAD_VARS

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "kernels_backend": kernels.BACKEND,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": _git_commit(),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bytes_out = 0

    def record(self, labels, verdicts: dict):
        for label in labels:
            problem = verdicts.get(label, "no verdict")
            self.attempted += 1
            if problem:
                self.failed += 1
                if len(self.failures) < FAILURES_KEPT:
                    self.failures.append(f"{label}: {problem}")


class Reference:
    """A fixed job that does not touch qetsim, timed between ops.

    On a shared host the vCPU itself runs slower while the host is busy, by up
    to a half and for seconds to minutes at a time, and CPU time does not
    remove that. This job does the workloads' kinds of work in small: dense
    LAPACK on a small Hermitian matrix (verify, oracle), gathers into fresh
    16 MiB arrays (oracle) and ``%.17g`` formatting of floats in Python
    (sweep), so its CPU time slows with theirs.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        m = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self._matrix = m + m.conj().T
        self._amps = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)
        self._index = np.arange(1 << 20, dtype=np.int64)
        self._floats = rng.standard_normal(1500).tolist()
        self.cpu_s()  # the first pass pays for first-touch and LAPACK set-up

    def cpu_s(self) -> float:
        import numpy as np

        c0 = time.process_time()
        for bit in range(3, 6):
            np.linalg.eigh(self._matrix)
            gathered = self._amps[self._index ^ (1 << bit)]
            np.vdot(gathered, gathered)
            "\n".join("%.17g,%.17g" % (x, (x * x + 1.0) ** 0.5) for x in self._floats)
        return time.process_time() - c0


def run_batch(workload, tally: Tally, tracer=None,
              reference: Reference | None = None) -> tuple[float, float, list[float]]:
    """Every call of the workload once.

    Returns the batch's summed CPU and wall time, and the CPU time of each
    reference pass, taken before each call and after the last (none without
    ``reference``). CPU time is that of the whole process, every thread
    included; gates and the reference are excluded from both sums.
    """
    cpu = wall = 0.0
    refs: list[float] = []
    passes = -(-REF_PASSES // (len(workload.calls) + 1)) if reference else 0
    for call in workload.calls:
        for path in call.outputs:
            path.unlink(missing_ok=True)
        refs += [reference.cpu_s() for _ in range(passes)]
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with tracer.span("op." + call.kind) if tracer else nullcontext():
                result = call.run()
        except Exception as exc:  # an op that raises fails; the run goes on
            cpu += time.process_time() - c0
            wall += time.perf_counter() - t0
            tally.record(call.labels, {label: f"raised {type(exc).__name__}: {exc}"
                                       for label in call.labels})
            continue
        cpu += time.process_time() - c0
        wall += time.perf_counter() - t0
        try:
            with tracer.paused() if tracer else nullcontext():
                verdicts = call.check(result)
        except Exception as exc:  # output the gate cannot read is a failure
            verdicts = {label: f"gate raised {type(exc).__name__}: {exc}"
                        for label in call.labels}
        tally.record(call.labels, verdicts)
        tally.bytes_out += sum(p.stat().st_size for p in call.outputs if p.exists())
    refs += [reference.cpu_s() for _ in range(passes)]
    return cpu, wall, refs


def measure(workload, seconds: float, trace: bool) -> dict:
    import resource
    import statistics

    tally = Tally()
    start = time.monotonic()
    out: dict = {}
    tracer = undo = None
    if trace:
        import layers
        from tracer import Tracer, install

        tracer = Tracer()
        absent, undo = install(tracer, layers.targets(), "qetsim")
    reference = Reference()
    cpus, walls, refs = [], [], []
    try:
        while True:
            cpu, wall, batch_refs = run_batch(workload, tally, tracer, reference)
            cpus.append(cpu)
            walls.append(wall)
            refs += batch_refs
            if time.monotonic() - start + statistics.median(walls) > seconds:
                break
    finally:
        if undo is not None:
            undo()
    out.update(cpus=cpus, walls=walls, refs=refs,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if trace:
        values, missing = layers.span_metrics(tracer, absent, len(walls))
        values["cli.bytes_out"] = tally.bytes_out / len(walls)
        # Warm like the traced batches, so the difference is the tracer's cost.
        out["untraced_cpu_s"], _, _ = run_batch(workload, tally)
        values["trace.overhead_s"] = statistics.median(cpus) - out["untraced_cpu_s"]
        out.update(layers=values, absent=sorted(set(absent) | set(missing)),
                   spans=tracer.spans, spans_dropped=tracer.dropped)
    out.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are built")
    args = parser.parse_args(argv)

    _import_qetsim()
    import workloads

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, tiny=args.tiny)
        result = {"ready": time.monotonic(), "setup_cpu_s": time.process_time()}
        if not args.setup_only:
            result.update(measure(workload, args.seconds, args.trace),
                          batch=workload.batch, environment=_environment(),
                          inputs=[call.inputs for call in workload.calls])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
