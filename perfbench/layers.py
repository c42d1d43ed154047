"""Which qetsim functions the traced run wraps, and the per-layer metrics.

Every wrapped function is public. A name that no longer exists is skipped
and its metrics reported as absent, so refactors of the program cannot break
the benchmark. Times are per traced batch; "self" sums exclude the time of
child spans, inclusive ones ("_s" of a single function) do not.
"""

from __future__ import annotations

from tracer import Target
from workloads import VERIFY_CHECKS

KERNELS = ("apply_pauli_signs", "project_x", "norm_sq", "z_expectations",
           "diag_z_total", "complement_overlap")
EXPECTATIONS = ("site_z_expectations", "flip_all_expectation", "interaction_energy",
                "total_energy", "site_energy", "apply_pauli_string")
PROTOCOL = ("measure_branches", "injected_energy", "apply_conditional_unitary",
            "extracted_energy", "output_energy_curve", "optimize_theta_numeric",
            "simulate_with_outputs", "sample_protocol")
#: Protocol entry points that each enumerate all 2^(N-m) branches once.
ENUMERATORS = ("measure_branches", "extracted_energy", "output_energy_curve",
               "optimize_theta_numeric", "sample_protocol")
CLOSEDFORM = ("input_energy", "output_energy_at_theta", "optimal_theta",
              "max_output_energy", "efficiency", "single_output_efficiency",
              "asymptotic_efficiency", "report")
MODEL = ("Partition.last", "validate_params", "ground_state_amplitudes")
ANALYSIS = ("bell_value_ground_state", "bell_value_ghz_angle", "n_opt", "n_opt_scan",
            "sweep_row", "sweep_grid", "efficiency_sweep", "figure_grid",
            "figure_dataset", "specialization_fixture_check")
CLI_FORMAT = ("rows_to_csv", "rows_to_json")

_ENUMERATOR_SPANS = frozenset(f"protocol_oracle.{name}" for name in ENUMERATORS)


def _count_kernel(tracer, args, kwargs):
    tracer.counters["kernels.calls"] += 1
    amps = args[0] if args else next(iter(kwargs.values()), None)
    tracer.counters["kernels.bytes_computed"] += getattr(amps, "nbytes", 0)


def _count_branches(tracer, args, kwargs):
    # Counted from the inputs, once per outermost enumeration, so the count
    # does not depend on how the oracle builds its branches.
    if tracer.within(_ENUMERATOR_SPANS):
        return
    part = args[1] if len(args) > 1 else kwargs.get("part")
    tracer.counters["protocol_oracle.branches"] += 2 ** getattr(part, "n_inputs", 0)


def targets() -> list[Target]:
    out = [Target("qetsim.kernels", name, f"kernels.{name}", _count_kernel)
           for name in KERNELS]
    out.append(Target("qetsim.simkernel", "exact_ground_state",
                      "simkernel.exact_ground_state"))
    out += [Target("qetsim.simkernel", name, f"simkernel.{name}") for name in EXPECTATIONS]
    out += [Target("qetsim.protocol_oracle", name, f"protocol_oracle.{name}",
                   _count_branches if name in ENUMERATORS else None)
            for name in PROTOCOL]
    out += [Target("qetsim.closedform", name, f"closedform.{name}") for name in CLOSEDFORM]
    out += [Target("qetsim.model", name, f"model.{name}") for name in MODEL]
    out += [Target("qetsim.analysis", name, f"analysis.{name}") for name in ANALYSIS]
    out += [Target("qetsim.cli", name, f"cli.{name}") for name in CLI_FORMAT]
    out += [Target("qetsim.verify", fn, f"verify.{check}")
            for fn, check in VERIFY_CHECKS.items()]
    return out


def _spans(prefix: str, names) -> tuple[str, ...]:
    return tuple(f"{prefix}.{name}" for name in names)


#: metric -> (how, source spans). "total", "self" and "calls" sum that field
#: of the spans' stats; "counter:<key>" reads a counter fed by those spans.
SPAN_METRICS = {
    "simkernel.ground_state_s": ("total", ("simkernel.exact_ground_state",)),
    "simkernel.ground_state_calls": ("calls", ("simkernel.exact_ground_state",)),
    "simkernel.expect_self_s": ("self", _spans("simkernel", EXPECTATIONS)),
    **{f"kernels.{name}_s": ("total", (f"kernels.{name}",)) for name in KERNELS},
    "kernels.calls": ("counter:kernels.calls", _spans("kernels", KERNELS)),
    "kernels.bytes_computed": ("counter:kernels.bytes_computed", _spans("kernels", KERNELS)),
    "protocol_oracle.measure_s": ("total", ("protocol_oracle.measure_branches",)),
    "protocol_oracle.rotate_s": ("total", ("protocol_oracle.apply_conditional_unitary",)),
    "protocol_oracle.self_s": ("self", _spans("protocol_oracle", PROTOCOL)),
    "protocol_oracle.branches": ("counter:protocol_oracle.branches",
                                 tuple(_ENUMERATOR_SPANS)),
    "protocol_oracle.deep_s": ("total", ("op.deep",)),
    "protocol_oracle.wide_s": ("total", ("op.wide",)),
    "closedform.calls": ("calls", _spans("closedform", CLOSEDFORM)),
    "closedform.self_s": ("self", _spans("closedform", CLOSEDFORM)),
    "model.self_s": ("self", _spans("model", MODEL)),
    "analysis.rows": ("calls", ("analysis.sweep_row",)),
    "analysis.self_s": ("self", _spans("analysis", ANALYSIS)),
    "cli.format_self_s": ("self", _spans("cli", CLI_FORMAT)),
    **{f"verify.{check}_s": ("total", (f"verify.{check}",))
       for check in VERIFY_CHECKS.values()},
}


def span_metrics(tracer, absent, batches: int) -> tuple[dict, list[str]]:
    """Per-batch values of ``SPAN_METRICS`` and the metrics with no source left."""
    values = {}
    missing = []
    for metric, (how, sources) in SPAN_METRICS.items():
        if all(name in absent for name in sources):
            missing.append(metric)
            values[metric] = 0.0
            continue
        if how.startswith("counter:"):
            total = tracer.counters[how.split(":", 1)[1]]
        else:
            field = {"calls": 0, "total": 1, "self": 2}[how]
            total = sum(tracer.stats.get(name, (0, 0.0, 0.0))[field] for name in sources)
        values[metric] = total / batches
    return values, missing

