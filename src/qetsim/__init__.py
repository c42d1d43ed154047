"""Energy teleportation in an N-qubit spin system, computed twice.

One path evaluates the closed forms: injected energy, extractable energy,
the optimal rotation angle, transfer efficiency, the efficiency-maximizing
qubit count, and the ground-state Bell value. The other path knows none of
them: it builds the statevector, enumerates every measurement branch, and
reads the same numbers off the simulated protocol. The test suite and the
``qetsim verify`` command hold the two paths against each other.

Quick start::

    from qetsim import ModelParams, Partition, closedform, protocol_oracle

    params = ModelParams(n_qubits=3, h=1.0, k=1.0)
    part = Partition.last(3, m_outputs=1)
    report = closedform.report(params, part)
    check = protocol_oracle.extracted_energy(params, part,
                                             report.theta_opt.theta)
"""

from . import analysis, closedform, kernels, model, protocol_oracle, simkernel
from .errors import (
    AngleOutOfRange,
    BellUndefinedForN2,
    DimensionMismatch,
    InvalidPartition,
    InvalidRange,
    NoConvergence,
    NonPositiveCoupling,
    NonPositiveRatio,
    OracleCapExceeded,
    QetError,
    TooFewQubits,
    UnknownFigure,
)
from .model import (
    DEFAULT_ORACLE_CAP,
    GroundStateAmplitudes,
    ModelParams,
    Partition,
    ground_state_amplitudes,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "closedform",
    "kernels",
    "model",
    "protocol_oracle",
    "simkernel",
    "ModelParams",
    "Partition",
    "GroundStateAmplitudes",
    "ground_state_amplitudes",
    "validate_params",
    "DEFAULT_ORACLE_CAP",
    "QetError",
    "NonPositiveCoupling",
    "TooFewQubits",
    "OracleCapExceeded",
    "DimensionMismatch",
    "NoConvergence",
    "InvalidPartition",
    "BellUndefinedForN2",
    "AngleOutOfRange",
    "NonPositiveRatio",
    "InvalidRange",
    "UnknownFigure",
    "__version__",
]
