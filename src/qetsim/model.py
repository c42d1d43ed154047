"""Model definition: couplings, bi-partition, and the analytic ground state.

The system is N spins with a uniform longitudinal field h, a single N-body
transverse coupling of strength 2k, and additive constants chosen so that the
ground-state expectation of every local term and of the interaction term is
exactly zero:

    H = sum_i (h Z_i + N h^2 / c) + (2k X_1 X_2 ... X_N + 4 k^2 / c),
    c = sqrt(N^2 h^2 + 4 k^2).

The ground state is a GHZ-type superposition of the all-zeros and all-ones
basis states; its two amplitudes are available in closed form and are the
single source of truth for every engine in this package. They and the two
additive constants go through the ratios k/c and h/c in [0, 1], so they
stay accurate at any normal h, also where h*h is subnormal.

Conventions used throughout:

* qubits are numbered 1..N, qubit 1 is the most significant bit of a basis
  index (so ``|b1 b2 ... bN>`` has index ``sum b_j 2**(N-j)``);
* bit value 0 is the Z eigenstate with eigenvalue +1;
* all energies are in the same units as h (the CLI's ``--h``, default 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InvalidPartition,
    InvalidRange,
    NonPositiveCoupling,
    OracleCapExceeded,
    TooFewQubits,
)

#: Default cap on brute-force statevector work (dense vectors of 2**N amplitudes).
DEFAULT_ORACLE_CAP = 12


def check_oracle_cap(n_qubits: int, oracle_cap: int):
    """The one size guard of the brute-force engine: every entry that would
    hold 2**N amplitudes calls it before it allocates anything."""
    if n_qubits > oracle_cap:
        raise OracleCapExceeded(
            f"N={n_qubits} exceeds the statevector cap of {oracle_cap} qubits")


def check_angles(*thetas: float):
    """The one angle guard: every entry that takes rotation angles from its
    caller calls it before it measures any branch. Every energy reads 2t,
    so an angle whose double is not finite (nan, inf) is refused."""
    for t in thetas:
        if not abs(t) < 2.0 ** 1023:
            raise InvalidRange(f"a rotation angle must be finite, below 2**1023 in size, got {t}")


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the N-qubit model.

    ``k == 0`` is admitted as the decoupled limit point (the ground state is
    then the all-ones product state and nothing is extractable); strictly
    negative couplings, ``h <= 0`` and non-finite values are rejected. Use
    ``validate_params`` for the strict contract that also rejects ``k == 0``.
    """

    n_qubits: int
    h: float
    k: float

    def __post_init__(self):
        if self.n_qubits < 2:
            raise TooFewQubits(f"need at least 2 qubits, got {self.n_qubits}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise NonPositiveCoupling(f"h must be finite and > 0, got {self.h}")
        if not (math.isfinite(self.k) and self.k >= 0):
            raise NonPositiveCoupling(f"k must be finite and >= 0, got {self.k}")
        if self.k == 0.0:
            # -0.0 passes the check above; store it unsigned, so that no
            # result derived from k carries the sign.
            object.__setattr__(self, "k", 0.0)

    @property
    def c(self) -> float:
        """Energy scale sqrt(N^2 h^2 + 4 k^2), overflow-safe for large N."""
        return math.hypot(self.n_qubits * self.h, 2.0 * self.k)

    @property
    def ratio(self) -> float:
        """Dimensionless coupling ratio k / h."""
        return self.k / self.h


def validate_params(n_qubits: int, h: float, k: float, *,
                    for_oracle: bool = False,
                    oracle_cap: int = DEFAULT_ORACLE_CAP) -> ModelParams:
    """Validate raw inputs and return ``ModelParams``.

    Rejects k <= 0 (the interaction must be genuinely present), h <= 0 and
    N < 2. When ``for_oracle`` is set, additionally rejects sizes whose
    2**N statevector exceeds ``oracle_cap`` qubits.
    """
    if int(n_qubits) != n_qubits:
        raise TooFewQubits(f"qubit count must be an integer, got {n_qubits!r}")
    n_qubits = int(n_qubits)
    if n_qubits < 2:
        raise TooFewQubits(f"need at least 2 qubits, got {n_qubits}")
    if not (h > 0) or not (k > 0):
        raise NonPositiveCoupling(f"h and k must be > 0, got h={h}, k={k}")
    if for_oracle:
        check_oracle_cap(n_qubits, oracle_cap)
    return ModelParams(n_qubits, float(h), float(k))


@dataclass(frozen=True)
class GroundStateAmplitudes:
    """The two nonzero amplitudes of the ground state.

    ``a_all_zero`` multiplies |00...0> and ``a_all_one`` multiplies |11...1>;
    the relative minus sign of the superposition is carried by ``a_all_one``.
    """

    a_all_zero: float
    a_all_one: float


def ground_state_amplitudes(params: ModelParams) -> GroundStateAmplitudes:
    """Closed-form ground-state amplitudes.

    a0 = sqrt((1 - N h / c) / 2) >= 0,  a1 = -sqrt((1 + N h / c) / 2) <= 0.

    With x = N h / c in (0, 1], a0 is evaluated as (k / c) sqrt(2 / (1 + x)),
    which is algebraically identical but free of the 1 - x cancellation when
    k << N h, and holds no product of two couplings.
    """
    x = params.n_qubits * params.h / params.c
    a0 = params.k / params.c * math.sqrt(2.0 / (1.0 + x))
    a1 = -math.sqrt(0.5 * (1.0 + x))
    return GroundStateAmplitudes(a0, a1)


def local_constant(params: ModelParams) -> float:
    """Additive constant N h^2 / c of each single-qubit term."""
    return params.n_qubits * params.h * (params.h / params.c)


def interaction_constant(params: ModelParams) -> float:
    """Additive constant 4 k^2 / c of the interaction term."""
    return 4.0 * params.k * (params.k / params.c)


@dataclass(frozen=True)
class ThetaChoice:
    """Rotation angle with its doubled-angle cosine and sine, as both the
    closed forms and the brute-force oracle report it.

    Both components are nonnegative, so theta lies in [0, pi/4].
    """

    theta: float
    cos_2theta: float
    sin_2theta: float

    @classmethod
    def from_components(cls, a: float, b: float) -> "ThetaChoice":
        """Normalize (a, b) >= 0 onto the unit circle; theta = atan2(b, a) / 2."""
        d = math.hypot(a, b)
        if d == 0.0:
            return cls(0.0, 1.0, 0.0)
        cos2t = a / d
        sin2t = b / d
        return cls(0.5 * math.atan2(sin2t, cos2t), cos2t, sin2t)


@dataclass(frozen=True)
class Partition:
    """Bi-partition into N - m measured input qubits and m output qubits.

    ``output_qubits`` holds 1-based indices; the measured set is the
    complement. The conventional choice puts the outputs on the last m
    qubits, see ``Partition.last``.
    """

    n_qubits: int
    output_qubits: frozenset[int]

    def __post_init__(self):
        outs = frozenset(int(q) for q in self.output_qubits)
        object.__setattr__(self, "output_qubits", outs)
        n = self.n_qubits
        if not outs:
            raise InvalidPartition("need at least one output qubit")
        if len(outs) > n - 1:
            raise InvalidPartition(
                f"need at least one measured qubit: {len(outs)} outputs of {n}")
        bad = [q for q in outs if not 1 <= q <= n]
        if bad:
            raise InvalidPartition(f"output indices {bad} outside 1..{n}")

    @classmethod
    def last(cls, n_qubits: int, m_outputs: int) -> "Partition":
        """Outputs on qubits N-m+1 .. N (the default layout)."""
        if not 1 <= m_outputs <= n_qubits - 1:
            raise InvalidPartition(
                f"m={m_outputs} not in 1..{n_qubits - 1} for N={n_qubits}")
        return cls(n_qubits, frozenset(range(n_qubits - m_outputs + 1, n_qubits + 1)))

    @property
    def m_outputs(self) -> int:
        return len(self.output_qubits)

    @property
    def n_inputs(self) -> int:
        return self.n_qubits - len(self.output_qubits)

    @property
    def input_qubits(self) -> tuple[int, ...]:
        """Measured qubits, ascending."""
        return tuple(q for q in range(1, self.n_qubits + 1)
                     if q not in self.output_qubits)

    @property
    def output_qubits_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.output_qubits))


def qubit_bit(n_qubits: int, qubit: int) -> int:
    """Bit position (0 = least significant) of a 1-based qubit index."""
    return n_qubits - qubit


def qubit_mask(n_qubits: int, qubits) -> int:
    """Bit mask covering the given 1-based qubit indices."""
    mask = 0
    for q in qubits:
        mask |= 1 << qubit_bit(n_qubits, q)
    return mask
