"""Statevectors, Pauli strings and ground-state solvers for N qubits.

This is the substrate of the brute-force engine: statevectors as flat
float64 arrays (complex128 once a Y factor makes them complex), Pauli strings
applied as signed permutations (no matrix is ever materialized for them), the
expectation values of the model's terms computed from index arithmetic, and
two ground-state solvers that each find the state without being told where
it lies:

* ``lanczos``: three-term Lanczos (Paige 1972) in two passes on the
  matrix-free operator diag(h * sum_j Z_j) plus 2k X_1 ... X_N, the latter a
  reversal of the basis index. Pass 1 keeps only the tridiagonal
  coefficients and stops at a rounding-level Ritz residual, after about
  N + 2 steps here; pass 2 replays the recurrence and adds up the Ritz
  vector. No Krylov basis is stored: the peak holds five 2**N float64
  arrays, the field, v, w, one product of the matvec and the Ritz vector;
* ``dense``: ``numpy.linalg.eigh`` of the full real symmetric Hamiltonian
  (``build_hamiltonian``, the one 2**N x 2**N matrix here), kept as a
  small-N reference.

Both read H - c from ``_h_minus_c``, which refuses N above ``oracle_cap``
through ``model.check_oracle_cap`` before anything is allocated.

Qubit convention (shared with ``model``): qubit 1 is the most significant
bit; bit value 0 is the Z eigenvalue +1 state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NoConvergence
from .model import (
    DEFAULT_ORACLE_CAP,
    ModelParams,
    check_oracle_cap,
    ground_state_amplitudes,
    interaction_constant,
    local_constant,
    qubit_mask,
)


@dataclass
class StateVector:
    """2**n float64 (real input) or complex128 amplitudes, package qubit order."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        self.amplitudes = amps.astype(np.result_type(amps, np.float64), copy=False)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise DimensionMismatch(
                f"expected {1 << self.n_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}")

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def ground_state(cls, params: ModelParams) -> "StateVector":
        """The analytic two-amplitude ground state as a dense vector."""
        g = ground_state_amplitudes(params)
        amps = np.zeros(1 << params.n_qubits)
        amps[0] = g.a_all_zero
        amps[-1] = g.a_all_one
        return cls(params.n_qubits, amps)

    def norm_sq(self) -> float:
        return kernels.norm_sq(self.amplitudes)

    def overlap(self, other: "StateVector") -> complex:
        if other.n_qubits != self.n_qubits:
            raise DimensionMismatch("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


_LETTERS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis with a scalar coefficient.

    ``letters[i]`` acts on qubit i+1. Application is a signed permutation of
    basis indices: X and Y flip the qubit's bit, Z and Y contribute a sign
    from the source bit, and each Y contributes one global factor of i.
    """

    letters: str
    coefficient: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not set(self.letters) <= _LETTERS:
            raise ValueError(f"letters must be drawn from IXYZ, got {self.letters!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def flip_mask(self) -> int:
        return qubit_mask(self.n_qubits,
                          (i + 1 for i, s in enumerate(self.letters) if s in "XY"))

    @property
    def phase_mask(self) -> int:
        return qubit_mask(self.n_qubits,
                          (i + 1 for i, s in enumerate(self.letters) if s in "ZY"))

    @property
    def n_y(self) -> int:
        return self.letters.count("Y")


def apply_pauli_string(state: StateVector, p: PauliString) -> StateVector:
    """Return p|psi> without materializing a matrix; O(2**n)."""
    if p.n_qubits != state.n_qubits:
        raise DimensionMismatch(
            f"Pauli string on {p.n_qubits} qubits vs state on {state.n_qubits}")
    scalar = p.coefficient * (1j ** (p.n_y % 4))
    out = kernels.apply_pauli_signs(state.amplitudes, p.flip_mask, p.phase_mask)
    return StateVector(state.n_qubits, scalar * out)


# ---------------------------------------------------------------------------
# H - c, read by both solvers, and the dense Hamiltonian
# ---------------------------------------------------------------------------

def _h_minus_c(params: ModelParams, oracle_cap: int) -> tuple[np.ndarray, float]:
    """H - c = diag(h * sum_j Z_j) + 2k X_1 ... X_N as (field diagonal, 2k); c
    stays out, so the k = 0 ground level is exactly 0 and sets no scale."""
    check_oracle_cap(params.n_qubits, oracle_cap)
    n = params.n_qubits
    return params.h * kernels._z_table.__wrapped__(n, n), 2.0 * params.k


def build_hamiltonian(params: ModelParams,
                      oracle_cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """The full real Hamiltonian: diagonal field part plus anti-diagonal flip.

    The additive constants of the individual terms sum to exactly c, so
    H = diag(h * sum_j Z_j + c) + 2k * FlipAll.
    """
    zfield, flip = _h_minus_c(params, oracle_cap)
    mat = np.diag(zfield + params.c)
    np.fill_diagonal(mat[:, ::-1], flip)  # 2**N is even: no entry is on both
    return mat


# ---------------------------------------------------------------------------
# Structured expectations of one statevector
# ---------------------------------------------------------------------------

def site_z_expectations(state: StateVector) -> np.ndarray:
    """<Z_j> for every qubit; entry j-1 belongs to qubit j."""
    per_bit = kernels.z_expectations(state.amplitudes, state.n_qubits)
    return per_bit[::-1].copy()


def flip_all_expectation(state: StateVector) -> float:
    """<X_1 X_2 ... X_N>. The overlap pairs each index j with its complement,
    whose term is the conjugate of j's, so the sum is real for every state."""
    return kernels.complement_overlap(state.amplitudes).real


def site_energy(state: StateVector, params: ModelParams, qubit: int) -> float:
    """<H_j> = h <Z_j> + N h^2 / c for one qubit."""
    z = site_z_expectations(state)[qubit - 1]
    return params.h * z + local_constant(params)


def interaction_energy(state: StateVector, params: ModelParams) -> float:
    """<V> = 2k <X...X> + 4 k^2 / c."""
    return 2.0 * params.k * flip_all_expectation(state) + interaction_constant(params)


def total_energy(state: StateVector, params: ModelParams) -> float:
    """<H> via the diagonal field sum plus the flip term; no matrix involved."""
    zsum = kernels.diag_z_total(state.amplitudes, state.n_qubits)
    flip = flip_all_expectation(state)
    return params.h * zsum + 2.0 * params.k * flip + params.c


# ---------------------------------------------------------------------------
# Ground-state solvers
# ---------------------------------------------------------------------------

def _dense_ground_state(params: ModelParams, oracle_cap: int):
    w, v = np.linalg.eigh(build_hamiltonian(params, oracle_cap=oracle_cap))
    return float(w[0]), StateVector(params.n_qubits, v[:, 0])


#: Seed of the Lanczos start vector; a fixed start makes every solve repeatable.
LANCZOS_SEED = 20240101
#: Lanczos steps before ``NoConvergence``; this model needs about N + 2.
LANCZOS_MAX_STEPS = 100


def _krylov(zfield: np.ndarray, flip: float, alphas: list, betas: list):
    """Lanczos vectors v_j of diag(zfield) + flip * X...X from the seeded start,
    each yielded once alpha_j and beta_{j+1} are appended or replayed."""
    v = np.random.default_rng(LANCZOS_SEED).standard_normal(zfield.size)
    v /= np.linalg.norm(v)
    w = np.zeros_like(v)  # v_{j-1} in place, then the residual of step j
    for j in range(LANCZOS_MAX_STEPS):
        w *= -betas[j - 1] if j else 0.0
        w += zfield * v
        w += flip * v[::-1]
        if j == len(alphas):
            alphas.append(float(np.dot(w, v)))
        w -= alphas[j] * v
        if j == len(betas):
            betas.append(float(np.linalg.norm(w)))
        yield v
        w /= betas[j]
        v, w = w, v


def _lanczos_ground_state(params: ModelParams, oracle_cap: int):
    zfield, flip = _h_minus_c(params, oracle_cap)
    rounding = np.sqrt(zfield.size) * np.finfo(np.float64).eps  # of a 2**N-term sum
    alphas, betas = [], []
    for v in _krylov(zfield, flip, alphas, betas):
        # eigh reads the lower triangle, so the betas go below the diagonal.
        theta, y = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], -1))
        if betas[-1] * abs(y[-1, 0]) <= rounding * np.max(np.abs(theta)):
            break
    else:
        raise NoConvergence(f"Lanczos did not converge in {LANCZOS_MAX_STEPS} steps "
                            f"at N={params.n_qubits}")
    del v  # pass 1's last buffer, freed before pass 2 allocates
    vec = np.zeros_like(zfield)
    # y comes first, so zip stops without advancing the recurrence past v_j.
    for coef, v in zip(y[:, 0], _krylov(zfield, flip, alphas, betas)):
        vec += coef * v
    vec /= np.linalg.norm(vec)
    if vec[-1] > 0:  # sign convention: amplitude on the all-ones state <= 0
        vec = -vec
    return float(theta[0]) + params.c, StateVector(params.n_qubits, vec)


def exact_ground_state(params: ModelParams, method: str = "dense", *,
                       oracle_cap: int = DEFAULT_ORACLE_CAP):
    """Lowest eigenpair of the Hamiltonian, as ``(energy, StateVector)``.

    ``lanczos`` runs matrix-free Lanczos and ``dense`` diagonalizes the full
    matrix. Both refuse N above ``oracle_cap`` before anything is allocated.
    ``lanczos`` returns the state with its amplitude on |11...1> <= 0;
    ``dense`` leaves the sign to LAPACK.
    """
    solvers = {"lanczos": _lanczos_ground_state, "dense": _dense_ground_state}
    if method not in solvers:
        raise ValueError(f"unknown method {method!r}; use 'lanczos' or 'dense'")
    return solvers[method](params, oracle_cap)
