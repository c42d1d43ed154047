"""The protocol oracle against an explicit density-matrix reference, N <= 5.

The reference shares no code with ``qetsim.kernels`` or ``qetsim.simkernel``:
every operator is a Kronecker product of explicit 2x2 matrices, the ground
state comes from a dense eigensolve, the measurement is a set of projectors
(1 + alpha X_j) / 2 acting on a density matrix, and energies are traces.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np
import pytest

from qetsim import protocol_oracle as po
from qetsim.model import ModelParams, Partition

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

THETAS = (0.0, 0.3, 0.9, math.pi / 4.0, 1.4, math.pi / 2.0)


def op_on(n: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over qubits 1..n (qubit 1 leftmost), identity elsewhere."""
    return reduce(np.kron, [factors.get(q, I2) for q in range(1, n + 1)])


class Reference:
    """Density-matrix run of the protocol for one model and output set,
    from ``state`` if given, else from the ground state."""

    def __init__(self, n: int, h: float, k: float, outputs: frozenset[int],
                 state: np.ndarray | None = None):
        self.n = n
        self.inputs = [q for q in range(1, n + 1) if q not in outputs]
        self.outputs = sorted(outputs)
        c = math.sqrt(n * n * h * h + 4.0 * k * k)
        dim = 1 << n
        self.site = {q: h * op_on(n, {q: Z}) + (n * h * h / c) * np.eye(dim)
                     for q in range(1, n + 1)}
        self.interaction = (2.0 * k * op_on(n, {q: X for q in range(1, n + 1)})
                            + (4.0 * k * k / c) * np.eye(dim))
        self.hamiltonian = sum(self.site.values()) + self.interaction
        if state is None:
            state = np.linalg.eigh(self.hamiltonian)[1][:, 0]
        ground = state.reshape(-1, 1)
        rho = ground @ ground.conj().T
        self.measured = []  # (sign product, unnormalised post-measurement rho)
        for alpha in itertools.product((1, -1), repeat=len(self.inputs)):
            proj = op_on(n, {q: (I2 + a * X) / 2.0 for q, a in zip(self.inputs, alpha)})
            self.measured.append((math.prod(alpha), proj @ rho @ proj))

    def energy(self, op: np.ndarray, rhos) -> float:
        return float(sum(np.trace(op @ r) for r in rhos).real)

    def e_in(self) -> float:
        rhos = [r for _, r in self.measured]
        return sum(self.energy(self.site[q], rhos) for q in self.inputs)

    def run(self, theta: float) -> tuple[float, float, float]:
        """(e_in, e_out, e_out_via_trace) at one angle, with the rotation's
        Y on the first output and X on the others."""
        gen = op_on(self.n, {q: Y if q == self.outputs[0] else X for q in self.outputs})
        rotated = []
        for sign, rho in self.measured:
            u = math.cos(theta) * np.eye(1 << self.n) - 1j * sign * math.sin(theta) * gen
            rotated.append(u @ rho @ u.conj().T)
        drain_op = sum(self.site[q] for q in self.outputs) + self.interaction
        e_in = self.e_in()
        e_out = -self.energy(drain_op, rotated)
        return e_in, e_out, e_in - self.energy(self.hamiltonian, rotated)


def _output_sets(n: int):
    for m in range(1, n):
        yield from (frozenset(s) for s in itertools.combinations(range(1, n + 1), m))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("ratio", [0.3, 2.5])
def test_oracle_matches_density_matrix_reference(n, ratio):
    params = ModelParams(n, 1.0, ratio)
    for outputs in _output_sets(n):
        ref = Reference(n, 1.0, ratio, outputs)
        part = Partition(n, outputs)
        curve = po.output_energy_curve(params, part, THETAS)
        for theta, on_curve in zip(THETAS, curve):
            want_in, want_out, want_trace = ref.run(theta)
            rep = po.extracted_energy(params, part, theta)
            where = f"outputs={sorted(outputs)} theta={theta}"
            assert rep.e_in == pytest.approx(want_in, abs=1e-12), where
            assert rep.e_out == pytest.approx(want_out, abs=1e-12), where
            assert rep.e_out_via_trace == pytest.approx(want_trace, abs=1e-12), where
            assert on_curve == pytest.approx(want_out, abs=1e-12), where
