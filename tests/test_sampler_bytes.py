"""Pinned bits of ``sample_protocol``'s ``e_out``.

The sampler reads each row's energies through ``output_term_energies``,
whose per-bit <Z> comes from ``kernels.z_fold``; ``efficiency --shots``
prints those values, so the fold's rounding is part of the CLI's bytes.
The values were taken before the protocol pass read its per-bit <Z> from
tables, a change that must leave the sampler's path alone. A change to the
fold, the rotation or the draw order moves some of them in the last bit.
"""

from __future__ import annotations

import pytest

from qetsim import protocol_oracle as po
from qetsim.model import ModelParams, Partition

#: (N, m, k/h, seed, float.hex of e_out) at h = 1, theta = 0.3, 4096 shots.
PINNED = [
    (2, 1, 0.05, 0, "-0x1.2d4e312f3cd4ap-3"),
    (3, 2, 3.0, 3, "-0x1.2d552c5ec622ap-1"),
    (4, 1, 3.0, 0, "0x1.c3248d45aa5f0p-2"),
    (5, 4, 0.05, 3, "-0x1.600a07858c8eep-1"),
    (6, 1, 0.05, 3, "-0x1.05e825c3540e9p-3"),
    (7, 6, 3.0, 0, "-0x1.1c391dc3c8a2ep+0"),
    (8, 1, 3.0, 3, "0x1.9a5c9364704cfp+0"),
    (8, 7, 0.05, 0, "-0x1.37392a47d0048p+0"),
]


@pytest.mark.parametrize("n, m, ratio, seed, e_out", PINNED)
def test_sampled_output_energy_keeps_its_bits(n, m, ratio, seed, e_out):
    estimate = po.sample_protocol(ModelParams(n, 1.0, ratio), Partition.last(n, m), 0.3,
                                  seed=seed)
    assert estimate.e_out.hex() == e_out
