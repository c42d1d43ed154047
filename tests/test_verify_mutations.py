"""``qetsim verify`` against deliberately broken code.

Each row breaks one function by monkeypatch, with no source edit, runs
``verify.run_all()`` at its defaults, and asserts that the named check
fails. A mutation that verify does not catch has no row here; ROADMAP
item 2 lists those.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qetsim import analysis, closedform, protocol_oracle, verify


def doubled_bell_saturation(monkeypatch):
    saturation = analysis._bell_saturation
    monkeypatch.setattr(analysis, "_bell_saturation", lambda n: 2.0 * saturation(n))


def scan_one_count_too_high(monkeypatch):
    scan = analysis.n_opt_scan

    def shifted(*args, **kwargs):
        n, eta = scan(*args, **kwargs)
        return n + 1, eta

    monkeypatch.setattr(analysis, "n_opt_scan", shifted)


def eta_off_by_a_millionth(monkeypatch):
    energies = closedform._energies

    def scaled(*args, **kwargs):
        e = energies(*args, **kwargs)
        return dataclasses.replace(e, eta=e.eta * (1.0 + 1e-6))

    monkeypatch.setattr(closedform, "_energies", scaled)


def oracle_eta_as_product(monkeypatch):
    report = protocol_oracle.ProtocolReport

    def product(**fields):
        fields["eta"] = fields["e_out"] * fields["e_in"]
        return report(**fields)

    monkeypatch.setattr(protocol_oracle, "ProtocolReport", product)


def angle_form_cos_and_sin_swapped(monkeypatch):
    def swapped(x, thetas):
        t = 2.0 * np.asarray(thetas, dtype=float)
        return x[0] + x[1] * np.sin(t) + x[2] * np.cos(t)

    monkeypatch.setattr(protocol_oracle, "_angle_form", swapped)


MUTATIONS = [
    (doubled_bell_saturation, "bell-value"),
    (scan_one_count_too_high, "optimal-qubit-count"),
    (eta_off_by_a_millionth, "specialization-fixtures"),
    (oracle_eta_as_product, "oracle-vs-closed-form"),
    (angle_form_cos_and_sin_swapped, "oracle-vs-closed-form"),
]


@pytest.mark.parametrize("mutate, check", MUTATIONS,
                         ids=[mutate.__name__ for mutate, _ in MUTATIONS])
def test_verify_fails_the_check_that_sees_the_mutation(monkeypatch, mutate, check):
    mutate(monkeypatch)
    failed = [r.name for r in verify.run_all() if not r.passed]
    assert check in failed, failed
