"""Accuracy of metrics whose exact values are far below machine epsilon.

The fresh-ancilla trace distance is (1-p)^(n/2) (Breuer, Laine & Piilo,
PRL 103, 210401), which reaches 1e-300 and below on the markovian grid; it
must be resolved to relative precision, not truncated to an absolute floor.
"""

import numpy as np
import pytest

from qcollide import cli, dynamics, model, qmat

ANC = model.ThermalAncilla(0.8, 0.2)
N_COLLISIONS = 2000


def test_markovian_trace_distance_matches_closed_form_down_to_1e_300():
    n = np.arange(N_COLLISIONS + 1)
    checked = 0
    for p in cli.parse_grid("0.05:0.95:0.05"):
        traj = dynamics.markovian_trajectory(
            (dynamics.SUPERPOSITION_PLUS, dynamics.SUPERPOSITION_MINUS), p, ANC, N_COLLISIONS
        )
        got = np.asarray(traj.trace_distance_series())
        exact = (1.0 - p) ** (n / 2)
        resolved = exact >= 1e-300
        np.testing.assert_allclose(got[resolved], exact[resolved], rtol=1e-12, atol=0.0)
        checked += int(resolved.sum())
    assert checked > 25_000


def test_trace_norm_of_tiny_off_diagonal():
    eps = 1e-20
    assert qmat.trace_norm_hermitian(np.array([[0.0, eps], [eps, 0.0]])) == pytest.approx(
        2 * eps, rel=1e-15, abs=0.0
    )
