"""The orbit diagram's regular/chaotic split, decided exactly.

With one ancilla the coherence of |+> is |cos n theta|, with cos 2 theta = 1 - 2p.
By Niven's theorem theta / pi is rational for a rational p only at p in
{0, 1/4, 1/2, 3/4, 1}; every other orbit is aperiodic and, by Weyl's theorem,
equidistributed, with values following F(x) = 1 - (2/pi) arccos x. The map is
an isometry, so nearby p separate at most linearly: "chaotic" reads as
quasi-periodic (README, criterion 4).
"""

import math

import numpy as np
import pytest

from qcollide import analysis, dynamics


def theta(p):
    return math.acos(math.sqrt(1.0 - p))


def test_the_periodic_points_of_a_fine_grid_are_the_niven_points():
    grid = [round(0.005 * k, 10) for k in range(1, 200)]
    diagram = dynamics.orbit_sweep(grid, 100, (0, 101))
    periods = {p: analysis.detect_period(row).period for p, row in zip(grid, diagram.values)}
    assert {p: k for p, k in periods.items() if k is not None} == {0.25: 6, 0.5: 4, 0.75: 3}


def test_aperiodic_orbits_follow_the_arccos_law():
    diagram = dynamics.orbit_sweep([0.62, 0.8, 0.9], 10000, (1, 10001))
    n = diagram.values.shape[1]
    for p, row in zip(diagram.p_grid, diagram.values):
        # A stepped value may overshoot 1 by a few ulps, where arccos would be NaN.
        cdf = 1.0 - 2.0 / math.pi * np.arccos(np.clip(np.sort(row), 0.0, 1.0))
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks < 1e-3, p


@pytest.mark.parametrize("p", [0.3, 0.62, 0.8])
def test_nearby_probabilities_separate_at_most_linearly(p):
    n_collisions = 1000
    q = p + 1e-6
    diagram = dynamics.orbit_sweep([p, q], n_collisions, (0, n_collisions + 1))
    n = np.arange(n_collisions + 1)
    gap = np.abs(diagram.values[0] - diagram.values[1])
    assert (gap <= n * abs(theta(p) - theta(q)) + 1e-12 + 1e-14 * n).all()
