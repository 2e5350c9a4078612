"""Every one-ancilla column, the final register and the orbit classifier against
the closed form of ``closed_form.py``, which steps no collision."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form
from closed_form import AMPLITUDE
from csv_output import read_csv_output
from qcollide import analysis, cli, dynamics, model
from reference_steps import collide

PAIR = (dynamics.SUPERPOSITION_PLUS, dynamics.SUPERPOSITION_MINUS)
NAMES = ["coherence_a", "coherence_env", "negativity", "trace_distance"]

collision_counts = st.integers(1, 400)
probabilities = st.floats(0.0, 1.0)
ground_weights = st.floats(0.5, 1.0)  # w_e > w_g warns of a negative temperature


class TestOracle:
    """The closed form against itself and against one collision of the library."""

    @given(n=collision_counts, p=probabilities, w_g=ground_weights)
    def test_columns_have_their_short_closed_forms(self, n, p, w_g):
        cols = closed_form.columns(w_g, p, n)
        angle = np.arange(n + 1) * closed_form.theta(p)
        np.testing.assert_allclose(cols["coherence_a"], np.abs(np.cos(angle)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(cols["trace_distance"], np.abs(np.cos(angle)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            cols["coherence_env"], (2 * w_g - 1) * np.abs(np.sin(angle)), rtol=0, atol=1e-14)

    @given(p=probabilities, w_g=ground_weights)
    def test_zero_and_one_collision(self, p, w_g):
        for system in PAIR:
            rho0 = model.composite_initial(system, [model.ThermalAncilla(w_g)])
            rho = closed_form.register(system.a, system.b, w_g, p, [0, 1])
            np.testing.assert_allclose(rho[0], rho0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(rho[1], collide(rho0, (0, 1), p), rtol=0, atol=1e-15)


class TestRunAgainstClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(n=collision_counts, p=probabilities, w_g=ground_weights)
    def test_every_column_and_final_register(self, n, p, w_g):
        traj = dynamics.run_trajectory(PAIR, model.ThermalAncilla(w_g), p,
                                       dynamics.repeated_schedule(2, (0, 1), n))
        assert list(traj.columns) == NAMES
        expected = closed_form.columns(w_g, p, n)
        tol = closed_form.tolerance(np.arange(n + 1))
        for name in NAMES:
            gap = np.abs(traj.columns[name] - expected[name])
            assert (gap <= tol).all(), (name, int(gap.argmax()), gap.max())
        for (a, b), final in zip([(AMPLITUDE, AMPLITUDE), (AMPLITUDE, -AMPLITUDE)], traj.final_registers):
            rho_n = closed_form.register(a, b, w_g, p, n)
            np.testing.assert_allclose(final, rho_n, rtol=0, atol=closed_form.tolerance(n))

    @settings(max_examples=40, deadline=None)
    @given(polar=st.floats(0.0, math.pi), phase=st.floats(0.0, 2 * math.pi),
           n=collision_counts, p=probabilities, w_g=ground_weights)
    def test_any_system_state(self, polar, phase, n, p, w_g):
        a, b = math.cos(polar / 2), math.sin(polar / 2) * complex(math.cos(phase), math.sin(phase))
        ancilla = model.ThermalAncilla(w_g)
        traj = dynamics.run_trajectory(model.PureQubit(a, b), ancilla, p,
                                       dynamics.repeated_schedule(2, (0, 1), n))
        rho = closed_form.register(a, b, w_g, p, np.arange(n + 1))
        tol = closed_form.tolerance(np.arange(n + 1))
        expected = {
            "coherence_a": 2 * np.abs(closed_form.system_state(rho)[:, 0, 1]),
            "coherence_env": 2 * np.abs(closed_form.ancilla_state(rho)[:, 0, 1]),
            "negativity": closed_form.negativity(rho),
        }
        for name, values in expected.items():
            assert (np.abs(traj.columns[name] - values) <= tol).all(), name
        np.testing.assert_allclose(traj.final_registers[0], rho[-1], rtol=0, atol=tol[-1])

    @pytest.mark.parametrize("p, w_g, n", [(0.5, 0.8, 100), (0.8, 0.8, 5000), (0.3, 0.95, 700)])
    def test_cli_columns(self, p, w_g, n, tmp_path):
        path = tmp_path / "out.csv"
        argv = ["trajectory", "--p", repr(p), "--wg", repr(w_g), "--collisions", str(n)]
        assert cli.main(argv + ["--out", str(path)]) == 0
        _, names, rows = read_csv_output(str(path))
        table = np.array(rows, dtype=float)
        np.testing.assert_array_equal(table[:, 0], np.arange(n + 1))
        expected = closed_form.columns(w_g, p, n)
        tol = closed_form.tolerance(table[:, 0])
        for k, name in enumerate(NAMES, start=1):
            assert (np.abs(table[:, k] - expected[name]) <= tol).all(), names[k]


# The 63 grid points p = sin^2(pi m / q) with 0 < 2m < q <= 20 and gcd(m, q) = 1,
# where theta = pi m / q: the coherence |cos(n theta)| has period q and
# floor(q / 2) + 1 distinct values.
RATIONAL = [(m, q) for q in range(3, 21) for m in range(1, (q + 1) // 2) if math.gcd(m, q) == 1]


def test_rational_points_are_the_sixty_three():
    assert len(RATIONAL) == 63


def test_orbit_classifier_at_rational_angles():
    ps = [math.sin(math.pi * m / q) ** 2 for m, q in RATIONAL]
    diagram = dynamics.orbit_sweep(ps, 100, window=(0, 101))
    for (m, q), p, values in zip(RATIONAL, ps, diagram.values):
        np.testing.assert_allclose(values, closed_form.columns(0.8, p, 100)["coherence_a"],
                                   rtol=0, atol=closed_form.tolerance(100))
        verdict = analysis.detect_period(values)
        assert (verdict.period, verdict.n_distinct) == (q, q // 2 + 1), (m, q, verdict)
