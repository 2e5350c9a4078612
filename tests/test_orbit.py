"""The orbit sweep: windowed values equal the full trajectory's, only the
requested metric is computed, and every collision is still checked."""

import dataclasses

import numpy as np
import pytest

from qcollide import cli, dynamics, metrics

PLUS = dynamics.SUPERPOSITION_PLUS
MINUS = dynamics.SUPERPOSITION_MINUS
ANC = dynamics.DEFAULT_ANCILLA
N = 100
GRID = [0.5 + 0.005 * k for k in range(71)]


def windowed_trajectory_series(p, metric, window):
    systems = (PLUS, MINUS) if metric == "trace_distance" else PLUS
    traj = dynamics.run_trajectory(systems, ANC, p, dynamics.repeated_schedule(2, (0, 1), N))
    series = {
        "coherence": traj.coherence_series,
        "trace_distance": traj.trace_distance_series,
        "negativity": traj.negativity_series,
    }[metric]()
    return tuple(float(x) for x in series[window[0]:window[1]])


class TestMatchesTrajectory:
    @pytest.mark.parametrize("metric", ["coherence", "trace_distance", "negativity"])
    @pytest.mark.parametrize("window", [(0, N + 1), (41, 101)])
    @pytest.mark.parametrize("grid", [(0.62,), (0.5, 0.75, 0.8)])
    def test_values_equal_windowed_trajectory(self, metric, window, grid):
        diagram = dynamics.orbit_sweep(grid, N, window, metric=metric)
        assert diagram.window == window
        assert diagram.values == tuple(
            windowed_trajectory_series(p, metric, window) for p in grid
        )


class TestClosedForm:
    def test_coherence_is_abs_cos_n_theta_on_the_orbit_grid(self):
        # With one ancilla and a repeated (0, 1) collision, the system
        # coherence of |+> is |cos(n theta)| with cos(theta) = sqrt(1 - p).
        diagram = dynamics.orbit_sweep(GRID, N, (0, N + 1))
        n = np.arange(N + 1)
        for p, values in zip(diagram.p_grid, diagram.values):
            exact = np.abs(np.cos(n * np.arccos(np.sqrt(1.0 - p))))
            np.testing.assert_array_less(np.abs(np.array(values) - exact), 1e-12 + 1e-14 * n)


class TestOnlyTheRequestedMetric:
    def test_coherence_sweep_computes_no_negativity_and_windowed_coherence_only(
        self, monkeypatch
    ):
        calls = []
        real = metrics.l1_coherence

        def counted(rho):
            calls.append(1)
            return real(rho)

        def forbidden(*args, **kwargs):
            raise AssertionError("negativity computed for a coherence sweep")

        monkeypatch.setattr(metrics, "l1_coherence", counted)
        monkeypatch.setattr(metrics, "negativity", forbidden)
        monkeypatch.setattr(metrics, "trace_distance", forbidden)
        diagram = dynamics.orbit_sweep([0.5, 0.6], N, (41, 101))
        assert len(calls) == 2 * 60
        assert all(len(v) == 60 for v in diagram.values)


class TestEveryStepChecked:
    def test_drift_before_the_window_exits_four(self, monkeypatch, capsys, tmp_path):
        spec = "0.5:0.85:0.005"
        bad_p = cli.parse_grid(spec)[10]
        real = dynamics.pair_collision_unitary

        def patched(n_qubits, pair, p):
            cu = real(n_qubits, pair, p)
            if p == bad_p:
                return dataclasses.replace(cu, matrix=1.01 * cu.matrix)
            return cu

        monkeypatch.setattr(dynamics, "pair_collision_unitary", patched)
        out = tmp_path / "orbit.csv"
        code = cli.main(["orbit", "--p-grid", spec, "--collisions", "100",
                         "--window", "41:101", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert "step 1," in err
        assert "pair (0, 1)" in err
        assert f"p = {bad_p!r}" in err
        assert "copy 0" in err
        assert "Traceback" not in err
        assert not out.exists()
