import math
from collections import Counter

import numpy as np
import pytest

import literal_unitaries as lit
from qcollide import dynamics, metrics, model, qmat

HALF = 1 / math.sqrt(2)

PLUS = dynamics.SUPERPOSITION_PLUS
MINUS = dynamics.SUPERPOSITION_MINUS
ANC = model.ThermalAncilla(0.8, 0.2)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestSchedule:
    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError, match="event"):
            dynamics.Schedule(n_qubits=3, events=((0, 3),))

    def test_repeated(self):
        sched = dynamics.repeated_schedule(2, (0, 1), 5)
        assert sched.events == ((0, 1),) * 5
        assert sched.seed is None
        assert len(sched) == 5

    def test_random_is_reproducible(self):
        a = dynamics.random_schedule(3, 100, seed=42)
        b = dynamics.random_schedule(3, 100, seed=42)
        assert a.events == b.events
        assert a.seed == 42

    def test_random_differs_across_seeds(self):
        a = dynamics.random_schedule(3, 100, seed=1)
        b = dynamics.random_schedule(3, 100, seed=2)
        assert a.events != b.events

    def test_uniform_pair_frequencies(self):
        sched = dynamics.random_schedule(3, 100_000, seed=7)
        counts = Counter(sched.events)
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        for pair, count in counts.items():
            assert abs(count / 100_000 - 1 / 3) < 0.01, pair

    def test_four_qubit_domain(self):
        sched = dynamics.random_schedule(4, 100, seed=3)
        allowed = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert set(sched.events) <= allowed

    def test_system_ancilla_only(self):
        sched = dynamics.random_schedule(4, 200, seed=5, system_ancilla_only=True)
        assert set(sched.events) <= {(0, 1), (0, 2), (0, 3)}

    def test_rejects_two_qubit_random(self):
        with pytest.raises(ValueError, match="random"):
            dynamics.random_schedule(2, 10, seed=0)


class TestCollide:
    def test_double_ground_invariant(self):
        reg = model.composite_initial(
            model.PureQubit(1.0, 0.0), [model.ThermalAncilla(1.0, 0.0)]
        )
        out = dynamics.collide(reg, (0, 1), 0.7)
        np.testing.assert_allclose(out.rho, reg.rho, atol=1e-15)

    def test_zero_probability_is_identity(self):
        reg = model.composite_initial(PLUS, [ANC, ANC])
        out = dynamics.collide(reg, (1, 2), 0.0)
        np.testing.assert_array_equal(out.rho, reg.rho)

    def test_preserves_trace_and_hermiticity(self):
        reg = model.composite_initial(PLUS, [ANC])
        out = dynamics.collide(reg, (0, 1), 0.37)
        assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out.rho - out.rho.conj().T)) < 1e-12

    def test_four_half_collisions_restore_coherence(self):
        reg = model.composite_initial(PLUS, [ANC])
        for _ in range(4):
            reg = dynamics.collide(reg, (0, 1), 0.5)
        rho_a = qmat.partial_trace(reg.rho, [2, 2], keep=0)
        assert metrics.l1_coherence(rho_a) == pytest.approx(1.0, abs=1e-12)


class TestCheckRegister:
    def test_accepts_valid(self):
        dynamics.check_register(model.composite_initial(PLUS, [ANC]))

    def test_rejects_trace_drift(self):
        reg = model.Register(rho=np.eye(4, dtype=complex), n_qubits=2, labels=("A", "B"))
        with pytest.raises(dynamics.InvariantViolationError, match="trace"):
            dynamics.check_register(reg)

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 1e-3
        reg = model.Register(rho=rho, n_qubits=2, labels=("A", "B"))
        with pytest.raises(dynamics.InvariantViolationError, match="Hermiticity"):
            dynamics.check_register(reg)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        reg = model.Register(rho=rho, n_qubits=2, labels=("A", "B"))
        with pytest.raises(dynamics.InvariantViolationError, match="eigenvalue"):
            dynamics.check_register(reg)


class TestRunTrajectory:
    def test_step_count_and_initial_record(self):
        sched = dynamics.repeated_schedule(2, (0, 1), 10)
        traj = dynamics.run_trajectory(PLUS, ANC, 0.5, sched)
        assert all(len(column) == 11 for column in traj.columns.values())
        assert traj.columns["coherence_a"][0] == pytest.approx(1.0, abs=1e-12)
        assert traj.weights == ((0.8, 0.2),)

    def test_schedule_mismatch(self):
        sched = dynamics.repeated_schedule(3, (0, 1), 5)
        with pytest.raises(ValueError, match="schedule"):
            dynamics.run_trajectory(PLUS, ANC, 0.5, sched)

    def test_paired_records_trace_distance(self):
        sched = dynamics.repeated_schedule(2, (0, 1), 8)
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, sched)
        d = traj.trace_distance_series()
        expected = [abs(math.cos(n * math.pi / 4)) for n in range(9)]
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_single_run_has_no_trace_distance(self):
        sched = dynamics.repeated_schedule(2, (0, 1), 3)
        traj = dynamics.run_trajectory(PLUS, ANC, 0.5, sched)
        with pytest.raises(ValueError, match="not recorded"):
            traj.trace_distance_series()

    def test_zero_p_freezes_all_metrics(self):
        sched = dynamics.repeated_schedule(2, (0, 1), 6)
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.0, sched)
        for name in ("coherence_series", "coherence_env_series",
                     "negativity_series", "trace_distance_series"):
            series = getattr(traj, name)()
            np.testing.assert_allclose(series, series[0], atol=1e-13)

    def test_matches_hand_rolled_evolution(self):
        # Direct conjugation with the literal 4x4 matrix, no library calls.
        p, steps = 0.35, 40
        u = lit.u4_system_ancilla(p)
        rho = np.kron(
            np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
            np.diag([0.8, 0.2]).astype(complex),
        )
        coherences = []
        for _ in range(steps + 1):
            rho_a = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            coherences.append(abs(rho_a[0, 1]) + abs(rho_a[1, 0]))
            rho = u @ rho @ u.conj().T
        sched = dynamics.repeated_schedule(2, (0, 1), steps)
        traj = dynamics.run_trajectory(PLUS, ANC, p, sched)
        np.testing.assert_allclose(traj.coherence_series(), coherences[: steps + 1], atol=1e-12)
        # rewind one extra conjugation applied in the loop above
        final = traj.final_registers[0].rho
        u_dag = u.conj().T
        np.testing.assert_allclose(final, u_dag @ rho @ u, atol=1e-12)

    def test_seven_collision_four_qubit_sequence(self):
        # Explicit product of the literal 16x16 matrices for the sequence
        # A-C, B-C, A-D, B-D, A-B, A-B, C-D applied to the standard
        # preparation with three identical thermal ancillas.
        p = 0.5
        order = [(0, 2), (1, 2), (0, 3), (1, 3), (0, 1), (0, 1), (2, 3)]
        rho = model.composite_initial(model.PureQubit(0.6, 0.8), [ANC] * 3).rho
        for pair in order:
            u = lit.SIXTEEN_BY_PAIR[pair](p)
            rho = u @ rho @ u.conj().T
        oracle_rho_a = qmat.partial_trace(rho, [2] * 4, keep=0)

        sched = dynamics.Schedule(n_qubits=4, events=tuple(order))
        traj = dynamics.run_trajectory(model.PureQubit(0.6, 0.8), [ANC] * 3, p, sched)
        lib_rho_a = qmat.partial_trace(traj.final_registers[0].rho, [2] * 4, keep=0)
        np.testing.assert_allclose(lib_rho_a, oracle_rho_a, atol=1e-13)
        np.testing.assert_allclose(traj.final_registers[0].rho, rho, atol=1e-13)

    @pytest.mark.parametrize("n_anc,p", [(1, 0.5), (2, 0.8), (3, 0.5)])
    def test_states_stay_valid_along_trajectory(self, n_anc, p):
        if n_anc == 1:
            sched = dynamics.repeated_schedule(2, (0, 1), 150)
        else:
            sched = dynamics.random_schedule(1 + n_anc, 150, seed=23)
        traj = dynamics.run_trajectory((PLUS, MINUS), [ANC] * n_anc, p, sched)
        for reg in traj.final_registers:
            assert np.trace(reg.rho).real == pytest.approx(1.0, abs=1e-10)
            assert qmat.hermitian_eigenvalues(reg.rho)[0] > -1e-9
        for ground, excited in traj.columns["rho_a_diag"]:
            assert ground + excited == pytest.approx(1.0, abs=1e-10)


class TestMarkovian:
    def test_bath_state_is_fixed_point(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        out = dynamics.markovian_step(rho, 0.4, ANC)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_full_strength_thermalizes_in_one_step(self):
        # Independent route: collide with the literal matrix at p=1, trace.
        rng = np.random.default_rng(31)
        u = lit.u4_system_ancilla(1.0)
        for _ in range(5):
            rho = random_density(rng, 2)
            joint = u @ np.kron(rho, np.diag([0.8, 0.2])).astype(complex) @ u.conj().T
            oracle = np.trace(joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            np.testing.assert_allclose(oracle, np.diag([0.8, 0.2]), atol=1e-12)
            out = dynamics.markovian_step(rho, 1.0, ANC)
            np.testing.assert_allclose(out, np.diag([0.8, 0.2]), atol=1e-12)

    def test_matches_fresh_ancilla_construction(self):
        rng = np.random.default_rng(37)
        for p in (0.1, 0.5, 0.9):
            for _ in range(5):
                rho = random_density(rng, 2)
                reg = model.Register(
                    rho=qmat.kron(rho, model.thermal_density(ANC)),
                    n_qubits=2,
                    labels=("A", "B"),
                )
                reduced = qmat.partial_trace(
                    dynamics.collide(reg, (0, 1), p).rho, [2, 2], keep=0
                )
                np.testing.assert_allclose(
                    dynamics.markovian_step(rho, p, ANC), reduced, atol=1e-13
                )

    def test_cptp(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 2)
        out = dynamics.markovian_step(rho, 0.6, ANC)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-13)
        assert qmat.hermitian_eigenvalues(out)[0] >= -1e-12

    def test_distance_decays_to_zero(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.5, ANC, 60)
        d = traj.trace_distance_series()
        assert np.all(np.diff(d) <= 1e-12)
        assert d[-1] < 1e-8

    def test_larger_p_decays_faster(self):
        trajs = {
            p: dynamics.markovian_trajectory((PLUS, MINUS), p, ANC, 30)
            for p in (0.1, 0.2, 0.5, 0.7)
        }
        series = {p: t.trace_distance_series() for p, t in trajs.items()}
        for n in range(1, 31):
            assert series[0.7][n] <= series[0.5][n] <= series[0.2][n] <= series[0.1][n]

    def test_zero_p_is_frozen(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.0, ANC, 20)
        np.testing.assert_allclose(traj.trace_distance_series(), 1.0, atol=1e-12)

    def test_thermalization(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.3, ANC, 500)
        final = traj.final_registers[0]
        np.testing.assert_allclose(np.diag(final).real, [0.8, 0.2], atol=1e-6)
        assert abs(final[0, 1]) < 1e-6

    def test_requires_pair(self):
        with pytest.raises(ValueError, match="pair"):
            dynamics.markovian_trajectory((PLUS,), 0.5, ANC, 10)


class TestEnvironmentSize:
    def test_mean_distance_shrinks_with_more_ancillas(self):
        # Quick ensemble version; the acceptance suite runs the full one.
        p, n_steps, seeds = 0.5, 100, range(10)
        single = dynamics.run_trajectory(
            (PLUS, MINUS), [ANC], p, dynamics.repeated_schedule(2, (0, 1), n_steps)
        )
        mean_1 = float(np.mean(single.trace_distance_series()[1:]))
        means = {}
        for n_anc in (2, 3):
            totals = []
            for seed in seeds:
                sched = dynamics.random_schedule(1 + n_anc, n_steps, seed=seed)
                traj = dynamics.run_trajectory((PLUS, MINUS), [ANC] * n_anc, p, sched)
                totals.append(float(np.mean(traj.trace_distance_series()[1:])))
            means[n_anc] = float(np.mean(totals))
        assert mean_1 > means[2] > means[3]


class TestOrbitSweep:
    def test_half_strength_has_three_values(self):
        diagram = dynamics.orbit_sweep([0.5], n_collisions=100)
        values = sorted(set(round(v, 9) for v in diagram.values[0]))
        np.testing.assert_allclose(values, [0.0, HALF, 1.0], atol=1e-9)

    def test_period_three_window(self):
        diagram = dynamics.orbit_sweep([0.75], n_collisions=100)
        values = sorted(set(round(v, 9) for v in diagram.values[0]))
        np.testing.assert_allclose(values, [0.5, 1.0], atol=1e-9)
        assert min(diagram.values[0]) > 0.05

    def test_window_defaults_to_last_sixty(self):
        diagram = dynamics.orbit_sweep([0.5], n_collisions=100)
        assert diagram.window == (41, 101)
        assert len(diagram.values[0]) == 60

    def test_grid_order_preserved(self):
        diagram = dynamics.orbit_sweep([0.8, 0.5], n_collisions=50, window=(40, 51))
        assert diagram.p_grid == (0.8, 0.5)
        assert len(diagram.values) == 2

    def test_trace_distance_metric_matches_coherence_here(self):
        # For this preparation the distinguishability and coherence series
        # coincide, a strong cross-check of the paired bookkeeping.
        coh = dynamics.orbit_sweep([0.62], n_collisions=60, window=(0, 61))
        dist = dynamics.orbit_sweep([0.62], n_collisions=60, window=(0, 61),
                                    metric="trace_distance")
        np.testing.assert_allclose(coh.values[0], dist.values[0], atol=1e-10)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            dynamics.orbit_sweep([])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            dynamics.orbit_sweep([0.5], n_collisions=10, window=(5, 20))

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            dynamics.orbit_sweep([0.5], metric="purity")


def assert_columns(traj, fields, n_rows):
    """``columns`` holds exactly ``fields``, each with one value per collision index."""
    assert set(traj.columns) == fields
    assert all(len(column) == n_rows for column in traj.columns.values())


class TestColumns:
    @pytest.mark.parametrize("n_anc,fields", [
        (1, {"coherence_a", "rho_a_diag", "coherence_env", "negativity", "trace_distance"}),
        (2, {"coherence_a", "rho_a_diag", "trace_distance"}),
        (3, {"coherence_a", "rho_a_diag", "trace_distance"}),
    ])
    def test_collision_run_records_its_fields(self, n_anc, fields):
        if n_anc == 1:
            sched = dynamics.repeated_schedule(2, (0, 1), 12)
        else:
            sched = dynamics.random_schedule(1 + n_anc, 12, seed=5)
        traj = dynamics.run_trajectory((PLUS, MINUS), [ANC] * n_anc, 0.6, sched)
        assert_columns(traj, fields, 13)

    def test_markovian_run_records_its_fields(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.3, ANC, 12)
        assert_columns(traj, {"coherence_a", "rho_a_diag", "trace_distance"}, 13)
