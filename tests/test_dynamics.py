import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

import literal_unitaries as lit
from qcollide import analysis, cli, dynamics, metrics, model, qmat
from reference_steps import collide, purified_run, violation

HALF = 1 / math.sqrt(2)

PLUS = dynamics.SUPERPOSITION_PLUS
MINUS = dynamics.SUPERPOSITION_MINUS
ANC = model.ThermalAncilla(0.8)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestSchedule:
    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError, match=r"^pair \(0, 3\) invalid for 3 qubits"):
            dynamics.Schedule(n_qubits=3, pairs=((0, 1), (0, 3)), index=[0])

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (0, 1.0), (float("nan"), 1)])
    def test_rejects_non_integer_qubit_indices(self, pair):
        # (0.0, 1.0) passed and then failed inside the run with a TypeError.
        with pytest.raises(ValueError, match="pair"):
            dynamics.Schedule(n_qubits=2, pairs=(pair,), index=[0])

    def test_rejects_a_non_integer_register_size(self):
        with pytest.raises(ValueError, match="n_qubits"):
            dynamics.Schedule(n_qubits=2.0, pairs=((0, 1),), index=[0])

    def test_rejects_an_empty_event_list(self):
        # An empty schedule used to pass and then fail inside the run with an IndexError.
        with pytest.raises(ValueError, match="non-empty"):
            dynamics.Schedule(n_qubits=2, pairs=((0, 1),), index=np.zeros(0, dtype=int))

    def test_accepts_numpy_integer_indices(self):
        pair = (np.int64(0), np.int64(1))
        sched = dynamics.Schedule(n_qubits=2, pairs=(pair,), index=[0])
        assert sched.pairs == ((0, 1),)
        assert all(type(k) is int for k in sched.pairs[0])

    def test_compares_by_identity(self):
        a = dynamics.repeated_schedule(3)
        b = dynamics.repeated_schedule(3)
        assert a == a and a != b
        assert hash(a) == hash(a)

    @pytest.mark.parametrize("n_events", [1, 5, 100])
    def test_repeated(self, n_events):
        sched = dynamics.repeated_schedule(n_events)
        assert sched.n_qubits == 2
        assert sched.pairs == ((0, 1),)
        np.testing.assert_array_equal(sched.index, np.zeros(n_events, dtype=int))
        assert not sched.index.flags.writeable
        assert len(sched) == n_events

    def test_random_is_reproducible(self):
        a = dynamics.random_schedule(3, 100, seed=42)
        b = dynamics.random_schedule(3, 100, seed=42)
        assert a.pairs == b.pairs
        np.testing.assert_array_equal(a.index, b.index)

    def test_random_differs_across_seeds(self):
        a = dynamics.random_schedule(3, 100, seed=1)
        b = dynamics.random_schedule(3, 100, seed=2)
        assert not np.array_equal(a.index, b.index)

    def test_uniform_pair_frequencies(self):
        sched = dynamics.random_schedule(3, 100_000, seed=7)
        assert sched.pairs == ((0, 1), (0, 2), (1, 2))
        for pair, count in zip(sched.pairs, np.bincount(sched.index, minlength=3)):
            assert abs(count / 100_000 - 1 / 3) < 0.01, pair

    def test_four_qubit_domain(self):
        # Every pair in combinations order, indexed by the seed's integers draw.
        sched = dynamics.random_schedule(4, 100, seed=3)
        assert sched.pairs == tuple(itertools.combinations(range(4), 2))
        np.testing.assert_array_equal(sched.index, np.random.default_rng(3).integers(0, 6, 100))

    def test_system_ancilla_only(self):
        sched = dynamics.random_schedule(4, 200, seed=5, system_ancilla_only=True)
        assert sched.pairs == ((0, 1), (0, 2), (0, 3))
        np.testing.assert_array_equal(sched.index, np.random.default_rng(5).integers(0, 3, 200))

    @pytest.mark.parametrize("restrict", [False, True])
    def test_cli_schedule_header_is_the_labels_through_the_index(self, capsys, restrict):
        argv = ["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", "4", "--collisions", "30"]
        assert cli.main(argv + ["--restrict-system-ancilla"] * restrict) == 0
        header = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# schedule = ")]
        sched = dynamics.random_schedule(4, 30, 4, system_ancilla_only=restrict)
        labels = [f"{i}-{j}" for i, j in sched.pairs]
        assert header == ["# schedule = " + " ".join(labels[k] for k in sched.index)]

    def test_rejects_two_qubit_random(self):
        with pytest.raises(ValueError, match="random"):
            dynamics.random_schedule(2, 10, seed=0)


@pytest.mark.parametrize("call", [
    lambda: model.pair_collision_unitary(2, (0.0, 1.0), 0.5),
    lambda: model.pair_collision_unitary(2.0, (0, 1), 0.5),
    lambda: dynamics.repeated_schedule(1.5),
    lambda: dynamics.random_schedule(3, 2.5, 1),
    lambda: dynamics.random_schedule(3.0, 5, 1),
    lambda: dynamics.random_schedule(3, 5, 1.5),
    lambda: dynamics.markovian_trajectory((PLUS, MINUS), 0.5, ANC, n_steps=2.5),
    lambda: dynamics.orbit_sweep([0.5], 2.5, (0, 2)),
    lambda: qmat.partial_trace(np.eye(4), 0.0),
    lambda: dynamics.Schedule(2, (5,), [0]),
    lambda: model.pair_collision_unitary(2, 5, 0.5),
    lambda: dynamics.repeated_schedule(True),
    lambda: dynamics.random_schedule(3, True, 1),
    lambda: dynamics.orbit_sweep([0.5], True),
    lambda: dynamics.markovian_trajectory((PLUS, MINUS), 0.5, ANC, n_steps=True),
    lambda: qmat.partial_trace(np.eye(4), True),
    lambda: dynamics.random_schedule(3, 5, True),
    lambda: model.pair_collision_unitary(2, (False, True), 0.5),
    lambda: dynamics.orbit_sweep([0.5], 3, (False, True)),
    lambda: analysis.detect_period(np.zeros(100), True),
], ids=["unitary-pair", "unitary-size", "repeated-events", "random-events", "random-size",
        "random-seed", "markovian-steps", "orbit-collisions", "partial-trace-keep",
        "schedule-non-pair", "unitary-non-pair", "repeated-events-bool",
        "random-events-bool", "orbit-collisions-bool", "markovian-steps-bool",
        "partial-trace-keep-bool", "random-seed-bool", "unitary-pair-bool", "orbit-window-bool",
        "period-window-bool"])
def test_non_integer_counts_and_indices_raise_value_error(call):
    # Each of these used to fail later, inside numpy or range, with a TypeError,
    # or, for a bool, to run with True taken as 1.
    with pytest.raises(ValueError):
        call()


class TestCollide:
    def test_double_ground_invariant(self):
        reg = model.composite_initial(
            model.PureQubit(1.0, 0.0), model.ThermalAncilla(1.0), 1
        )
        out = collide(reg, (0, 1), 0.7)
        np.testing.assert_allclose(out, reg, atol=1e-15)

    def test_zero_probability_is_identity(self):
        reg = model.composite_initial(PLUS, ANC, 2)
        out = collide(reg, (1, 2), 0.0)
        np.testing.assert_array_equal(out, reg)

    def test_preserves_trace_and_hermiticity(self):
        reg = model.composite_initial(PLUS, ANC, 1)
        out = collide(reg, (0, 1), 0.37)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_four_half_collisions_restore_coherence(self):
        reg = model.composite_initial(PLUS, ANC, 1)
        for _ in range(4):
            reg = collide(reg, (0, 1), 0.5)
        rho_a = qmat.partial_trace(reg, keep=0)
        assert metrics.l1_coherence(rho_a) == pytest.approx(1.0, abs=1e-12)


class TestCheckRegister:
    """The run loop's check on one matrix."""

    def test_accepts_valid(self):
        assert violation(model.composite_initial(PLUS, ANC, 1)) is None

    def test_rejects_trace_drift(self):
        assert "trace" in violation(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 1e-3
        assert "Hermiticity" in violation(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        assert "eigenvalue" in violation(rho)


class TestRunTrajectory:
    def test_step_count_and_initial_record(self):
        sched = dynamics.repeated_schedule(10)
        traj = dynamics.run_trajectory(PLUS, ANC, 0.5, sched)
        assert all(len(column) == 11 for column in traj.columns.values())
        assert traj.columns["coherence_a"][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_schedule_sets_the_ancilla_count(self, n_qubits):
        # One ancilla state; the register holds n_qubits - 1 copies of it.
        sched = dynamics.Schedule(n_qubits, tuple(itertools.combinations(range(n_qubits), 2)),
                                  np.arange(12) % math.comb(n_qubits, 2))
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.6, sched)
        _, want = purified_run((PLUS, MINUS), [ANC] * (n_qubits - 1), 0.6, sched)
        for got, reg in zip(traj.final_registers, want, strict=True):
            assert got.shape == (2 ** n_qubits, 2 ** n_qubits)
            np.testing.assert_allclose(got, reg, rtol=0, atol=1e-13)

    def test_paired_records_trace_distance(self):
        sched = dynamics.repeated_schedule(8)
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, sched)
        d = traj.columns["trace_distance"]
        expected = [abs(math.cos(n * math.pi / 4)) for n in range(9)]
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_single_run_reads_trace_distance_from_its_parity_mirror(self):
        sched = dynamics.repeated_schedule(3)
        traj = dynamics.run_trajectory(PLUS, ANC, 0.5, sched)
        pair = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, sched)
        assert traj.columns["trace_distance"].tolist() == pair.columns["trace_distance"].tolist()

    def test_zero_p_freezes_all_metrics(self):
        sched = dynamics.repeated_schedule(6)
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.0, sched)
        for name in ("coherence_a", "coherence_env", "negativity", "trace_distance"):
            series = traj.columns[name]
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
        sched = dynamics.repeated_schedule(steps)
        traj = dynamics.run_trajectory(PLUS, ANC, p, sched)
        np.testing.assert_allclose(traj.columns["coherence_a"], coherences[: steps + 1], atol=1e-12)
        # rewind one extra conjugation applied in the loop above
        final = traj.final_registers[0]
        u_dag = u.conj().T
        np.testing.assert_allclose(final, u_dag @ rho @ u, atol=1e-12)

    def test_seven_collision_four_qubit_sequence(self):
        # Explicit product of the literal 16x16 matrices for the sequence
        # A-C, B-C, A-D, B-D, A-B, A-B, C-D applied to the standard
        # preparation with three identical thermal ancillas.
        p = 0.5
        order = [(0, 2), (1, 2), (0, 3), (1, 3), (0, 1), (0, 1), (2, 3)]
        rho = model.composite_initial(model.PureQubit(0.6, 0.8), ANC, 3)
        for pair in order:
            u = lit.SIXTEEN_BY_PAIR[pair](p)
            rho = u @ rho @ u.conj().T
        oracle_rho_a = qmat.partial_trace(rho, keep=0)

        sched = dynamics.Schedule(n_qubits=4, pairs=tuple(order), index=range(len(order)))
        traj = dynamics.run_trajectory(model.PureQubit(0.6, 0.8), ANC, p, sched)
        lib_rho_a = qmat.partial_trace(traj.final_registers[0], keep=0)
        np.testing.assert_allclose(lib_rho_a, oracle_rho_a, atol=1e-13)
        np.testing.assert_allclose(traj.final_registers[0], rho, atol=1e-13)

    @pytest.mark.parametrize("n_anc,p", [(1, 0.5), (2, 0.8), (3, 0.5)])
    def test_states_stay_valid_along_trajectory(self, n_anc, p):
        if n_anc == 1:
            sched = dynamics.repeated_schedule(150)
        else:
            sched = dynamics.random_schedule(1 + n_anc, 150, seed=23)
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, p, sched)
        for reg in traj.final_registers:
            assert np.trace(reg).real == pytest.approx(1.0, abs=1e-10)
            assert qmat.hermitian_eigenvalues(reg)[0] > -1e-9

    @pytest.mark.parametrize("n_anc", [0, 1, 2, 3])
    def test_final_registers_are_arrays_of_the_register_shape(self, n_anc):
        # n_anc = 0 is the fresh-ancilla run, whose register is the system qubit.
        if n_anc == 0:
            traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.5, ANC, 5)
        else:
            sched = (dynamics.repeated_schedule(5) if n_anc == 1
                     else dynamics.random_schedule(1 + n_anc, 5, seed=23))
            traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, sched)
        dim = 2 ** (1 + n_anc)
        assert len(traj.final_registers) == 2
        for reg in traj.final_registers:
            assert isinstance(reg, np.ndarray)
            assert reg.shape == (dim, dim)


def per_step_negativity(p, n):
    """Negativity of copy 0 after each collision 0..n, one call per state re-stepped by collide."""
    rho = model.composite_initial(PLUS, ANC, 1)
    values = []
    for _ in range(n + 1):
        values.append(metrics.negativity(rho))
        rho = collide(rho, (0, 1), p)
    return values


class TestNegativityPerChunk:
    """Negativity is one stacked evaluation per checked chunk, equal bit for bit to one per step."""

    def test_one_call_per_chunk_not_per_collision(self, monkeypatch, capsys):
        calls = []
        real = metrics.negativity
        monkeypatch.setattr(dynamics.metrics, "negativity",
                            lambda rho: calls.append(len(rho)) or real(rho))
        assert cli.main(["trajectory", "--p", "0.8", "--collisions", "600"]) == 0
        capsys.readouterr()
        assert 1 < len(calls) <= 4
        assert sum(calls) == 601

    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_column_equals_per_step_values_over_several_chunks(self, p):
        sched = dynamics.repeated_schedule(600)
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, p, sched)
        assert traj.columns["negativity"].tolist() == per_step_negativity(p, 600)

    @pytest.mark.parametrize("window", [(250, 520), (1, 2), (255, 258), (0, 601)])
    def test_windowed_grid_equals_per_step_values(self, window):
        # Chunks of a 3-point grid of one-ancilla pairs hold 85 steps: the
        # initial state, then collisions 1-85, 86-170, ..., 511-595, 596-600.
        grid = [0.3, 0.62, 0.8]
        sched = dynamics.repeated_schedule(600)
        initial = np.stack([model.composite_initial(s, ANC, 1) for s in (PLUS, MINUS)])
        names = ["coherence_a", "coherence_env", "negativity", "trace_distance"]
        columns, _ = dynamics._run(initial, grid, sched, names, window)
        whole, _ = dynamics._run(initial, grid, sched, names)
        assert list(columns) == list(dynamics._COLUMNS) == names
        start, stop = window
        for name in names:
            assert columns[name].tolist() == whole[name][:, start:stop].tolist()
        for row, p in zip(columns["negativity"].tolist(), grid):
            assert row == per_step_negativity(p, 600)[start:stop]


class TestReductionsPerChunk:
    def test_one_partial_trace_per_chunk_and_reduction(self, monkeypatch, capsys):
        # The CLI steps |+> alone, and chunks of one 4x4 copy hold 512 steps: the initial state,
        # then collisions 1-512, 513-600; each gives a system and an environment reduction.
        calls = []
        real = qmat.partial_trace
        monkeypatch.setattr(dynamics.qmat, "partial_trace",
                            lambda rho, keep: calls.append((keep, rho.shape[:-2])) or real(rho, keep))
        assert cli.main(["trajectory", "--p", "0.8", "--collisions", "600"]) == 0
        capsys.readouterr()
        assert [keep for keep, _ in calls] == [0, 1] * 3
        # The system reduction is of the (steps, P, copies) stack, with one grid point and one copy.
        assert [stack for keep, stack in calls if keep == 0] == [(1, 1, 1), (512, 1, 1), (88, 1, 1)]


class TestEnvironmentCoherencePerChunk:
    def test_one_environment_call_per_chunk(self, monkeypatch, capsys):
        # Per step: one coherence_a call on the (P, 2, 2) system states. Per chunk of one 4x4
        # copy (the initial state, then collisions 1-512, 513-600): one coherence_env call on
        # the (steps, P, 2, 2) environment states.
        shapes = []
        real = metrics.l1_coherence
        monkeypatch.setattr(dynamics.metrics, "l1_coherence",
                            lambda rho: shapes.append(rho.shape) or real(rho))
        assert cli.main(["trajectory", "--p", "0.8", "--collisions", "600"]) == 0
        capsys.readouterr()
        assert len(shapes) == 604
        assert Counter(shapes)[(1, 2, 2)] == 601
        assert [s[0] for s in shapes if len(s) == 4] == [1, 512, 88]


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
                reg = qmat.kron(rho, model.thermal_density(ANC))
                reduced = qmat.partial_trace(
                    collide(reg, (0, 1), p), keep=0
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

    @pytest.mark.parametrize("rho", [
        np.eye(3) / 3, np.eye(4) / 4, np.full((2, 3), 0.5), np.zeros((0, 0)),
        np.full((1, 2), 0.5), np.full((2, 1), 0.5), np.array([0.5, 0.5]),
    ], ids=["3x3", "4x4", "2x3", "0x0", "1x2", "2x1", "vector"])
    def test_rejects_a_matrix_that_is_not_a_qubit_state(self, rho):
        # 1x2 and 2x1 broadcast against the 2x2 map, so without the check
        # they would come back as a 2x2 "state".
        with pytest.raises(ValueError, match=rf"^expected single-qubit states, got shape {re.escape(str(rho.shape))}$"):
            dynamics.markovian_step(rho, 0.5, ANC)

    def test_distance_decays_to_zero(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.5, ANC, 60)
        d = traj.columns["trace_distance"]
        assert np.all(np.diff(d) <= 1e-12)
        assert d[-1] < 1e-8

    def test_larger_p_decays_faster(self):
        trajs = {
            p: dynamics.markovian_trajectory((PLUS, MINUS), p, ANC, 30)
            for p in (0.1, 0.2, 0.5, 0.7)
        }
        series = {p: t.columns["trace_distance"] for p, t in trajs.items()}
        for n in range(1, 31):
            assert series[0.7][n] <= series[0.5][n] <= series[0.2][n] <= series[0.1][n]

    def test_zero_p_is_frozen(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.0, ANC, 20)
        np.testing.assert_allclose(traj.columns["trace_distance"], 1.0, atol=1e-12)

    def test_thermalization(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.3, ANC, 500)
        final = traj.final_registers[0]
        np.testing.assert_allclose(np.diag(final).real, [0.8, 0.2], atol=1e-6)
        assert abs(final[0, 1]) < 1e-6

    def test_takes_one_or_two_states(self):
        lone = dynamics.markovian_trajectory(PLUS, 0.5, ANC, 10)
        assert list(lone.columns) == ["trace_distance", "coherence_a"]
        assert len(lone.final_registers) == 1
        with pytest.raises(ValueError, match="need one or two system states, got 3"):
            dynamics.markovian_trajectory((PLUS, MINUS, PLUS), 0.5, ANC, 10)


class TestEnvironmentSize:
    def test_mean_distance_shrinks_with_more_ancillas(self):
        # Quick ensemble version; the acceptance suite runs the full one.
        p, n_steps, seeds = 0.5, 100, range(10)
        single = dynamics.run_trajectory(
            (PLUS, MINUS), ANC, p, dynamics.repeated_schedule(n_steps)
        )
        mean_1 = float(np.mean(single.columns["trace_distance"][1:]))
        means = {}
        for n_anc in (2, 3):
            totals = []
            for seed in seeds:
                sched = dynamics.random_schedule(1 + n_anc, n_steps, seed=seed)
                traj = dynamics.run_trajectory((PLUS, MINUS), ANC, p, sched)
                totals.append(float(np.mean(traj.columns["trace_distance"][1:])))
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

    def test_values_are_a_float_array_with_a_row_per_grid_point(self):
        diagram = dynamics.orbit_sweep([0.8, 0.5, 0.62], n_collisions=50, window=(40, 51))
        assert isinstance(diagram.values, np.ndarray)
        assert diagram.values.dtype == np.float64 and diagram.values.shape == (3, 11)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            dynamics.orbit_sweep([])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            dynamics.orbit_sweep([0.5], n_collisions=10, window=(5, 20))

    @pytest.mark.parametrize("window", [(40.5, 101), (40, 101.0), (float("nan"), 101),
                                        5, (0,), (0, 1, 2), "0:5"])
    def test_rejects_non_integer_window_bounds(self, window):
        # (40.5, 101) was accepted and reported back as the diagram's window; a window
        # that is not a pair raised Python's unpacking errors, which do not name it.
        with pytest.raises(ValueError, match=f"^window {re.escape(repr(window))} invalid"):
            dynamics.orbit_sweep([0.5], 100, window)

    @pytest.mark.parametrize("n_collisions", [2.0, -1])
    def test_a_bad_count_is_named_before_the_default_window(self, n_collisions):
        # These were reported as "window (0, 3.0) invalid" and "window (0, 0) invalid".
        with pytest.raises(ValueError, match=f"^n_events .*got {n_collisions}$"):
            dynamics.orbit_sweep([0.5], n_collisions)


def test_results_compare_by_identity():
    # Their fields hold arrays, whose == is elementwise and which cannot be hashed.
    sched = dynamics.repeated_schedule(5)
    for run in (lambda: dynamics.orbit_sweep([0.5], 10), lambda: dynamics.run_trajectory(PLUS, ANC, 0.5, sched)):
        a, b = run(), run()
        assert a == a and a != b
        assert hash(a) == hash(a)


def test_results_are_read_only():
    # A frozen result is read-only all the way down, like Schedule.index.
    sched = dynamics.random_schedule(3, 5, seed=4)
    for traj in (dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, sched),
                 dynamics.markovian_trajectory((PLUS, MINUS), 0.5, ANC, 5)):
        for array in (*traj.columns.values(), *traj.final_registers):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7.0
        with pytest.raises(TypeError):
            traj.columns["new"] = np.zeros(6)
        assert len(traj.columns) == 2
    diagram = dynamics.orbit_sweep([0.5, 0.8], 10)
    with pytest.raises(ValueError, match="read-only"):
        diagram.values[0, 0] = 7.0
    assert diagram.values.flags.c_contiguous


def assert_columns(traj, fields, n_rows):
    """``columns`` holds exactly ``fields`` in order, each a 1-D float64 array with one
    value per collision index."""
    assert list(traj.columns) == fields
    for column in traj.columns.values():
        assert isinstance(column, np.ndarray)
        assert column.dtype == np.float64
        assert column.shape == (n_rows,)


def printed_columns(capsys, argv):
    """The CLI's column row for ``argv`` without n and p, relabelled to the recorded names."""
    assert cli.main(argv) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if not line.startswith("#"))
    labels = {"coherence_A": "coherence_a", "coherence": "coherence_a"}
    return [labels.get(name, name) for name in row.split(",") if name not in ("n", "p")]


class TestColumns:
    """Each run records exactly the columns its subcommand prints, in print order."""

    @pytest.mark.parametrize("n_anc,fields", [
        (1, ["coherence_a", "coherence_env", "negativity", "trace_distance"]),
        (2, ["coherence_a", "trace_distance"]),
        (3, ["coherence_a", "trace_distance"]),
    ])
    def test_collision_run_records_its_fields(self, capsys, n_anc, fields):
        if n_anc == 1:
            sched = dynamics.repeated_schedule(12)
        else:
            sched = dynamics.random_schedule(1 + n_anc, 12, seed=5)
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.6, sched)
        assert_columns(traj, fields, 13)
        seed = [] if n_anc == 1 else ["--seed", "5"]
        argv = ["trajectory", "--p", "0.6", "--ancillas", str(n_anc), "--collisions", "12", *seed]
        assert printed_columns(capsys, argv) == fields

    def test_markovian_run_records_its_fields(self, capsys):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.3, ANC, 12)
        assert_columns(traj, ["trace_distance", "coherence_a"], 13)
        argv = ["markovian", "--p", "0.3", "--collisions", "12"]
        assert printed_columns(capsys, argv) == list(traj.columns)


def test_negative_seed_raises_value_error_naming_the_seed():
    # numpy's generator raised its own "expected non-negative integer", which
    # named neither the argument nor its value.
    with pytest.raises(ValueError, match=r"seed must be a non-negative integer, got -1$"):
        dynamics.random_schedule(3, 5, -1)
