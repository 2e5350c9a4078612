"""The per-step invariant checks of the stacked register evolution.

Every register copy is checked for trace, Hermiticity and positivity after
every collision, and a failure names the step, the pair, p and the copy.
"""

import dataclasses

import numpy as np
import pytest

from qcollide import cli, dynamics, model

PLUS = dynamics.SUPERPOSITION_PLUS
MINUS = dynamics.SUPERPOSITION_MINUS
ANC = model.ThermalAncilla(0.8, 0.2)
PAIR = (PLUS, MINUS)

KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
KET_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def corrupt_pair(monkeypatch, bad_pair, factor):
    """Make pair_collision_unitary return ``matrix @ factor`` for one pair."""
    real = dynamics.pair_collision_unitary

    def patched(n_qubits, pair, p):
        cu = real(n_qubits, pair, p)
        if tuple(pair) == bad_pair:
            return dataclasses.replace(cu, matrix=cu.matrix @ factor)
        return cu

    monkeypatch.setattr(dynamics, "pair_collision_unitary", patched)


def system_projector(ket, n_qubits):
    """|ket><ket| on the system qubit, identity on the ancillas."""
    return np.kron(np.outer(ket, ket), np.eye(2 ** (n_qubits - 1)))


class TestExitFourDiagnostics:
    def test_cli_names_step_pair_p_and_copy(self, monkeypatch, capsys, tmp_path):
        seed, bad = 7, (0, 2)
        schedule = dynamics.random_schedule(4, 50, seed)
        first = schedule.index.tolist().index(schedule.pairs.index(bad)) + 1
        corrupt_pair(monkeypatch, bad, 1.01 * np.eye(16))
        out = tmp_path / "out.csv"
        code = cli.main(["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", str(seed),
                         "--collisions", "50", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert f"step {first}," in err
        assert "pair (0, 2)" in err
        assert "p = 0.5" in err
        assert "copy 0" in err
        assert "trace" in err
        assert "Traceback" not in err
        assert not out.exists()


def drift_markovian_copy(monkeypatch, bad_p, step, copy):
    """Make markovian_step scale one copy of its stack by 1.001 at its ``step``-th call at ``bad_p``."""
    real = dynamics.markovian_step
    calls = {}

    def drifting(rhos, p, ancilla):
        out = real(rhos, p, ancilla)
        calls[p] = calls.get(p, 0) + 1
        if p == bad_p and calls[p] == step:
            out[..., copy, :, :] *= 1.001
        return out

    monkeypatch.setattr(dynamics, "markovian_step", drifting)


class TestFreshAncillaRun:
    # The fresh-ancilla run steps through the same checked loop as the
    # register runs, so a drift of its 2x2 states is caught at its step.
    def test_cli_names_step_pair_p_and_copy(self, monkeypatch, capsys, tmp_path):
        drift_markovian_copy(monkeypatch, 0.6, 7, 1)
        out = tmp_path / "out.csv"
        code = cli.main(["markovian", "--p", "0.3", "--p", "0.6", "--collisions", "20",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("qcollide: numerical invariant violated: "
                              "step 7, pair (0, 1), p = 0.6, copy 1: trace drifted")
        assert "Traceback" not in err
        assert not out.exists()

    def test_library_error_carries_the_location(self, monkeypatch):
        drift_markovian_copy(monkeypatch, 0.6, 7, 1)
        with pytest.raises(dynamics.InvariantViolationError) as info:
            dynamics.markovian_trajectory(PAIR, 0.6, ANC, 20)
        err = info.value
        assert (err.step, err.pair, err.p, err.copy) == (7, (0, 1), 0.6, 1)
        assert str(err).startswith("step 7, pair (0, 1), p = 0.6, copy 1: trace drifted")


class TestEveryCopyEveryStep:
    @pytest.mark.parametrize("copy,ket", [(0, KET_PLUS), (1, KET_MINUS)])
    @pytest.mark.parametrize("quiet_steps", [0, 1, 5])
    def test_drift_of_one_copy_is_caught_at_its_step(self, monkeypatch, copy, ket, quiet_steps):
        # Ancilla-ancilla collisions leave the system factor untouched, so at
        # the first (0, 2) collision each copy's system is still |+> or |->.
        # Scaling |ket> up before that collision raises the trace of the copy
        # prepared in |ket> and leaves the other copy exactly as it was.
        sched = dynamics.Schedule(3, ((1, 2), (0, 2), (0, 1)), [0] * quiet_steps + [1, 2])
        corrupt_pair(monkeypatch, (0, 2), np.eye(8) + 1e-6 * system_projector(ket, 3))
        with pytest.raises(dynamics.InvariantViolationError) as info:
            dynamics.run_trajectory(PAIR, [ANC, ANC], 0.5, sched)
        assert str(info.value).startswith(
            f"step {quiet_steps + 1}, pair (0, 2), p = 0.5, copy {copy}: trace drifted"
        )

    def test_unchecked_run_lets_the_drift_through(self, monkeypatch):
        # The control for the test above: collide applies the same corrupted
        # unitary with no check, so the drift the run catches is really there.
        corrupt_pair(monkeypatch, (0, 2), np.eye(8) + 1e-6 * system_projector(KET_MINUS, 3))
        plus, minus = (dynamics.collide(model.composite_initial(s, [ANC, ANC]), (0, 2), 0.5)
                       for s in PAIR)
        assert np.trace(plus).real == pytest.approx(1.0, abs=1e-14)
        assert np.trace(minus).real > 1.0 + 1e-6


def with_negative_eigenvalue(lam, n_qubits=2):
    """The |-> register with eigenvalues +lam and -lam added in its kernel.

    The kernel of |-><-| (x) ancillas contains |+> (x) anything; the added
    pair keeps the trace at 1 and the matrix Hermitian.
    """
    reg = model.composite_initial(MINUS, [ANC] * (n_qubits - 1))
    rest = 2 ** (n_qubits - 1)
    up = np.kron(KET_PLUS, np.eye(rest)[0])
    down = np.kron(KET_PLUS, np.eye(rest)[rest - 1])
    return reg + lam * (np.outer(up, up) - np.outer(down, down))


class TestPositivityFloor:
    @pytest.mark.parametrize("n_qubits", [2, 4])
    def test_half_the_floor_passes(self, n_qubits):
        reg = with_negative_eigenvalue(0.5 * dynamics.POSITIVITY_FLOOR, n_qubits)
        assert np.linalg.eigvalsh(reg)[0] == pytest.approx(-0.5e-9, rel=1e-6)
        dynamics.check_register(reg)

    @pytest.mark.parametrize("n_qubits", [2, 4])
    def test_twice_the_floor_fails(self, n_qubits):
        reg = with_negative_eigenvalue(2 * dynamics.POSITIVITY_FLOOR, n_qubits)
        with pytest.raises(dynamics.InvariantViolationError, match="eigenvalue -2.000e-09"):
            dynamics.check_register(reg)

    @pytest.mark.parametrize("lam,fails", [(0.5e-9, False), (2e-9, True)])
    def test_stacked_check_names_the_negative_copy(self, monkeypatch, lam, fails):
        # Unitary steps keep the spectrum, so a copy that starts with a
        # negative eigenvalue keeps it, and the first check sees it.
        real = dynamics.composite_initial

        def patched(system, ancillas):
            if system == MINUS:
                return with_negative_eigenvalue(lam, 1 + len(ancillas))
            return real(system, ancillas)

        monkeypatch.setattr(dynamics, "composite_initial", patched)
        sched = dynamics.random_schedule(4, 20, seed=3)
        if not fails:
            dynamics.run_trajectory(PAIR, [ANC] * 3, 0.5, sched)
            return
        with pytest.raises(dynamics.InvariantViolationError) as info:
            dynamics.run_trajectory(PAIR, [ANC] * 3, 0.5, sched)
        assert str(info.value).startswith("step 1, pair ")
        assert "copy 1: negative eigenvalue -2.000e-09" in str(info.value)


class TestNonFiniteState:
    def test_nan_entry_is_a_violation(self):
        rho = model.composite_initial(PLUS, [ANC])
        rho[0, 3] = np.nan
        with pytest.raises(dynamics.InvariantViolationError, match="Hermiticity"):
            dynamics.check_register(rho)

    def test_nan_diagonal_is_a_trace_violation(self):
        rho = model.composite_initial(PLUS, [ANC])
        rho[1, 1] = np.nan
        with pytest.raises(dynamics.InvariantViolationError, match="trace"):
            dynamics.check_register(rho)
