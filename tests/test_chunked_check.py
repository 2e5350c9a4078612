"""The chunked invariant check of the stacked register evolution.

``dynamics._evolve`` checks the states of a chunk of collisions with one
stacked test. These tests place drifts at the chunk edges and inside chunks
and require the violation to name the same step, pair, p and copy that a
check after every single collision would name.
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

# Collisions per chunk for a pair of three-qubit (8x8) registers.
CHUNK = dynamics.CHECK_CHUNK_ENTRIES // (2 * 8 * 8)


def corrupt(monkeypatch, factors):
    """Make pair_collision_unitary return ``matrix @ factors[pair]`` for the given pairs."""
    real = dynamics.pair_collision_unitary

    def patched(n_qubits, pair, p):
        cu = real(n_qubits, pair, p)
        if tuple(pair) in factors:
            return dataclasses.replace(cu, matrix=cu.matrix @ factors[tuple(pair)])
        return cu

    monkeypatch.setattr(dynamics, "pair_collision_unitary", patched)


def drift(ket, size=1e-6):
    """Identity plus ``size`` times |ket><ket| on the system qubit of three."""
    return np.eye(8) + size * np.kron(np.outer(ket, ket), np.eye(4))


def quiet(n):
    """n ancilla-ancilla collisions, which leave each copy's system state alone."""
    return dynamics.repeated_schedule(3, (1, 2), n).events if n else ()


def violation(events, p=0.5):
    with pytest.raises(dynamics.InvariantViolationError) as info:
        dynamics.run_trajectory(PAIR, [ANC, ANC], p, dynamics.Schedule(3, tuple(events)))
    return info.value


def test_chunk_holds_several_steps():
    assert CHUNK >= 8


class TestOneCopyDrift:
    # As in test_invariants.TestEveryCopyEveryStep: scaling |ket> up inside
    # the first (0, 2) collision raises the trace of the copy prepared in
    # |ket> and leaves the other copy exactly as it was.
    @pytest.mark.parametrize("copy,ket", [(0, KET_PLUS), (1, KET_MINUS)])
    @pytest.mark.parametrize("step,length", [
        (1, 2),                            # the first step of the run
        (CHUNK, CHUNK + 1),                # the last step of the first chunk
        (CHUNK + 1, CHUNK + 2),            # the first step of the second chunk
        (3 * CHUNK + 11, 3 * CHUNK + 12),  # inside the last, partial chunk
    ])
    def test_drift_is_named_at_its_step(self, monkeypatch, copy, ket, step, length):
        corrupt(monkeypatch, {(0, 2): drift(ket)})
        events = quiet(step - 1) + ((0, 2),) + ((0, 1),) * (length - step)
        err = violation(events)
        assert str(err).startswith(
            f"step {step}, pair (0, 2), p = 0.5, copy {copy}: trace drifted"
        )

    def test_transient_drift_inside_a_chunk_is_caught(self, monkeypatch):
        # The (0, 1) collision undoes the scale of the (0, 2) one, so the
        # drift lasts one step and the end of the chunk is clean again.
        corrupt(monkeypatch, {(0, 2): 1.01 * np.eye(8), (0, 1): np.eye(8) / 1.01})
        step = CHUNK + 5
        err = violation(quiet(step - 1) + ((0, 2), (0, 1)) + quiet(10))
        assert str(err).startswith(f"step {step}, pair (0, 2), p = 0.5, copy 0: trace drifted")

    def test_transient_drift_is_gone_by_the_end_of_the_chunk(self, monkeypatch):
        # The control for the test above: after the two corrupted steps the
        # trace is back within bounds, so only the check of the drifted state
        # itself can catch the drift.
        corrupt(monkeypatch, {(0, 2): 1.01 * np.eye(8), (0, 1): np.eye(8) / 1.01})
        drifted = dynamics.collide(model.composite_initial(PLUS, [ANC, ANC]), (0, 2), 0.5)
        restored = dynamics.collide(drifted, (0, 1), 0.5)
        assert np.trace(drifted.rho).real == pytest.approx(1.0201)
        assert abs(np.trace(restored.rho) - 1.0) < dynamics.TRACE_TOL


class TestFirstFailureWins:
    def test_earlier_step_wins_over_a_lower_copy(self, monkeypatch):
        # Copy 1 drifts at the (0, 2) step; both copies drift at the later
        # (0, 1) step of the same chunk. The earlier step is reported.
        corrupt(monkeypatch, {(0, 2): drift(KET_MINUS), (0, 1): 1.01 * np.eye(8)})
        step = CHUNK + 5
        err = violation(quiet(step - 1) + ((0, 2),) + quiet(10) + ((0, 1),) + quiet(3))
        assert (err.step, err.pair, err.copy) == (step, (0, 2), 1)

    def test_lower_copy_wins_within_a_step(self, monkeypatch):
        # Both copies drift at one step, copy 1 a thousand times further.
        corrupt(monkeypatch, {(0, 2): drift(KET_PLUS) + drift(KET_MINUS, 1e-3) - np.eye(8)})
        step = CHUNK + 5
        err = violation(quiet(step - 1) + ((0, 2),) + quiet(10))
        assert (err.step, err.pair, err.copy) == (step, (0, 2), 0)


class TestLateNan:
    def test_nan_at_a_late_step_is_named(self, monkeypatch):
        bad = np.eye(8)
        bad[0, 0] = np.nan
        corrupt(monkeypatch, {(0, 1): bad})
        step = 2 * CHUNK + 3
        err = violation(quiet(step - 1) + ((0, 1),) + quiet(CHUNK))
        assert (err.step, err.pair, err.p, err.copy) == (step, (0, 1), 0.5, 0)
        assert "nan" in str(err)


class TestViolationAttributes:
    def test_attributes_after_the_first_chunk_boundary(self, monkeypatch):
        corrupt(monkeypatch, {(0, 2): drift(KET_MINUS)})
        step = CHUNK + 3
        err = violation(quiet(step - 1) + ((0, 2), (0, 1)), p=0.25)
        assert (err.step, err.pair, err.p, err.copy) == (step, (0, 2), 0.25, 1)
        assert str(err).startswith(f"step {step}, pair (0, 2), p = 0.25, copy 1: ")

    def test_single_register_check_has_no_run_attributes(self):
        reg = model.composite_initial(PLUS, [ANC])
        bad = dataclasses.replace(reg, rho=1.5 * reg.rho)
        with pytest.raises(dynamics.InvariantViolationError) as info:
            dynamics.check_register(bad)
        err = info.value
        assert (err.step, err.pair, err.p, err.copy) == (None, None, None, None)
        assert str(err).startswith("trace drifted to ")


class TestExitFourStderr:
    def test_overflowing_run_prints_one_line(self, monkeypatch, capsys, tmp_path):
        # Every collision scales the trace by 100, so the steps after the
        # first one in its chunk overflow; numpy must not warn about them.
        real = dynamics.pair_collision_unitary

        def scaled(n_qubits, pair, p):
            cu = real(n_qubits, pair, p)
            return dataclasses.replace(cu, matrix=10 * cu.matrix)

        monkeypatch.setattr(dynamics, "pair_collision_unitary", scaled)
        out = tmp_path / "out.csv"
        code = cli.main(["orbit", "--p", "0.6", "--collisions", "500", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == (
            "qcollide: numerical invariant violated: step 1, pair (0, 1), p = 0.6, "
            "copy 0: trace drifted to (100.00000000000003+0j)\n"
        )
        assert "Warning" not in captured.err
        assert not out.exists()
