"""The chunked invariant check of the stacked register evolution.

``dynamics._run`` checks the states of a chunk of collisions with one
stacked test. These tests place drifts at the chunk edges and inside chunks
and require the violation to name the same step, pair, p and copy that a
check after every single collision would name.
"""

import numpy as np
import pytest

from qcollide import cli, dynamics, model
from reference_steps import collide

PLUS = dynamics.SUPERPOSITION_PLUS
MINUS = dynamics.SUPERPOSITION_MINUS
ANC = model.ThermalAncilla(0.8)
PAIR = (PLUS, MINUS)

KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
KET_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)

# Collisions per chunk for a pair of three-qubit (8x8) registers.
CHUNK = dynamics.CHECK_CHUNK_ENTRIES // (2 * 8 * 8)


def corrupt(monkeypatch, factors):
    """Make pair_collision_unitary return ``u @ factor`` for each factor given for a
    pair, ``factors[pair]``, or for a pair at one p, ``factors[pair, p]``; a p grid
    gets each row's factor."""
    real = dynamics.pair_collision_unitary

    def patched(n_qubits, pair, ps):
        us = real(n_qubits, pair, ps)
        rows = us.reshape((-1,) + us.shape[-2:])
        keys = [factors.get((tuple(pair), p), factors.get(tuple(pair))) for p in np.ravel(ps)]
        return np.reshape([u if factor is None else u @ factor for u, factor in zip(rows, keys)], us.shape)

    monkeypatch.setattr(dynamics, "pair_collision_unitary", patched)


def drift(ket, size=1e-6, n_qubits=3):
    """Identity plus ``size`` times |ket><ket| on the system qubit of n_qubits."""
    rest = 2 ** (n_qubits - 1)
    return np.eye(2 * rest) + size * np.kron(np.outer(ket, ket), np.eye(rest))


def quiet(n):
    """n ancilla-ancilla collisions, which leave each copy's system state alone."""
    return ((1, 2),) * n


def schedule_of(n_qubits, events):
    """The schedule of the pairs ``events`` in order, over a table of its distinct pairs."""
    pairs = tuple(dict.fromkeys(events))
    return dynamics.Schedule(n_qubits, pairs, [pairs.index(event) for event in events])


def violation(events, p=0.5, ancillas=2):
    schedule = schedule_of(1 + ancillas, events)
    with pytest.raises(dynamics.InvariantViolationError) as info:
        dynamics.run_trajectory(PAIR, ANC, p, schedule)
    return info.value


# The ensemble3 benchmark shape: a pair of 16x16 registers (three ancillas)
# over 100 collisions, checked in chunks of 16 steps and a last chunk of 4.
ENSEMBLE_CHUNK = dynamics.CHECK_CHUNK_ENTRIES // (2 * 16 * 16)
# (ancillas, step, run length) of each drift. The two-ancilla cases keep
# their "step-length" ids.
DRIFTS = [
    (2, 1, 2),                            # the first step of the run
    (2, CHUNK, CHUNK + 1),                # the last step of the first chunk
    (2, CHUNK + 1, CHUNK + 2),            # the first step of the second chunk
    (2, 3 * CHUNK + 11, 3 * CHUNK + 12),  # inside the last, partial chunk
    (3, 97, 100),                         # the first step of the short last chunk
    (3, 100, 100),                        # the last step of the run
]


def test_chunk_holds_several_steps():
    assert CHUNK >= 8
    assert (ENSEMBLE_CHUNK, 100 % ENSEMBLE_CHUNK) == (16, 4)


class TestOneCopyDrift:
    # As in test_invariants.TestEveryCopyEveryStep: scaling |ket> up inside
    # the first (0, 2) collision raises the trace of the copy prepared in
    # |ket> and leaves the other copy exactly as it was.
    @pytest.mark.parametrize("copy,ket", [(0, KET_PLUS), (1, KET_MINUS)])
    @pytest.mark.parametrize("ancillas,step,length", DRIFTS, ids=[
        f"{step}-{length}" if ancillas == 2 else f"{ancillas}anc-{step}-{length}"
        for ancillas, step, length in DRIFTS])
    def test_drift_is_named_at_its_step(self, monkeypatch, copy, ket, ancillas, step, length):
        n_qubits = 1 + ancillas
        corrupt(monkeypatch, {(0, 2): drift(ket, n_qubits=n_qubits)})
        events = quiet(step - 1) + ((0, 2),) + ((0, 1),) * (length - step)
        err = violation(events, ancillas=ancillas)
        assert (err.step, err.copy) == (step, copy)
        assert str(err).startswith(
            f"step {step}, pair (0, 2), p = 0.5, copy {copy}: trace drifted"
        )

    def test_clean_run_of_the_ensemble_shape_exits_zero(self, capsys):
        # The control for the three-ancilla drifts above: the same shape,
        # checked in the same chunks, passes.
        argv = ["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", "7", "--collisions", "100"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-2].startswith("100,")

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
        drifted = collide(model.composite_initial(PLUS, ANC, 2), (0, 2), 0.5)
        restored = collide(drifted, (0, 1), 0.5)
        assert np.trace(drifted).real == pytest.approx(1.0201)
        assert abs(np.trace(restored) - 1.0) < dynamics.TRACE_TOL


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


class TestExitFourStderr:
    def test_overflowing_run_prints_one_line(self, monkeypatch, capsys, tmp_path):
        # Every collision scales the trace by 100, so the steps after the
        # first one in its chunk overflow; numpy must not warn about them.
        real = dynamics.pair_collision_unitary

        def scaled(n_qubits, pair, p):
            return 10 * real(n_qubits, pair, p)

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


# Collisions per chunk for a grid of four points, each a pair of 8x8 registers.
GRID = (0.3, 0.4, 0.5, 0.6)
GRID_CHUNK = dynamics.CHECK_CHUNK_ENTRIES // (len(GRID) * 2 * 8 * 8)


def grid_violation(events):
    """The violation that stepping PAIR at every point of GRID through ``events`` raises."""
    initial = np.stack([model.composite_initial(s, ANC, 2) for s in PAIR])
    with pytest.raises(dynamics.InvariantViolationError) as info:
        dynamics._run(initial, GRID, schedule_of(3, events), [])
    return info.value


class TestGridPoints:
    def test_grid_chunk_holds_several_steps(self):
        assert GRID_CHUNK >= 8

    def test_non_unitary_collision_at_one_grid_point_exits_four(self, monkeypatch, capsys):
        # A unitary scaled by 1 + 6e-13 at the fifth grid point only raises
        # the trace slowly, so the drift passes the bound in the second chunk
        # of the grid run. The grid run names the same step, p and copy as a
        # run at that p alone.
        spec = "0.5:0.85:0.05"
        bad_p = cli.parse_grid(spec)[4]
        corrupt(monkeypatch, {((0, 1), bad_p): (1 + 6e-13) * np.eye(4)})
        assert cli.main(["orbit", "--p", repr(bad_p), "--collisions", "100"]) == 4
        alone = capsys.readouterr().err
        assert cli.main(["orbit", "--p-grid", spec, "--collisions", "100"]) == 4
        err = capsys.readouterr().err
        assert err == alone
        step = int(err.split("step ")[1].split(",")[0])
        grid_chunk = dynamics.CHECK_CHUNK_ENTRIES // (8 * 4 * 4)
        assert grid_chunk < step <= 100
        assert f"pair (0, 1), p = {bad_p!r}, copy 0: trace drifted" in err

    def test_earlier_step_wins_over_a_lower_grid_index(self, monkeypatch):
        # Grid point 3 drifts at the (0, 2) step; grid point 1 drifts at the
        # later (0, 1) step of the same chunk. The earlier step is reported.
        corrupt(monkeypatch, {((0, 2), GRID[3]): drift(KET_PLUS),
                              ((0, 1), GRID[1]): 1.01 * np.eye(8)})
        step = GRID_CHUNK + 3
        err = grid_violation(quiet(step - 1) + ((0, 2),) + quiet(3) + ((0, 1),) + quiet(2))
        assert (err.step, err.pair, err.p, err.copy) == (step, (0, 2), GRID[3], 0)

    def test_lower_grid_index_wins_within_a_step(self, monkeypatch):
        # At one step copy 1 drifts at grid point 1 and copy 0 drifts, a
        # thousand times further, at grid point 3: the lower grid index wins
        # over the lower copy.
        corrupt(monkeypatch, {((0, 2), GRID[1]): drift(KET_MINUS),
                              ((0, 2), GRID[3]): drift(KET_PLUS, 1e-3)})
        step = 2 * GRID_CHUNK + 5
        err = grid_violation(quiet(step - 1) + ((0, 2),) + quiet(4))
        assert (err.step, err.pair, err.p, err.copy) == (step, (0, 2), GRID[1], 1)
        assert str(err).startswith(f"step {step}, pair (0, 2), p = {GRID[1]!r}, copy 1: ")
