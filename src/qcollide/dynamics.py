"""Collision schedules, trajectory evolution, the memoryless limit map,
and orbit-diagram sweeps over the interaction probability."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import metrics, qmat
from .analysis import VERDICT_WINDOW
from .model import (
    PureQubit,
    ThermalAncilla,
    check_pair,
    composite_initial,
    pair_collision_unitary,
    pure_qubit_density,
)

# Runtime drift bounds for states along a trajectory.
TRACE_TOL = 1e-10
POSITIVITY_FLOOR = 1e-9
# State entries (steps x copies x d x d) that one invariant check covers: 64 KB
# of float64 values or 128 KB of complex128 ones, so 512 steps of one 4x4 copy
# or 16 steps of two 16x16 copies. Counted in entries rather than steps because
# the check's temporaries scale with the chunk: checking a 100-collision run of
# two complex 16x16 copies in one chunk peaks 2.4 MB higher than with this size.
CHECK_CHUNK_ENTRIES = 2 ** 13

# Orthogonal equal-weight superpositions, the standard preparation pair for
# distinguishability runs; the first is also the maximally coherent state.
SUPERPOSITION_PLUS = PureQubit(2 ** -0.5, 2 ** -0.5)
SUPERPOSITION_MINUS = PureQubit(2 ** -0.5, -(2 ** -0.5))

DEFAULT_ANCILLA = ThermalAncilla(0.8, 0.2)


class InvariantViolationError(RuntimeError):
    """A register drifted past its trace, Hermiticity or positivity bound.

    A violation along a run carries the collision ``step``, the qubit
    ``pair``, the interaction probability ``p`` and the register ``copy``;
    all four are None for a single register checked by ``check_register``.
    """

    def __init__(self, message: str, *, step: int | None = None,
                 pair: tuple[int, int] | None = None, p: float | None = None,
                 copy: int | None = None) -> None:
        super().__init__(message)
        self.step, self.pair, self.p, self.copy = step, pair, p, copy


@dataclass(frozen=True, eq=False)
class Schedule:
    """Collision k of a register is of ``pairs[index[k]]``; ``index`` is kept as a read-only copy."""

    n_qubits: int
    pairs: tuple[tuple[int, int], ...]
    index: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(check_pair(self.n_qubits, pair) for pair in self.pairs))
        index = np.array(self.index)
        if not (index.ndim == 1 and index.size and index.dtype.kind in "iu"
                and 0 <= index.min() and index.max() < len(self.pairs)):
            raise ValueError(f"index must be a non-empty 1-D array of integers in [0, {len(self.pairs)})")
        index.flags.writeable = False
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.index)


def repeated_schedule(n_qubits: int, pair: tuple[int, int], n_events: int) -> Schedule:
    """Deterministic schedule repeating one pair."""
    if not (isinstance(n_events, (int, np.integer)) and n_events >= 1):
        raise ValueError(f"n_events must be an integer of at least 1, got {n_events!r}")
    return Schedule(n_qubits, (pair,), np.zeros(n_events, dtype=int))


def random_schedule(
    n_qubits: int,
    n_events: int,
    seed: int,
    *,
    system_ancilla_only: bool = False,
) -> Schedule:
    """Seeded uniform choice among qubit pairs, one pair per collision.

    By default ancilla-ancilla pairs participate; ``system_ancilla_only``
    restricts the draw to pairs involving qubit 0. ``index`` is the seed's
    ``default_rng(seed).integers`` draw into ``pairs``, in combinations order.
    """
    if not (isinstance(n_qubits, (int, np.integer)) and 3 <= n_qubits <= 4):
        raise ValueError(f"random schedules need 3 or 4 qubits, got {n_qubits!r}")
    if not (isinstance(n_events, (int, np.integer)) and n_events >= 1):
        raise ValueError(f"n_events must be an integer of at least 1, got {n_events!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    pairs = tuple(p for p in itertools.combinations(range(n_qubits), 2)
                  if not system_ancilla_only or p[0] == 0)
    return Schedule(n_qubits, pairs, np.random.default_rng(seed).integers(0, len(pairs), n_events))


def _factorises(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _first_violation(rhos: np.ndarray) -> tuple[int, str] | None:
    """Index of the first matrix in an (N, d, d) stack that broke an invariant, and why.

    Each matrix's trace deviation, its entries' Hermiticity deviations and the
    stack shifted to rho + POSITIVITY_FLOOR * I are computed once. The stack
    passes when the largest deviations are within their bounds and one batched
    Cholesky factorisation of the shifted stack succeeds, which happens exactly
    when no eigenvalue lies below -POSITIVITY_FLOOR (to about 1e-15, by
    Cholesky's backward stability). NaN counts as drift. A failed stack is
    scanned from the same arrays; an eigenvalue is computed only for a message.
    """
    trace_dev = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    herm_dev = np.abs(rhos - rhos.conj().swapaxes(1, 2))
    shifted = rhos + POSITIVITY_FLOOR * np.eye(rhos.shape[-1])
    if trace_dev.max() < TRACE_TOL and herm_dev.max() < qmat.HERMITICITY_TOL and _factorises(shifted):
        return None
    for k, rho in enumerate(rhos):
        if not trace_dev[k] < TRACE_TOL:
            return k, f"trace drifted to {complex(np.trace(rho))!r}"
        if not herm_dev[k].max() < qmat.HERMITICITY_TOL:
            return k, f"Hermiticity deviation {herm_dev[k].max():.3e}"
        if not _factorises(shifted[k]):
            return k, f"negative eigenvalue {np.linalg.eigvalsh(rho)[0]:.3e} below floor"
    return None


def _register_qubits(rho: np.ndarray) -> int:
    n_qubits = (rho.shape[0] if rho.ndim == 2 else 0).bit_length() - 1
    if rho.shape != (2 ** n_qubits, 2 ** n_qubits):
        raise ValueError(f"register must be a (2**n, 2**n) matrix, got shape {rho.shape}")
    return n_qubits


def check_register(rho: np.ndarray) -> None:
    """Raise InvariantViolationError when a register's density matrix drifted out of bounds."""
    stack = qmat.as_array(rho)[np.newaxis]
    _register_qubits(stack[0])
    violation = _first_violation(stack)
    if violation is not None:
        raise InvariantViolationError(violation[1])


def collide(rho: np.ndarray, pair: tuple[int, int], p: float) -> np.ndarray:
    """Apply one pairwise collision to the (2**n, 2**n) density matrix of an n-qubit register."""
    rho = np.asarray(rho)
    u = pair_collision_unitary(_register_qubits(rho), pair, p).matrix
    return u @ rho @ u.conj().T


@dataclass(frozen=True)
class Trajectory:
    """Per-collision metric columns and the final states of a run.

    ``columns`` maps each recorded metric name, in print order, to the 1-D
    float array of its values after each collision n = 0, 1, ... (n = 0 is
    the initial state); a name that was not recorded is a KeyError.
    ``final_registers`` holds the evolved density matrix of each tracked
    copy: the whole register for collision runs, the system qubit for
    fresh-ancilla runs.
    """

    columns: dict[str, np.ndarray]
    final_registers: tuple


def _system_states(systems) -> tuple[PureQubit, ...]:
    if isinstance(systems, PureQubit):
        return (systems,)
    states = tuple(systems)
    if not 1 <= len(states) <= 2:
        raise ValueError(f"need one or two system states, got {len(states)}")
    return states


# Each per-step metric by column name, as a function of one step's (P, B, 2, 2) system
# states: the list of its values at each grid point. Trace distance: copies 0 and 1.
_METRICS = {
    "coherence_a": lambda rho_as: metrics.l1_coherence(rho_as[:, 0]).tolist(),
    "trace_distance": lambda rho_as: metrics.trace_distance(rho_as[:, 0], rho_as[:, 1]).tolist(),
}


def _record(chunks, names, window=None):
    """The named metric columns over ``(first_n, chunk)`` pairs, and the last stack.

    A chunk holds the (P, B, d, d) stacks, B copies at P grid points, after
    steps first_n, first_n + 1, ... Reductions, by ``qmat.partial_trace``, and
    copy 0's ancilla coherence and negativity are taken once per chunk, each
    ``_METRICS`` entry once per step over the grid axis; ``columns[name]`` is
    the (P, steps) float array of its values. Only indices n in the half-open
    ``window`` (default: all) are evaluated; the whole run is stepped and checked.
    """
    start, stop = window or (0, math.inf)
    flat = {name: [] for name in names}  # step-major, P values per evaluated step
    evaluate = [(_METRICS[name], flat[name].extend) for name in names if name in _METRICS]
    for first, chunk in chunks:
        part = chunk[max(0, start - first):max(0, min(stop - first, len(chunk)))]
        rho_as = qmat.partial_trace(part, [2] * (part.shape[-1].bit_length() - 1), keep=0)
        if "coherence_env" in flat:
            rho_envs = qmat.partial_trace(part[:, :, 0], [2, 2], keep=1)
            flat["coherence_env"].extend(metrics.l1_coherence(rho_envs).ravel().tolist())
        if "negativity" in flat:
            flat["negativity"].extend(metrics.negativity(part[:, :, 0], (2, 2)).ravel().tolist())
        for step in rho_as:
            for metric, extend in evaluate:
                extend(metric(step))
    return {name: np.reshape(v, (-1, chunk.shape[1])).T for name, v in flat.items()}, chunk[-1]


def _unitary_steps(schedule: Schedule, ps: Sequence[float]):
    """The ``u @ rhos @ uh`` step of each of ``schedule.pairs``, its (P, d, d) unitaries at ps
    built in one dtype for every pair, so only a run's first step can promote the states."""
    us = np.array([[pair_collision_unitary(schedule.n_qubits, pair, p).matrix for p in ps]
                   for pair in schedule.pairs])[:, :, np.newaxis]
    uhs = us.conj().swapaxes(-1, -2)
    return [lambda rhos, u=u, uh=uh: u @ rhos @ uh for u, uh in zip(us, uhs)]


def _evolve(rhos: np.ndarray, schedule: Schedule, ps: Sequence[float], steps):
    """Step B copies at each grid point k, with probability ps[k], through ``schedule``.

    ``rhos`` is their (P, B, d, d) stack, and ``steps[k]`` maps it to its state
    after one collision of ``schedule.pairs[k]``, in its dtype (the first
    collision may promote float64 to complex128, which then holds for the
    run). Yields ``(first_n, states)`` chunks: ``(0, rhos[np.newaxis])``,
    then the stacks after collisions first_n, first_n + 1, ... in chunks of
    about CHECK_CHUNK_ENTRIES entries, which bound the memory. One stacked
    ``_first_violation`` call checks each chunk at every grid point and copy
    after every collision before it is yielded, scanning a failed chunk in
    (step, grid point, copy) order: a violation names the first failing step,
    its pair, and then the lowest failing grid index (its p) and copy.
    """
    yield 0, rhos[np.newaxis]
    chunk = max(1, CHECK_CHUNK_ENTRIES // rhos.size)
    for first in range(0, len(schedule), chunk):
        block = schedule.index[first:first + chunk].tolist()
        # Steps past a violation in the same chunk are still computed and may
        # overflow; the check reports the violation, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, entry in enumerate(block):
                rhos = steps[entry](rhos)
                if not k:
                    states = np.empty((len(block),) + rhos.shape, rhos.dtype)
                states[k] = rhos
            violation = _first_violation(states.reshape(-1, *rhos.shape[2:]))
        if violation is not None:
            step, point, copy = map(int, np.unravel_index(violation[0], states.shape[:3]))
            (i, j), n, p = schedule.pairs[block[step]], first + 1 + step, float(ps[point])
            raise InvariantViolationError(
                f"step {n}, pair ({i}, {j}), p = {p!r}, copy {copy}: {violation[1]}",
                step=n, pair=(i, j), p=p, copy=copy,
            )
        yield first + 1, states


def run_trajectory(systems, ancillas, p: float, schedule: Schedule) -> Trajectory:
    """Evolve one register (or a pair sharing the schedule) and record metrics.

    ``systems`` is a single pure system state or a pair of them; with a pair,
    both registers see the identical collision sequence and the trace
    distance of the reduced system states is recorded at every step. The
    copies are the one-grid-point case of ``_evolve`` and ``_record``, so
    every copy is checked after every collision before any metric of it is
    computed; a violation names the first failing step, the pair, p and copy.
    """
    states = _system_states(systems)
    anc = (ancillas,) if isinstance(ancillas, ThermalAncilla) else tuple(ancillas)
    if schedule.n_qubits != 1 + len(anc):
        raise ValueError(f"schedule is for {schedule.n_qubits} qubits but register has {1 + len(anc)}")
    names = ["coherence_a"]
    if schedule.n_qubits == 2:
        names += ["coherence_env", "negativity"]
    if len(states) == 2:
        names.append("trace_distance")
    rhos = np.stack([composite_initial(s, anc) for s in states])[np.newaxis]
    columns, rhos = _record(_evolve(rhos, schedule, [p], _unitary_steps(schedule, [p])), names)
    return Trajectory({name: grid[0] for name, grid in columns.items()}, tuple(rhos[0]))


def markovian_step(rho_a: np.ndarray, p: float, ancilla: ThermalAncilla) -> np.ndarray:
    """One collision with a fresh thermal ancilla, reduced to the system qubit.

    Maps a single-qubit state, or each state of a (..., 2, 2) stack. The
    populations relax toward (w_g, w_e) at rate p and the off-diagonal
    entries shrink by sqrt(1-p); the composition of n such steps is the
    n-collision memoryless evolution.
    """
    a = qmat.as_array(rho_a)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"expected single-qubit states, got shape {a.shape}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"interaction probability must lie in [0, 1], got {p}")
    stay = math.sqrt(1.0 - p)
    keep = np.array([[1.0 - p * ancilla.w_e, stay], [stay, 1.0 - p * ancilla.w_g]])
    gain = np.array([[p * ancilla.w_g, 0.0], [0.0, p * ancilla.w_e]])
    return keep * a + gain * a[..., ::-1, ::-1]


def markovian_trajectory(
    systems: Sequence[PureQubit],
    p: float,
    ancilla: ThermalAncilla,
    n_steps: int,
) -> Trajectory:
    """Step a pair of system states through the fresh-ancilla map, checked after every collision."""
    states = _system_states(systems)
    if len(states) != 2:
        raise ValueError("the memoryless run tracks a pair of system states")
    schedule = repeated_schedule(2, (0, 1), n_steps)
    steps = [lambda rhos: markovian_step(rhos, p, ancilla)]
    rhos = np.stack([pure_qubit_density(s) for s in states])[np.newaxis]
    columns, rhos = _record(_evolve(rhos, schedule, [p], steps), ["trace_distance", "coherence_a"])
    return Trajectory({name: grid[0] for name, grid in columns.items()}, tuple(rhos[0]))


@dataclass(frozen=True)
class OrbitDiagram:
    """Windowed long-term metric values for each point of a probability grid."""

    p_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    window: tuple[int, int]


def orbit_sweep(
    p_grid: Sequence[float],
    n_collisions: int = 100,
    window: tuple[int, int] | None = None,
    *,
    ancilla: ThermalAncilla = DEFAULT_ANCILLA,
) -> OrbitDiagram:
    """Sweep the single-ancilla repeated-collision scenario over a p grid.

    For each p the coherence series of SUPERPOSITION_PLUS is recorded over
    ``window`` (a half-open range of collision indices, by default the last
    60, the tail that ``detect_period`` classifies). One ``_evolve`` call
    steps the whole grid as one stack, with memory bounded by a chunk of
    collisions, and the recorder of ``run_trajectory`` computes only the
    coherence, only inside the window, once per step over the grid axis. So
    the values equal, bit for bit, that run's ``coherence_a`` column at each
    p alone. Every collision at every p, before the window too, is still
    checked, and a violation names the first failing step, then the lowest
    failing p index.
    """
    grid = tuple(float(p) for p in p_grid)
    if not grid:
        raise ValueError("probability grid is empty")
    schedule = repeated_schedule(2, (0, 1), n_collisions)
    if window is None:
        window = (max(0, n_collisions + 1 - VERDICT_WINDOW), n_collisions + 1)
    start, stop = window
    if not (all(isinstance(b, (int, np.integer)) for b in window)
            and 0 <= start < stop <= n_collisions + 1):
        raise ValueError(f"window {window} invalid for {n_collisions} collisions")
    initial = composite_initial(SUPERPOSITION_PLUS, (ancilla,))
    rhos = np.broadcast_to(initial, (len(grid), 1) + initial.shape)
    steps = _unitary_steps(schedule, grid)
    columns, _ = _record(_evolve(rhos, schedule, grid, steps), ["coherence_a"], (start, stop))
    values = tuple(map(tuple, columns["coherence_a"].tolist()))
    return OrbitDiagram(p_grid=grid, values=values, window=(start, stop))
