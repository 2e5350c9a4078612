"""Collision schedules, trajectory evolution, the memoryless limit map,
and orbit-diagram sweeps over the interaction probability."""

from __future__ import annotations

import itertools
import math
import types
from collections.abc import Mapping, Sequence
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

# Orthogonal equal-weight superpositions: the first is the maximally coherent state, and
# the second is its parity mirror Z|+>, the partner that pair runs step beside it.
SUPERPOSITION_PLUS = PureQubit(2 ** -0.5, 2 ** -0.5)
SUPERPOSITION_MINUS = PureQubit(2 ** -0.5, -(2 ** -0.5))

DEFAULT_ANCILLA = ThermalAncilla(0.8)


class InvariantViolationError(RuntimeError):
    """A register drifted past its trace, Hermiticity or positivity bound.

    A violation carries the collision ``step``, the qubit ``pair``, the
    interaction probability ``p`` and the register ``copy``.
    """

    def __init__(self, message: str, *, step: int, pair: tuple[int, int], p: float, copy: int) -> None:
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
    if not (qmat.is_integer(n_events) and n_events >= 1):
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
    if not (qmat.is_integer(n_qubits) and 3 <= n_qubits <= 4):
        raise ValueError(f"random schedules need 3 or 4 qubits, got {n_qubits!r}")
    if not (qmat.is_integer(n_events) and n_events >= 1):
        raise ValueError(f"n_events must be an integer of at least 1, got {n_events!r}")
    if not (qmat.is_integer(seed) and seed >= 0):
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-collision metric columns and the final states of a run.

    ``columns`` is a read-only mapping of each recorded metric name, in print
    order, to the read-only 1-D float array of its values after each
    collision n = 0, 1, ... (n = 0 is the initial state); a name that was not
    recorded is a KeyError. ``final_registers`` holds the read-only evolved
    density matrix of each tracked copy: the whole register for collision
    runs, the system qubit for fresh-ancilla runs.
    """

    columns: Mapping[str, np.ndarray]
    final_registers: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", types.MappingProxyType(self.columns))


def _system_states(systems) -> tuple[PureQubit, ...]:
    if isinstance(systems, PureQubit):
        return (systems,)
    states = tuple(systems)
    if not 1 <= len(states) <= 2:
        raise ValueError(f"need one or two system states, got {len(states)}")
    return states


# Each column's (steps, P) values from a chunk's (steps, P, B, d, d) states and their system
# states; ancilla coherence and negativity are of copy 0, trace distance of copies 0 and 1, or
# of a lone copy and its parity mirror Z rho_S Z, taken once per chunk: the run of Z|psi>, as
# Z^(x)n commutes with every collision and fixes every ancilla. The per-step two, and the
# eigen-solves that the closed form 2|rho_01| would drop, await a bench whose peak RSS does not
# grow with its sample count (ROADMAP).
_COLUMNS = {
    "coherence_a": lambda part, rho_as: [metrics.l1_coherence(step[:, 0]) for step in rho_as],
    "coherence_env": lambda part, rho_as: metrics.l1_coherence(qmat.partial_trace(part[:, :, 0], [2, 2], keep=1)),
    "negativity": lambda part, rho_as: metrics.negativity(part[:, :, 0], (2, 2)),
    "trace_distance": lambda part, rho_as: [metrics.trace_distance(a, b) for a, b in zip(
        rho_as[:, :, 0], rho_as[:, :, 1] if rho_as.shape[2] == 2 else rho_as[:, :, 0] * [[1, -1], [-1, 1]])],
}


def _run(initials, ps, schedule: Schedule, names, window=None, step=None):
    """Step the (B, d, d) ``initials`` at each p of ``ps`` through ``schedule``: the (P, steps)
    array of each ``names`` column over the half-open ``window`` (default: all), and the final states.

    The (P, B, d, d) stack steps collision k with ``steps[index[k]]``: the pair's (P, d, d)
    unitaries, built in one call, with the initial states promoted to their dtype; or, for a
    one-pair table, ``step``, which must keep its input's dtype. The initial states are a chunk
    of their own; the stacks after each collision follow in chunks of about CHECK_CHUNK_ENTRIES
    entries, which bound the memory. One ``_first_violation`` call checks each chunk at every grid
    point and copy before any metric of it is computed, scanning a failed chunk in (step, grid
    point, copy) order: a violation names the first failing step, its pair, and then the lowest
    failing grid index (its p) and copy. Each chunk then gets one system reduction and one call
    of each named ``_COLUMNS`` entry. Every array returned is read-only and C-contiguous.
    """
    if step is None:
        us = np.array([pair_collision_unitary(schedule.n_qubits, pair, ps) for pair in schedule.pairs])[:, :, None]
        initials = initials.astype(np.result_type(initials, us))
        steps = [lambda rhos, u=u, uh=uh: u @ rhos @ uh for u, uh in zip(us, us.conj().swapaxes(-1, -2))]
    else:
        steps = [step]
    rhos = np.broadcast_to(initials, (len(ps),) + initials.shape)
    chunk = max(1, CHECK_CHUNK_ENTRIES // rhos.size)
    start, stop = window or (0, math.inf)
    flat = {name: [] for name in names}  # step-major, P values per evaluated step
    n, states = 0, rhos[np.newaxis]  # states[k] is the stack after collision n + k
    while True:
        part = states[max(0, start - n):max(0, min(stop - n, len(states)))]
        rho_as = qmat.partial_trace(part, [2] * (part.shape[-1].bit_length() - 1), keep=0)
        for name, values in flat.items():
            values.extend(np.ravel(_COLUMNS[name](part, rho_as)).tolist())
        n += len(states)
        block = schedule.index[n - 1:n - 1 + chunk].tolist()
        if not block:
            columns = {name: np.ascontiguousarray(np.reshape(v, (-1, len(ps))).T) for name, v in flat.items()}
            for array in (*columns.values(), rhos):
                array.flags.writeable = False
            return columns, rhos
        states = np.empty((len(block),) + rhos.shape, rhos.dtype)
        # Steps past a violation in the same chunk are still computed and may
        # overflow; the check reports the violation, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, entry in enumerate(block):
                states[k] = rhos = steps[entry](rhos)
            violation = _first_violation(states.reshape(-1, *rhos.shape[2:]))
        if violation is not None:
            k, point, copy = map(int, np.unravel_index(violation[0], states.shape[:3]))
            (i, j), p = schedule.pairs[block[k]], float(ps[point])
            raise InvariantViolationError(
                f"step {n + k}, pair ({i}, {j}), p = {p!r}, copy {copy}: {violation[1]}",
                step=n + k, pair=(i, j), p=p, copy=copy,
            )


def run_trajectory(systems, ancilla: ThermalAncilla, p: float, schedule: Schedule) -> Trajectory:
    """Evolve one register (or a pair sharing the schedule) and record metrics.

    ``systems`` is a single pure system state or a pair of them; with a pair,
    both registers see the identical collision sequence. A register is its
    system state and ``schedule.n_qubits - 1`` copies of ``ancilla``. The trace
    distance of the reduced system states is recorded at every step: of the
    pair, or of a single state and its parity mirror Z rho_S Z, the run of Z|psi>.
    The copies are the one-grid-point case of ``_run``, so every copy is
    checked after every collision before any metric of it is computed; a
    violation names the first failing step, the pair, p and copy.
    """
    states = _system_states(systems)
    names = ["coherence_a", "coherence_env", "negativity"] if schedule.n_qubits == 2 else ["coherence_a"]
    names += ["trace_distance"]
    initials = np.stack([composite_initial(s, [ancilla] * (schedule.n_qubits - 1)) for s in states])
    columns, rhos = _run(initials, [p], schedule, names)
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
    systems,
    p: float,
    ancilla: ThermalAncilla,
    n_steps: int,
) -> Trajectory:
    """Step one system state or a pair through the fresh-ancilla map, checked after every collision;
    the trace distance is of the pair, or of a single state and its parity mirror Z rho Z."""
    states = _system_states(systems)
    initials = np.stack([pure_qubit_density(s) for s in states])
    columns, rhos = _run(initials, [p], repeated_schedule(2, (0, 1), n_steps), ["trace_distance", "coherence_a"],
                         step=lambda rhos: markovian_step(rhos, p, ancilla))
    return Trajectory({name: grid[0] for name, grid in columns.items()}, tuple(rhos[0]))


@dataclass(frozen=True, eq=False)
class OrbitDiagram:
    """Windowed long-term metric values: row i of the read-only (P, W) array ``values`` is at ``p_grid[i]``."""

    p_grid: tuple[float, ...]
    values: np.ndarray
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
    60, the tail that ``detect_period`` classifies). One ``_run`` call steps
    the whole grid as one stack, with memory bounded by a chunk of
    collisions, and computes only the ``coherence_a`` entry of
    ``run_trajectory``'s table, only inside the window, once per step. So
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
    start, stop = window if np.iterable(window) and len(window) == 2 else (None, None)
    if not (qmat.is_integer(start) and qmat.is_integer(stop) and 0 <= start < stop <= n_collisions + 1):
        raise ValueError(f"window {window!r} invalid for {n_collisions} collisions")
    initials = composite_initial(SUPERPOSITION_PLUS, (ancilla,))[np.newaxis]
    columns, _ = _run(initials, grid, schedule, ["coherence_a"], (start, stop))
    return OrbitDiagram(grid, columns["coherence_a"], (start, stop))
