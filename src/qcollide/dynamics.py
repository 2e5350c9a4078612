"""Collision schedules, trajectory evolution, the memoryless limit map,
and orbit-diagram sweeps over the interaction probability."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, qmat
from .analysis import VERDICT_WINDOW
from .model import (
    PureQubit,
    Register,
    ThermalAncilla,
    composite_initial,
    pair_collision_unitary,
    pure_qubit_density,
)

# Runtime drift bounds for states along a trajectory.
TRACE_TOL = 1e-10
POSITIVITY_FLOOR = 1e-9
# State entries (steps x copies x d x d) that one invariant check covers: about
# 128 KB of complex values, so 512 steps of one 4x4 copy or 16 steps of two
# 16x16 copies. Counted in entries rather than steps because the check's
# temporaries scale with the chunk: checking a 100-collision run of two
# 16x16 copies in one chunk peaks 2.4 MB higher than with this size.
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


@dataclass(frozen=True)
class Schedule:
    """Ordered list of qubit-pair collision events for one register size."""

    n_qubits: int
    events: tuple[tuple[int, int], ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.n_qubits <= 4:
            raise ValueError(f"n_qubits must be 2..4, got {self.n_qubits}")
        for ev in self.events:
            i, j = ev
            if not 0 <= i < j < self.n_qubits:
                raise ValueError(f"event {ev} invalid for {self.n_qubits} qubits")

    def __len__(self) -> int:
        return len(self.events)


def repeated_schedule(n_qubits: int, pair: tuple[int, int], n_events: int) -> Schedule:
    """Deterministic schedule repeating one pair."""
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    return Schedule(n_qubits=n_qubits, events=(tuple(pair),) * n_events)


def random_schedule(
    n_qubits: int,
    n_events: int,
    seed: int,
    *,
    system_ancilla_only: bool = False,
) -> Schedule:
    """Seeded uniform choice among qubit pairs, one pair per collision.

    By default ancilla-ancilla pairs participate; ``system_ancilla_only``
    restricts the draw to pairs involving qubit 0. Replaying with the same
    seed reproduces the event list exactly.
    """
    if not 3 <= n_qubits <= 4:
        raise ValueError(f"random schedules need 3 or 4 qubits, got {n_qubits}")
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    pairs = [p for p in itertools.combinations(range(n_qubits), 2)
             if not system_ancilla_only or p[0] == 0]
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pairs), size=n_events)
    return Schedule(n_qubits=n_qubits, events=tuple(pairs[k] for k in idx), seed=int(seed))


def _factorises(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _first_violation(rhos: np.ndarray) -> tuple[int, str] | None:
    """Index of the first copy in a (B, d, d) stack that broke an invariant, and why.

    Trace and Hermiticity are tested on the whole stack at once. Positivity is
    one batched Cholesky factorisation of rho + POSITIVITY_FLOOR * I, which
    succeeds exactly when no eigenvalue lies below -POSITIVITY_FLOOR (to about
    1e-15, by Cholesky's backward stability). The comparisons count NaN as
    drift. Copies are examined one by one, and an eigenvalue is computed,
    only to report a failure.
    """
    shifted = rhos + POSITIVITY_FLOOR * np.eye(rhos.shape[-1])
    trace_ok = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0) < TRACE_TOL
    herm_dev = np.max(np.abs(rhos - rhos.conj().swapaxes(1, 2)), axis=(1, 2))
    herm_ok = herm_dev < qmat.HERMITICITY_TOL
    if trace_ok.all() and herm_ok.all() and _factorises(shifted):
        return None
    for k, rho in enumerate(rhos):
        if not trace_ok[k]:
            return k, f"trace drifted to {complex(np.trace(rho))!r}"
        if not herm_ok[k]:
            return k, f"Hermiticity deviation {herm_dev[k]:.3e}"
        if not _factorises(shifted[k]):
            lam = np.linalg.eigvalsh(rho)[0]
            return k, f"negative eigenvalue {lam:.3e} below floor"
    return None


def check_register(reg: Register) -> None:
    """Raise InvariantViolationError when a register drifted out of bounds."""
    violation = _first_violation(np.asarray(reg.rho, dtype=complex)[np.newaxis])
    if violation is not None:
        raise InvariantViolationError(violation[1])


def collide(reg: Register, pair: tuple[int, int], p: float) -> Register:
    """Apply one pairwise collision to a register."""
    u = pair_collision_unitary(reg.n_qubits, pair, p).matrix
    return Register(rho=u @ reg.rho @ u.conj().T, n_qubits=reg.n_qubits, labels=reg.labels)


@dataclass(frozen=True)
class Trajectory:
    """Per-collision metric columns plus the configuration that produced them.

    ``columns`` maps each recorded metric name to its value after each
    collision n = 0, 1, ... (n = 0 is the initial state).
    ``final_registers`` holds the evolved state of each tracked copy:
    Register objects for collision runs, bare 2x2 arrays for fresh-ancilla
    runs.
    """

    columns: dict[str, list]
    p: float
    weights: tuple[tuple[float, float], ...]
    schedule: Schedule | None
    final_registers: tuple

    def _series(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"{name} was not recorded for this trajectory")
        return np.array(self.columns[name], dtype=float)

    def coherence_series(self) -> np.ndarray:
        return self._series("coherence_a")

    def coherence_env_series(self) -> np.ndarray:
        return self._series("coherence_env")

    def negativity_series(self) -> np.ndarray:
        return self._series("negativity")

    def trace_distance_series(self) -> np.ndarray:
        return self._series("trace_distance")


def _system_states(systems) -> tuple[PureQubit, ...]:
    if isinstance(systems, PureQubit):
        return (systems,)
    states = tuple(systems)
    if not 1 <= len(states) <= 2:
        raise ValueError(f"need one or two system states, got {len(states)}")
    return states


def _system_reductions(rhos):
    """Reduced system-qubit states of a (B, d, d) stack; 2x2 states are their own."""
    if len(rhos[0]) == 2:
        return rhos
    half = rhos.shape[-1] // 2
    return np.einsum("bijkj->bik", rhos.reshape(len(rhos), 2, half, 2, half))


# Each per-collision metric by column name, as a function of the copies'
# system reductions and the copies. The trace distance compares copies 0 and 1.
_METRICS = {
    "coherence_a": lambda rho_as, rhos: metrics.l1_coherence(rho_as[0]),
    "rho_a_diag": lambda rho_as, rhos: (float(rho_as[0][0, 0].real), float(rho_as[0][1, 1].real)),
    "coherence_env": lambda rho_as, rhos: metrics.l1_coherence(
        np.einsum("ijik->jk", rhos[0].reshape(2, 2, 2, 2))
    ),
    "negativity": lambda rho_as, rhos: metrics.negativity(rhos[0], (2, 2)),
    "trace_distance": lambda rho_as, rhos: metrics.trace_distance(rho_as[0], rho_as[1]),
}


def _record(states, names, window=None):
    """The named metric columns over ``(n, stack)`` pairs, and the last stack.

    A stack is a (B, d, d) array of register copies or a pair of 2x2 states.
    Only indices n in the half-open ``window`` (default: all) are evaluated,
    but every pair is drawn, so the whole run is still stepped and checked.
    """
    start, stop = window or (0, math.inf)
    columns = {name: [] for name in names}
    evaluate = [(_METRICS[name], columns[name].append) for name in names]
    for n, stack in states:
        if start <= n < stop:
            rho_as = _system_reductions(stack)
            for metric, append in evaluate:
                append(metric(rho_as, stack))
    return columns, stack


def _evolve(rhos: np.ndarray, schedule: Schedule, p: float):
    """Step a (B, d, d) stack of register copies through ``schedule``.

    Yields ``(0, rhos)`` first and then ``(n, rhos)`` after the n-th
    collision. Each pair's unitary is built once per call. The steps run in
    chunks of about CHECK_CHUNK_ENTRIES state entries, and each chunk's
    states are checked by one stacked ``_first_violation`` call, which covers
    every copy after every collision, before any of them is yielded. Only a
    failed chunk is searched step by step, so a violation names the first
    failing step, the pair, p and the lowest failing copy at that step.
    """
    yield 0, rhos
    unitaries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    events = schedule.events
    chunk = max(1, CHECK_CHUNK_ENTRIES // rhos.size)
    for first in range(0, len(events), chunk):
        block = events[first:first + chunk]
        states = np.empty((len(block),) + rhos.shape, dtype=complex)
        # Steps past a violation in the same chunk are still computed and may
        # overflow; the check reports the violation, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (i, j) in enumerate(block):
                if (i, j) not in unitaries:
                    u = pair_collision_unitary(schedule.n_qubits, (i, j), p).matrix
                    unitaries[i, j] = (u, u.conj().T)
                u, uh = unitaries[i, j]
                rhos = states[k] = u @ rhos @ uh
            if _first_violation(states.reshape(-1, *rhos.shape[1:])) is not None:
                for n, ((i, j), stack) in enumerate(zip(block, states), start=first + 1):
                    violation = _first_violation(stack)
                    if violation is not None:
                        copy, reason = violation
                        raise InvariantViolationError(
                            f"step {n}, pair ({i}, {j}), p = {float(p)!r}, copy {copy}: {reason}",
                            step=n, pair=(i, j), p=float(p), copy=copy,
                        )
        yield from enumerate(states, start=first + 1)


def run_trajectory(systems, ancillas, p: float, schedule: Schedule) -> Trajectory:
    """Evolve one register (or a pair sharing the schedule) and record metrics.

    ``systems`` is a single pure system state or a pair of them; with a pair,
    both registers see the identical collision sequence and the trace
    distance of the reduced system states is recorded at every step. The
    copies evolve as one (B, d, d) stack, and each pair's unitary is built
    once per call. Every copy is checked after every collision, one chunk of
    collisions per stacked check, before any metric of those collisions is
    computed; a violation names the first failing step, the pair, p and the
    copy.
    """
    states = _system_states(systems)
    anc = (ancillas,) if isinstance(ancillas, ThermalAncilla) else tuple(ancillas)
    if schedule.n_qubits != 1 + len(anc):
        raise ValueError(
            f"schedule is for {schedule.n_qubits} qubits but register has {1 + len(anc)}"
        )
    initial = [composite_initial(s, anc) for s in states]
    names = ["coherence_a", "rho_a_diag"]
    if schedule.n_qubits == 2:
        names += ["coherence_env", "negativity"]
    if len(states) == 2:
        names.append("trace_distance")
    rhos = np.stack([reg.rho for reg in initial])
    columns, rhos = _record(_evolve(rhos, schedule, p), names)
    return Trajectory(
        columns=columns,
        p=float(p),
        weights=tuple((a.w_g, a.w_e) for a in anc),
        schedule=schedule,
        final_registers=tuple(replace(reg, rho=rho) for reg, rho in zip(initial, rhos)),
    )


def markovian_step(rho_a: np.ndarray, p: float, ancilla: ThermalAncilla) -> np.ndarray:
    """One collision with a fresh thermal ancilla, reduced to the system qubit.

    The populations relax toward (w_g, w_e) at rate p and the off-diagonal
    entries shrink by sqrt(1-p); the composition of n such steps is the
    n-collision memoryless evolution.
    """
    a = np.asarray(rho_a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a single-qubit state, got shape {a.shape}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"interaction probability must lie in [0, 1], got {p}")
    stay = math.sqrt(1.0 - p)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = (1.0 - p * ancilla.w_e) * a[0, 0] + p * ancilla.w_g * a[1, 1]
    out[1, 1] = (1.0 - p * ancilla.w_g) * a[1, 1] + p * ancilla.w_e * a[0, 0]
    out[0, 1] = stay * a[0, 1]
    out[1, 0] = stay * a[1, 0]
    return out


def markovian_trajectory(
    systems: Sequence[PureQubit],
    p: float,
    ancilla: ThermalAncilla,
    n_steps: int,
) -> Trajectory:
    """Iterate the fresh-ancilla map on a pair of system states."""
    states = _system_states(systems)
    if len(states) != 2:
        raise ValueError("the memoryless run tracks a pair of system states")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    pairs = itertools.accumulate(
        range(n_steps),
        lambda pair, _: tuple(markovian_step(rho, p, ancilla) for rho in pair),
        initial=tuple(pure_qubit_density(s) for s in states),
    )
    columns, final = _record(enumerate(pairs), ["coherence_a", "rho_a_diag", "trace_distance"])
    return Trajectory(
        columns=columns,
        p=float(p),
        weights=((ancilla.w_g, ancilla.w_e),),
        schedule=None,
        final_registers=final,
    )


@dataclass(frozen=True)
class OrbitDiagram:
    """Windowed long-term metric values for each point of a probability grid."""

    p_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    window: tuple[int, int]
    metric: str


# The column that _record evaluates for each orbit metric.
_ORBIT_FIELDS = {"coherence": "coherence_a", "trace_distance": "trace_distance",
                 "negativity": "negativity"}


def orbit_sweep(
    p_grid: Sequence[float],
    n_collisions: int = 100,
    window: tuple[int, int] | None = None,
    *,
    metric: str = "coherence",
    ancilla: ThermalAncilla = DEFAULT_ANCILLA,
) -> OrbitDiagram:
    """Sweep the single-ancilla repeated-collision scenario over a p grid.

    For each p the chosen metric series is recorded over ``window`` (a
    half-open range of collision indices, by default the last 60, the tail
    that ``detect_period`` classifies). Only the requested metric is
    computed, and only inside the window, by the recorder of
    ``run_trajectory``, so the values equal its series from
    SUPERPOSITION_PLUS (and SUPERPOSITION_MINUS for the trace distance).
    Every collision, before the window too, is still checked, one chunk of
    collisions per stacked check and before any metric of the chunk is
    computed. Grid points are independent, so they may be computed in any
    order; results are stored in grid order.
    """
    grid = tuple(float(p) for p in p_grid)
    if not grid:
        raise ValueError("probability grid is empty")
    if metric not in _ORBIT_FIELDS:
        raise ValueError(f"unknown metric {metric!r}")
    field = _ORBIT_FIELDS[metric]
    if window is None:
        window = (max(0, n_collisions + 1 - VERDICT_WINDOW), n_collisions + 1)
    start, stop = window
    if not 0 <= start < stop <= n_collisions + 1:
        raise ValueError(f"window {window} invalid for {n_collisions} collisions")
    schedule = repeated_schedule(2, (0, 1), n_collisions)
    states = (SUPERPOSITION_PLUS,)
    if metric == "trace_distance":
        states += (SUPERPOSITION_MINUS,)
    values = []
    for p in grid:
        initial = np.stack([composite_initial(s, (ancilla,)).rho for s in states])
        columns, _ = _record(_evolve(initial, schedule, p), [field], (start, stop))
        values.append(tuple(columns[field]))
    return OrbitDiagram(p_grid=grid, values=tuple(values), window=(start, stop), metric=metric)
