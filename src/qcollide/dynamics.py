"""Collision schedules, trajectory evolution, the memoryless limit map,
and orbit-diagram sweeps over the interaction probability."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, qmat
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

# Orthogonal equal-weight superpositions, the standard preparation pair for
# distinguishability runs; the first is also the maximally coherent state.
SUPERPOSITION_PLUS = PureQubit(2 ** -0.5, 2 ** -0.5)
SUPERPOSITION_MINUS = PureQubit(2 ** -0.5, -(2 ** -0.5))

DEFAULT_ANCILLA = ThermalAncilla(0.8, 0.2)

ORBIT_WINDOW_LEN = 60


class InvariantViolationError(RuntimeError):
    """A register drifted past its trace, Hermiticity or positivity bound."""


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
class StepRecord:
    """Metrics of the register after the n-th collision (n=0 is the initial state)."""

    n: int
    coherence_a: float
    rho_a_diag: tuple[float, float]
    coherence_env: float | None = None
    negativity: float | None = None
    trace_distance: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Per-collision metric records plus the configuration that produced them.

    ``final_registers`` holds the evolved state of each tracked copy:
    Register objects for collision runs, bare 2x2 arrays for fresh-ancilla
    runs.
    """

    steps: tuple[StepRecord, ...]
    p: float
    weights: tuple[tuple[float, float], ...]
    schedule: Schedule | None
    final_registers: tuple

    def _series(self, name: str) -> np.ndarray:
        values = [getattr(s, name) for s in self.steps]
        if any(v is None for v in values):
            raise ValueError(f"{name} was not recorded for this trajectory")
        return np.array(values, dtype=float)

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


def _system_reductions(rhos: np.ndarray) -> np.ndarray:
    """Reduced system-qubit states of a (B, d, d) stack of register copies."""
    half = rhos.shape[-1] // 2
    return np.einsum("bijkj->bik", rhos.reshape(len(rhos), 2, half, 2, half))


def _record_step(n: int, rhos: np.ndarray) -> StepRecord:
    """Metrics of a (B, d, d) stack of register copies after the n-th collision.

    Copy 0 supplies the single-register fields; with two copies, the trace
    distance of their reduced system states is recorded as well.
    """
    rho_as = _system_reductions(rhos)
    rho_a = rho_as[0]
    rec: dict = {
        "n": n,
        "coherence_a": metrics.l1_coherence(rho_a),
        "rho_a_diag": (float(rho_a[0, 0].real), float(rho_a[1, 1].real)),
    }
    if rhos.shape[-1] == 4:
        rho_env = np.einsum("ijik->jk", rhos[0].reshape(2, 2, 2, 2))
        rec["coherence_env"] = metrics.l1_coherence(rho_env)
        rec["negativity"] = metrics.negativity(rhos[0], (2, 2))
    if len(rhos) == 2:
        rec["trace_distance"] = metrics.trace_distance(rho_a, rho_as[1])
    return StepRecord(**rec)


def _evolve(rhos: np.ndarray, schedule: Schedule, p: float, check: bool = True):
    """Step a (B, d, d) stack of register copies through ``schedule``.

    Yields ``(0, rhos)`` first and then ``(n, rhos)`` after the n-th
    collision. Each pair's unitary is built once per call. With ``check``
    every copy is checked after every collision, and a violation names the
    step, the pair, p and the copy.
    """
    yield 0, rhos
    unitaries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for n, (i, j) in enumerate(schedule.events, start=1):
        if (i, j) not in unitaries:
            u = pair_collision_unitary(schedule.n_qubits, (i, j), p).matrix
            unitaries[i, j] = (u, u.conj().T)
        u, uh = unitaries[i, j]
        rhos = u @ rhos @ uh
        if check:
            violation = _first_violation(rhos)
            if violation is not None:
                copy, reason = violation
                raise InvariantViolationError(
                    f"step {n}, pair ({i}, {j}), p = {float(p)!r}, copy {copy}: {reason}"
                )
        yield n, rhos


def run_trajectory(
    systems,
    ancillas,
    p: float,
    schedule: Schedule,
    *,
    check: bool = True,
) -> Trajectory:
    """Evolve one register (or a pair sharing the schedule) and record metrics.

    ``systems`` is a single pure system state or a pair of them; with a pair,
    both registers see the identical collision sequence and the trace
    distance of the reduced system states is recorded at every step. The
    copies evolve as one (B, d, d) stack, each pair's unitary is built once
    per call, and with ``check`` every copy is checked after every collision;
    a violation names the step, the pair, p and the copy.
    """
    states = _system_states(systems)
    anc = (ancillas,) if isinstance(ancillas, ThermalAncilla) else tuple(ancillas)
    if schedule.n_qubits != 1 + len(anc):
        raise ValueError(
            f"schedule is for {schedule.n_qubits} qubits but register has {1 + len(anc)}"
        )
    initial = [composite_initial(s, anc) for s in states]
    records = []
    for n, rhos in _evolve(np.stack([reg.rho for reg in initial]), schedule, p, check):
        records.append(_record_step(n, rhos))
    return Trajectory(
        steps=tuple(records),
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
    rho1 = pure_qubit_density(states[0])
    rho2 = pure_qubit_density(states[1])
    records = []
    for n in range(n_steps + 1):
        if n > 0:
            rho1 = markovian_step(rho1, p, ancilla)
            rho2 = markovian_step(rho2, p, ancilla)
        records.append(
            StepRecord(
                n=n,
                coherence_a=metrics.l1_coherence(rho1),
                rho_a_diag=(float(rho1[0, 0].real), float(rho1[1, 1].real)),
                trace_distance=metrics.trace_distance(rho1, rho2),
            )
        )
    return Trajectory(
        steps=tuple(records),
        p=float(p),
        weights=((ancilla.w_g, ancilla.w_e),),
        schedule=None,
        final_registers=(rho1, rho2),
    )


@dataclass(frozen=True)
class OrbitDiagram:
    """Windowed long-term metric values for each point of a probability grid."""

    p_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    window: tuple[int, int]
    metric: str


# Each orbit metric as a function of the (B, 4, 4) stack, computed as in
# _record_step; the trace distance is taken between two copies.
_ORBIT_METRICS = {
    "coherence": lambda rhos: metrics.l1_coherence(_system_reductions(rhos)[0]),
    "trace_distance": lambda rhos: metrics.trace_distance(*_system_reductions(rhos)),
    "negativity": lambda rhos: metrics.negativity(rhos[0], (2, 2)),
}


def default_window(n_collisions: int) -> tuple[int, int]:
    """Half-open collision-index range covering the last 60 collisions."""
    return (max(0, n_collisions + 1 - ORBIT_WINDOW_LEN), n_collisions + 1)


def orbit_sweep(
    p_grid: Sequence[float],
    n_collisions: int = 100,
    window: tuple[int, int] | None = None,
    *,
    metric: str = "coherence",
    system: PureQubit = SUPERPOSITION_PLUS,
    partner: PureQubit = SUPERPOSITION_MINUS,
    ancilla: ThermalAncilla = DEFAULT_ANCILLA,
) -> OrbitDiagram:
    """Sweep the single-ancilla repeated-collision scenario over a p grid.

    For each p the chosen metric series is recorded over ``window`` (a
    half-open range of collision indices, by default the last 60). Only the
    requested metric is computed, and only inside the window, with the same
    reductions and ``metrics`` functions as ``run_trajectory``, so the values
    equal its series; every collision, before the window too, is still
    checked. Grid points are independent, so they may be computed in any
    order; results are stored in grid order.
    """
    grid = tuple(float(p) for p in p_grid)
    if not grid:
        raise ValueError("probability grid is empty")
    if metric not in _ORBIT_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    value = _ORBIT_METRICS[metric]
    if window is None:
        window = default_window(n_collisions)
    start, stop = window
    if not 0 <= start < stop <= n_collisions + 1:
        raise ValueError(f"window {window} invalid for {n_collisions} collisions")
    schedule = repeated_schedule(2, (0, 1), n_collisions)
    states = (system, partner) if metric == "trace_distance" else (system,)
    values = []
    for p in grid:
        initial = np.stack([composite_initial(s, (ancilla,)).rho for s in states])
        values.append(tuple(
            value(rhos) for n, rhos in _evolve(initial, schedule, p) if start <= n < stop
        ))
    return OrbitDiagram(p_grid=grid, values=tuple(values), window=(start, stop), metric=metric)
