"""The four benchmark workloads and the correctness gate for their outputs.

Each workload is a fixed list of ``qcollide`` CLI invocations. The gate
parses every emitted CSV file with its own parser and compares it with a
closed form or with the independent numpy model in ``reference.py``.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import reference

# Allowed deviation after n collisions. The simulation and the closed form
# both accumulate rounding of order one ulp per step (the closed form through
# n * theta), so the tolerance grows linearly with n. The measured errors on
# all four workloads stay at least 12 times below it.
TOL_BASE = 1e-12
TOL_PER_STEP = 1e-14

W_G = 0.8  # the CLI's default ancilla ground weight, used by every workload

ORBIT_GRID = (0.5, 0.85, 0.005)
ORBIT_COLLISIONS = 100
ORBIT_WINDOW = (41, 101)  # the CLI default: the last 60 collision indices

ENSEMBLE_RUNS = 50
ENSEMBLE_P = 0.5
ENSEMBLE_ANCILLAS = 3
ENSEMBLE_COLLISIONS = 100

TRAJECTORY_P = 0.8
TRAJECTORY_COLLISIONS = 5000

MARKOVIAN_GRID = (0.05, 0.95, 0.05)
MARKOVIAN_COLLISIONS = 2000


def grid(spec: tuple[float, float, float]) -> list[float]:
    start, stop, step = spec
    count = round((stop - start) / step)
    return [start + k * step for k in range(count + 1)]


def grid_arg(spec: tuple[float, float, float]) -> str:
    return ":".join(repr(x) for x in spec)


def ensemble_seeds(seed: int) -> list[int]:
    """Schedule seeds of the ``ensemble3`` invocations, derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(ENSEMBLE_RUNS)]


def closed_form_cos(p, n):
    """Single-ancilla coherence and trace distance: |cos(n * arccos sqrt(1 - p))|."""
    return np.abs(np.cos(np.asarray(n) * np.arccos(np.sqrt(1.0 - np.asarray(p)))))


def tolerance(n):
    return TOL_BASE + TOL_PER_STEP * np.asarray(n, dtype=float)


@dataclass
class CsvOutput:
    header: dict[str, str]
    columns: list[str]
    rows: list[list[str]]
    footer: list[str]

    def column(self, name: str) -> np.ndarray:
        k = self.columns.index(name)
        return np.array([float(r[k]) for r in self.rows])


def parse_csv(text: str) -> CsvOutput:
    out = CsvOutput({}, [], [], [])
    for line in text.splitlines():
        if line.startswith("#"):
            if out.columns:
                out.footer.append(line[1:].strip())
            else:
                key, _, value = line[1:].partition(" = ")
                out.header[key.strip()] = value.strip()
        elif not out.columns:
            out.columns = line.split(",")
        elif line:
            out.rows.append(line.split(","))
    return out


class Gate:
    """Collects the reasons one output file fails."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok

    def close(self, name: str, got, want, n) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if not self.expect(got.shape == want.shape, f"{name}: {got.shape} values, expected {want.shape}"):
            return
        excess = np.abs(got - want) - tolerance(n)
        if excess.size and excess.max() > 0:
            k = int(np.argmax(excess))
            self.errors.append(
                f"{name}: row {k} is {float(got.flat[k])!r}, expected {float(want.flat[k])!r} "
                f"(|error| {abs(got.flat[k] - want.flat[k]):.3e})"
            )


def _parsed(gate: Gate, text: str | None, columns: list[str]) -> CsvOutput | None:
    if not gate.expect(text is not None, "no output file"):
        return None
    out = parse_csv(text)
    if not gate.expect(out.columns == columns, f"columns {out.columns}, expected {columns}"):
        return None
    return out


def check_orbit(seed: int, texts: list[str | None]) -> list[list[str]]:
    gate = Gate()
    out = _parsed(gate, texts[0], ["p", "value"])
    if out is not None:
        ps = np.repeat(grid(ORBIT_GRID), ORBIT_WINDOW[1] - ORBIT_WINDOW[0])
        n = np.tile(np.arange(*ORBIT_WINDOW), len(grid(ORBIT_GRID)))
        gate.close("p", out.column("p"), ps, 0)
        gate.close("value", out.column("value"), closed_form_cos(ps, n), n)
    return [gate.errors]


def check_ensemble(seed: int, texts: list[str | None]) -> list[list[str]]:
    result = []
    for s, text in zip(ensemble_seeds(seed), texts):
        gate = Gate()
        out = _parsed(gate, text, ["n", "coherence_A", "trace_distance"])
        if out is not None:
            events = reference.random_schedule(s, ENSEMBLE_COLLISIONS)
            gate.expect(out.header.get("seed") == str(s), f"seed header {out.header.get('seed')}, expected {s}")
            gate.expect(
                out.header.get("schedule") == " ".join(f"{i}-{j}" for i, j in events),
                "schedule header does not match the seeded draw",
            )
            ref = reference.run_pair(ENSEMBLE_P, W_G, ENSEMBLE_ANCILLAS, events)
            n = np.arange(ENSEMBLE_COLLISIONS + 1)
            gate.close("n", out.column("n"), n, 0)
            for name in ("coherence_A", "trace_distance"):
                gate.close(name, out.column(name), ref[name], n)
        result.append(gate.errors)
    return result


def check_trajectory(seed: int, texts: list[str | None]) -> list[list[str]]:
    gate = Gate()
    columns = ["n", "coherence_A", "coherence_env", "negativity", "trace_distance"]
    out = _parsed(gate, texts[0], columns)
    if out is not None:
        n = np.arange(TRAJECTORY_COLLISIONS + 1)
        gate.close("n", out.column("n"), n, 0)
        exact = closed_form_cos(TRAJECTORY_P, n)
        gate.close("coherence_A", out.column("coherence_A"), exact, n)
        gate.close("trace_distance", out.column("trace_distance"), exact, n)
        ref = reference.run_pair(TRAJECTORY_P, W_G, 1, [(0, 1)] * TRAJECTORY_COLLISIONS)
        for name in ("coherence_env", "negativity"):
            gate.close(name, out.column(name), ref[name], n)
    return [gate.errors]


def check_markovian(seed: int, texts: list[str | None]) -> list[list[str]]:
    gate = Gate()
    out = _parsed(gate, texts[0], ["n", "p", "trace_distance", "coherence"])
    if out is not None:
        ps = np.repeat(grid(MARKOVIAN_GRID), MARKOVIAN_COLLISIONS + 1)
        n = np.tile(np.arange(MARKOVIAN_COLLISIONS + 1), len(grid(MARKOVIAN_GRID)))
        gate.close("n", out.column("n"), n, 0)
        gate.close("p", out.column("p"), ps, 0)
        # Both the trace distance of the plus/minus pair and the plus copy's
        # l1 coherence shrink by sqrt(1 - p) per fresh-ancilla collision.
        exact = (1.0 - ps) ** (n / 2.0)
        gate.close("trace_distance", out.column("trace_distance"), exact, n)
        gate.close("coherence", out.column("coherence"), exact, n)
        monotone = [f for f in out.footer if f.startswith("monotone_nonincreasing")]
        gate.expect(len(monotone) == len(grid(MARKOVIAN_GRID)), f"{len(monotone)} monotonicity footers")
        gate.expect(all(": true " in f for f in monotone), "a trace-distance column is not monotone")
    return [gate.errors]


def count_values(texts: list[str | None], column: str) -> int:
    """Number of non-empty values of ``column`` across the output files."""
    total = 0
    for text in texts:
        if text is None:
            continue
        out = parse_csv(text)
        if column in out.columns:
            k = out.columns.index(column)
            total += sum(1 for r in out.rows if r[k] != "none")
    return total


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: Callable[[int], list[list[str]]]  # workload seed -> CLI argument lists, without --out
    check: Callable[[int, list[str | None]], list[list[str]]]  # -> failure reasons per invocation
    steps: int  # collision steps per sample; steps_per_s = steps / wall_s
    register_steps: int  # register-copy collision steps per sample, each to be checked


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orbit",
            lambda seed: [["orbit", "--p-grid", grid_arg(ORBIT_GRID), "--collisions", str(ORBIT_COLLISIONS)]],
            check_orbit,
            steps=len(grid(ORBIT_GRID)) * ORBIT_COLLISIONS,
            register_steps=len(grid(ORBIT_GRID)) * ORBIT_COLLISIONS,
        ),
        Workload(
            "ensemble3",
            lambda seed: [
                ["trajectory", "--p", repr(ENSEMBLE_P), "--ancillas", str(ENSEMBLE_ANCILLAS),
                 "--collisions", str(ENSEMBLE_COLLISIONS), "--seed", str(s)]
                for s in ensemble_seeds(seed)
            ],
            check_ensemble,
            steps=2 * ENSEMBLE_RUNS * ENSEMBLE_COLLISIONS,
            register_steps=2 * ENSEMBLE_RUNS * ENSEMBLE_COLLISIONS,
        ),
        Workload(
            "trajectory1",
            lambda seed: [["trajectory", "--p", repr(TRAJECTORY_P), "--collisions", str(TRAJECTORY_COLLISIONS)]],
            check_trajectory,
            steps=2 * TRAJECTORY_COLLISIONS,
            register_steps=2 * TRAJECTORY_COLLISIONS,
        ),
        Workload(
            "markovian",
            lambda seed: [["markovian", "--p-grid", grid_arg(MARKOVIAN_GRID),
                           "--collisions", str(MARKOVIAN_COLLISIONS)]],
            check_markovian,
            steps=2 * len(grid(MARKOVIAN_GRID)) * MARKOVIAN_COLLISIONS,
            register_steps=0,
        ),
    )
}
