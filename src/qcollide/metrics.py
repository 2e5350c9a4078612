"""Information-theoretic state metrics and backflow detection. A state metric maps a density
matrix to a float, and a (..., d, d) stack to the array of, bit for bit, its matrices' floats."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import qmat

# Smallest trace-distance increase counted as a genuine revival rather than
# eigensolver noise.
BACKFLOW_TOL = 1e-9


def l1_coherence(rho: np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal entries in the fixed energy basis."""
    # Summing only the off-diagonal magnitudes keeps their relative precision
    # when they are far below the diagonal; sum|a| - sum|diag| would cancel them.
    mags = np.abs(qmat._as_square(rho, "rho", stack=True))
    flat = mags.reshape(*mags.shape[:-2], mags.shape[-1] ** 2)
    flat[..., ::mags.shape[-1] + 1] = 0.0
    return qmat._scalar_or_stack(flat.sum(axis=-1))


def negativity(rho: np.ndarray) -> float | np.ndarray:
    """Entanglement negativity of a qubit register across the qubit 0 | rest cut.

    (||rho^(T_0)||_1 - 1) / 2, the absolute sum of the negative eigenvalues of
    the partial transpose of qubit 0; zero for product states.
    """
    pt = qmat.partial_transpose(rho)
    return qmat._scalar_or_stack(np.fmax(0.0, (qmat.trace_norm_hermitian(pt) - 1.0) / 2.0))


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of the difference of two density matrices (or stacks)."""
    a, b = qmat.as_array(r1), qmat.as_array(r2)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * qmat.trace_norm_hermitian(a - b)


@dataclass(frozen=True)
class BackflowReport:
    """Steps at which a distinguishability series increased.

    ``events`` holds (n, increase) for every step n where the series rose by
    more than the tolerance between n and n+1. An empty event list is the
    memoryless (monotone non-increasing) verdict.
    """

    events: tuple[tuple[int, float], ...]
    total_backflow: float
    max_distance: float


def backflow_events(series: Sequence[float], tol: float = BACKFLOW_TOL) -> BackflowReport:
    """Detect revivals in a trace-distance series."""
    values = np.asarray(series, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise ValueError(f"series must be 1-D with at least two values, got shape {values.shape}")
    if not tol >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    if not np.isfinite(values).all():
        raise ValueError("series has a non-finite value")
    rises = np.diff(values)
    at = np.flatnonzero(rises > tol)
    events = tuple(zip(at.tolist(), rises[at].tolist()))
    return BackflowReport(
        events=events,
        total_backflow=float(sum(delta for _, delta in events)),
        max_distance=float(values.max()),
    )
