"""Information-theoretic state metrics and backflow detection."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import qmat

# Smallest trace-distance increase counted as a genuine revival rather than
# eigensolver noise.
BACKFLOW_TOL = 1e-9


def l1_coherence(rho: np.ndarray) -> float:
    """Sum of absolute off-diagonal entries in the fixed energy basis."""
    # Summing only the off-diagonal magnitudes keeps their relative precision
    # when they are far below the diagonal; sum|a| - sum|diag| would cancel them.
    mags = np.abs(np.asarray(rho, dtype=complex))
    np.fill_diagonal(mags, 0.0)
    return float(mags.sum())


def negativity(rho: np.ndarray, dims: Sequence[int]) -> float:
    """Entanglement negativity across the bipartition ``dims``.

    Computed as (||rho^(T_first)||_1 - 1) / 2, equal to the absolute sum of
    the negative eigenvalues of the partial transpose; zero for product
    states.
    """
    pt = qmat.partial_transpose(rho, dims, subsystem=0)
    return max(0.0, (qmat.trace_norm_hermitian(pt) - 1.0) / 2.0)


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """Half the trace norm of the difference of two density matrices."""
    a = np.asarray(r1, dtype=complex)
    b = np.asarray(r2, dtype=complex)
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
    values = [float(x) for x in series]
    if len(values) < 2:
        raise ValueError("series must contain at least two values")
    if not tol >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    events = tuple(
        (n, values[n + 1] - values[n])
        for n in range(len(values) - 1)
        if values[n + 1] - values[n] > tol
    )
    return BackflowReport(
        events=events,
        total_backflow=float(sum(delta for _, delta in events)),
        max_distance=float(max(values)),
    )
