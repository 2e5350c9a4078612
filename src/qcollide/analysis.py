"""Classification of metric time series: cycle detection and distinct-value counts."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import qmat

PERIOD_TOL = 1e-8
MAX_PERIOD = 32
MIN_REPEATS = 3
# The trailing collision indices that stand for a series' long-term
# behaviour; dynamics.orbit_sweep records the same tail by default.
VERDICT_WINDOW = 60

CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of periodicity analysis on the tail of a series."""

    period: int | None
    n_distinct: int
    label: str

    @property
    def is_periodic(self) -> bool:
        return self.period is not None


def detect_period(series: Sequence[float], window: int = VERDICT_WINDOW) -> SeriesVerdict:
    """Find the smallest period of the trailing ``window`` points, if any.

    A period k is confirmed when |x(n+k) - x(n)| < PERIOD_TOL for every n in
    the window; k values whose cycle would fit fewer than MIN_REPEATS times
    are not claimable. With no period up to MAX_PERIOD the verdict is
    aperiodic. Values are counted as distinct under CLUSTER_TOL (a non-finite
    one is an error). Verdicts are relative to the analyzed window.
    """
    if not qmat.is_integer(window) or window < 1:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    x = np.asarray(series, dtype=float)
    if len(x) < MAX_PERIOD * MIN_REPEATS:
        raise ValueError(
            f"series of length {len(x)} is too short; need at least {MAX_PERIOD * MIN_REPEATS}"
        )
    if window > len(x):
        raise ValueError(f"window {window} is longer than the series of length {len(x)}")
    tail = x[-window:]
    n_distinct = distinct_values(tail)
    for k in range(1, MAX_PERIOD + 1):
        if k * MIN_REPEATS > len(tail):
            break
        if np.all(np.abs(tail[k:] - tail[:-k]) < PERIOD_TOL):
            return SeriesVerdict(period=k, n_distinct=n_distinct, label=f"periodic({k})")
    return SeriesVerdict(period=None, n_distinct=n_distinct, label="aperiodic")


def cluster_values(series: Sequence[float], cluster_tol: float = CLUSTER_TOL) -> list[float]:
    """Mean of each single-linkage cluster of the values, ascending.

    Two values join the same cluster when connected by a chain of gaps of at
    most ``cluster_tol``; permutation of the series does not matter.
    """
    if not cluster_tol >= 0:
        raise ValueError(f"cluster tolerance must be non-negative, got {cluster_tol}")
    x = np.sort(np.asarray(series, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("series has a non-finite value")
    if len(x) == 0:
        raise ValueError("series is empty")
    cuts = np.flatnonzero(np.diff(x) > cluster_tol)
    return [float(group.mean()) for group in np.split(x, cuts + 1)]


def distinct_values(series: Sequence[float], cluster_tol: float = CLUSTER_TOL) -> int:
    """Number of value clusters under single-linkage with the given threshold."""
    return len(cluster_values(series, cluster_tol))
