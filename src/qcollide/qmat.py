"""Dense complex linear algebra for small multi-qubit registers (dim <= 16).

All operations are pure functions on numpy arrays and never mutate their
inputs. Eigenvalue problems go to LAPACK through ``numpy.linalg``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# Hermitian-only operations reject inputs with ||h - h^dag||_max above this.
HERMITICITY_TOL = 1e-10


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = _as_square(m, name)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev >= HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_square(a, "a"), _as_square(b, "b"))


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: int | Sequence[int]) -> np.ndarray:
    """Trace out all subsystems except ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is a
    single index or a set of indices (order of the kept subsystems is
    preserved). The trace of the result equals the trace of ``rho``.
    """
    a = _as_square(rho, "rho")
    dims = list(dims)
    if math.prod(dims) != a.shape[0]:
        raise ValueError(f"product of dims {dims} does not match matrix dim {a.shape[0]}")
    keep_idx = [keep] if isinstance(keep, int) else sorted(set(int(k) for k in keep))
    if not keep_idx:
        raise ValueError("must keep at least one subsystem")
    for k in keep_idx:
        if not 0 <= k < len(dims):
            raise ValueError(f"keep index {k} out of range for {len(dims)} subsystems")
    traced = [i for i in range(len(dims)) if i not in keep_idx]
    t = a.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d = math.prod(remaining)
    return t.reshape(d, d)


def partial_transpose(rho: np.ndarray, dims: Sequence[int], subsystem: int = 0) -> np.ndarray:
    """Transpose one factor of a bipartite square matrix, leaving the other intact."""
    a = _as_square(rho, "rho")
    da, db = dims
    if da * db != a.shape[0]:
        raise ValueError(f"dims {tuple(dims)} do not match matrix dim {a.shape[0]}")
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    t = a.reshape(da, db, da, db)
    axes = (2, 1, 0, 3) if subsystem == 0 else (0, 3, 2, 1)
    return t.transpose(axes).reshape(da * db, da * db)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(_require_hermitian(h, "h"))


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching eigenvector columns of a Hermitian matrix."""
    vals, vecs = np.linalg.eigh(_require_hermitian(h, "h"))
    return vals, vecs


def trace_norm_hermitian(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(h))))


def is_positive_semidefinite(h: np.ndarray, tol: float = 0.0) -> bool:
    """True when Hermitian ``h`` has no eigenvalue below -tol (LAPACK, via ``numpy.linalg``)."""
    # Not routed through hermitian_eigenvalues, so that a traced benchmark run
    # counts these solves in their own layer, apart from the metric eigen-solves.
    return bool(np.linalg.eigvalsh(_require_hermitian(h, "h"))[0] >= -tol)
