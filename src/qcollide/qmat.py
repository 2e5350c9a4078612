"""Dense complex linear algebra for small multi-qubit registers (dim <= 16).

All operations are pure functions on numpy arrays and never mutate their
inputs. Eigenvalue problems go to LAPACK through ``numpy.linalg``. Functions
documented as taking a (..., d, d) stack give each matrix of it, bit for bit,
the result of the call on that matrix alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# Hermitian-only operations reject inputs with ||h - h^dag||_max above this.
HERMITICITY_TOL = 1e-10


def _as_square(m: np.ndarray, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = _as_square(m, name, stack=True)
    dev = float(np.abs(a - a.conj().swapaxes(-1, -2)).max()) if a.size else 0.0
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
    keep_idx = [keep] if np.isscalar(keep) else sorted(set(keep))
    if not keep_idx:
        raise ValueError("must keep at least one subsystem")
    for k in keep_idx:
        if not (isinstance(k, (int, np.integer)) and 0 <= k < len(dims)):
            raise ValueError(f"keep index {k!r} is not an integer in range for {len(dims)} subsystems")
    traced = [i for i in range(len(dims)) if i not in keep_idx]
    t = a.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d = math.prod(remaining)
    return t.reshape(d, d)


def partial_transpose(rho: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Transpose the first factor of a bipartite square matrix or (..., d, d) stack."""
    a = _as_square(rho, "rho", stack=True)
    da, db = dims
    if da * db != a.shape[-1]:
        raise ValueError(f"dims {tuple(dims)} do not match matrix dim {a.shape[-1]}")
    t = a.reshape(a.shape[:-2] + (da, db, da, db))
    return t.swapaxes(-4, -2).reshape(a.shape)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; (..., d) for a (..., d, d) stack."""
    return np.linalg.eigvalsh(_require_hermitian(h, "h"))


def trace_norm_hermitian(h: np.ndarray) -> float | np.ndarray:
    """Sum of absolute eigenvalues of a Hermitian matrix (float) or (..., d, d) stack (array)."""
    norms = np.abs(hermitian_eigenvalues(h)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms
