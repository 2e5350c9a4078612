"""Dense real or complex linear algebra for small multi-qubit registers (dim <= 16).

All operations are pure functions on numpy arrays and never mutate their
inputs. By ``as_array`` an array is float64 when its entries are real and
complex128 when any is complex. Eigenvalue problems go to LAPACK through
``numpy.linalg``, a real one to the real symmetric solver. Functions
documented as taking a (..., d, d) stack give each matrix of it, bit for bit,
the result of the call on that matrix alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# Hermitian-only operations reject inputs with ||h - h^dag||_max above this.
HERMITICITY_TOL = 1e-10


def as_array(m) -> np.ndarray:
    """``m`` as float64 when its entries are real (integers promote) and complex128 when complex."""
    a = np.asarray(m)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def _as_square(m: np.ndarray, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    a = as_array(m)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _scalar_or_stack(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_square(a, "a"), _as_square(b, "b"))


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: int | Sequence[int]) -> np.ndarray:
    """Trace out all subsystems except ``keep`` of a square matrix or (..., d, d) stack.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is a
    single index or a set of indices (order of the kept subsystems is
    preserved). The trace of the result equals the trace of ``rho``.
    """
    a = _as_square(rho, "rho", stack=True)
    dims = list(dims)
    if math.prod(dims) != a.shape[-1]:
        raise ValueError(f"product of dims {dims} does not match matrix dim {a.shape[-1]}")
    keep_idx = [keep] if np.isscalar(keep) else sorted(set(keep))
    if not keep_idx:
        raise ValueError("must keep at least one subsystem")
    for k in keep_idx:
        if not (isinstance(k, (int, np.integer)) and 0 <= k < len(dims)):
            raise ValueError(f"keep index {k!r} is not an integer in range for {len(dims)} subsystems")
    # Row axis i, column axis n + i; a traced subsystem's column shares its row index.
    n = len(dims)
    cols = [n + i if i in keep_idx else i for i in range(n)]
    t = np.einsum(a.reshape(a.shape[:-2] + (*dims, *dims)), [..., *range(n), *cols],
                  [..., *keep_idx, *(n + k for k in keep_idx)])
    d = math.prod(dims[k] for k in keep_idx)
    return t.reshape(a.shape[:-2] + (d, d))


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
    a = _as_square(h, "h", stack=True)
    dev = float(np.abs(a - a.conj().swapaxes(-1, -2)).max()) if a.size else 0.0
    if dev >= HERMITICITY_TOL:
        raise ValueError(f"h is not Hermitian: max deviation {dev:.3e}")
    return np.linalg.eigvalsh(a)


def trace_norm_hermitian(h: np.ndarray) -> float | np.ndarray:
    """Sum of absolute eigenvalues of a Hermitian matrix (float) or (..., d, d) stack (array)."""
    return _scalar_or_stack(np.abs(hermitian_eigenvalues(h)).sum(axis=-1))
