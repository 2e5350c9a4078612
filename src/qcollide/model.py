"""States and collision unitaries for registers of 2 to 4 qubits.

Qubit 0 is the system of interest; the remaining qubits are thermal
environment ancillas. Basis ordering is big-endian over the qubit list
(qubit 0 is the most significant bit, with ground=0 and excited=1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import qmat

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class PureQubit:
    """Single-qubit pure state a|g> + b|e>."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"pure state is not normalized: |a|^2+|b|^2 = {norm!r}")


@dataclass(frozen=True)
class ThermalAncilla:
    """Diagonal single-qubit thermal state of ground weight ``w_g``; ``w_e`` is ``1 - w_g``."""

    w_g: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.w_g <= 1.0:
            raise ValueError(f"w_g must lie in [0, 1], got {self.w_g}")
        if self.w_e > self.w_g:
            warnings.warn(
                "ancilla has inverted populations (w_e > w_g), i.e. negative temperature",
                stacklevel=3,
            )

    @property
    def w_e(self) -> float:
        return 1.0 - self.w_g


def pure_qubit_density(q: PureQubit) -> np.ndarray:
    """Rank-1 projector of a pure qubit; entry (0, 1) is a * conj(b)."""
    vec = qmat.as_array([q.a, q.b])
    return np.outer(vec, vec.conj())


def thermal_density(t: ThermalAncilla) -> np.ndarray:
    return np.diag(qmat.as_array([t.w_g, t.w_e]))


def check_pair(n_qubits: int, pair) -> tuple[int, int]:
    """``pair`` as ints (i, j) if they are integers 0 <= i < j < n_qubits, n_qubits 2..4."""
    if not (qmat.is_integer(n_qubits) and 2 <= n_qubits <= 4):
        raise ValueError(f"n_qubits must be 2..4, got {n_qubits!r}")
    i, j = pair if np.iterable(pair) and len(pair) == 2 else (None, None)
    if not (qmat.is_integer(i) and qmat.is_integer(j) and 0 <= i < j < n_qubits):
        raise ValueError(f"pair {pair} invalid for {n_qubits} qubits (need 0 <= i < j < n)")
    return int(i), int(j)


def pair_collision_unitary(n_qubits: int, pair: tuple[int, int], p) -> np.ndarray:
    """Build the real orthogonal excitation-exchange collision unitary for one qubit pair.

    Basis states where the pair is doubly ground or doubly excited are left
    fixed, as are all spectator qubits. A single excitation within the pair
    hops to the other qubit with amplitude sqrt(p) and stays with amplitude
    sqrt(1-p); the hop sourced from the higher-indexed qubit of the pair
    carries a minus sign, its reverse a plus sign, making the matrix real
    orthogonal. An array of p gives the stack of their matrices, of shape
    ``p.shape + (d, d)``, each bit for bit the matrix of that p alone.
    """
    i, j = check_pair(n_qubits, pair)
    ps = np.asarray(p, dtype=float)
    bad = ps[~((0.0 <= ps) & (ps <= 1.0))]
    if bad.size:
        raise ValueError(f"interaction probability must lie in [0, 1], got {p if ps.ndim == 0 else bad[0]}")
    bit_i, bit_j = 1 << (n_qubits - 1 - i), 1 << (n_qubits - 1 - j)
    stay, hop = np.sqrt(1.0 - ps)[..., np.newaxis], np.sqrt(ps)[..., np.newaxis]
    m = np.arange(2 ** n_qubits)
    exc_i, exc_j = (m & bit_i) != 0, (m & bit_j) != 0
    singles = m[exc_i != exc_j]  # basis states with one excitation in the pair
    u = np.zeros(ps.shape + (len(m), len(m)))
    u[..., m, m] = np.where(exc_i != exc_j, stay, 1.0)
    u[..., singles ^ bit_i ^ bit_j, singles] = np.where(exc_j[singles], -hop, hop)
    return u


def composite_initial(system: PureQubit, ancilla: ThermalAncilla, n_ancillas: int) -> np.ndarray:
    """Uncorrelated initial density matrix: the system state tensored with ``n_ancillas`` copies of ``ancilla``."""
    if not (qmat.is_integer(n_ancillas) and 1 <= n_ancillas <= 3):
        raise ValueError(f"need 1 to 3 ancillas, got {n_ancillas!r}")
    rho, anc = pure_qubit_density(system), thermal_density(ancilla)
    for _ in range(n_ancillas):
        rho = qmat.kron(rho, anc)
    return rho
