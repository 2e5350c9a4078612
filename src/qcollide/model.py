"""States and collision unitaries for registers of 2 to 4 qubits.

Qubit 0 is the system of interest; the remaining qubits are thermal
environment ancillas. Basis ordering is big-endian over the qubit list
(qubit 0 is the most significant bit, with ground=0 and excited=1).
"""

from __future__ import annotations

import math
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
    """Diagonal single-qubit thermal state with ground/excited weights."""

    w_g: float
    w_e: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.w_g <= 1.0 and 0.0 <= self.w_e <= 1.0):
            raise ValueError(f"weights must lie in [0, 1], got ({self.w_g}, {self.w_e})")
        if abs(self.w_g + self.w_e - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"weights must sum to 1, got {self.w_g + self.w_e!r}")
        if self.w_e > self.w_g:
            warnings.warn(
                "ancilla has inverted populations (w_e > w_g), i.e. negative temperature",
                stacklevel=3,
            )


@dataclass(frozen=True)
class CollisionUnitary:
    """Unitary acting on a register, coupling one qubit pair with strength p."""

    matrix: np.ndarray
    pair: tuple[int, int]
    p: float
    n_qubits: int


def pure_qubit_density(q: PureQubit) -> np.ndarray:
    """Rank-1 projector of a pure qubit; entry (0, 1) is a * conj(b)."""
    vec = qmat.as_array([q.a, q.b])
    return np.outer(vec, vec.conj())


def thermal_density(t: ThermalAncilla) -> np.ndarray:
    return np.diag(qmat.as_array([t.w_g, t.w_e]))


def check_pair(n_qubits: int, pair) -> tuple[int, int]:
    """``pair`` as ints (i, j) if they are integers 0 <= i < j < n_qubits, n_qubits 2..4."""
    if not (isinstance(n_qubits, (int, np.integer)) and 2 <= n_qubits <= 4):
        raise ValueError(f"n_qubits must be 2..4, got {n_qubits!r}")
    ints = (int, np.integer)
    i, j = pair if np.iterable(pair) and len(pair) == 2 else (None, None)
    if not (isinstance(i, ints) and isinstance(j, ints) and 0 <= i < j < n_qubits):
        raise ValueError(f"pair {pair} invalid for {n_qubits} qubits (need 0 <= i < j < n)")
    return int(i), int(j)


def pair_collision_unitary(n_qubits: int, pair: tuple[int, int], p: float) -> CollisionUnitary:
    """Build the excitation-exchange collision unitary for one qubit pair.

    Basis states where the pair is doubly ground or doubly excited are left
    fixed, as are all spectator qubits. A single excitation within the pair
    hops to the other qubit with amplitude sqrt(p) and stays with amplitude
    sqrt(1-p); the hop sourced from the higher-indexed qubit of the pair
    carries a minus sign, its reverse a plus sign, making the matrix real
    orthogonal.
    """
    i, j = check_pair(n_qubits, pair)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"interaction probability must lie in [0, 1], got {p}")
    bit_i, bit_j = 1 << (n_qubits - 1 - i), 1 << (n_qubits - 1 - j)
    stay, hop = math.sqrt(1.0 - p), math.sqrt(p)
    m = np.arange(2 ** n_qubits)
    exc_i, exc_j = (m & bit_i) != 0, (m & bit_j) != 0
    singles = m[exc_i != exc_j]  # basis states with one excitation in the pair
    u = np.zeros((len(m), len(m)))
    u[m, m] = np.where(exc_i != exc_j, stay, 1.0)
    u[singles ^ bit_i ^ bit_j, singles] = np.where(exc_j[singles], -hop, hop)
    return CollisionUnitary(matrix=u, pair=(i, j), p=float(p), n_qubits=n_qubits)


def composite_initial(system: PureQubit, ancillas: list[ThermalAncilla] | tuple[ThermalAncilla, ...]) -> np.ndarray:
    """Uncorrelated initial density matrix: system state tensored with each ancilla in order."""
    ancillas = tuple(ancillas)
    if not 1 <= len(ancillas) <= 3:
        raise ValueError(f"need 1 to 3 ancillas, got {len(ancillas)}")
    rho = pure_qubit_density(system)
    for anc in ancillas:
        rho = qmat.kron(rho, thermal_density(anc))
    return rho
