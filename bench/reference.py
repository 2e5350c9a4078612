"""Independent numpy reference for collision runs, used by the correctness gate.

Nothing here imports qcollide. Unitaries are assembled with ``np.kron`` from
the rule stated in ``qcollide.model.pair_collision_unitary``'s docstring:
inside the pair, |gg> and |ee> are fixed, a single excitation stays with
amplitude sqrt(1-p) and hops with amplitude sqrt(p), and the hop sourced from
the higher-indexed qubit carries the minus sign. Spectators are untouched.
Trace norms come from ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Single-qubit operators in the (|g>, |e>) basis.
_PG = np.array([[1.0, 0.0], [0.0, 0.0]])
_PE = np.array([[0.0, 0.0], [0.0, 1.0]])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|
_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|

PLUS = np.full((2, 2), 0.5)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])


def _embed(n_qubits: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    out = np.ones((1, 1))
    for q in range(n_qubits):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def collision_unitary(n_qubits: int, i: int, j: int, p: float) -> np.ndarray:
    s, h = math.sqrt(1.0 - p), math.sqrt(p)
    terms = (
        (1.0, _PG, _PG), (1.0, _PE, _PE),
        (s, _PG, _PE), (s, _PE, _PG),
        # |e_i g_j> -> +h |g_i e_j>, and |g_i e_j> -> -h |e_i g_j>.
        (h, _LOWER, _RAISE), (-h, _RAISE, _LOWER),
    )
    return sum(c * _embed(n_qubits, {i: a, j: b}) for c, a, b in terms)


def initial_pair(w_g: float, n_ancillas: int) -> np.ndarray:
    """The plus and minus system copies, each tensored with the thermal ancillas."""
    anc = np.diag([w_g, 1.0 - w_g])
    out = []
    for sys_state in (PLUS, MINUS):
        rho = sys_state
        for _ in range(n_ancillas):
            rho = np.kron(rho, anc)
        out.append(rho)
    return np.stack(out)


def reduce_to(rho: np.ndarray, n_qubits: int, keep: int) -> np.ndarray:
    """Reduced 2x2 state of qubit ``keep``; leading axes of ``rho`` are batch axes."""
    left, right = 2 ** keep, 2 ** (n_qubits - 1 - keep)
    t = rho.reshape(rho.shape[:-2] + (left, 2, right, left, 2, right))
    return np.einsum("...aibajb->...ij", t)


def random_schedule(seed: int, n_collisions: int, n_qubits: int = 4) -> list[tuple[int, int]]:
    """The documented schedule draw: uniform over all pairs from default_rng(seed)."""
    pairs = list(itertools.combinations(range(n_qubits), 2))
    idx = np.random.default_rng(seed).integers(0, len(pairs), size=n_collisions)
    return [pairs[k] for k in idx]


def run_pair(p: float, w_g: float, n_ancillas: int, events) -> dict[str, np.ndarray]:
    """Evolve both copies under ``events``; return the emitted metric series."""
    nq = 1 + n_ancillas
    rho = initial_pair(w_g, n_ancillas)
    cache: dict[tuple[int, int], np.ndarray] = {}
    states = [rho]
    for pair in events:
        u = cache.get(pair)
        if u is None:
            u = cache[pair] = collision_unitary(nq, pair[0], pair[1], p)
        rho = u @ rho @ u.T
        states.append(rho)
    path = np.stack(states)  # (steps, copy, d, d)
    sys_a = reduce_to(path, nq, 0)
    out = {
        "coherence_A": 2.0 * np.abs(sys_a[:, 0, 0, 1]),
        "trace_distance": 0.5 * np.abs(np.linalg.eigvalsh(sys_a[:, 0] - sys_a[:, 1])).sum(axis=1),
    }
    if nq == 2:
        env = reduce_to(path[:, 0], nq, 1)
        out["coherence_env"] = 2.0 * np.abs(env[:, 0, 1])
        # Partial transpose on the system factor of the 4x4 plus-copy register.
        pt = path[:, 0].reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(-1, 4, 4)
        lam = np.linalg.eigvalsh(pt)
        out["negativity"] = np.maximum(0.0, -np.where(lam < 0, lam, 0.0).sum(axis=1))
    return out
