"""The one-ancilla collision run in closed form, an oracle that steps no collision.

A collision of the pair (0, 1) leaves |00> and |11> alone and rotates the
one-excitation subspace by theta = arccos sqrt(1 - p). With the hop signs of
``model.pair_collision_unitary`` (system qubit first, basis |00>, |01>, |10>,
|11>), U|10> = cos(theta)|10> + sin(theta)|01> and
U|01> = cos(theta)|01> - sin(theta)|10>. Starting from the system state
a|0> + b|1> next to the thermal ancilla w_g|0><0| + w_e|1><1|, the register
after n collisions is

    rho_n = w_g |phi1><phi1| + w_e |phi2><phi2|,
    phi1 = a|00> + b (cos(n theta)|10> + sin(n theta)|01>),
    phi2 = a (cos(n theta)|01> - sin(n theta)|10>) + b|11>.

Every value here comes from n * theta directly, and the columns are read off
rho_n with plain numpy, so neither the stepping kernel nor ``qcollide.metrics``
is involved.
"""

import numpy as np

AMPLITUDE = 2 ** -0.5  # |+> = (a, a) and |-> = (a, -a)


def theta(p):
    """arccos sqrt(1 - p), computed without arccos's loss of precision near p = 0."""
    return np.arctan2(np.sqrt(p), np.sqrt(1.0 - p))


def register(a, b, w_g, p, n):
    """rho_n for each collision count in ``n``: an array of shape ``np.shape(n) + (4, 4)``."""
    angle = np.asarray(n, dtype=float) * theta(p)
    cos, sin, zero = np.cos(angle), np.sin(angle), np.zeros(np.shape(angle))
    phi1 = np.stack([zero + a, b * sin, b * cos, zero], axis=-1)
    phi2 = np.stack([zero, a * cos, -a * sin, zero + b], axis=-1)
    return w_g * _projector(phi1) + (1.0 - w_g) * _projector(phi2)


def _projector(phi):
    return phi[..., :, np.newaxis] * phi[..., np.newaxis, :].conj()


def system_state(rho):
    return np.trace(rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)), axis1=-3, axis2=-1)


def ancilla_state(rho):
    return np.trace(rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)), axis1=-4, axis2=-2)


def negativity(rho):
    """Minus the sum of the negative eigenvalues of rho's partial transpose on the system."""
    pt = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(rho.shape)
    return -np.minimum(np.linalg.eigvalsh(pt), 0.0).sum(axis=-1)


def columns(w_g, p, n_collisions):
    """The CLI's one-ancilla columns of the pair |+>, |->, for n = 0 .. n_collisions.

    ``coherence_a``, ``coherence_env`` and ``negativity`` are of the |+> copy,
    ``trace_distance`` is between the two copies' system states.
    """
    n = np.arange(n_collisions + 1)
    plus = register(AMPLITUDE, AMPLITUDE, w_g, p, n)
    minus = register(AMPLITUDE, -AMPLITUDE, w_g, p, n)
    gap = np.linalg.eigvalsh(system_state(plus) - system_state(minus))
    return {
        "coherence_a": 2.0 * np.abs(system_state(plus)[:, 0, 1]),
        "coherence_env": 2.0 * np.abs(ancilla_state(plus)[:, 0, 1]),
        "negativity": negativity(plus),
        "trace_distance": 0.5 * np.abs(gap).sum(axis=-1),
    }


def tolerance(n):
    """Allowed gap after n stepped collisions: each step rounds by about one ulp."""
    return 1e-12 + 1e-14 * np.asarray(n, dtype=float)
