"""Steppers and a check for tests, outside the library.

``collide`` applies one collision to one register and ``violation`` checks
one matrix with the run loop's own check; the tests that step or check a
single register use them.

``purified_run`` is an oracle that shares no stepping code with the library.
A thermal register is the mixture, with weight w_b, of the 2**k pure states
|psi>|b> over the ancilla bit strings b. A collision of the pair (i, j)
leaves |00> and |11> on the pair alone and rotates the amplitudes (a, b) of
the pair's states |10> and |01> to (c a - s b, s a + c b), with c = sqrt(1-p)
and s = sqrt(p): the hop from the higher-indexed qubit carries the minus
sign. No unitary is built, and the columns are read off with plain numpy,
the one-ancilla ones by ``closed_form.py``'s readers.
"""

import itertools
import math

import numpy as np

import closed_form
from qcollide import dynamics


def collide(rho, pair, p):
    """One collision of the (2**n, 2**n) register ``rho``, with no check.

    The unitary comes through ``dynamics``' own name for its builder, so a
    test that patches that name steps this register with the patched matrix.
    """
    u = dynamics.pair_collision_unitary(len(rho).bit_length() - 1, pair, p)
    return u @ rho @ u.T


def violation(rho):
    """The message of the first invariant that the matrix ``rho`` breaks, or None."""
    found = dynamics._first_violation(np.asarray(rho)[np.newaxis])
    return None if found is None else found[1]


def _branches(a, b, ancillas):
    """Weights (2**k,) and amplitudes (2**k, 2, ..., 2) of the pure branches of the
    register of the system state a|0> + b|1>."""
    k = len(ancillas)
    weights = np.array([math.prod(w) for w in itertools.product(*((t.w_g, t.w_e) for t in ancillas))])
    amps = np.zeros((2 ** k, 2, 2 ** k), dtype=np.result_type(a, b, float))
    amps[np.arange(2 ** k), :, np.arange(2 ** k)] = a, b
    return weights, amps.reshape((2 ** k,) + (2,) * (1 + k))


def _rotate(amps, pair, p):
    i, j = pair
    at = [slice(None)] * amps.ndim
    at[1 + i], at[1 + j] = 1, 0
    on_i = tuple(at)
    at[1 + i], at[1 + j] = 0, 1
    on_j = tuple(at)
    c, s = math.sqrt(1.0 - p), math.sqrt(p)
    a, b = amps[on_i].copy(), amps[on_j].copy()
    amps[on_i], amps[on_j] = c * a - s * b, s * a + c * b


def _register(weights, amps):
    flat = amps.reshape(len(weights), -1)
    return np.einsum("b,bi,bj->ij", weights, flat, flat.conj())


def _system(weights, amps):
    m = amps.reshape(len(weights), 2, -1)
    return np.einsum("b,bik,bjk->ij", weights, m, m.conj())


def _trace_distance(rho, sigma):
    # Half the eigenvalue spread of the 2x2 Hermitian difference, whose trace is zero.
    d = rho - sigma
    return math.hypot(0.5 * (d[0, 0] - d[1, 1]).real, abs(d[0, 1]))


def purified_run(states, ancillas, p, schedule):
    """``run_trajectory``'s columns and final registers, stepped on the pure branches.

    A lone state steps its parity mirror Z|psi> as the partner of its trace
    distance; the mirror's final register is not returned.
    """
    partners = [(s.a, s.b) for s in states]
    if len(states) == 1:
        partners.append((states[0].a, -states[0].b))
    copies = [_branches(a, b, ancillas) for a, b in partners]
    columns = {}

    def record():
        rho_a = _system(*copies[0])
        rec = {"coherence_a": 2.0 * abs(rho_a[0, 1])}
        if len(ancillas) == 1:
            rho = _register(*copies[0])
            rec["coherence_env"] = 2.0 * abs(closed_form.ancilla_state(rho)[0, 1])
            rec["negativity"] = closed_form.negativity(rho)
        rec["trace_distance"] = _trace_distance(rho_a, _system(*copies[1]))
        for name, value in rec.items():
            columns.setdefault(name, []).append(value)

    record()
    for pair in map(schedule.pairs.__getitem__, schedule.index):
        for _, amps in copies:
            _rotate(amps, pair, p)
        record()
    return columns, [_register(*copy) for copy in copies[:len(states)]]
