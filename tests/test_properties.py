"""Hypothesis properties of the collision unitary and the fresh-ancilla map."""

import itertools
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import dynamics, metrics, model

PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)

registers_and_pairs = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from(list(itertools.combinations(range(n), 2))))
)


def bloch_state(r, theta, phi):
    """Qubit density matrix with Bloch vector of length r at polar angles (theta, phi)."""
    x, y = r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi)
    z = r * math.cos(theta)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


qubit_states = st.builds(
    bloch_state, st.floats(0.0, 1.0), st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)
)


@PROPERTY
@given(register_pair=registers_and_pairs, p=st.floats(0.0, 1.0))
def test_collision_unitary_is_unitary(register_pair, p):
    n, pair = register_pair
    u = model.pair_collision_unitary(n, pair, p).matrix
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2 ** n), rtol=0.0, atol=1e-14)


@PROPERTY
@given(rho=qubit_states, sigma=qubit_states, p=st.floats(0.0, 1.0), w_g=st.floats(0.0, 1.0))
def test_fresh_ancilla_map_never_raises_the_trace_distance(rho, sigma, p, w_g):
    # The BLP contraction: a CPTP map cannot make two states more distinguishable.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # w_g < 0.5 is a negative-temperature ancilla
        ancilla = model.ThermalAncilla(w_g, 1.0 - w_g)
    before = metrics.trace_distance(rho, sigma)
    after = metrics.trace_distance(
        dynamics.markovian_step(rho, p, ancilla), dynamics.markovian_step(sigma, p, ancilla)
    )
    assert after <= before + 1e-12
