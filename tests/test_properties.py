"""Hypothesis properties of the collision unitary, the fresh-ancilla map and the partial trace."""

import itertools
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import dynamics, metrics, model, qmat

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


@PROPERTY
@given(rho=qubit_states, p=st.floats(0.0, 1.0), w_g=st.floats(0.0, 1.0))
def test_fresh_ancilla_map_is_the_reduced_collision(rho, p, w_g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # w_g < 0.5 is a negative-temperature ancilla
        ancilla = model.ThermalAncilla(w_g, 1.0 - w_g)
    u = model.pair_collision_unitary(2, (0, 1), p).matrix
    joint = u @ np.kron(rho, model.thermal_density(ancilla)) @ u.conj().T
    np.testing.assert_allclose(
        dynamics.markovian_step(rho, p, ancilla),
        qmat.partial_trace(joint, [2, 2], keep=0),
        rtol=0.0, atol=1e-12,
    )


@PROPERTY
@given(data=st.data(), n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_partial_trace_one_subsystem_at_a_time(data, n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    order = data.draw(st.permutations([k for k in range(n) if k not in keep]))
    remaining, stepwise = list(range(n)), rho
    for k in order:
        position = remaining.index(k)
        others = [i for i in range(len(remaining)) if i != position]
        stepwise = qmat.partial_trace(stepwise, [2] * len(remaining), keep=others)
        remaining.remove(k)
    np.testing.assert_allclose(
        stepwise, qmat.partial_trace(rho, [2] * n, keep=keep), rtol=0.0, atol=1e-14
    )
