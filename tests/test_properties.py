"""Hypothesis properties of the collision unitary, the fresh-ancilla map, the partial trace
and the stack-aware metrics."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import dynamics, metrics, model, qmat

PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)

# Interaction probabilities, with the ends of [0, 1] and the values next to them.
unit_floats = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1 - 2 ** -53]))

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
@given(register_pair=registers_and_pairs, ps=st.lists(unit_floats, min_size=1, max_size=8), data=st.data())
def test_collision_unitary_is_unitary(register_pair, ps, data):
    # A p grid builds the stack of its values' matrices, each bit for bit (signs of zero
    # too) the matrix of that p alone, and names its first value outside [0, 1].
    n, pair = register_pair
    us = model.pair_collision_unitary(n, pair, ps)
    assert us.shape == (len(ps), 2 ** n, 2 ** n)
    for u, p in zip(us, ps):
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2 ** n), rtol=0.0, atol=1e-14)
        assert u.tobytes() == model.pair_collision_unitary(n, pair, p).tobytes()
    bad = data.draw(st.lists(st.floats().filter(lambda x: not 0.0 <= x <= 1.0), min_size=1, max_size=2))
    at = data.draw(st.integers(0, len(ps)))
    with pytest.raises(ValueError, match=f"got {re.escape(str(bad[0]))}$"):
        model.pair_collision_unitary(n, pair, ps[:at] + bad + ps[at:])


@PROPERTY
@given(rho=qubit_states, sigma=qubit_states, p=st.floats(0.0, 1.0), w_g=st.floats(0.0, 1.0))
def test_fresh_ancilla_map_never_raises_the_trace_distance(rho, sigma, p, w_g):
    # The BLP contraction: a CPTP map cannot make two states more distinguishable.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # w_g < 0.5 is a negative-temperature ancilla
        ancilla = model.ThermalAncilla(w_g)
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
        ancilla = model.ThermalAncilla(w_g)
    u = model.pair_collision_unitary(2, (0, 1), p)
    joint = u @ np.kron(rho, model.thermal_density(ancilla)) @ u.conj().T
    np.testing.assert_allclose(
        dynamics.markovian_step(rho, p, ancilla),
        qmat.partial_trace(joint, keep=0),
        rtol=0.0, atol=1e-12,
    )


@pytest.mark.parametrize("n, keep", [
    (n, keep) for n in range(1, 5) for size in range(1, n + 1) for keep in itertools.combinations(range(n), size)
])
def test_partial_trace_one_subsystem_at_a_time(n, keep):
    # Every non-empty keep set of 1-4 qubits, tracing the others out one at a time in every order.
    rho = random_densities(np.random.default_rng([n, *keep]), (), 2 ** n)
    for order in itertools.permutations([k for k in range(n) if k not in keep]):
        remaining, stepwise = list(range(n)), rho
        for k in order:
            position = remaining.index(k)
            others = [i for i in range(len(remaining)) if i != position]
            stepwise = qmat.partial_trace(stepwise, keep=others)
            remaining.remove(k)
        np.testing.assert_allclose(stepwise, qmat.partial_trace(rho, keep=keep), rtol=0.0, atol=1e-14)


# Each stack-aware function as a function of two stacks of n-qubit density matrices
# of shape (..., 2**n, 2**n), and whether it maps a matrix to a float.
STACK_AWARE = {
    "l1_coherence": (lambda r, s: metrics.l1_coherence(r), True),
    "trace_distance": (lambda r, s: metrics.trace_distance(r, s), True),
    "negativity": (lambda r, s: metrics.negativity(r), True),
    "trace_norm_hermitian": (lambda r, s: qmat.trace_norm_hermitian(r - s), True),
    "hermitian_eigenvalues": (lambda r, s: qmat.hermitian_eigenvalues(r - s), False),
    "partial_transpose": (lambda r, s: qmat.partial_transpose(r), False),
    "markovian_step": (lambda r, s: dynamics.markovian_step(r, 0.35, model.ThermalAncilla(0.8)), False),
}
# Functions of single-qubit states, which are drawn with n = 1 only.
QUBIT_ONLY = {"markovian_step"}


def random_densities(rng, shape, dim):
    m = rng.normal(size=shape + (dim, dim)) + 1j * rng.normal(size=shape + (dim, dim))
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]


def per_axis_partial_trace(rho, n, keep):
    """Oracle: trace the traced axes of the (2,) * 2n reshape one at a time with np.trace."""
    t = rho.reshape((2,) * (2 * n))
    traced = [i for i in range(n) if i not in keep]
    for done, idx in enumerate(reversed(traced)):  # last first, so earlier axes keep their place
        t = np.trace(t, axis1=idx, axis2=idx + n - done)
    return t.reshape(2 ** len(keep), 2 ** len(keep))


@PROPERTY
@given(
    data=st.data(),
    n=st.integers(1, 4),
    shape=st.lists(st.integers(0, 3), max_size=3).map(tuple),
    real=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_partial_trace_of_a_stack_is_the_trace_of_each_matrix(data, n, shape, real, seed):
    rho = random_densities(np.random.default_rng(seed), shape, 2 ** n)
    rho = rho.real if real else rho
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    stacked = qmat.partial_trace(rho, keep)
    assert stacked.shape == shape + (2 ** len(keep),) * 2
    for idx in np.ndindex(*shape):
        single = qmat.partial_trace(rho[idx], keep)
        assert stacked[idx].dtype == single.dtype
        assert stacked[idx].tobytes() == single.tobytes()
        np.testing.assert_allclose(
            single, per_axis_partial_trace(rho[idx], n, keep), rtol=0.0, atol=1e-15
        )


@PROPERTY
@given(
    name=st.sampled_from(sorted(STACK_AWARE)),
    n=st.integers(1, 4),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_stacked_call_equals_the_calls_on_each_matrix(name, n, shape, seed):
    function, scalar = STACK_AWARE[name]
    if name in QUBIT_ONLY:
        n = 1
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    r, s = random_densities(rng, shape, dim), random_densities(rng, shape, dim)
    singles = [function(a, b) for a, b in zip(r.reshape(-1, dim, dim), s.reshape(-1, dim, dim))]
    if scalar:
        assert all(type(x) is float for x in singles)
    stacked = function(r, s)
    assert isinstance(stacked, np.ndarray)
    assert stacked.shape[:len(shape)] == shape
    expected = np.reshape(singles, stacked.shape)
    assert stacked.dtype == expected.dtype
    assert stacked.tobytes() == expected.tobytes()


# |+>, or cos(theta)|g> + b|e> with b = sin(theta) real or e^(i phi) sin(theta) complex.
mirrored_qubits = st.one_of(
    st.just(dynamics.SUPERPOSITION_PLUS),
    st.builds(lambda theta, phase: model.PureQubit(math.cos(theta), phase * math.sin(theta)),
              st.floats(0.0, math.pi / 2),
              st.one_of(st.sampled_from([1.0, -1.0]),
                        st.floats(0.0, 2 * math.pi).map(lambda phi: complex(np.exp(1j * phi))))),
)


@PROPERTY
@given(n_ancillas=st.integers(1, 3), p=st.floats(0.0, 1.0), w_g=st.floats(0.5, 1.0),
       seed=st.integers(0, 2 ** 63 - 1), system_ancilla_only=st.booleans(), n_collisions=st.integers(1, 200),
       psi=mirrored_qubits)
def test_minus_register_is_the_parity_mirror_of_the_plus_register(
    n_ancillas, p, w_g, seed, system_ancilla_only, n_collisions, psi
):
    # The parity P = diag((-1)^popcount) commutes with every collision unitary, which conserves the
    # excitation number, and fixes every diagonal ancilla. P only flips signs, and a unitary entry is
    # zero wherever its row's and column's signs differ, so rho_Zpsi = P rho_psi P holds exactly in
    # floating point (a zero entry may differ in sign); the pair's trace distance is then 2|rho_S,01|,
    # the system coherence. For psi = |+>, Z psi is |->. So a lone run, which reads its trace distance
    # from its parity mirror, records the pair run's columns as floats, in the fresh-ancilla limit
    # too. w_g stays at or above 1/2, where the ancilla does not warn.
    n_qubits = 1 + n_ancillas
    if n_ancillas == 1:
        schedule = dynamics.repeated_schedule(n_collisions)
    else:
        schedule = dynamics.random_schedule(n_qubits, n_collisions, seed,
                                            system_ancilla_only=system_ancilla_only)
    ancilla = model.ThermalAncilla(w_g)
    pair = (psi, model.PureQubit(psi.a, -psi.b))
    traj = dynamics.run_trajectory(pair, ancilla, p, schedule)
    rho, mirror = traj.final_registers
    parity = (-1.0) ** np.array([bin(k).count("1") for k in range(2 ** n_qubits)])
    np.testing.assert_array_equal(parity[:, np.newaxis] * rho * parity, mirror)
    assert np.abs(traj.columns["coherence_a"] - traj.columns["trace_distance"]).max() <= 1e-15
    for lone, paired in [(dynamics.run_trajectory(psi, ancilla, p, schedule), traj),
                         (dynamics.markovian_trajectory(psi, p, ancilla, n_collisions),
                          dynamics.markovian_trajectory(pair, p, ancilla, n_collisions))]:
        assert [(name, c.tolist()) for name, c in lone.columns.items()] == [
            (name, c.tolist()) for name, c in paired.columns.items()]
        assert len(lone.final_registers) == 1
        np.testing.assert_array_equal(lone.final_registers[0], paired.final_registers[0])
