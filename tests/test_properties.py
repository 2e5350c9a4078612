"""Hypothesis properties of the collision unitary, the fresh-ancilla map, the partial trace
and the stack-aware metrics."""

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


# Each stack-aware function as a function of two stacks of density matrices
# of shape (..., da * db, da * db), and whether it maps a matrix to a float.
STACK_AWARE = {
    "l1_coherence": (lambda r, s, dims: metrics.l1_coherence(r), True),
    "trace_distance": (lambda r, s, dims: metrics.trace_distance(r, s), True),
    "negativity": (lambda r, s, dims: metrics.negativity(r, dims), True),
    "trace_norm_hermitian": (lambda r, s, dims: qmat.trace_norm_hermitian(r - s), True),
    "hermitian_eigenvalues": (lambda r, s, dims: qmat.hermitian_eigenvalues(r - s), False),
    "partial_transpose": (lambda r, s, dims: qmat.partial_transpose(r, dims), False),
    "markovian_step": (
        lambda r, s, dims: dynamics.markovian_step(r, 0.35, model.ThermalAncilla(0.8, 0.2)), False
    ),
}
# Functions of single-qubit states, which are drawn with dims (1, 2) only.
QUBIT_ONLY = {"markovian_step"}


def random_densities(rng, shape, dim):
    m = rng.normal(size=shape + (dim, dim)) + 1j * rng.normal(size=shape + (dim, dim))
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]


def per_axis_partial_trace(rho, dims, keep):
    """Oracle: trace the traced axes of the (*dims, *dims) reshape one at a time with np.trace."""
    n = len(dims)
    t = rho.reshape(list(dims) * 2)
    traced = [i for i in range(n) if i not in keep]
    for done, idx in enumerate(reversed(traced)):  # last first, so earlier axes keep their place
        t = np.trace(t, axis1=idx, axis2=idx + n - done)
    d = math.prod(dims[k] for k in keep)
    return t.reshape(d, d)


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
    stacked = qmat.partial_trace(rho, [2] * n, keep)
    assert stacked.shape == shape + (2 ** len(keep),) * 2
    for idx in np.ndindex(*shape):
        single = qmat.partial_trace(rho[idx], [2] * n, keep)
        assert stacked[idx].dtype == single.dtype
        assert stacked[idx].tobytes() == single.tobytes()
        np.testing.assert_allclose(
            single, per_axis_partial_trace(rho[idx], [2] * n, keep), rtol=0.0, atol=1e-15
        )


@PROPERTY
@given(
    name=st.sampled_from(sorted(STACK_AWARE)),
    dims=st.sampled_from([(1, 2), (2, 2), (2, 4), (4, 2), (2, 8), (4, 4)]),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_stacked_call_equals_the_calls_on_each_matrix(name, dims, shape, seed):
    function, scalar = STACK_AWARE[name]
    if name in QUBIT_ONLY:
        dims = (1, 2)
    rng = np.random.default_rng(seed)
    dim = dims[0] * dims[1]
    r, s = random_densities(rng, shape, dim), random_densities(rng, shape, dim)
    singles = [function(a, b, dims) for a, b in zip(r.reshape(-1, dim, dim), s.reshape(-1, dim, dim))]
    if scalar:
        assert all(type(x) is float for x in singles)
    stacked = function(r, s, dims)
    assert isinstance(stacked, np.ndarray)
    assert stacked.shape[:len(shape)] == shape
    expected = np.reshape(singles, stacked.shape)
    assert stacked.dtype == expected.dtype
    assert stacked.tobytes() == expected.tobytes()
