"""The stacked run_trajectory against a per-copy loop of the public collide."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import dynamics, metrics, model, qmat

TOL = 1e-13


def per_copy_run(states, ancillas, p, schedule):
    """One register per copy, one collide and one check_register per copy and step."""
    registers = [model.composite_initial(s, ancillas) for s in states]
    dims = [2] * (1 + len(ancillas))
    columns = {}

    def record():
        rho_a = qmat.partial_trace(registers[0], dims, keep=0)
        rec = {"coherence_a": metrics.l1_coherence(rho_a)}
        if len(dims) == 2:
            rho_env = qmat.partial_trace(registers[0], dims, keep=1)
            rec["coherence_env"] = metrics.l1_coherence(rho_env)
            rec["negativity"] = metrics.negativity(registers[0], (2, 2))
        if len(registers) == 2:
            other = qmat.partial_trace(registers[1], dims, keep=0)
            rec["trace_distance"] = metrics.trace_distance(rho_a, other)
        for name, value in rec.items():
            columns.setdefault(name, []).append(value)

    record()
    for pair in map(schedule.pairs.__getitem__, schedule.index):
        registers = [dynamics.collide(r, pair, p) for r in registers]
        for r in registers:
            dynamics.check_register(r)
        record()
    return columns, registers


qubits = st.builds(
    lambda theta, phi: model.PureQubit(math.cos(theta), complex(np.exp(1j * phi)) * math.sin(theta)),
    st.floats(0.0, math.pi / 2),
    st.floats(0.0, 2 * math.pi),
)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.0, 1.0),
    w_g=st.floats(0.0, 1.0),
    n_ancillas=st.integers(1, 3),
    seed=st.integers(0, 2 ** 63 - 1),
    n_collisions=st.integers(1, 25),
    system_ancilla_only=st.booleans(),
    states=st.one_of(
        st.just((dynamics.SUPERPOSITION_PLUS, dynamics.SUPERPOSITION_MINUS)),
        st.tuples(qubits, qubits),
        st.tuples(qubits),
    ),
)
def test_stacked_run_matches_per_copy_collide(
    p, w_g, n_ancillas, seed, n_collisions, system_ancilla_only, states
):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # w_g < 0.5 is a negative-temperature ancilla
        ancillas = [model.ThermalAncilla(w_g, 1.0 - w_g)] * n_ancillas
    if n_ancillas == 1:
        schedule = dynamics.repeated_schedule(2, (0, 1), n_collisions)
    else:
        schedule = dynamics.random_schedule(
            1 + n_ancillas, n_collisions, seed, system_ancilla_only=system_ancilla_only
        )
    traj = dynamics.run_trajectory(states, ancillas, p, schedule)
    want_columns, want_registers = per_copy_run(states, ancillas, p, schedule)

    assert set(traj.columns) == set(want_columns)
    for field, want in want_columns.items():
        assert len(traj.columns[field]) == len(want) == len(schedule) + 1
        for got_value, want_value in zip(traj.columns[field], want):
            assert abs(got_value - want_value) <= TOL, (got_value, want_value)
    assert len(traj.final_registers) == len(want_registers)
    for got, want in zip(traj.final_registers, want_registers):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)
