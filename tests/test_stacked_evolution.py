"""The stacked run_trajectory against a per-copy loop of the public collide."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import dynamics, metrics, model, qmat

TOL = 1e-13


def per_copy_run(states, ancillas, p, schedule):
    """One Register per copy, one collide and one check_register per copy and step."""
    registers = [model.composite_initial(s, ancillas) for s in states]
    dims = [2] * registers[0].n_qubits

    def record(n):
        rho_a = qmat.partial_trace(registers[0].rho, dims, keep=0)
        rec = {
            "n": n,
            "coherence_a": metrics.l1_coherence(rho_a),
            "rho_a_diag": (rho_a[0, 0].real, rho_a[1, 1].real),
        }
        if len(dims) == 2:
            rho_env = qmat.partial_trace(registers[0].rho, dims, keep=1)
            rec["coherence_env"] = metrics.l1_coherence(rho_env)
            rec["negativity"] = metrics.negativity(registers[0].rho, (2, 2))
        if len(registers) == 2:
            other = qmat.partial_trace(registers[1].rho, dims, keep=0)
            rec["trace_distance"] = metrics.trace_distance(rho_a, other)
        return dynamics.StepRecord(**rec)

    records = [record(0)]
    for n, pair in enumerate(schedule.events, start=1):
        registers = [dynamics.collide(r, pair, p) for r in registers]
        for r in registers:
            dynamics.check_register(r)
        records.append(record(n))
    return records, registers


def assert_close(got, want):
    if want is None:
        assert got is None
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w)
    else:
        assert abs(got - want) <= TOL, (got, want)


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
    want_steps, want_registers = per_copy_run(states, ancillas, p, schedule)

    assert len(traj.steps) == len(want_steps)
    for got, want in zip(traj.steps, want_steps):
        assert got.n == want.n
        for field in ("coherence_a", "rho_a_diag", "coherence_env", "negativity", "trace_distance"):
            assert_close(getattr(got, field), getattr(want, field))
    assert len(traj.final_registers) == len(want_registers)
    for got, want in zip(traj.final_registers, want_registers):
        assert (got.n_qubits, got.labels) == (want.n_qubits, want.labels)
        np.testing.assert_allclose(got.rho, want.rho, rtol=0.0, atol=TOL)
