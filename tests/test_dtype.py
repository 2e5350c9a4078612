"""The real-or-complex dtype rule of ``qmat.as_array`` through the model and the runs.

Every array is float64 when all of its inputs are real and complex128 when
any is complex, so the CLI's runs, whose inputs are all real, step real
arrays, and a complex input makes its whole run complex through the same code.
"""

import numpy as np
import pytest

from qcollide import dynamics, metrics, model, qmat
from reference_steps import collide, violation

PLUS = dynamics.SUPERPOSITION_PLUS
MINUS = dynamics.SUPERPOSITION_MINUS
ANC = model.ThermalAncilla(0.8)
PHASED = model.PureQubit(2 ** -0.5, 2 ** -0.5 * np.exp(0.4j))
# The same states as PLUS and MINUS, written as complex numbers.
COMPLEX_PAIR = (model.PureQubit(complex(2 ** -0.5), complex(2 ** -0.5)),
                model.PureQubit(complex(2 ** -0.5), complex(-(2 ** -0.5))))


@pytest.mark.parametrize("value,dtype", [
    (np.eye(2, dtype=int), np.float64),
    (np.eye(2, dtype=bool), np.float64),
    (np.eye(2, dtype=np.float32), np.float64),
    ([[1.0, 0.5], [0.5, 0.0]], np.float64),
    (np.eye(2, dtype=np.complex64), np.complex128),
    ([[1.0, 0.5j], [-0.5j, 0.0]], np.complex128),
    (np.eye(2, dtype=complex), np.complex128),
])
def test_as_array_is_float64_when_real_and_complex128_when_complex(value, dtype):
    assert qmat.as_array(value).dtype == dtype


def test_as_array_does_not_copy_a_float64_or_complex128_array():
    for a in (np.eye(2), np.eye(2, dtype=complex)):
        assert qmat.as_array(a) is a


def schedules():
    return [dynamics.repeated_schedule(2, (0, 1), 30), dynamics.random_schedule(4, 30, seed=5)]


class TestRealInputsStayReal:
    def test_unitary_is_real(self):
        for n_qubits, pair in [(2, (0, 1)), (3, (0, 2)), (4, (1, 3))]:
            assert model.pair_collision_unitary(n_qubits, pair, 0.3).dtype == np.float64

    def test_states_are_real(self):
        assert model.pure_qubit_density(PLUS).dtype == np.float64
        assert model.thermal_density(model.ThermalAncilla(1)).dtype == np.float64
        assert model.composite_initial(MINUS, [ANC] * 3).dtype == np.float64

    def test_collide_and_markovian_step_are_real(self):
        rho = model.composite_initial(PLUS, [ANC, ANC])
        assert collide(rho, (0, 2), 0.4).dtype == np.float64
        assert dynamics.markovian_step(model.pure_qubit_density(PLUS), 0.4, ANC).dtype == np.float64

    @pytest.mark.parametrize("schedule", schedules(), ids=["one-ancilla", "three-ancillas"])
    def test_final_registers_are_real(self, schedule):
        traj = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.6, schedule)
        assert all(r.dtype == np.float64 for r in traj.final_registers)

    def test_markovian_final_states_are_real(self):
        traj = dynamics.markovian_trajectory((PLUS, MINUS), 0.4, ANC, 10)
        assert all(r.dtype == np.float64 for r in traj.final_registers)


class TestComplexInputsRunComplex:
    def test_phased_state_is_complex(self):
        rho = model.composite_initial(PHASED, [ANC])
        assert model.pure_qubit_density(PHASED).dtype == np.complex128
        assert rho.dtype == np.complex128
        assert collide(rho, (0, 1), 0.4).dtype == np.complex128

    @pytest.mark.parametrize("schedule", schedules(), ids=["one-ancilla", "three-ancillas"])
    def test_phased_run_is_complex(self, schedule):
        traj = dynamics.run_trajectory((PHASED, MINUS), ANC, 0.6, schedule)
        assert all(r.dtype == np.complex128 for r in traj.final_registers)

    @pytest.mark.parametrize("schedule", schedules(), ids=["one-ancilla", "three-ancillas"])
    def test_complex_typed_amplitudes_match_the_real_run(self, schedule):
        real = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.8, schedule)
        cplx = dynamics.run_trajectory(COMPLEX_PAIR, ANC, 0.8, schedule)
        assert list(real.columns) == list(cplx.columns)
        for name, column in real.columns.items():
            np.testing.assert_allclose(cplx.columns[name], column, rtol=0, atol=1e-15, err_msg=name)
        for r, c in zip(real.final_registers, cplx.final_registers):
            assert c.dtype == np.complex128
            np.testing.assert_allclose(c, r, rtol=0, atol=1e-15)

    def test_complex_typed_amplitudes_match_the_real_markovian_run(self):
        real = dynamics.markovian_trajectory((PLUS, MINUS), 0.3, ANC, 40)
        cplx = dynamics.markovian_trajectory(COMPLEX_PAIR, 0.3, ANC, 40)
        for name, column in real.columns.items():
            np.testing.assert_allclose(cplx.columns[name], column, rtol=0, atol=1e-15, err_msg=name)

    def test_one_complex_unitary_makes_the_whole_run_complex(self, monkeypatch):
        # A global phase leaves u rho u^dag unchanged but makes the (0, 2)
        # unitary complex. The schedule starts with the real (1, 2) pair, so
        # the states must be complex from that first step on, not only from
        # the first (0, 2) step, which would drop imaginary parts before it.
        real = dynamics.pair_collision_unitary

        def phased(n_qubits, pair, p):
            u = real(n_qubits, pair, p)
            if tuple(pair) == (0, 2):
                return np.exp(0.7j) * u
            return u

        schedule = dynamics.Schedule(3, ((1, 2), (0, 2), (0, 1)), [0, 1, 2] * 5)
        want = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, schedule)
        monkeypatch.setattr(dynamics, "pair_collision_unitary", phased)
        got = dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, schedule)
        assert all(r.dtype == np.complex128 for r in got.final_registers)
        for name, column in want.columns.items():
            np.testing.assert_allclose(got.columns[name], column, rtol=0, atol=1e-14, err_msg=name)


def assert_trace_message(message, prefix, trace):
    """``message`` is ``prefix`` and then the trace as a complex repr, ``(...+0j)``."""
    assert message.startswith(prefix) and message.endswith("+0j)"), message
    assert complex(message[len(prefix):]) == pytest.approx(trace, abs=1e-14)


class TestRealMetricsAndChecks:
    def test_metrics_of_real_and_complex_typed_states_agree(self):
        r = model.composite_initial(PLUS, [ANC])
        s = model.composite_initial(MINUS, [ANC])
        assert metrics.l1_coherence(r) == metrics.l1_coherence(r.astype(complex))
        assert metrics.trace_distance(r, s) == pytest.approx(
            metrics.trace_distance(r.astype(complex), s.astype(complex)), abs=1e-15)
        assert metrics.negativity(r, (2, 2)) == pytest.approx(
            metrics.negativity(r.astype(complex), (2, 2)), abs=1e-15)

    def test_real_drift_keeps_its_complex_trace_message(self):
        bad = 1.5 * model.composite_initial(PLUS, [ANC])
        assert bad.dtype == np.float64
        assert_trace_message(violation(bad), "trace drifted to ", 1.5)

    def test_real_run_drift_keeps_its_complex_trace_message(self, monkeypatch):
        real = dynamics.pair_collision_unitary

        def scaled(n_qubits, pair, p):
            return 1.5 * real(n_qubits, pair, p)

        monkeypatch.setattr(dynamics, "pair_collision_unitary", scaled)
        with pytest.raises(dynamics.InvariantViolationError) as info:
            dynamics.run_trajectory((PLUS, MINUS), ANC, 0.5, dynamics.repeated_schedule(2, (0, 1), 3))
        assert_trace_message(str(info.value), "step 1, pair (0, 1), p = 0.5, copy 0: trace drifted to ", 2.25)
