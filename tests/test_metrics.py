import math

import numpy as np
import pytest

from qcollide import metrics, model, qmat

HALF = 1 / math.sqrt(2)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def bell_projector():
    vec = np.zeros(4, dtype=complex)
    vec[1] = vec[2] = HALF
    return np.outer(vec, vec.conj())


class TestL1Coherence:
    def test_maximally_coherent(self):
        rho = model.pure_qubit_density(model.PureQubit(HALF, HALF))
        assert metrics.l1_coherence(rho) == pytest.approx(1.0)

    def test_diagonal_state(self):
        assert metrics.l1_coherence(np.diag([0.8, 0.2])) == 0.0

    def test_definition_arithmetic(self):
        rho = np.array([[0.5, 0.3], [0.3, 0.5]])
        assert metrics.l1_coherence(rho) == pytest.approx(0.6)

    def test_invariant_under_diagonal_phases(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 4)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        d = np.diag(phases)
        conjugated = d @ rho @ d.conj().T
        assert metrics.l1_coherence(conjugated) == pytest.approx(
            metrics.l1_coherence(rho), abs=1e-12
        )


class TestNegativity:
    def test_product_states_are_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = qmat.kron(random_density(rng, 2), random_density(rng, 2))
            assert metrics.negativity(rho, (2, 2)) < 1e-10

    def test_bell_projector(self):
        assert metrics.negativity(bell_projector(), (2, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_equals_abs_sum_of_negative_eigenvalues(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        eigs = qmat.hermitian_eigenvalues(qmat.partial_transpose(rho, (2, 2)))
        expected = float(np.sum(np.abs(eigs[eigs < 0])))
        assert metrics.negativity(rho, (2, 2)) == pytest.approx(expected, abs=1e-12)

    def test_single_collision_peak(self):
        # One half-strength collision on the standard preparation entangles
        # system and ancilla to about 0.13.
        u = model.pair_collision_unitary(2, (0, 1), 0.5).matrix
        reg = model.composite_initial(
            model.PureQubit(HALF, HALF), [model.ThermalAncilla(0.8, 0.2)]
        )
        rho1 = u @ reg.rho @ u.conj().T
        value = metrics.negativity(rho1, (2, 2))
        assert 0.115 <= value <= 0.145

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert metrics.negativity(random_density(rng, 4), (2, 2)) >= 0.0

    def test_system_environment_cut_on_larger_register(self):
        anc = model.ThermalAncilla(0.8, 0.2)
        reg = model.composite_initial(model.PureQubit(HALF, HALF), [anc, anc])
        assert metrics.negativity(reg.rho, (2, 4)) < 1e-10
        u = model.pair_collision_unitary(3, (0, 1), 0.5).matrix
        entangled = u @ reg.rho @ u.conj().T
        assert metrics.negativity(entangled, (2, 4)) > 0.05

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            metrics.negativity(np.eye(4) / 4, (2, 3))

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho[0, 3] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            metrics.negativity(rho, (2, 2))


class TestTraceDistance:
    def test_orthogonal_preparations(self):
        r1 = model.pure_qubit_density(model.PureQubit(HALF, HALF))
        r2 = model.pure_qubit_density(model.PureQubit(HALF, -HALF))
        assert metrics.trace_distance(r1, r2) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 4)
        assert metrics.trace_distance(rho, rho) == 0.0

    def test_pure_state_closed_form(self):
        # For pure states the distance is sqrt(1 - |overlap|^2).
        psi = np.array([HALF, HALF], dtype=complex)
        phi = np.array([1.0, 0.0], dtype=complex)
        overlap = np.vdot(psi, phi)
        expected = math.sqrt(1.0 - abs(overlap) ** 2)
        r1 = np.outer(psi, psi.conj())
        r2 = np.outer(phi, phi.conj())
        assert metrics.trace_distance(r1, r2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(HALF)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            r1, r2 = random_density(rng, 4), random_density(rng, 4)
            d = metrics.trace_distance(r1, r2)
            assert 0.0 <= d <= 1.0 + 1e-12
            assert d == pytest.approx(metrics.trace_distance(r2, r1), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        a, b, c = (random_density(rng, 4) for _ in range(3))
        assert metrics.trace_distance(a, c) <= (
            metrics.trace_distance(a, b) + metrics.trace_distance(b, c) + 1e-12
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(17)
        r1, r2 = random_density(rng, 4), random_density(rng, 4)
        u = random_unitary(rng, 4)
        d_before = metrics.trace_distance(r1, r2)
        d_after = metrics.trace_distance(u @ r1 @ u.conj().T, u @ r2 @ u.conj().T)
        assert d_after == pytest.approx(d_before, abs=1e-10)

    def test_contracts_under_partial_trace(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            r1, r2 = random_density(rng, 4), random_density(rng, 4)
            full = metrics.trace_distance(r1, r2)
            reduced = metrics.trace_distance(
                qmat.partial_trace(r1, [2, 2], keep=0),
                qmat.partial_trace(r2, [2, 2], keep=0),
            )
            assert reduced <= full + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics.trace_distance(np.eye(2) / 2, np.eye(4) / 4)


class TestBackflowEvents:
    def test_monotone_series_has_no_events(self):
        report = metrics.backflow_events([1.0, 0.7, 0.4, 0.1])
        assert report.events == ()
        assert report.total_backflow == 0.0
        assert report.max_distance == 1.0

    def test_revival_series(self):
        report = metrics.backflow_events([1.0, HALF, 0.0, HALF, 1.0])
        assert [n for n, _ in report.events] == [2, 3]
        assert report.total_backflow == pytest.approx(1.0, abs=1e-12)
        assert report.max_distance == 1.0

    def test_constant_series(self):
        assert metrics.backflow_events([0.3, 0.3, 0.3]).events == ()

    def test_every_event_exceeds_tolerance(self):
        report = metrics.backflow_events([0.0, 0.5, 0.2, 0.9], tol=0.1)
        assert all(delta > 0.1 for _, delta in report.events)
        assert report.total_backflow == pytest.approx(
            sum(d for _, d in report.events)
        )

    def test_tolerance_suppresses_noise(self):
        report = metrics.backflow_events([0.5, 0.5 + 1e-12, 0.4], tol=1e-9)
        assert report.events == ()

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="two"):
            metrics.backflow_events([1.0])

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="non-negative"):
            metrics.backflow_events([1.0, 0.5], tol=-1.0)

    def test_rejects_nan_tolerance(self):
        # With tol = NaN no rise would count, which reads as the memoryless verdict.
        with pytest.raises(ValueError, match="non-negative"):
            metrics.backflow_events([0.0, 1.0, 0.0, 1.0], tol=float("nan"))
