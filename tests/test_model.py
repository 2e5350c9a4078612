import itertools
import math

import numpy as np
import pytest

import literal_unitaries as lit
from qcollide import model, qmat

P_GRID = [round(0.1 * k, 10) for k in range(11)]

HALF = 1 / math.sqrt(2)


def random_density(rng, dim=2):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestPureQubit:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            model.PureQubit(1.0, 1.0)

    def test_rejects_nan_amplitude(self):
        # A NaN norm fails every comparison, so the check must not pass it by default.
        with pytest.raises(ValueError, match="normalized"):
            model.PureQubit(float("nan"), 0.0)

    def test_ground_state_density(self):
        rho = model.pure_qubit_density(model.PureQubit(1.0, 0.0))
        np.testing.assert_array_equal(rho, np.diag([1.0, 0.0]))

    def test_equal_superposition_density(self):
        rho = model.pure_qubit_density(model.PureQubit(HALF, HALF))
        np.testing.assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-15)

    def test_opposite_phase_superposition(self):
        rho = model.pure_qubit_density(model.PureQubit(HALF, -HALF))
        np.testing.assert_allclose(
            rho, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15
        )

    def test_offdiagonal_is_a_times_b_conj(self):
        q = model.PureQubit(0.6, 0.8j)
        rho = model.pure_qubit_density(q)
        assert rho[0, 1] == pytest.approx(q.a * np.conj(q.b))


class TestThermalAncilla:
    def test_density(self):
        np.testing.assert_array_equal(
            model.thermal_density(model.ThermalAncilla(0.8)), np.diag([0.8, 1.0 - 0.8])
        )

    def test_zero_temperature(self):
        np.testing.assert_array_equal(
            model.thermal_density(model.ThermalAncilla(1.0)), np.diag([1.0, 0.0])
        )

    def test_infinite_temperature(self):
        np.testing.assert_array_equal(
            model.thermal_density(model.ThermalAncilla(0.5)), np.eye(2) / 2
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="0, 1"):
            model.ThermalAncilla(1.2)
        with pytest.raises(ValueError, match="0, 1"):
            model.ThermalAncilla(float("nan"))

    def test_warns_on_population_inversion(self):
        with pytest.warns(UserWarning, match="inverted"):
            model.ThermalAncilla(0.3)

    def test_inversion_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="inverted") as caught:
            model.ThermalAncilla(0.3)
        assert caught[0].filename == __file__


class TestPairCollisionUnitary:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_two_qubit_literal_matrix(self, p):
        built = model.pair_collision_unitary(2, (0, 1), p)
        np.testing.assert_array_equal(built, lit.u4_system_ancilla(p))

    @pytest.mark.parametrize("pair", list(lit.EIGHT_BY_PAIR))
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    def test_three_qubit_literal_matrices(self, pair, p):
        built = model.pair_collision_unitary(3, pair, p)
        np.testing.assert_array_equal(built, lit.EIGHT_BY_PAIR[pair](p))

    @pytest.mark.parametrize("pair", list(lit.SIXTEEN_BY_PAIR))
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    def test_four_qubit_literal_matrices(self, pair, p):
        built = model.pair_collision_unitary(4, pair, p)
        np.testing.assert_array_equal(built, lit.SIXTEEN_BY_PAIR[pair](p))

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_unitarity_on_p_grid(self, n_qubits):
        eye = np.eye(2 ** n_qubits)
        for pair in itertools.combinations(range(n_qubits), 2):
            for p in P_GRID:
                u = model.pair_collision_unitary(n_qubits, pair, p)
                assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-12

    def test_zero_probability_is_identity(self):
        for n_qubits in (2, 3, 4):
            u = model.pair_collision_unitary(n_qubits, (0, n_qubits - 1), 0.0)
            np.testing.assert_array_equal(u, np.eye(2 ** n_qubits))

    def test_fixes_double_ground_and_double_excited(self):
        u = model.pair_collision_unitary(3, (0, 2), 0.7)
        for m in range(8):
            bit_i, bit_j = bool(m & 4), bool(m & 1)
            if bit_i == bit_j:
                col = np.zeros(8)
                col[m] = 1.0
                np.testing.assert_array_equal(u[:, m], col)

    def test_sign_convention(self):
        # The hop amplitude out of "excitation on the second (higher) qubit
        # of the pair" is negative; the reverse hop is positive.
        u = model.pair_collision_unitary(2, (0, 1), 0.5)
        assert u[2, 1] == pytest.approx(-math.sqrt(0.5))
        assert u[1, 2] == pytest.approx(math.sqrt(0.5))

    def test_spectators_untouched_by_kron_embedding(self):
        for p in (0.3, 0.8):
            small = model.pair_collision_unitary(2, (0, 1), p)
            embedded = model.pair_collision_unitary(3, (0, 1), p)
            np.testing.assert_allclose(embedded, np.kron(small, np.eye(2)), atol=1e-14)

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError, match="pair"):
            model.pair_collision_unitary(3, (2, 1), 0.5)
        with pytest.raises(ValueError, match="pair"):
            model.pair_collision_unitary(2, (0, 2), 0.5)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="probability"):
            model.pair_collision_unitary(2, (0, 1), 1.5)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError, match="n_qubits"):
            model.pair_collision_unitary(5, (0, 1), 0.5)

    def test_metadata(self):
        # The plain array carries the register size, the pair and p: it is the real d x d
        # matrix that couples qubits 1 and 2 alone, and an array of p stacks one per entry.
        u = model.pair_collision_unitary(3, (1, 2), 0.4)
        assert u.shape == (8, 8)
        assert u.dtype == np.float64
        np.testing.assert_array_equal(
            u, np.kron(np.eye(2), model.pair_collision_unitary(2, (0, 1), 0.4))
        )
        assert u[1, 1] == math.sqrt(0.6)
        stack = model.pair_collision_unitary(3, (1, 2), np.array([[0.4, 0.9]]))
        assert stack.shape == (1, 2, 8, 8)
        np.testing.assert_array_equal(stack[0, 0], u)
        np.testing.assert_array_equal(stack[0, 1], model.pair_collision_unitary(3, (1, 2), 0.9))


class TestCompositeInitial:
    def test_single_ancilla_product(self):
        reg = model.composite_initial(
            model.PureQubit(HALF, HALF), [model.ThermalAncilla(0.8)]
        )
        expected = np.array(
            [
                [0.4, 0.0, 0.4, 0.0],
                [0.0, 0.1, 0.0, 0.1],
                [0.4, 0.0, 0.4, 0.0],
                [0.0, 0.1, 0.0, 0.1],
            ]
        )
        np.testing.assert_allclose(reg, expected, atol=1e-15)
        assert reg.shape == (4, 4)

    def test_ground_times_ground(self):
        reg = model.composite_initial(
            model.PureQubit(1.0, 0.0), [model.ThermalAncilla(1.0)]
        )
        np.testing.assert_array_equal(reg, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_three_ancillas_marginals(self):
        anc = model.ThermalAncilla(0.8)
        reg = model.composite_initial(model.PureQubit(HALF, HALF), [anc] * 3)
        assert reg.shape == (16, 16)
        for k in (1, 2, 3):
            marginal = qmat.partial_trace(reg, [2] * 4, keep=k)
            np.testing.assert_allclose(marginal, np.diag([0.8, 0.2]), atol=1e-14)

    def test_rejects_ancilla_count(self):
        with pytest.raises(ValueError, match="ancillas"):
            model.composite_initial(model.PureQubit(1.0, 0.0), [])
        with pytest.raises(ValueError, match="ancillas"):
            model.composite_initial(
                model.PureQubit(1.0, 0.0), [model.ThermalAncilla(0.8)] * 4
            )


def thermal_collision_kraus(p, w_g):
    """Independent 4-operator decomposition of the reduced single-collision map."""
    q, r = math.sqrt(1 - p), math.sqrt(p)
    return [
        math.sqrt(w_g) * np.array([[1, 0], [0, q]], dtype=complex),
        math.sqrt(w_g) * np.array([[0, r], [0, 0]], dtype=complex),
        math.sqrt(1 - w_g) * np.array([[q, 0], [0, 1]], dtype=complex),
        math.sqrt(1 - w_g) * np.array([[0, 0], [-r, 0]], dtype=complex),
    ]


class TestReducedChannel:
    @pytest.mark.parametrize("p,w_g", [(0.5, 0.8), (0.3, 0.6), (0.9, 1.0)])
    def test_collision_matches_kraus_oracle(self, p, w_g):
        kraus = thermal_collision_kraus(p, w_g)
        total = sum(k.conj().T @ k for k in kraus)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-14)
        u = model.pair_collision_unitary(2, (0, 1), p)
        thermal = np.diag([w_g, 1 - w_g]).astype(complex)
        rng = np.random.default_rng(97)
        for _ in range(20):
            rho = random_density(rng)
            joint = u @ qmat.kron(rho, thermal) @ u.conj().T
            reduced = qmat.partial_trace(joint, [2, 2], keep=0)
            via_kraus = sum(k @ rho @ k.conj().T for k in kraus)
            np.testing.assert_allclose(reduced, via_kraus, atol=1e-10)

    def test_spectator_expectation_invariant(self):
        rng = np.random.default_rng(101)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        obs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs = (obs + obs.conj().T) / 2
        full_obs = np.kron(np.eye(4), obs)
        u = model.pair_collision_unitary(3, (0, 1), 0.6)
        before = np.trace(rho @ full_obs)
        after = np.trace(u @ rho @ u.conj().T @ full_obs)
        assert abs(after - before) < 1e-12
