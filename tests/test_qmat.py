import numpy as np
import pytest

from qcollide import qmat


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def charpoly_eigenvalues(h):
    """Brute-force oracle: characteristic polynomial coefficients by the
    Faddeev-LeVerrier recursion, roots via the companion matrix."""
    n = h.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        c = -np.trace(h @ m) / k
        coeffs.append(c)
    # Repeated roots of the characteristic polynomial are recovered only to
    # about eps**(1/multiplicity); coarse tolerances are inherent here.
    roots = np.roots(np.real(coeffs))
    assert np.max(np.abs(roots.imag)) < 1e-5
    return np.sort(roots.real)


def bell_projector():
    vec = np.zeros(4, dtype=complex)
    vec[1] = vec[2] = 1 / np.sqrt(2)
    return np.outer(vec, vec.conj())


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(qmat.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pure_times_thermal(self):
        half = 1 / np.sqrt(2)
        pure = np.full((2, 2), 0.5, dtype=complex)
        thermal = np.diag([0.8, 0.2]).astype(complex)
        out = qmat.kron(pure, thermal)
        expected = np.array(
            [
                [0.4, 0.0, 0.4, 0.0],
                [0.0, 0.1, 0.0, 0.1],
                [0.4, 0.0, 0.4, 0.0],
                [0.0, 0.1, 0.0, 0.1],
            ]
        )
        np.testing.assert_allclose(out, expected, atol=1e-15)
        assert out[0, 0] == pytest.approx(0.5 * 0.8)
        assert half * half == pytest.approx(0.5)

    def test_basis_projectors(self):
        out = qmat.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        left = qmat.kron(qmat.kron(a, b), c)
        right = qmat.kron(a, qmat.kron(b, c))
        np.testing.assert_allclose(left, right, atol=1e-14)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            qmat.kron(np.ones((2, 3)), np.eye(2))


class TestPartialTrace:
    def test_product_factorizes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            out = qmat.partial_trace(qmat.kron(a, b), [2, 2], keep=0)
            np.testing.assert_allclose(out, a * np.trace(b), atol=1e-14)

    def test_thermal_marginal(self):
        pure = np.full((2, 2), 0.5, dtype=complex)
        rho = qmat.kron(pure, np.diag([0.8, 0.2]).astype(complex))
        out = qmat.partial_trace(rho, [2, 2], keep=1)
        np.testing.assert_allclose(out, np.diag([0.8, 0.2]), atol=1e-15)

    def test_bell_marginal_is_maximally_mixed(self):
        out = qmat.partial_trace(bell_projector(), [2, 2], keep=0)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_keep_multiple(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_density(rng, 2) for _ in range(3))
        rho = qmat.kron(qmat.kron(a, b), c)
        out = qmat.partial_trace(rho, [2, 2, 2], keep=[0, 2])
        np.testing.assert_allclose(out, qmat.kron(a, c), atol=1e-13)

    def test_preserves_trace(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 8)
        out = qmat.partial_trace(rho, [2, 2, 2], keep=1)
        assert np.trace(out) == pytest.approx(np.trace(rho), abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            qmat.partial_trace(np.eye(4), [2, 3], keep=0)

    def test_keep_out_of_range(self):
        with pytest.raises(ValueError, match="keep"):
            qmat.partial_trace(np.eye(4), [2, 2], keep=2)


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(13)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        out = qmat.partial_transpose(qmat.kron(a, b), [2, 2])
        np.testing.assert_allclose(out, qmat.kron(a.T, b), atol=1e-15)

    def test_diagonal_unchanged(self):
        d = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        np.testing.assert_array_equal(qmat.partial_transpose(d, [2, 2]), d)

    def test_involution_exact(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 8)
        twice = qmat.partial_transpose(qmat.partial_transpose(rho, [2, 4]), [2, 4])
        np.testing.assert_array_equal(twice, rho)

    def test_second_subsystem(self):
        rng = np.random.default_rng(19)
        a, b = random_density(rng, 2), random_density(rng, 2)
        out = qmat.partial_transpose(qmat.kron(a, b), [2, 2], subsystem=1)
        np.testing.assert_allclose(out, qmat.kron(a, b.T), atol=1e-15)

    def test_bell_minimum_eigenvalue(self):
        pt = qmat.partial_transpose(bell_projector(), [2, 2])
        oracle = charpoly_eigenvalues(pt)
        np.testing.assert_allclose(oracle, [-0.5, 0.5, 0.5, 0.5], atol=1e-5)
        assert qmat.hermitian_eigenvalues(pt)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            qmat.partial_transpose(np.eye(4), [2, 3])

    def test_defined_for_non_hermitian_matrices(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1j], [5.0, 0.0]])
        np.testing.assert_array_equal(qmat.partial_transpose(np.kron(a, b), [2, 2]),
                                      np.kron(a.T, b))


class TestHermitianEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(
            qmat.hermitian_eigenvalues(np.diag([0.8, 0.2])), [0.2, 0.8], atol=1e-15
        )

    def test_pauli_x(self):
        np.testing.assert_allclose(
            qmat.hermitian_eigenvalues(np.array([[0, 1], [1, 0]])), [-1.0, 1.0], atol=1e-14
        )

    def test_bell_partial_transpose(self):
        pt = qmat.partial_transpose(bell_projector(), [2, 2])
        np.testing.assert_allclose(
            qmat.hermitian_eigenvalues(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_reconstructs_known_spectrum(self, dim):
        rng = np.random.default_rng(dim)
        diag = np.sort(rng.uniform(-2, 2, size=dim))
        u = random_unitary(rng, dim)
        h = u @ np.diag(diag).astype(complex) @ u.conj().T
        np.testing.assert_allclose(qmat.hermitian_eigenvalues(h), diag, atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_matches_lapack(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            h = random_hermitian(rng, dim)
            np.testing.assert_allclose(
                qmat.hermitian_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-11
            )

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 16)
        assert np.sum(qmat.hermitian_eigenvalues(h)) == pytest.approx(
            np.trace(h).real, abs=1e-10 * 16
        )

    def test_eigensystem_residuals(self):
        rng = np.random.default_rng(29)
        h = random_hermitian(rng, 8)
        vals, vecs = qmat.hermitian_eigensystem(h)
        for lam, v in zip(vals, vecs.T):
            assert np.max(np.abs(h @ v - lam * v)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qmat.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4, 8):
            assert qmat.trace_norm_hermitian(random_density(rng, dim)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_signed_diagonal(self):
        assert qmat.trace_norm_hermitian(np.diag([0.5, -0.5])) == pytest.approx(1.0)

    def test_bell_partial_transpose(self):
        pt = qmat.partial_transpose(bell_projector(), [2, 2])
        assert qmat.trace_norm_hermitian(pt) == pytest.approx(2.0, abs=1e-12)

    def test_bounds_trace(self):
        rng = np.random.default_rng(37)
        h = random_hermitian(rng, 8)
        assert qmat.trace_norm_hermitian(h) >= abs(np.trace(h).real) - 1e-12

    def test_matches_abs_sqrt_reconstruction(self):
        # tr sqrt(h @ h) rebuilt from the eigensystem, an independent route.
        rng = np.random.default_rng(41)
        h = random_hermitian(rng, 8)
        vals, vecs = qmat.hermitian_eigensystem(h @ h)
        sqrt_h2 = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
        assert qmat.trace_norm_hermitian(h) == pytest.approx(
            np.trace(sqrt_h2).real, abs=1e-9
        )


class TestPositiveSemidefinite:
    def test_density_matrices_pass(self):
        rng = np.random.default_rng(43)
        assert qmat.is_positive_semidefinite(random_density(rng, 8))

    def test_singular_psd_passes_with_tolerance(self):
        assert qmat.is_positive_semidefinite(bell_projector(), tol=1e-9)

    def test_negative_spectrum_fails(self):
        assert not qmat.is_positive_semidefinite(np.diag([1.0, -1e-6]), tol=1e-9)

    def test_tiny_dip_within_tolerance(self):
        assert qmat.is_positive_semidefinite(np.diag([1.0, -1e-10]), tol=1e-9)
