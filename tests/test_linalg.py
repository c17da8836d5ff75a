"""Dense symmetric kernels: Cholesky, SPD solves, Jacobi eigendecomposition."""

import numpy as np
import pytest

from calibcox import linalg
from calibcox.linalg import ContractViolationError, DecompositionError


def random_spd(rng, n, eps=0.1):
    b = rng.normal(size=(n, n))
    return b @ b.T + eps * np.eye(n)


class TestCholesky:
    def test_identity(self):
        a = np.eye(3)
        assert np.allclose(linalg.cholesky(a), np.eye(3), atol=1e-14)

    def test_2x2_known_factor(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = linalg.cholesky(a)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(L, expected, atol=1e-12)
        assert np.max(np.abs(L @ L.T - a)) < 1e-12

    def test_random_spd_reconstruction(self, rng):
        a = random_spd(rng, 8)
        L = linalg.cholesky(a)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(L @ L.T - a)) < 1e-10 * scale
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_reconstruction_property_sweep(self, rng):
        for n in range(1, 21):
            a = random_spd(rng, n)
            L = linalg.cholesky(a)
            assert np.max(np.abs(L @ L.T - a)) < 1e-10 * max(1.0, np.max(np.abs(a)))

    def test_not_positive_definite_names_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(DecompositionError, match="pivot 1") as err:
            linalg.cholesky(a)
        assert err.value.pivot == 1

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ContractViolationError):
            linalg.cholesky(a)


class TestSolveSpd:
    def test_identity(self, rng):
        b = rng.normal(size=5)
        assert np.allclose(linalg.solve_spd(np.eye(5), b), b, atol=1e-14)

    def test_diagonal(self):
        x = linalg.solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_random_residual(self, rng):
        a = random_spd(rng, 12)
        b = rng.normal(size=12)
        x = linalg.solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_matrix_rhs(self, rng):
        a = random_spd(rng, 6)
        b = rng.normal(size=(6, 3))
        x = linalg.solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_inv_spd(self, rng):
        a = random_spd(rng, 7)
        assert np.max(np.abs(linalg.inv_spd(a) @ a - np.eye(7))) < 1e-9


class TestSymEigen:
    def test_identity(self):
        eig = linalg.sym_eigen(np.eye(4))
        assert np.allclose(eig.eigenvalues, np.ones(4), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        eig = linalg.sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.eigenvalues, [3.0, 2.0, 1.0], atol=1e-12)
        # Eigenvectors form a signed permutation of the axes.
        assert np.allclose(np.abs(eig.eigenvectors).sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(np.abs(eig.eigenvectors).sum(axis=1), 1.0, atol=1e-10)

    def test_random_residual(self, rng):
        a = rng.normal(size=(9, 9))
        a = 0.5 * (a + a.T)
        eig = linalg.sym_eigen(a)
        norm = np.max(np.abs(a))
        for k in range(9):
            resid = a @ eig.eigenvectors[:, k] - eig.eigenvalues[k] * eig.eigenvectors[:, k]
            assert np.max(np.abs(resid)) < 1e-8 * (1.0 + norm)

    def test_orthonormality(self, rng):
        a = rng.normal(size=(10, 10))
        a = 0.5 * (a + a.T)
        v = linalg.sym_eigen(a).eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(10))) < 1e-10

    def test_trace_equals_eigenvalue_sum(self, rng):
        for n in (2, 5, 12):
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            eig = linalg.sym_eigen(a)
            tr = np.trace(a)
            assert abs(eig.eigenvalues.sum() - tr) < 1e-9 * (1.0 + abs(tr))

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolationError):
            linalg.sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
