"""Dense symmetric kernels: Cholesky, SPD solves, Jacobi eigendecomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibcox import constants, linalg
from calibcox.errors import DataError
from calibcox.linalg import DecompositionError

import seed_linalg


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
        assert np.max(np.abs(L @ L.T - a)) < constants.CHOLESKY_RECON_TOL * scale
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_reconstruction_property_sweep(self, rng):
        for n in range(1, 21):
            a = random_spd(rng, n)
            L = linalg.cholesky(a)
            assert (np.max(np.abs(L @ L.T - a))
                    < constants.CHOLESKY_RECON_TOL * max(1.0, np.max(np.abs(a))))

    def test_not_positive_definite_names_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(DecompositionError, match="pivot 1") as err:
            linalg.cholesky(a)
        assert err.value.pivot == 1

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DataError, match="cholesky input is not symmetric"):
            linalg.cholesky(a)

    @pytest.mark.parametrize("a, message", [
        (np.ones((2, 3)), r"^cholesky input must be square, got shape \(2, 3\)$"),
        (np.ones(3), r"^cholesky input must be square, got shape \(3,\)$"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]),
         "^cholesky input contains non-finite entries$"),
        (np.diag([1.0, np.inf]), "^cholesky input contains non-finite entries$"),
    ], ids=["2x3", "vector", "nan", "inf"])
    def test_malformed_input_rejected(self, a, message):
        with pytest.raises(DataError, match=message):
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
        assert (np.max(np.abs(a @ x - b))
                < constants.SOLVE_RESIDUAL_TOL * (1.0 + np.max(np.abs(b))))

    def test_matrix_rhs(self, rng):
        a = random_spd(rng, 6)
        b = rng.normal(size=(6, 3))
        x = linalg.solve_spd(a, b)
        assert (np.max(np.abs(a @ x - b))
                < constants.SOLVE_RESIDUAL_TOL * (1.0 + np.max(np.abs(b))))

    def test_inv_spd(self, rng):
        a = random_spd(rng, 7)
        assert np.max(np.abs(linalg.solve_spd(a, np.eye(7)) @ a - np.eye(7))) < 1e-9


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
            assert np.max(np.abs(resid)) < constants.EIGEN_RESIDUAL_TOL * (1.0 + norm)

    def test_orthonormality(self, rng):
        a = rng.normal(size=(10, 10))
        a = 0.5 * (a + a.T)
        v = linalg.sym_eigen(a).eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(10))) < constants.EIGEN_ORTHO_TOL

    def test_trace_equals_eigenvalue_sum(self, rng):
        for n in (2, 5, 12):
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            eig = linalg.sym_eigen(a)
            tr = np.trace(a)
            assert abs(eig.eigenvalues.sum() - tr) < 1e-9 * (1.0 + abs(tr))

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError, match="sym_eigen input is not symmetric"):
            linalg.sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of size 1-20 from a drawn seed, one of several kinds.

    ``repeated`` has a constant diagonal, so the first rotations meet
    theta == 0; ``sparse`` has exact zeros, which the sweeps skip; ``mixed``
    spans twelve orders of magnitude across rows and columns.
    """
    n = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["dense", "diagonal", "repeated", "eigen",
                                 "sparse", "mixed", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.normal(size=(n, n))
    a = b + b.T
    if kind == "diagonal":
        a = np.diag(rng.choice([-1.0, 0.5, 2.0], size=n))
    elif kind == "repeated":
        a = 0.1 * (a - np.diag(np.diag(a))) + 3.0 * np.eye(n)
    elif kind == "eigen":
        # Repeated eigenvalues in a random orthonormal basis.
        q, _ = np.linalg.qr(b)
        a = (q * rng.choice([-1.0, 0.5, 2.0], size=n)) @ q.T
    elif kind == "sparse":
        a = a * np.triu(rng.random((n, n)) < 0.3)
        a = a + np.triu(a, 1).T
    elif kind == "mixed":
        d = 10.0 ** rng.integers(-6, 7, size=n)
        a = a * np.outer(d, d)
    elif kind == "zero":
        a = np.zeros((n, n))
    return 0.5 * (a + a.T)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_sym_eigen_matches_array_rotations(a):
    # The Python-float rotations must round exactly as the NumPy-array
    # version in seed_linalg does.
    got, want = linalg.sym_eigen(a), seed_linalg.sym_eigen(a)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
