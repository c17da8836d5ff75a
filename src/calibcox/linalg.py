"""Dense symmetric linear-algebra kernels.

Everything downstream (PCA loadings, GEE information matrices, Newton steps,
multivariate-normal sampling) runs through these three primitives.  Matrices
here are small (at most a few dozen rows), so the implementations favor
transparent, well-tested algorithms over BLAS bindings: column-blocked
Cholesky and a cyclic Jacobi eigensolver.
"""

from dataclasses import dataclass

import numpy as np

from . import constants


class ContractViolationError(ValueError):
    """Input violates a documented precondition."""


class DecompositionError(ArithmeticError):
    """Matrix factorization failed (non-SPD input, singular system).

    ``pivot`` is the index of the Cholesky pivot that failed, when one did.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


def _check_symmetric(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolationError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractViolationError(f"{name} contains non-finite entries")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    scale = max(1.0, np.max(np.abs(a))) if a.size else 1.0
    if asym > constants.SYMMETRY_TOL * scale:
        raise ContractViolationError(
            f"{name} is not symmetric (max asymmetry {asym:.3e})"
        )
    # Symmetrize to purge representational rounding before factorizing.
    return 0.5 * (a + a.T)


def cholesky(a, min_pivot=0.0):
    """Lower-triangular L with L L' = a for symmetric positive-definite a.

    Column-blocked outer-product form: the j-th column is computed with one
    vectorized dot against the already-finished leading block.  ``min_pivot``
    raises the failure threshold above exact zero, which lets callers treat
    numerically rank-deficient matrices (pivot positive but negligible) as
    singular.
    """
    a = _check_symmetric(a, "cholesky input")
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        s = a[j, j] - L[j, :j] @ L[j, :j]
        if s <= min_pivot or not np.isfinite(s):
            raise DecompositionError(
                f"matrix is not positive definite: pivot {j} is {s:.3e}",
                pivot=j)
        L[j, j] = np.sqrt(s)
        if j + 1 < n:
            L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_lower(L, b):
    """Solve L x = b for lower-triangular L (forward substitution)."""
    b = np.asarray(b, dtype=float)
    x = b.astype(float, copy=True)
    n = L.shape[0]
    for i in range(n):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


def solve_upper(U, b):
    """Solve U x = b for upper-triangular U (back substitution)."""
    b = np.asarray(b, dtype=float)
    x = b.astype(float, copy=True)
    n = U.shape[0]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - U[i, i + 1:] @ x[i + 1:]) / U[i, i]
    return x


def solve_spd(a, b):
    """Solve a x = b for symmetric positive-definite a via Cholesky.

    b may be a vector or a matrix of right-hand sides.
    """
    L = cholesky(a)
    return solve_upper(L.T, solve_lower(L, b))


def inv_spd(a):
    """Inverse of a symmetric positive-definite matrix."""
    return solve_spd(a, np.eye(np.asarray(a).shape[0]))


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are sorted descending; eigenvectors[:, k] belongs to
    eigenvalues[k] and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(a):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Matrices in this package are at most ~30x30, where Jacobi is both simple
    and accurate to machine precision.
    """
    a = _check_symmetric(a, "sym_eigen input")
    n = a.shape[0]
    A = a.copy()
    V = np.eye(n)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return SymEigen(np.zeros(n), V)
    for _ in range(constants.JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= constants.JACOBI_OFFDIAG_TOL * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
    vals = np.diag(A).copy()
    order = np.argsort(vals)[::-1]
    return SymEigen(vals[order], V[:, order])
