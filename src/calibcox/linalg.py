"""Dense symmetric linear-algebra kernels.

Everything downstream (PCA loadings, GEE information matrices, Newton steps,
multivariate-normal sampling) runs through these three primitives.  Matrices
here are small (at most a few dozen rows), so the implementations favor
transparent, well-tested algorithms over BLAS bindings: column-blocked
Cholesky and a cyclic Jacobi eigensolver.

The Jacobi rotations run on lists of Python floats rather than on NumPy
rows.  A rotation is a handful of scalar products per entry, which NumPy
would spend most of its time dispatching; and a Python float operation
rounds exactly as NumPy's elementwise float64 operation on the same
operands does (both are one IEEE-754 double operation, with no fused
multiply-add), so the eigenpairs are bit for bit those of the array version.

An input that is not a finite symmetric square matrix raises ``DataError``,
the package's one class for a broken precondition, whether of an argument
or of the data; a failed factorization raises :class:`DecompositionError`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import DataError, NumericalError


class DecompositionError(NumericalError):
    """Matrix factorization failed (non-SPD input, singular system).

    ``pivot`` is the index of the Cholesky pivot that failed, when one did.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


def _check_symmetric(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite entries")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    scale = max(1.0, np.max(np.abs(a))) if a.size else 1.0
    if asym > constants.SYMMETRY_TOL * scale:
        raise DataError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
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


def cho_solve(L, b):
    """Solve (L L') x = b given the Cholesky factor L of an SPD matrix.

    b may be a vector or a matrix of right-hand sides.
    """
    return solve_upper(L.T, solve_lower(L, b))


def solve_spd(a, b):
    """Solve a x = b for symmetric positive-definite a via Cholesky.

    b may be a vector or a matrix of right-hand sides.
    """
    return cho_solve(cholesky(a), b)


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
    and accurate to machine precision (Golub & Van Loan, *Matrix
    Computations*, section 8.5).  The rotations update lists of Python
    floats: each entry's ``c*x - s*y`` is rounded exactly as the elementwise
    NumPy expression on whole rows rounds it, so the result equals the array
    version's bit for bit.  The convergence test between sweeps stays a
    NumPy sum, whose pairwise order the loop would not reproduce.
    """
    a = _check_symmetric(a, "sym_eigen input")
    n = a.shape[0]
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return SymEigen(np.zeros(n), np.eye(n))
    A = a.tolist()                # rows
    Vt = np.eye(n).tolist()       # rows of Vt are the columns of V
    for _ in range(constants.JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(np.array(A), -1) ** 2))
        if off <= constants.JACOBI_OFFDIAG_TOL * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p][q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (A[q][q] - A[p][p]) / apq
                if theta == 0.0:
                    t = 1.0
                else:
                    sign = 1.0 if theta > 0.0 else -1.0
                    t = sign / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in A:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                for rows in (A, Vt):
                    xs, ys = rows[p], rows[q]
                    rows[p] = [c * x - s * y for x, y in zip(xs, ys)]
                    rows[q] = [s * x + c * y for x, y in zip(xs, ys)]
    vals = np.diag(np.array(A))
    order = np.argsort(vals)[::-1]
    return SymEigen(vals[order], np.array(Vt).T[:, order])
