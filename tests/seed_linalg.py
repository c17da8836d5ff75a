"""The Jacobi eigensolver as it was before its rotations ran on Python floats.

A verbatim copy of the NumPy-array version of ``sym_eigen`` (each rotation
applied to whole rows and columns with elementwise NumPy operations), kept
as the reference that ``test_linalg`` requires ``linalg.sym_eigen`` to match
bit for bit.  Only the imports differ.
"""

import numpy as np

from calibcox import constants
from calibcox.linalg import SymEigen, _check_symmetric


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
