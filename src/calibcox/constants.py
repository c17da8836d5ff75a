"""Numerical contract tolerances, fixed in one place.

These values are load-bearing: tests assert against them and the library
raises when inputs violate them.
"""

# Maximum allowed asymmetry |A - A.T| before a matrix is rejected instead
# of being symmetrized.
SYMMETRY_TOL = 1e-12

# Cholesky reconstruction: ||L L' - A||_max relative to max|A|.
CHOLESKY_RECON_TOL = 1e-10

# Eigen residual: ||A v - lambda v||_inf < EIGEN_RESIDUAL_TOL * (1 + ||A||_inf).
EIGEN_RESIDUAL_TOL = 1e-8

# Eigenvector orthonormality: ||V'V - I||_max.
EIGEN_ORTHO_TOL = 1e-10

# SPD solve residual: ||A x - b||_inf < SOLVE_RESIDUAL_TOL * (1 + ||b||_inf).
SOLVE_RESIDUAL_TOL = 1e-9

# Jacobi sweep convergence: off-diagonal magnitude relative to ||A||_F.
JACOBI_OFFDIAG_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60

# Newton-Raphson convergence for the partial likelihood.
COX_GRAD_TOL = 1e-8
COX_LOGLIK_TOL = 1e-10
COX_MAX_ITER = 100
COX_DIVERGENCE_BOUND = 50.0

# Finite-difference check of the analytic U_alpha: central differences with
# step FD_STEP * max(1, |alpha_k|), agreeing to a relative FD_TOL.
FD_STEP = 1e-6
FD_TOL = 1e-4

# GEE iteratively reweighted least squares.
GEE_PARAM_TOL = 1e-10
GEE_MAX_ITER = 50
PSI_MAX = 0.99

# Two-sided 97.5% standard normal quantile, hard-coded for reproducibility.
Z_975 = 1.959964

# Event-rate calibration.
CMAX_PILOT_SIZE = 50_000
CMAX_RATE_TOL = 0.002
CMAX_MAX_ITER = 60
