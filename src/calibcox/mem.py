"""Measurement error model: E[X | Z, W] fitted on validation data.

The model is linear in the design row from :mod:`calibcox.transforms`.
Coefficients come from OLS (estimating-equation form) or from a GEE with an
independence or exchangeable working correlation across a subject's repeated
occasions.  The reported coefficient covariance is always the cluster-robust
sandwich with one cluster per subject, which is what the downstream Cox
variance propagation consumes.

QIC follows Pan's quasi-likelihood criterion specialized to the Gaussian
identity-link case: QIC = -2 Q / phi + 2 trace(Omega_I V_R), with
Q = -(1/2) sum (x - mu)^2, phi the Pearson dispersion, Omega_I the
independence-model information scaled by 1/phi, and V_R the robust
coefficient covariance.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import constants, linalg, transforms
from .linalg import ContractViolationError, DecompositionError


class SingularDesignError(DecompositionError):
    """Design matrix is rank deficient."""


class ConvergenceError(ArithmeticError):
    """Iterative fit hit its iteration cap."""


@dataclass(frozen=True)
class MemParams:
    """Coefficient vector ordered as the design row: (a0, a1', a2', a3')."""

    alpha: np.ndarray


@dataclass(frozen=True)
class MemFit:
    """A fitted measurement error model plus everything inference needs."""

    params: MemParams
    psi: float
    sigma2: float
    v_alpha: np.ndarray
    spec: transforms.DesignSpec
    transform: object
    n_subjects: int
    n_obs: int

    @property
    def alpha(self):
        return self.params.alpha


def _design_and_groups(validation, spec, transform=None):
    if transform is None:
        transform = transforms.fit_transform(
            spec, validation.z, validation.radii,
            warn=lambda msg: warnings.warn(msg, stacklevel=3))
    phi = transforms.build_design_matrix(spec, transform, validation.z, validation.w)
    groups = list(validation.subject_groups().values())
    return phi, groups, transform


def _check_rank(phi):
    gram = phi.T @ phi
    # Relative pivot floor: exact collinearity leaves a tiny positive pivot
    # in floating point, which must still count as rank deficiency.
    floor = 1e-10 * float(np.max(np.diag(gram)))
    try:
        linalg.cholesky(gram, min_pivot=floor)
    except DecompositionError as exc:
        raise SingularDesignError(
            f"design matrix is rank deficient: column {exc.pivot} is collinear "
            f"with the preceding columns"
        ) from exc
    return gram


def _cluster_sandwich(phi, resid, groups, bread_inv, vinv_blocks=None):
    """A^-1 B A^-T with B the per-subject score outer-product sum."""
    p = phi.shape[1]
    B = np.zeros((p, p))
    for g, rows in enumerate(groups):
        if vinv_blocks is None:
            u = phi[rows].T @ resid[rows]
        else:
            u = phi[rows].T @ (vinv_blocks[g] @ resid[rows])
        B += np.outer(u, u)
    V = bread_inv @ B @ bread_inv.T
    return 0.5 * (V + V.T)


def fit_ols(validation, spec, transform=None):
    """Solve the unweighted estimating equation sum phi_i (x_i - phi_i'a) = 0.

    Equivalent to least squares via the normal equations; the coefficient
    covariance is the cluster-robust sandwich grouped by subject id.
    """
    phi, groups, transform = _design_and_groups(validation, spec, transform)
    gram = _check_rank(phi)
    alpha = linalg.solve_spd(gram, phi.T @ validation.x)
    resid = validation.x - phi @ alpha
    n, p = phi.shape
    sigma2 = float(resid @ resid) / max(n - p, 1)
    bread_inv = linalg.inv_spd(gram)
    v_alpha = _cluster_sandwich(phi, resid, groups, bread_inv)
    return MemFit(params=MemParams(alpha=alpha), psi=0.0, sigma2=sigma2,
                  v_alpha=v_alpha, spec=spec, transform=transform,
                  n_subjects=len(groups), n_obs=n)


def estimate_psi(residuals_by_subject, sigma2=None):
    """Moment estimator of the exchangeable within-subject correlation.

    Mean pairwise within-subject residual product divided by the residual
    variance.  Falls back to 0 (with a warning) when no subject contributes
    a pair; estimates outside [0, PSI_MAX] are clamped with a warning.
    """
    groups = [np.asarray(r, dtype=float) for r in residuals_by_subject]
    all_resid = np.concatenate(groups) if groups else np.array([])
    if all_resid.size == 0:
        raise ContractViolationError("no residuals supplied")
    if sigma2 is None:
        sigma2 = float(all_resid @ all_resid) / all_resid.size
    num = 0.0
    pairs = 0
    for r in groups:
        m = len(r)
        if m < 2:
            continue
        s = r.sum()
        num += 0.5 * (s * s - r @ r)
        pairs += m * (m - 1) // 2
    if pairs == 0:
        warnings.warn("all subjects have a single occasion; psi set to 0")
        return 0.0
    if sigma2 <= 0.0:
        return 0.0
    psi = num / pairs / sigma2
    if psi < 0.0 or psi > constants.PSI_MAX:
        warnings.warn(f"psi estimate {psi:.4f} outside [0, {constants.PSI_MAX}]; clamped")
        psi = min(max(psi, 0.0), constants.PSI_MAX)
    return float(psi)


def _exchangeable_inverses(groups, psi):
    """Inverse working correlation per subject (unit variance scale)."""
    blocks = []
    for rows in groups:
        m = len(rows)
        # R = (1-psi) I + psi J; R^-1 = (I - psi/(1+(m-1)psi) J) / (1-psi).
        shrink = psi / (1.0 + (m - 1) * psi)
        blocks.append((np.eye(m) - shrink * np.ones((m, m))) / (1.0 - psi))
    return blocks


def fit_gee(validation, spec, working="exchangeable", transform=None):
    """GEE fit with identity link and Gaussian variance.

    Independence working correlation reproduces OLS exactly; exchangeable
    alternates IRLS coefficient updates with moment re-estimation of psi.
    The sigma^2 scale of the working covariance cancels in the coefficient
    update and is folded into the reported dispersion.
    """
    if working not in ("independence", "exchangeable"):
        raise ContractViolationError(f"unknown working correlation '{working}'")
    if working == "independence":
        return fit_ols(validation, spec, transform=transform)

    phi, groups, transform = _design_and_groups(validation, spec, transform)
    _check_rank(phi)
    x = validation.x
    n, p = phi.shape
    # IRLS from the OLS solution.
    alpha = linalg.solve_spd(phi.T @ phi, phi.T @ x)
    psi = 0.0
    last_delta = np.inf
    for _ in range(constants.GEE_MAX_ITER):
        resid = x - phi @ alpha
        sigma2 = float(resid @ resid) / max(n - p, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            psi = estimate_psi([resid[rows] for rows in groups], sigma2=sigma2)
        vinv = _exchangeable_inverses(groups, psi)
        A = np.zeros((p, p))
        rhs = np.zeros(p)
        for g, rows in enumerate(groups):
            pv = phi[rows].T @ vinv[g]
            A += pv @ phi[rows]
            rhs += pv @ x[rows]
        new_alpha = linalg.solve_spd(A, rhs)
        last_delta = float(np.max(np.abs(new_alpha - alpha)))
        alpha = new_alpha
        if last_delta < constants.GEE_PARAM_TOL:
            break
    else:
        raise ConvergenceError(
            f"GEE did not converge in {constants.GEE_MAX_ITER} iterations "
            f"(last max |delta| = {last_delta:.3e})")

    resid = x - phi @ alpha
    sigma2 = float(resid @ resid) / max(n - p, 1)
    vinv = _exchangeable_inverses(groups, psi)
    A = np.zeros((p, p))
    for g, rows in enumerate(groups):
        A += phi[rows].T @ vinv[g] @ phi[rows]
    bread_inv = linalg.inv_spd(A)
    v_alpha = _cluster_sandwich(phi, resid, groups, bread_inv, vinv_blocks=vinv)
    return MemFit(params=MemParams(alpha=alpha), psi=psi, sigma2=sigma2,
                  v_alpha=v_alpha, spec=spec, transform=transform,
                  n_subjects=len(groups), n_obs=n)


def predict_mu(fit, z, w):
    """Calibrated exposure for one (z, w) pair: phi(z, w)' alpha-hat."""
    phi = transforms.build_design(fit.spec, fit.transform, z, w)
    if phi.shape[0] != fit.alpha.shape[0]:
        raise ContractViolationError(
            f"design length {phi.shape[0]} does not match coefficient "
            f"length {fit.alpha.shape[0]}")
    return float(phi @ fit.alpha)


def predict_mu_matrix(fit, zmat, wmat):
    """Vectorized :func:`predict_mu` over row-aligned surrogate/confounder matrices."""
    phi = transforms.build_design_matrix(fit.spec, fit.transform, zmat, wmat)
    return phi @ fit.alpha


def qic(fit, validation):
    """Quasi-likelihood under the independence model criterion.

    Uses the fitted coefficients; the quasi-likelihood, dispersion, and
    independence information are all evaluated on ``validation``.
    """
    phi = transforms.build_design_matrix(fit.spec, fit.transform,
                                         validation.z, validation.w)
    resid = validation.x - phi @ fit.alpha
    n, p = phi.shape
    rss = float(resid @ resid)
    disp = rss / max(n - p, 1)
    gram = phi.T @ phi
    try:
        linalg.cholesky(gram)
    except DecompositionError as exc:
        raise SingularDesignError("independence information is singular") from exc
    if disp == 0.0:
        quasi_term = 0.0
        trace_term = float(np.trace(gram @ fit.v_alpha))
    else:
        quasi_term = rss / disp  # -2 * (-(1/2) sum r^2) / phi-hat
        trace_term = float(np.trace(gram @ fit.v_alpha)) / disp
    return quasi_term + 2.0 * trace_term
