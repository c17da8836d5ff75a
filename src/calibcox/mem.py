"""Measurement error model: E[X | Z, W] fitted on validation data.

The model is linear in the design row from :mod:`calibcox.transforms`.
Coefficients come from a GEE with an independence or exchangeable working
correlation across a subject's repeated occasions; the independence GEE is
OLS (Liang & Zeger 1986), the start from which the exchangeable IRLS
iterates.  The reported coefficient covariance is always the cluster-robust
sandwich with one cluster per subject, which is what the downstream Cox
variance propagation consumes.

Every sum over subjects runs over the study's ``subject_buckets``, derived
once per dataset, and equals the per-subject loop's bit for bit.

QIC follows Pan's quasi-likelihood criterion specialized to the Gaussian
identity-link case: QIC = -2 Q / phi + 2 trace(Omega_I V_R), with
Q = -(1/2) sum (x - mu)^2, phi the Pearson dispersion, Omega_I the
independence-model information scaled by 1/phi, and V_R the robust
coefficient covariance.  As Pan (2001) defines it, it is taken at the fit,
on the data the model was fitted to, and the fit reports it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants, linalg, transforms
from .errors import DataError, NumericalError


@dataclass(frozen=True)
class MemFit:
    """A fitted measurement error model plus everything inference needs.

    ``qic`` is the fit's QIC, taken on the fit's own (validation) data, whose
    ``radii`` and ``confounder_names`` a main study must share to be calibrated.
    """

    alpha: np.ndarray  # ordered as the design row: (a0, a1', a2', a3')
    psi: float
    sigma2: float
    v_alpha: np.ndarray
    spec: transforms.DesignSpec
    transform: object
    n_subjects: int
    n_obs: int
    qic: float
    radii: np.ndarray
    confounder_names: tuple


# Values per stack of per-subject terms (see _subject_sums): subjects are
# summed a block at a time, so no G x p x p array is built for a large study.
_BLOCK_VALUES = 1 << 16


def _subject_sums(buckets, terms, shapes):
    """Sums over subjects of per-subject terms, added in subject order.

    ``buckets`` is a study's ``subject_buckets``, and ``terms(m, rows)``
    returns, for the subjects of size m whose rows ``rows`` holds, one
    (g,) + shape array per entry of ``shapes``.  The subjects are taken in
    blocks of consecutive subject numbers, as many as keep each stack within
    _BLOCK_VALUES values, and a binary search cuts each bucket per block.
    Each block's terms are stacked in subject order behind the running total
    and added along the stack one slice at a time: the same additions, in the
    same order, as a loop adding each subject's term into a zero total,
    whatever the block.  ``np.add.reduce`` adds slices of two or more values
    that way, but pairs up single values, which ``np.cumsum`` adds in order,
    at a higher cost.
    """
    n = sum(len(subjects) for _, subjects, _ in buckets)
    block = max(1, _BLOCK_VALUES // max(math.prod(shape) for shape in shapes))
    totals = [np.zeros(shape) for shape in shapes]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        stacks = [np.empty((1 + hi - lo,) + shape) for shape in shapes]
        for stack, total in zip(stacks, totals):
            stack[0] = total
        for m, subjects, rows in buckets:
            a, b = np.searchsorted(subjects, (lo, hi))
            if a < b:
                for stack, term in zip(stacks, terms(m, rows[a:b])):
                    stack[1 + subjects[a:b] - lo] = term
        totals = [np.add.reduce(stack, axis=0) if stack[0].size > 1
                  else np.cumsum(stack, axis=0)[-1] for stack in stacks]
    return totals


def _check_rank(phi):
    """The Gram matrix phi' phi and its Cholesky factor, which the OLS solve,
    the independence bread and QIC reuse.

    Raises NumericalError when the design is numerically rank deficient.
    """
    gram = phi.T @ phi
    # Relative pivot floor: exact collinearity leaves a tiny positive pivot
    # in floating point, which must still count as rank deficiency.
    floor = 1e-10 * float(np.max(np.diag(gram)))
    try:
        return gram, linalg.cholesky(gram, min_pivot=floor)
    except linalg.DecompositionError as exc:
        raise NumericalError(
            f"design matrix is rank deficient: column {exc.pivot} is collinear "
            f"with the preceding columns"
        ) from exc


# The per-subject products below are stacked np.matmul calls over a bucket.
# Each slice has the shapes and strides of the product of one subject's
# arrays, so NumPy makes the same BLAS call for it, with the same result.

def _cluster_sandwich(phi, resid, buckets, bread_inv, vinv=None):
    """A^-1 B A^-T with B the per-subject score outer-product sum.

    ``vinv`` maps a cluster size to its inverse working correlation; without
    it the working correlation is the identity.
    """
    p = phi.shape[1]

    def outer_scores(m, rows):
        r = resid[rows][:, :, None]
        if vinv is not None:
            r = np.matmul(vinv[m], r)
        u = np.matmul(phi[rows].transpose(0, 2, 1), r)
        return (u * u.transpose(0, 2, 1),)

    B, = _subject_sums(buckets, outer_scores, ((p, p),))
    V = bread_inv @ B @ bread_inv.T
    return 0.5 * (V + V.T)


def estimate_psi(resid, buckets, sigma2):
    """Moment estimator of the exchangeable within-subject correlation.

    Mean pairwise within-subject residual product divided by the residual
    variance ``sigma2``.  ``resid`` holds one residual per row and
    ``buckets`` is the ``subject_buckets`` of the study those rows are, so
    the pair products are summed over its size buckets without regrouping
    the residuals.  Falls back to 0 when no subject contributes a pair or
    sigma2 is not positive; estimates outside [0, PSI_MAX] are clamped.  It
    never warns: the GEE fits call it once per IRLS iteration, also from
    concurrent Monte Carlo replicates, where silencing a warning would swap
    the process-wide filter list.
    """
    if resid.size == 0:
        raise DataError("no residuals supplied")

    def pair_products(m, rows):
        # Half the sum of a subject's pairwise residual products, or 0 for
        # a single occasion; r @ r is the slice product, as ddot forms it.
        if m < 2:
            return (np.zeros(len(rows)),)
        r = resid[rows]
        s = r.sum(axis=1)
        return (0.5 * (s * s - np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]),)

    num, = _subject_sums(buckets, pair_products, ((),))
    pairs = sum(len(subjects) * (m * (m - 1) // 2) for m, subjects, _ in buckets)
    if pairs == 0 or sigma2 <= 0.0:
        return 0.0
    psi = num / pairs / sigma2
    return float(min(max(psi, 0.0), constants.PSI_MAX))


def _exchangeable_inverses(buckets, psi):
    """Inverse working correlation (unit variance scale) per cluster size."""
    blocks = {}
    for m, _, _ in buckets:
        # R = (1-psi) I + psi J; R^-1 = (I - psi/(1+(m-1)psi) J) / (1-psi).
        shrink = psi / (1.0 + (m - 1) * psi)
        blocks[m] = (np.eye(m) - shrink * np.ones((m, m))) / (1.0 - psi)
    return blocks


def _gee_normal_equations(phi, x, buckets, vinv):
    """(A, rhs) = sums over subjects of (phi' V^-1 phi, phi' V^-1 x)."""
    p = phi.shape[1]

    def weighted(m, rows):
        P = phi[rows]
        pv = np.matmul(P.transpose(0, 2, 1), vinv[m])
        return np.matmul(pv, P), np.matmul(pv, x[rows][:, :, None])[:, :, 0]

    return _subject_sums(buckets, weighted, ((p, p), (p,)))


def fit_gee(validation, spec, working="exchangeable", transform=None):
    """GEE fit with identity link and Gaussian variance.

    Both working correlations start from the OLS solution.  Independence
    stops there: its estimating equation is OLS's and its bread the Gram
    matrix.  Exchangeable alternates IRLS coefficient updates with moment
    re-estimation of psi.  The sigma^2 scale of the working covariance
    cancels in the coefficient update and is folded into the reported
    dispersion.
    """
    if working not in ("independence", "exchangeable"):
        raise DataError(f"unknown working correlation '{working}'")
    if not len(validation):
        raise DataError("no data rows")
    if transform is None:
        transform = transforms.fit_transform(spec, validation.z, validation.radii)
    phi = transforms.build_design_matrix(spec, transform, validation.z, validation.w)
    x = validation.x
    n, p = phi.shape
    buckets = validation.subject_buckets
    gram, L = _check_rank(phi)
    alpha = linalg.cho_solve(L, phi.T @ x)
    psi, vinv = 0.0, None
    if working == "exchangeable":
        last_delta = np.inf
        for _ in range(constants.GEE_MAX_ITER):
            resid = x - phi @ alpha
            sigma2 = float(resid @ resid) / max(n - p, 1)
            psi = estimate_psi(resid, buckets, sigma2)
            vinv = _exchangeable_inverses(buckets, psi)
            A, rhs = _gee_normal_equations(phi, x, buckets, vinv)
            L = linalg.cholesky(A)
            new_alpha = linalg.cho_solve(L, rhs)
            last_delta = float(np.max(np.abs(new_alpha - alpha)))
            alpha = new_alpha
            if last_delta < constants.GEE_PARAM_TOL:
                break
        else:
            raise NumericalError(
                f"GEE did not converge in {constants.GEE_MAX_ITER} iterations "
                f"(last max |delta| = {last_delta:.3e})")

    resid = x - phi @ alpha
    rss = float(resid @ resid)
    sigma2 = rss / max(n - p, 1)
    # The bread depends on psi alone: L factors the Gram matrix, or the last
    # iteration's A.
    bread_inv = linalg.cho_solve(L, np.eye(p))
    v_alpha = _cluster_sandwich(phi, resid, buckets, bread_inv, vinv=vinv)
    # QIC: the quasi-likelihood term -2 Q / sigma2 = rss / sigma2, plus twice
    # the trace of the independence information times v_alpha.
    trace = float(np.trace(gram @ v_alpha))
    quasi, scaled = (0.0, trace) if sigma2 == 0.0 else (rss / sigma2, trace / sigma2)
    return MemFit(alpha=alpha, psi=psi, sigma2=sigma2,
                  v_alpha=v_alpha, spec=spec, transform=transform,
                  n_subjects=validation.n_subjects, n_obs=n,
                  qic=quasi + 2.0 * scaled, radii=validation.radii,
                  confounder_names=validation.confounder_names)
