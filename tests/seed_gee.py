"""The GEE measurement error model fits as they were before size buckets.

A verbatim copy of the per-subject loop versions of ``fit_gee``,
``fit_ols``, ``estimate_psi``, ``_exchangeable_inverses`` and
``_cluster_sandwich`` (one working inverse, one score and one outer product
per subject, added into a running total), kept as the reference that
``test_gee_buckets`` requires the bucketed fits to match bit for bit.  Four
things differ: the imports and the error classes raised, now the package's
``NumericalError``; ``_design_and_groups`` builds the subject groups
from ``subject_groups()`` here, as the loop versions did; ``fit_ols`` forms
the Gram matrix itself rather than take it from ``mem._check_rank``; and
the fits set ``MemFit.qic`` to nan, because QIC came from a separate call.
``_subset`` numbers its rows' ids with ``data_model.number_subjects``, as
``ValidationDataset`` takes its subjects as labels and codes.

That call, ``qic``, is copied verbatim as well, and so is the
cross-validation that scored each held-out fold as a dataset of its own and
took QIC from that call: ``_subset`` and ``cv_evaluate``, where only
``mem.qic`` became ``qic``.  ``test_cv_evaluate_matches_seed`` requires
``model_select.cv_evaluate`` to match it.

The package's ``transforms.fit_transform`` and ``mem.fit_gee`` now take the
dataset and fit the transform themselves, so the calls to them pass a
dataset, and ``cv_evaluate`` no longer keeps transforms of its own to hand
to ``mem.fit_gee``; no arithmetic changed.
"""

import warnings

import numpy as np

from calibcox import constants, data_model, linalg, mem, transforms
from calibcox.errors import DataError, NumericalError
from calibcox.linalg import DecompositionError
from calibcox.mem import MemFit, _check_rank
from calibcox.model_select import CvMetrics, kfold_split


def _design_and_groups(validation, spec, transform=None):
    if transform is None:
        transform = transforms.fit_transform(spec, validation)
    phi = transforms.build_design_matrix(spec, transform, validation.z, validation.w)
    groups = list(validation.subject_groups().values())
    return phi, groups, transform


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
    _check_rank(phi)
    gram = phi.T @ phi
    alpha = linalg.solve_spd(gram, phi.T @ validation.x)
    resid = validation.x - phi @ alpha
    n, p = phi.shape
    sigma2 = float(resid @ resid) / max(n - p, 1)
    bread_inv = linalg.inv_spd(gram)
    v_alpha = _cluster_sandwich(phi, resid, groups, bread_inv)
    return MemFit(alpha=alpha, psi=0.0, sigma2=sigma2,
                  v_alpha=v_alpha, spec=spec, transform=transform,
                  n_subjects=len(groups), n_obs=n, qic=np.nan,
                  radii=validation.radii, confounder_names=validation.confounder_names)


def estimate_psi(residuals_by_subject, sigma2=None):
    """Moment estimator of the exchangeable within-subject correlation.

    Mean pairwise within-subject residual product divided by the residual
    variance.  Falls back to 0 (with a warning) when no subject contributes
    a pair; estimates outside [0, PSI_MAX] are clamped with a warning.
    """
    groups = [np.asarray(r, dtype=float) for r in residuals_by_subject]
    all_resid = np.concatenate(groups) if groups else np.array([])
    if all_resid.size == 0:
        raise DataError("no residuals supplied")
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
        raise DataError(f"unknown working correlation '{working}'")
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
        raise NumericalError(
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
    return MemFit(alpha=alpha, psi=psi, sigma2=sigma2,
                  v_alpha=v_alpha, spec=spec, transform=transform,
                  n_subjects=len(groups), n_obs=n, qic=np.nan,
                  radii=validation.radii, confounder_names=validation.confounder_names)


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
        raise NumericalError("independence information is singular") from exc
    if disp == 0.0:
        quasi_term = 0.0
        trace_term = float(np.trace(gram @ fit.v_alpha))
    else:
        quasi_term = rss / disp  # -2 * (-(1/2) sum r^2) / phi-hat
        trace_term = float(np.trace(gram @ fit.v_alpha)) / disp
    return quasi_term + 2.0 * trace_term


def _subset(validation, rows):
    return data_model.ValidationDataset(
        *data_model.number_subjects(
            validation.subject_ids[validation.subject_codes[rows]]),
        occasion=validation.occasion[rows],
        x=validation.x[rows], z=validation.z[rows], w=validation.w[rows],
        radii=validation.radii, confounder_names=validation.confounder_names)


def cv_evaluate(validation, specs, rng, k=5, working="exchangeable"):
    """Fit every candidate on k-1 folds, score on the held-out fold, rank.

    Each fit takes its transform from its own data set.  Failed
    candidates are kept in the output, marked and sorted last.
    """
    folds = kfold_split(validation, rng, k=k)
    all_rows = np.arange(len(validation))
    splits = [(_subset(validation, np.setdiff1d(all_rows, f)), _subset(validation, f))
              for f in folds]

    out = []
    for spec in specs:
        abs_errors, sq_errors, fold_maes = [], [], []
        try:
            for train, test in splits:
                fit = mem.fit_gee(train, spec, working=working)
                err = test.x - transforms.build_design_matrix(
                    fit.spec, fit.transform, test.z, test.w) @ fit.alpha
                abs_errors.append(np.abs(err))
                sq_errors.append(err ** 2)
                fold_maes.append(float(np.mean(np.abs(err))))
            full = mem.fit_gee(validation, spec, working=working)
            qic_value = qic(full, validation)
        except (ValueError, ArithmeticError) as exc:
            # Keep the error without its tracebacks and the errors chained
            # to it: their frames link back to this call's and would keep
            # all its data alive.
            exc.__traceback__ = exc.__cause__ = exc.__context__ = None
            out.append(CvMetrics(spec=spec, mae_mean=np.nan, mae_q25=np.nan,
                                 mae_q50=np.nan, mae_q75=np.nan,
                                 mse_mean=np.nan, qic=np.nan, transform=None,
                                 error=exc))
            continue
        abs_all = np.concatenate(abs_errors)
        sq_all = np.concatenate(sq_errors)
        q25, q50, q75 = np.quantile(fold_maes, [0.25, 0.50, 0.75])
        out.append(CvMetrics(spec=spec, mae_mean=float(abs_all.mean()),
                             mae_q25=float(q25), mae_q50=float(q50),
                             mae_q75=float(q75), mse_mean=float(sq_all.mean()),
                             qic=float(qic_value), transform=full.transform))
    ok = sorted((m for m in out if not m.failed),
                key=lambda m: (m.mae_mean, m.qic))
    return ok + [m for m in out if m.failed]

