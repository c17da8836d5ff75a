"""Cross-validated ranking of candidate measurement error models.

Folds are formed over subjects, not rows: every occasion of a subject shares
a fold, so no subject leaks between train and test.  Transforms (PCA axes,
spline bases) are refit inside each training fold; the pooled held-out
absolute errors give the MAE, the per-fold MAEs give its quantiles, and QIC
comes from a fit on the full data.  Candidates are ranked by MAE with QIC as
the tiebreaker.
"""

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import data_model, mem, transforms


@dataclass(frozen=True)
class CvMetrics:
    spec: transforms.DesignSpec
    mae_mean: float
    mae_q25: float
    mae_q50: float
    mae_q75: float
    mse_mean: float
    qic: float
    failed: bool = False
    failure_reason: str = ""


def kfold_split(validation, k=5, rng=None):
    """Partition the subjects into k folds of near-equal subject counts.

    Returns a list of k arrays of row indices; all of a subject's rows share
    its fold.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    codes = validation.subject_codes
    n_subjects = np.bincount(codes).size
    if n_subjects < k:
        raise ValueError(f"need at least {k} subjects, got {n_subjects}")
    # The subject at position pos of a random permutation goes to fold pos % k.
    fold_of = np.empty(n_subjects, dtype=np.intp)
    fold_of[rng.permutation(n_subjects)] = np.arange(n_subjects) % k
    row_folds = fold_of[codes]
    return [np.flatnonzero(row_folds == f) for f in range(k)]


def _subset(validation, rows):
    return data_model.ValidationDataset(
        ids=validation.ids[rows], occasion=validation.occasion[rows],
        x=validation.x[rows], z=validation.z[rows], w=validation.w[rows],
        radii=validation.radii, confounder_names=validation.confounder_names)


def cv_evaluate(validation, specs, k=5, rng=None, working="exchangeable"):
    """Fit every candidate on k-1 folds, score on the held-out fold, rank.

    A transform depends on the data it is fitted on and on the spec's
    reduction, not on its interactions.  So each training set's (and the
    full data's) transform is fitted once per reduction, when a candidate
    first needs it, and handed to the fits of every candidate that differs
    only in interactions; a candidate whose transform cannot be fitted
    fails with the message it did when it fitted its own.  Failed
    candidates are kept in the output, marked and sorted last.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    folds = kfold_split(validation, k=k, rng=rng)
    all_rows = np.arange(len(validation))
    splits = [(_subset(validation, np.setdiff1d(all_rows, f)), _subset(validation, f))
              for f in folds]
    fitted = {}

    def fit_gee(key, data, spec):
        reduction = dataclasses.replace(spec, include_interactions=False,
                                        interacting_confounders=None)
        if (key, reduction) not in fitted:
            fitted[key, reduction] = transforms.fit_transform(
                reduction, data.z, data.radii,
                warn=lambda msg: warnings.warn(msg, stacklevel=3))
        return mem.fit_gee(data, spec, working=working,
                           transform=fitted[key, reduction])

    out = []
    for spec in specs:
        abs_errors, sq_errors, fold_maes = [], [], []
        try:
            for i, (train, test) in enumerate(splits):
                fit = fit_gee(i, train, spec)
                pred = mem.predict_mu_matrix(fit, test.z, test.w)
                err = test.x - pred
                abs_errors.append(np.abs(err))
                sq_errors.append(err ** 2)
                fold_maes.append(float(np.mean(np.abs(err))))
            full = fit_gee("full", validation, spec)
            qic_value = mem.qic(full, validation)
        except (ValueError, ArithmeticError) as exc:
            out.append(CvMetrics(spec=spec, mae_mean=np.nan, mae_q25=np.nan,
                                 mae_q50=np.nan, mae_q75=np.nan,
                                 mse_mean=np.nan, qic=np.nan,
                                 failed=True, failure_reason=str(exc)))
            continue
        abs_all = np.concatenate(abs_errors)
        sq_all = np.concatenate(sq_errors)
        q25, q50, q75 = np.quantile(fold_maes, [0.25, 0.50, 0.75])
        out.append(CvMetrics(spec=spec, mae_mean=float(abs_all.mean()),
                             mae_q25=float(q25), mae_q50=float(q50),
                             mae_q75=float(q75), mse_mean=float(sq_all.mean()),
                             qic=float(qic_value)))
    ok = sorted((m for m in out if not m.failed),
                key=lambda m: (m.mae_mean, m.qic))
    return ok + [m for m in out if m.failed]


def candidate_grid(p_z, p_w, interactions=True):
    """The standard candidate set: all-radii / single-radius standard models,
    PCA with 2 or 3 components, splines with 3-7 knots, plus (optionally)
    with-interaction variants of each family."""
    specs = [transforms.DesignSpec(variant="standard")]
    for j in range(min(4, p_z)):
        specs.append(transforms.DesignSpec(variant="standard", radius_subset=(j,)))
    for k in (2, 3):
        if k <= p_z:
            specs.append(transforms.DesignSpec(variant="pca", n_components=k))
    for m in range(3, 8):
        if m <= p_z:
            specs.append(transforms.DesignSpec(variant="rcs", n_knots=m))
    if interactions:
        specs.append(transforms.DesignSpec(variant="standard", include_interactions=True))
        for k in (2, 3):
            if k <= p_z:
                specs.append(transforms.DesignSpec(variant="pca", n_components=k,
                                                   include_interactions=True))
        for m in range(3, 8):
            if m <= p_z:
                specs.append(transforms.DesignSpec(variant="rcs", n_knots=m,
                                                   include_interactions=True))
    return specs
