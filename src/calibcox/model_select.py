"""Cross-validated ranking of candidate measurement error models.

Folds are formed over subjects, not rows: every occasion of a subject shares
a fold, so no subject leaks between train and test.  Transforms (PCA axes,
spline bases) are refit inside each training fold; the pooled held-out
absolute errors give the MAE, the per-fold MAEs give its quantiles, and QIC
is the full-data fit's, taken on the data it was fitted to.  Candidates are
ranked by MAE with QIC as the tiebreaker.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import mem, transforms
from .errors import DataError


@dataclass(frozen=True)
class CvMetrics:
    spec: transforms.DesignSpec
    mae_mean: float
    mae_q25: float
    mae_q50: float
    mae_q75: float
    mse_mean: float
    qic: float
    transform: object  # fitted on the full data; None if failed or not needed
    error: Exception = None  # what the candidate's fit raised, if it failed

    @property
    def failed(self):
        return self.error is not None

    @property
    def failure_reason(self):
        return "" if self.error is None else str(self.error)


def kfold_split(validation, rng, k=5):
    """Partition the subjects into k folds of near-equal subject counts.

    ``rng`` (a NumPy Generator) draws the assignment.  Returns a list of k
    arrays of row indices; all of a subject's rows share its fold.
    """
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    n_subjects = validation.n_subjects
    if n_subjects < k:
        raise DataError(f"need at least {k} subjects, got {n_subjects}")
    # The subject at position pos of a random permutation goes to fold pos % k.
    fold_of = np.empty(n_subjects, dtype=np.intp)
    fold_of[rng.permutation(n_subjects)] = np.arange(n_subjects) % k
    row_folds = fold_of[validation.subject_codes]
    return [np.flatnonzero(row_folds == f) for f in range(k)]


def cv_evaluate(validation, specs, rng, k=5, working="exchangeable"):
    """Fit every candidate on k-1 folds, score on the held-out fold, rank.

    A transform depends on the data it is fitted on and on the spec's
    reduction, not on its interactions.  So each training set's (and the
    full data's) transform is fitted once per reduction, when a candidate
    first needs it, and handed to the fits of every candidate that differs
    only in interactions.  Every ``pca<k>`` takes the first k of one set of
    principal axes per data set.  A candidate whose transform cannot be
    fitted fails with the message it did when it fitted its own.  Failed
    candidates are kept in the output, marked and sorted last.  A held-out
    fold is scored from its rows of ``validation``.
    """
    folds = kfold_split(validation, rng, k=k)
    all_rows = np.arange(len(validation))
    splits = [(validation.subset(np.setdiff1d(all_rows, f)), f) for f in folds]
    fitted = {}

    def transform(key, data, spec):
        if spec.variant == "pca":
            transforms.check_pca_size(data.z, spec.n_components)
            if (key, "pca") not in fitted:
                fitted[key, "pca"] = transforms.pca_axes(data.z)
            return transforms.leading_axes(fitted[key, "pca"], spec.n_components)
        reduction = dataclasses.replace(spec, include_interactions=False)
        if (key, reduction) not in fitted:
            fitted[key, reduction] = transforms.fit_transform(
                reduction, data.z, data.radii)
        return fitted[key, reduction]

    def fit_gee(key, data, spec):
        return mem.fit_gee(data, spec, working=working,
                           transform=transform(key, data, spec))

    out = []
    for spec in specs:
        abs_errors, sq_errors, fold_maes = [], [], []
        try:
            for i, (train, f) in enumerate(splits):
                fit = fit_gee(i, train, spec)
                phi = transforms.build_design_matrix(
                    fit.spec, fit.transform, validation.z[f], validation.w[f])
                err = validation.x[f] - phi @ fit.alpha
                abs_errors.append(np.abs(err))
                sq_errors.append(err ** 2)
                fold_maes.append(float(np.mean(np.abs(err))))
            full = fit_gee("full", validation, spec)
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
                             qic=full.qic, transform=full.transform))
    ok = sorted((m for m in out if not m.failed),
                key=lambda m: (m.mae_mean, m.qic))
    return ok + [m for m in out if m.failed]


def candidate_grid(p_z):
    """The standard candidate set: all-radii / single-radius standard models,
    PCA with 2 or 3 components, splines with 3-7 knots, plus with-interaction
    variants of each family but the single-radius one."""
    Spec = transforms.DesignSpec
    specs = ([Spec(variant="standard")]
             + [Spec(variant="standard", radius_subset=(j,)) for j in range(min(4, p_z))]
             + [Spec(variant="pca", n_components=k) for k in (2, 3) if k <= p_z]
             + [Spec(variant="rcs", n_knots=m) for m in range(3, 8) if m <= p_z])
    return specs + [dataclasses.replace(s, include_interactions=True)
                    for s in specs if s.radius_subset is None]
