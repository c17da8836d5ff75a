"""Shared fixtures and small data builders for the test suite."""

import dataclasses

import numpy as np
import pytest

from calibcox import coxph, constants, data_model, inference


def make_validation(rng, n_subjects=30, occasions=4, p_z=3, p_w=1,
                    alpha=None, sigma2=0.04, rho=0.0, radii=None):
    """Synthetic validation cohort with optional exchangeable residuals.

    X = phi' alpha + e where the design is the standard no-interaction row
    [1, z, w] and the residuals are exchangeable within subject with
    correlation rho (shared subject effect plus independent noise).
    """
    n = n_subjects * occasions
    z = rng.normal(0.5, 0.1, size=(n, p_z))
    w = rng.normal(1.0, 1.0, size=(n, p_w))
    if alpha is None:
        alpha = rng.normal(0.0, 0.5, size=1 + p_z + p_w)
    alpha = np.asarray(alpha, dtype=float)
    phi = np.hstack([np.ones((n, 1)), z, w])
    shared = np.repeat(rng.normal(0.0, 1.0, size=n_subjects), occasions)
    noise = rng.normal(0.0, 1.0, size=n)
    resid = np.sqrt(sigma2) * (np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * noise)
    x = phi @ alpha + resid
    ids = np.repeat([f"s{i}" for i in range(n_subjects)], occasions)
    occ = np.tile(np.arange(1, occasions + 1), n_subjects)
    if radii is None:
        radii = 100.0 * np.arange(1, p_z + 1)
    return data_model.ValidationDataset(
        *data_model.number_subjects(ids), occasion=occ, x=x, z=z, w=w,
        radii=np.asarray(radii, dtype=float),
        confounder_names=tuple(f"w_{j + 1}" for j in range(p_w))), alpha


def ragged_validation(rng, sizes, rho=0.4, sigma2=0.04, p_z=3):
    """Subjects of the given cluster sizes, their rows shuffled together."""
    n = int(np.sum(sizes))
    order = rng.permutation(n)
    ids = np.repeat([f"s{i}" for i in range(len(sizes))], sizes)[order]
    occasion = np.concatenate([np.arange(1, m + 1) for m in sizes])[order]
    shared = np.repeat(rng.normal(size=len(sizes)), sizes)[order]
    z = rng.normal(0.5, 0.1, size=(n, p_z))
    w = rng.normal(1.0, 1.0, size=(n, 1))
    x = (0.3 + z @ rng.normal(0.0, 0.5, size=p_z) + 0.2 * w[:, 0]
         + np.sqrt(sigma2) * (np.sqrt(rho) * shared
                              + np.sqrt(1.0 - rho) * rng.normal(size=n)))
    return data_model.ValidationDataset(
        *data_model.number_subjects(ids), occasion=occasion, x=x, z=z, w=w,
        radii=100.0 * np.arange(1, p_z + 1), confounder_names=("w_1",))


def assert_same_results(got, want):
    """Two lists of replicate results agree field by field, NaN equal to
    NaN: a result back from a worker process holds new NaN objects."""
    np.testing.assert_equal([dataclasses.astuple(r) for r in got],
                            [dataclasses.astuple(r) for r in want])


def residual_clusters(groups):
    """Per-subject residuals in the form ``mem.estimate_psi`` takes them.

    Returns the residuals concatenated in subject order and the size
    buckets that group them, as ``ValidationDataset.subject_buckets`` holds
    them.  Subjects may have no residuals.
    """
    groups = [np.asarray(g, dtype=float) for g in groups]
    resid = np.concatenate(groups) if groups else np.array([])
    sizes = np.array([len(g) for g in groups], dtype=np.intp)
    return resid, data_model._size_buckets(np.arange(resid.size), sizes)


def make_survival(rng, n=60, d=2, beta=None, censor_frac=0.3):
    """Small survival dataset with exponential times tied to a linear predictor."""
    if beta is None:
        beta = rng.normal(0.0, 0.5, size=d)
    beta = np.asarray(beta, dtype=float)
    u = rng.normal(0.0, 1.0, size=(n, d))
    t0 = rng.exponential(np.exp(-(u @ beta)))
    cens = rng.exponential(np.quantile(t0, 1.0 - censor_frac), size=n)
    time = np.minimum(t0, cens)
    event = (t0 <= cens).astype(int)
    if event.sum() == 0:
        event[np.argmin(time)] = 1
    return u, time, event, beta


def time_ordered(time, event, *rows):
    """``(time, event, *rows)`` in stable time order, as ``coxph.RiskSets`` takes them."""
    order = np.argsort(time, kind="stable")
    return tuple(np.asarray(a)[order] for a in (time, event) + rows)


def loglik(rs, u, beta):
    """Breslow log partial likelihood of the time-ordered rows ``u`` at ``beta``."""
    eta, _, S0 = rs.weights(np.asarray(u, dtype=float), beta)
    return rs.loglik(eta, S0)


def risk_sums(rs, u, beta):
    """(w, S0, S1) of the time-ordered rows ``u`` at ``beta``: the
    risk-set sums ``coxph.fit`` returns, which G and U_alpha take."""
    _, w, S0 = rs.weights(u, beta)
    return w, S0, rs.moments(u, w)[0]


def information(rs, u, beta):
    """The information of the time-ordered rows ``u`` at ``beta``."""
    _, w, S0 = rs.weights(u, beta)
    return rs.information(S0, *rs.moments(u, w))


def score(rs, u, beta):
    """The Newton loop's score of the time-ordered rows ``u`` at ``beta``."""
    _, w, S0 = rs.weights(u, beta)
    return rs.score(u, S0, rs.moments(u, w)[0])


def row_build_fd(rs, phi, w, beta, alpha):
    """Central differences in alpha of the score, with new rows per step.

    The reference for ``inference.u_alpha_fd``: coefficient k moves by its
    h_k either way, the rows are built again from the moved exposure and
    the confounders ``w``, and each score takes S0 and S1 afresh.
    """
    xhat = phi @ alpha
    cols = []
    for k in range(len(alpha)):
        h = constants.FD_STEP * max(1.0, abs(alpha[k]))
        step = h * phi[:, k]
        cols.append((score(rs, coxph.build_cox_rows(xhat + step, w), beta)
                     - score(rs, coxph.build_cox_rows(xhat - step, w), beta)) / (2.0 * h))
    return np.column_stack(cols)


def check_fd(rs, phi, w, beta, alpha):
    """``inference.u_alpha_fd`` on the fitted-weight arguments that
    ``fit_calibrated_cox`` hands it, for the time-ordered ``phi`` and ``w``."""
    u = coxph.build_cox_rows(phi @ alpha, w)
    c = coxph.exposure_gradient(w)
    return inference.u_alpha_fd(rs, u, risk_sums(rs, u, beta), phi, c, c @ beta, alpha)


def risk_set_indices(time, event):
    """Risk sets {j : T_j >= T_i} for every event record, via one sort.

    The O(n^2) oracle (one index array per event) for the risk-set engine
    in ``coxph``.  Ties between an event and a censoring time keep the
    censored subject in the risk set.  Returns a list of
    (event_index, index_array) pairs in the original row order of the events.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event)
    if len(time) == 0:
        raise ValueError("dataset is empty")
    order = np.argsort(time, kind="stable")
    sorted_times = time[order]
    out = []
    for i in np.flatnonzero(event == 1):
        pos = np.searchsorted(sorted_times, time[i], side="left")
        out.append((int(i), np.sort(order[pos:])))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
