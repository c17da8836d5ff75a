"""The Cox risk-set functions as they were before the shared sort.

A verbatim copy of the per-call-sorting evaluators (each call argsorts the
times and builds the full n x d x d and n x d x d_alpha suffix-sum arrays),
kept as the reference that ``test_risk_sets`` requires the sorted-once,
blocked engine to match bit for bit.  Three things differ: the imports (and
with them the error class raised, the package's ``NumericalError``),
``u_alpha_fd`` calls this module's ``score``, not the ``coxph`` one it called,
and ``fit`` builds the package's ``ConvergenceReport``, which no longer
carries a ``converged`` flag.
"""

import numpy as np

from calibcox import constants, linalg
from calibcox.coxph import ConvergenceReport
from calibcox.errors import NumericalError


def _sorted_views(u, time, event):
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    time = np.asarray(time, dtype=float)
    event = np.asarray(event)
    order = np.argsort(time, kind="stable")
    return u[order], time[order], event[order], order


def _risk_quantities(u_s, t_s, beta):
    """Per-row linear predictor and reverse-cumulative risk sums.

    Returns (eta, w, S0, S1, first) where w = exp(eta - max eta), S0/S1 are
    suffix sums of w and w*u, and first[i] is the earliest sorted index tied
    with t_s[i] (ties share a risk set).
    """
    eta = u_s @ beta
    m = eta.max()
    w = np.exp(eta - m)
    S0 = np.cumsum(w[::-1])[::-1]
    S1 = np.cumsum((w[:, None] * u_s)[::-1], axis=0)[::-1]
    first = np.searchsorted(t_s, t_s, side="left")
    return eta, w, S0, S1, first


def score(u, time, event, beta):
    """Score vector sum_i D_i (u_i - S1/S0 at T_i)."""
    u_s, t_s, e_s, _ = _sorted_views(u, time, event)
    beta = np.asarray(beta, dtype=float)
    eta, w, S0, S1, first = _risk_quantities(u_s, t_s, beta)
    ev = e_s == 1
    ubar = S1[first[ev]] / S0[first[ev], None]
    return np.sum(u_s[ev] - ubar, axis=0)


def information(u, time, event, beta):
    """Observed information sum_i D_i (S2/S0 - (S1/S0)(S1/S0)')."""
    u_s, t_s, e_s, _ = _sorted_views(u, time, event)
    beta = np.asarray(beta, dtype=float)
    eta, w, S0, S1, first = _risk_quantities(u_s, t_s, beta)
    wu = w[:, None] * u_s
    S2 = np.cumsum((wu[:, :, None] * u_s[:, None, :])[::-1], axis=0)[::-1]
    ev = e_s == 1
    idx = first[ev]
    ubar = S1[idx] / S0[idx, None]
    info = (S2[idx] / S0[idx, None, None]).sum(axis=0)
    info -= np.einsum("ij,ik->jk", ubar, ubar)
    return 0.5 * (info + info.T)


def _loglik_score_info(u_s, t_s, e_s, beta):
    eta, w, S0, S1, first = _risk_quantities(u_s, t_s, beta)
    ev = e_s == 1
    idx = first[ev]
    m = eta.max()
    ll = float(np.sum(eta[ev] - (np.log(S0[idx]) + m)))
    ubar = S1[idx] / S0[idx, None]
    sc = np.sum(u_s[ev] - ubar, axis=0)
    wu = w[:, None] * u_s
    S2 = np.cumsum((wu[:, :, None] * u_s[:, None, :])[::-1], axis=0)[::-1]
    info = (S2[idx] / S0[idx, None, None]).sum(axis=0)
    info -= np.einsum("ij,ik->jk", ubar, ubar)
    return ll, sc, 0.5 * (info + info.T)


def fit(u, time, event, init=None):
    """Newton-Raphson with step-halving from beta = 0 (or ``init``).

    Converged when the max-norm of the score and the log-likelihood
    improvement drop below COX_GRAD_TOL / COX_LOGLIK_TOL, both scaled by the
    magnitude of the corresponding quantity at the starting point.  Any
    coefficient running past COX_DIVERGENCE_BOUND is treated as
    monotone-likelihood separation.

    Returns (beta, ConvergenceReport).
    """
    u_s, t_s, e_s, _ = _sorted_views(u, time, event)
    if not np.any(e_s == 1):
        raise ValueError("need at least one event")
    d = u_s.shape[1]
    beta = np.zeros(d) if init is None else np.asarray(init, dtype=float).copy()
    ll, sc, info = _loglik_score_info(u_s, t_s, e_s, beta)
    # Scale-aware tolerances: the score is a sum over events, so its floating
    # point noise floor grows with the data; anchor both tests to the size of
    # the problem at the starting point.
    g_tol = constants.COX_GRAD_TOL * max(1.0, float(np.max(np.abs(sc))))
    ll_tol = constants.COX_LOGLIK_TOL * max(1.0, abs(ll))
    for it in range(1, constants.COX_MAX_ITER + 1):
        step = linalg.solve_spd(info, sc)
        # Step-halving keeps the likelihood monotone.
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            ll_new, sc_new, info_new = _loglik_score_info(u_s, t_s, e_s, cand)
            if ll_new >= ll - 1e-13:
                break
            scale *= 0.5
        delta_ll = ll_new - ll
        beta, ll, sc, info = cand, ll_new, sc_new, info_new
        if np.max(np.abs(beta)) > constants.COX_DIVERGENCE_BOUND:
            raise NumericalError(
                f"coefficient magnitude exceeded {constants.COX_DIVERGENCE_BOUND}; "
                f"likely monotone likelihood (separation)")
        if np.max(np.abs(sc)) < g_tol and abs(delta_ll) < ll_tol:
            return beta, ConvergenceReport(it, float(np.max(np.abs(sc))), ll)
    raise NumericalError(
        f"Newton-Raphson did not converge in {constants.COX_MAX_ITER} iterations "
        f"(grad norm {np.max(np.abs(sc)):.3e})")


def g_beta_hat(u, time, event, beta):
    """Robust score-residual outer-product mean.

    Each subject's residual is its own score contribution minus its weighted
    appearances in every earlier event's risk set:

        W_i = D_i (u_i - ubar(T_i))
              - sum_{events e: T_e <= T_i} [exp(eta_i) / S0_raw(T_e)] (u_i - ubar(T_e))

    and G = (1/N) sum_i W_i W_i'.
    """
    u_s, t_s, e_s, _ = _sorted_views(u, time, event)
    beta = np.asarray(beta, dtype=float)
    n, d = u_s.shape
    eta, w, S0, S1, first = _risk_quantities(u_s, t_s, beta)
    ev = np.flatnonzero(e_s == 1)
    if ev.size == 0:
        return np.zeros((d, d))
    idx = first[ev]
    s0_e = S0[idx]
    ubar_e = S1[idx] / s0_e[:, None]
    # Prefix sums over events in time order.
    inv_s0 = np.concatenate([[0.0], np.cumsum(1.0 / s0_e)])
    ubar_over_s0 = np.vstack([np.zeros(d), np.cumsum(ubar_e / s0_e[:, None], axis=0)])
    # Number of event times <= each subject's follow-up (ties stay in the risk set).
    cnt = np.searchsorted(t_s[ev], t_s, side="right")
    corr = w[:, None] * (u_s * inv_s0[cnt, None] - ubar_over_s0[cnt])
    resid = -corr
    resid[ev] += u_s[ev] - ubar_e
    return (resid.T @ resid) / n


def u_alpha_hat(u, time, event, beta, phi, c, b):
    """Analytic derivative of the Cox score with respect to alpha.

    The calibrated exposure enters each covariate row as mu_i = phi_i' alpha,
    so d u_i / d alpha = c_i phi_i' and d eta_i / d alpha = b_i phi_i', with
    c_i = d u_i / d mu_i and b_i = beta' c_i supplied by the caller.  The
    chain rule through both the event terms and the risk-set sums gives

        U_a = sum_events [ c_i phi_i'
                           - (1/S0) sum_R w_j (c_j + b_j u_j) phi_j'
                           + (S1 / S0^2) (x) sum_R w_j b_j phi_j' ].
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    phi = np.asarray(phi, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    beta = np.asarray(beta, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event)
    order = np.argsort(time, kind="stable")
    u_s, t_s, e_s = u[order], time[order], event[order]
    phi_s, c_s, b_s = phi[order], c[order], b[order]
    n, d = u_s.shape
    da = phi_s.shape[1]
    eta, w, S0, S1, first = _risk_quantities(u_s, t_s, beta)
    ev = np.flatnonzero(e_s == 1)
    if ev.size == 0:
        return np.zeros((d, da))
    # Suffix sums of w (c + b u) phi' and of w b phi.
    M = (w[:, None, None]
         * (c_s + b_s[:, None] * u_s)[:, :, None] * phi_s[:, None, :])
    SM = np.cumsum(M[::-1], axis=0)[::-1]
    q = (w * b_s)[:, None] * phi_s
    Sq = np.cumsum(q[::-1], axis=0)[::-1]
    idx = first[ev]
    s0_e = S0[idx]
    out = np.einsum("ij,ik->jk", c_s[ev], phi_s[ev])
    out -= (SM[idx] / s0_e[:, None, None]).sum(axis=0)
    ratio = S1[idx] / (s0_e ** 2)[:, None]
    out += np.einsum("ij,ik->jk", ratio, Sq[idx])
    return out


def u_alpha_fd(u_builder, time, event, beta, alpha, step=1e-6):
    """Central finite-difference derivative of the score in alpha.

    ``u_builder(alpha)`` must return the covariate rows implied by a
    coefficient vector; used to verify :func:`u_alpha_hat`.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    cols = []
    for k in range(alpha.size):
        hi, lo = alpha.copy(), alpha.copy()
        h = step * max(1.0, abs(alpha[k]))
        hi[k] += h
        lo[k] -= h
        s_hi = score(u_builder(hi), time, event, beta)
        s_lo = score(u_builder(lo), time, event, beta)
        cols.append((s_hi - s_lo) / (2.0 * h))
    return np.column_stack(cols)
