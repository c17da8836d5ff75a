"""Two-stage sandwich covariance for the calibrated Cox fit.

Var(beta-hat) has two stacked sources of noise: the usual partial-likelihood
score variation in the main study, and the estimation error of the
measurement-error-model coefficients carried in through the calibrated
exposures.  The estimator assembled here is

    Var(beta-hat) = (1/N) I^-1 [ G + (1/N) U_a V_a U_a' ] I^-T

with I the empirical information divided by N, G the per-subject robust
score-residual outer-product mean, U_a the (unnormalized) derivative of the
Cox score with respect to the calibration coefficients, and V_a the
cluster-robust covariance of those coefficients from the validation fit.
The (1/N) U_a V_a U_a' term is exactly the delta-method propagation
(d beta / d alpha) Var(alpha-hat) (d beta / d alpha)' rescaled by N, since
d beta-hat / d alpha = (N I)^-1 U_a.

U_a is computed analytically; a finite-difference verification mode recomputes
it by central differences in alpha and reports the relative discrepancy.
I, G and U_a reach the outputs, so they keep the suffix-sum form and the
summation order of the Newton fit.  The check's differences reach no output
but an error, so they build no rows.  Moving alpha_k by +-h moves the rows
to u +- h phi_k c and the fit's weights w to omega+- = w exp(+-h b phi_k).
With the score summed row by row with per-row event weights (Lin & Wei
1989), H+- the sum of 1/S0+- over the events at or before each row, its
central difference is

    FD_k = sum_e phi_ek c_e - (omega+ H+ - omega- H-)'u / (2h)
           - ((omega+ H+ + omega- H-) o phi_k)'c / 2,

in which sum_e u_e cancels exactly.  The check takes the coefficients in
groups, as many as keep 2 values per event and coefficient within a few
n-vectors: per group, one sweep over all their S0+-, an in-place prefix of
1/S0+- over the events, and one more pass over the rows that adds both
terms with one matrix product each.

:func:`fit_calibrated_cox` sorts the main study by time once, at entry, so
every per-row array is built in risk-set order and the study enters each
function here as one :class:`coxph.RiskSets` over those rows.  I, G and U_a
reuse the risk-set sums the Newton fit holds at beta-hat, S0 and S1 kept
one per event.  U_a's own two risk-set sums take one sweep of
:meth:`coxph.RiskSets.suffix_at_starts` over their stacked terms, which
goes in blocks of rows and keeps the sums only at the events, so its
n x d x d_alpha array is never built.  G's two sums over the events before
each row take one :meth:`coxph.RiskSets.prefix_at_rows` call on their
stacked columns.  Nothing here reads the risk-set layout itself.
"""

from dataclasses import dataclass

import numpy as np

from . import constants, coxph, linalg, transforms
from .errors import DataError, NumericalError


@dataclass(frozen=True)
class SandwichComponents:
    i_beta: np.ndarray    # empirical information / N
    g_beta: np.ndarray    # robust score-residual outer-product mean
    u_alpha: np.ndarray   # d_beta x d_alpha, unnormalized sum over events
    v_alpha: np.ndarray   # Var(alpha-hat) from the validation fit


@dataclass(frozen=True)
class CoxFit:
    """Point estimates, Eq-style sandwich covariance, and Wald intervals."""

    beta: np.ndarray
    covariance: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    components: SandwichComponents
    report: coxph.ConvergenceReport
    term_names: tuple


def g_beta_hat(rs, u, sums):
    """Robust score-residual outer-product mean.

    ``sums`` is (w, S0, S1) of ``u`` at beta, as :func:`coxph.fit`
    returns them.  Each subject's residual is its own score contribution
    minus its weighted appearances in every earlier event's risk set:

        W_i = D_i (u_i - ubar(T_i))
              - sum_{events e: T_e <= T_i} [exp(eta_i) / S0_raw(T_e)] (u_i - ubar(T_e))

    and G = (1/N) sum_i W_i W_i'.
    """
    n = len(u)
    w, S0, S1 = sums
    ev = rs.events
    ubar_e = S1 / S0[:, None]
    # One prefix over the stacked columns [1/S0, ubar/S0].
    at_rows = rs.prefix_at_rows(
        np.cumsum(np.column_stack([1.0 / S0, ubar_e / S0[:, None]]), axis=0))
    resid = u * at_rows[:, :1]
    resid -= at_rows[:, 1:]
    resid *= -w[:, None]
    resid[ev] += u[ev] - ubar_e
    return (resid.T @ resid) / n


def u_alpha_hat(rs, u, sums, phi, c, b):
    """Analytic derivative of the Cox score with respect to alpha.

    ``sums`` is (w, S0, S1) of ``u`` at beta, as :func:`coxph.fit`
    returns them.  The calibrated exposure enters each covariate row as
    mu_i = phi_i' alpha, so d u_i / d alpha = c_i phi_i' and
    d eta_i / d alpha = b_i phi_i', with c_i = d u_i / d mu_i and
    b_i = beta' c_i supplied by the caller.  The chain rule through both the
    event terms and the risk-set sums gives

        U_a = sum_events [ c_i phi_i'
                           - (1/S0) sum_R w_j (c_j + b_j u_j) phi_j'
                           + (S1 / S0^2) (x) sum_R w_j b_j phi_j' ].

    Both risk-set sums over R come from one suffix sum in time order, taken
    block by block (:meth:`coxph.RiskSets.suffix_at_starts`), so the
    n x d x d_alpha array of per-row terms is never built.
    """
    rs.check_rows(u, phi, c, b)
    d, da = u.shape[1], phi.shape[1]
    w, S0, S1 = sums
    ev = rs.events
    # Before the sweep, so that phi[ev] is freed before its sums are held.
    out = np.einsum("ij,ik->jk", c[ev], phi[ev])

    # Risk-set sums of w (c + b u) phi' and of w b phi in one sweep: each
    # block stacks w [c + b u ; b] (x) phi, rows first.
    def terms(lo, hi):
        block = np.empty((hi - lo, d + 1, da))
        wcb = np.empty((hi - lo, d + 1))
        cbu = c[lo:hi] + b[lo:hi, None] * u[lo:hi]
        np.multiply(w[lo:hi, None], cbu, out=wcb[:, :d])
        np.multiply(w[lo:hi], b[lo:hi], out=wcb[:, d])
        np.multiply(wcb[:, :, None], phi[lo:hi, None, :], out=block)
        return block

    both = rs.suffix_at_starts(terms, (d + 1, da))
    SM, Sq = both[:, :d], np.ascontiguousarray(both[:, d])
    SM /= S0[:, None, None]
    out -= SM.sum(axis=0)
    ratio = S1 / (S0 ** 2)[:, None]
    out += np.einsum("ij,ik->jk", ratio, Sq)
    return out


def u_alpha_fd(rs, u, sums, phi, c, b, alpha):
    """Central finite-difference derivative of the score in alpha.

    Used to verify :func:`u_alpha_hat`, and takes its arguments and alpha.
    Coefficient k moves by h_k = FD_STEP * max(1, |alpha_k|) either way,
    which moves the rows ``u`` to u +- h_k phi_k c and the fit's weights
    ``w`` (in ``sums``) to omega+- = w exp(+-h_k b phi_k).  With H+- the sum
    of 1/S0+- over the events at or before each row,

        FD_k = sum_e phi_ek c_e - (omega+ H+ - omega- H-)'u / (2 h_k)
               - ((omega+ H+ + omega- H-) o phi_k)'c / 2,

    the central difference of the per-row event-weight score
    sum_e u_e - (omega H)'u at the moved rows, with sum_e u_e cancelled.

    The coefficients go in groups (:func:`_check_groups`).  For each block of
    rows one exponential gives omega+- of every coefficient in the group,
    and one sweep of their 2g series gives S0+- at the risk-set starts.
    H+- is their event-level prefix, formed in place; a second pass over the
    same blocks of rows reads H+- at the rows and adds both terms of every
    coefficient in the group with one matrix product each.  No row matrix
    and no n-length vector per coefficient is built.
    """
    rs.check_rows(u, phi, c, b)
    alpha = np.asarray(alpha, dtype=float)
    n, da = phi.shape
    w = sums[0]
    ev = rs.events
    c_ev = c[ev]
    out = np.empty((u.shape[1], da))
    for ks in _check_groups(n, len(ev), da):
        # sum_e c_e phi_ek first, so that phi[ev] is freed before H is held.
        out[:, ks] = c_ev.T @ phi[ev, ks]
        h = constants.FD_STEP * np.maximum(1.0, np.abs(alpha[ks]))
        g = len(h)
        rows = max(1, coxph._BLOCK_VALUES // (2 * g))

        def moves(lo, hi):
            """exp(h_k b phi_k) on rows lo..hi-1, a column per coefficient."""
            x = np.multiply(phi[lo:hi, ks], h)
            x *= b[lo:hi, None]
            return np.exp(x, out=x)

        def omegas(lo, hi):
            block = np.empty((hi - lo, 2, g))
            e = moves(lo, hi)
            np.multiply(w[lo:hi, None], e, out=block[:, 0])
            np.divide(w[lo:hi, None], e, out=block[:, 1])
            return block

        H = rs.suffix_at_starts(omegas, (2, g))
        np.divide(1.0, H, out=H)
        np.cumsum(H, axis=0, out=H)
        moved = spread = 0.0
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            e = moves(lo, hi)
            plus = rs.prefix_at_rows(H[:, 0], lo, hi)
            minus = rs.prefix_at_rows(H[:, 1], lo, hi)
            plus *= w[lo:hi, None] * e
            minus *= np.divide(w[lo:hi, None], e, out=e)
            moved = moved + np.subtract(plus, minus, out=e).T @ u[lo:hi]
            plus += minus
            plus *= phi[lo:hi, ks]
            spread = spread + plus.T @ c[lo:hi]
        out[:, ks] -= moved.T / (2.0 * h)
        out[:, ks] -= spread.T / 2.0
        # Freed before the next group's sweep allocates its own.
        del H
    return out


def _check_groups(n, events, da):
    """Slices of the d_alpha coefficients that :func:`u_alpha_fd` takes
    together, for n rows and ``events`` events.

    A group of g holds 2g values per event (S0+-, then H+-) and, while it
    sweeps or makes its second pass, about two blocks of the risk-set
    sweep.  The largest g that keeps those within 8n values sets the number
    of groups, and the coefficients are split evenly among them.  Taken one
    coefficient at a time, the check held about 13 n-vectors at once.
    """
    most = max(1, min(da, (4 * n - coxph._BLOCK_VALUES) // events))
    count = -(-da // most)
    edges = [k * da // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def sandwich_covariance(components, n_main):
    """Assemble the two-stage covariance from its pieces.

    ``components.v_alpha`` already carries the validation-sample scaling
    (it is the covariance of alpha-hat itself), so only the main-study size
    enters here.  The result is symmetrized.
    """
    if n_main <= 0:
        raise DataError("main-study size must be positive")
    i_inv = linalg.solve_spd(components.i_beta, np.eye(len(components.i_beta)))
    middle = components.g_beta + (
        components.u_alpha @ components.v_alpha @ components.u_alpha.T) / n_main
    cov = i_inv @ middle @ i_inv.T / n_main
    return 0.5 * (cov + cov.T)


def wald_ci(beta, covariance):
    """95% Wald intervals: beta +- z_.975 * sqrt(diag)."""
    se = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return se, beta - constants.Z_975 * se, beta + constants.Z_975 * se


def _check_confounders(main):
    """Raise DataError when a confounder's Cox coefficient is not estimable.

    A constant column, or one collinear with the columns before it, leaves
    the information singular.  Centred and scaled to unit length, the
    columns' Gram matrix has a unit diagonal, so the pivot floor is
    relative, as in mem's rank check.
    """
    for name, column in zip(main.confounder_names, main.w.T):
        if np.all(column == column[0]):
            raise DataError(f"confounder column '{name}' is constant")
    wc = main.w - main.w.mean(axis=0)
    wc /= np.linalg.norm(wc, axis=0)
    try:
        linalg.cholesky(wc.T @ wc, min_pivot=1e-10)
    except linalg.DecompositionError as exc:
        raise DataError(f"confounder column '{main.confounder_names[exc.pivot]}' "
                        "is collinear with the preceding ones") from None


def fit_calibrated_cox(main, memfit, check_derivatives=False):
    """Full second-stage fit: calibrate exposures, maximize, propagate variance.

    Before phi is built, :class:`DataError` is raised for a main study whose
    radii or confounder names are not those of ``memfit``, that has no
    event (by :class:`coxph.RiskSets`), or whose confounder column is
    constant or collinear with the columns before it; then
    :class:`NumericalError` for a validation fit on no more subjects than
    coefficients: the scores sum to zero, so the meat of V_a has rank < p.
    With ``check_derivatives`` the analytic alpha-derivative is verified
    against central finite differences, to a relative FD_TOL.
    The main study is put in time order here, once, by a stable sort of its
    times; with distinct times, the fit does not depend on its row order.
    """
    if not np.array_equal(main.radii, memfit.radii):
        raise DataError("main and validation files disagree on buffer radii: "
                        f"{main.radii.tolist()} vs {memfit.radii.tolist()}")
    if main.confounder_names != memfit.confounder_names:
        raise DataError(
            "main and validation files disagree on confounder columns: "
            f"{list(main.confounder_names)} vs {list(memfit.confounder_names)}")
    order = np.argsort(main.time, kind="stable")
    rs = coxph.RiskSets(main.time[order], main.event[order])
    _check_confounders(main)
    if memfit.n_subjects <= len(memfit.alpha):
        raise NumericalError(
            f"{memfit.n_subjects} validation subjects for {len(memfit.alpha)} "
            f"calibration coefficients: V_alpha needs more subjects than "
            f"coefficients")
    w = main.w[order]
    # The sorted z lives only while phi is built from it.
    phi = transforms.build_design_matrix(memfit.spec, memfit.transform,
                                         main.z[order], w)
    u = coxph.build_cox_rows(phi @ memfit.alpha, w)
    beta, report, sums, info = coxph.fit(rs, u)
    n = len(main)
    i_beta = info / n
    g_beta = g_beta_hat(rs, u, sums)
    c = coxph.exposure_gradient(w)
    b = c @ beta
    u_alpha = u_alpha_hat(rs, u, sums, phi, c, b)
    if check_derivatives:
        fd = u_alpha_fd(rs, u, sums, phi, c, b, memfit.alpha)
        scale = np.max(np.abs(fd)) + 1.0
        err = np.max(np.abs(u_alpha - fd)) / scale
        if err > constants.FD_TOL:
            raise NumericalError(
                f"analytic alpha-derivative disagrees with finite differences "
                f"(relative error {err:.3e})")
    comps = SandwichComponents(i_beta=i_beta, g_beta=g_beta,
                               u_alpha=u_alpha, v_alpha=memfit.v_alpha)
    cov = sandwich_covariance(comps, n)
    se, lo, hi = wald_ci(beta, cov)
    names = (["exposure"] + list(main.confounder_names)
             + [f"exposure:{name}" for name in main.confounder_names])
    return CoxFit(beta=beta, covariance=cov, se=se,
                  ci_lower=lo, ci_upper=hi, components=comps, report=report,
                  term_names=tuple(names))


def hazard_ratio(fit, increment, w0):
    """HR per exposure increment at confounder values w0, with delta-method CI.

    HR = exp(increment * (beta1 + beta3' w0)); ``w0`` holds one value per
    confounder, and beta = (beta1, beta2', beta3') has 1 + 2 p_w entries.
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    p_w = (len(fit.beta) - 1) // 2
    if w0.shape != (p_w,):
        raise DataError(
            f"w0 needs one value per confounder column ({p_w}), got {w0.size}")
    grad = coxph.exposure_gradient(w0)
    g = float(grad @ fit.beta)
    var_g = float(grad @ fit.covariance @ grad)
    half = constants.Z_975 * increment * np.sqrt(max(var_g, 0.0))
    point = increment * g
    return np.exp(point), np.exp(point - half), np.exp(point + half)
