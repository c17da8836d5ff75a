"""Cox partial likelihood: score, information, Newton fit.

Covariate rows are u_i = [xhat_i, w_i', xhat_i * w_i'] with the calibrated
exposure in the first slot; it interacts with every confounder.  Ties are
handled by the Breslow convention, which is exact for the continuous
simulated times and the simplest correct choice otherwise.  A cohort enters
this module, and :mod:`calibcox.inference`, only as a :class:`RiskSets`
over rows that already arrive in time order: the caller sorts its cohort
once, before it builds any per-row array, and every evaluation is then a
few reverse cumulative sweeps, O(n d^2), with no gather of rows.  The S2
sums of the information are taken in blocks of rows from the last row down,
with the running total carried between blocks, so no n x d x d array is
built and every element is still added in the order of one sweep over all
rows.

The log-likelihood drops the additive -log(1/N) constant of the normalized
risk-set sum; it does not affect the maximizer or any derivative.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants, linalg
from .errors import NumericalError


class CoxConvergenceError(NumericalError):
    """Newton-Raphson hit the iteration cap or a step no halving could make ascend."""


class CoxDivergenceError(NumericalError):
    """Monotone likelihood / separation: estimates ran away."""


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    grad_norm: float
    loglik: float


# Values per block of a suffix sum over per-row matrices: the block stays in
# cache, and no n x d x d (or n x d x d_alpha) array is built.
_BLOCK_VALUES = 1 << 16


class RiskSets:
    """The risk set of each event of one cohort whose rows are in time order.

    Every risk-set sum runs over rows sorted by time, and the rows arrive
    sorted: the caller puts its cohort in time order once, before it builds
    any per-row array, so each Newton step, the information, G, U_alpha and
    each finite-difference score read their rows as given.  Times that
    decrease anywhere raise ``ContractViolationError``.

    time    the non-decreasing times
    events  positions of the events
    start   for each event, the first row tied with it: its risk set is
            every row from there on (ties share a risk set)

    A cohort without events has no risk set and raises
    ``ContractViolationError``.
    """

    def __init__(self, time, event):
        time = np.asarray(time, dtype=float)
        if not np.all(time[:-1] <= time[1:]):
            raise linalg.ContractViolationError(
                "times must be non-decreasing: sort the cohort by time first")
        self.time = time
        self.events = np.flatnonzero(np.asarray(event) == 1)
        if not self.events.size:
            raise linalg.ContractViolationError("need at least one event")
        self.start = np.searchsorted(self.time, self.time[self.events], side="left")

    def check_rows(self, *arrays):
        """Raise ``ContractViolationError`` unless each array has a row per subject."""
        for a in arrays:
            if len(a) != len(self.time):
                raise linalg.ContractViolationError(
                    f"{len(a)} rows for a cohort of {len(self.time)} subjects")

    def sums(self, u, beta):
        """(eta, w, S0, S1) for the cohort's rows ``u`` at ``beta``.

        w = exp(eta - max eta); S0 and S1 are the suffix sums of w and w*u,
        so S0[start[e]] is event e's (scaled) risk-set total.  Every
        evaluator of the cohort's rows reaches them through here.
        """
        self.check_rows(u)
        eta = u @ np.asarray(beta, dtype=float)
        w = np.exp(eta - eta.max())
        S0 = np.cumsum(w[::-1])[::-1]
        S1 = np.cumsum((w[:, None] * u)[::-1], axis=0)[::-1]
        return eta, w, S0, S1

    def loglik(self, eta, S0):
        """Breslow log partial likelihood from :meth:`sums` (constant dropped)."""
        return float(np.sum(eta[self.events]
                            - (np.log(S0[self.start]) + eta.max())))

    def score(self, u, S0, S1):
        """sum over events of u_i - S1/S0, from :meth:`sums`."""
        ubar = S1[self.start] / S0[self.start, None]
        return np.sum(u[self.events] - ubar, axis=0)

    def information(self, u, w, S0, S1):
        """sum over events of S2/S0 - (S1/S0)(S1/S0)', from :meth:`sums`."""
        d = u.shape[1]
        wu = w[:, None] * u
        S2 = self.suffix_at_starts(
            lambda lo, hi: wu[lo:hi, :, None] * u[lo:hi, None, :], (d, d))
        ubar = S1[self.start] / S0[self.start, None]
        info = (S2 / S0[self.start, None, None]).sum(axis=0)
        info -= np.einsum("ij,ik->jk", ubar, ubar)
        return 0.5 * (info + info.T)

    def suffix_at_starts(self, terms, shape):
        """Suffix sums of per-row terms at each event's risk-set start.

        ``terms(lo, hi)`` returns a new array of shape ``(hi - lo,) + shape``
        holding the terms of rows lo..hi-1.  Row blocks run from the
        last row down; the running total is added into each block's first
        reversed row before ``np.cumsum``, so every element is added in the
        order of one cumsum over all n rows, while only one block is held.
        Returns an array of shape ``(len(events),) + shape``.
        """
        out = np.empty((len(self.start),) + shape)
        rows = max(1, _BLOCK_VALUES // math.prod(shape))
        carry = None
        hi = len(self.time)
        # Rows before the first risk-set start feed no output.
        while hi > self.start[0]:
            lo = max(0, hi - rows)
            block = terms(lo, hi)[::-1]
            if carry is not None:
                block[0] += carry
            csum = np.cumsum(block, axis=0)
            a, b = np.searchsorted(self.start, (lo, hi))
            out[a:b] = csum[hi - 1 - self.start[a:b]]
            carry = csum[-1]
            hi = lo
        return out


def score(rs, u, beta):
    """Score vector sum_i D_i (u_i - S1/S0 at T_i)."""
    _, _, S0, S1 = rs.sums(u, beta)
    return rs.score(u, S0, S1)


def fit(rs, u):
    """Newton-Raphson with step-halving from beta = 0.

    Converged when the max-norm of the score and the log-likelihood
    improvement drop below COX_GRAD_TOL / COX_LOGLIK_TOL, both scaled by the
    magnitude of the corresponding quantity at the starting point.  Any
    coefficient running past COX_DIVERGENCE_BOUND is treated as
    monotone-likelihood separation; a Newton step that no halving makes
    ascend raises :class:`CoxConvergenceError`.

    Returns (beta, ConvergenceReport, sums, information), with the
    :meth:`RiskSets.sums` and the information the last step computed at
    beta, so the variance needs no second evaluation there.
    """
    beta = np.zeros(u.shape[1])
    eta, w, S0, S1 = rs.sums(u, beta)
    ll = rs.loglik(eta, S0)
    sc, info = rs.score(u, S0, S1), rs.information(u, w, S0, S1)
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
            # Free the last sums before the candidate's are built.
            del eta, w, S0, S1
            eta, w, S0, S1 = rs.sums(u, cand)
            ll_new = rs.loglik(eta, S0)
            if ll_new >= ll - 1e-13:
                break
            scale *= 0.5
        else:
            raise CoxConvergenceError(
                f"Newton-Raphson iteration {it}: 40 step-halvings did not "
                f"raise the log-likelihood (grad norm {np.max(np.abs(sc)):.3e})")
        delta_ll = ll_new - ll
        beta, ll = cand, ll_new
        sc, info = rs.score(u, S0, S1), rs.information(u, w, S0, S1)
        if np.max(np.abs(beta)) > constants.COX_DIVERGENCE_BOUND:
            raise CoxDivergenceError(
                f"coefficient magnitude exceeded {constants.COX_DIVERGENCE_BOUND}; "
                f"likely monotone likelihood (separation)")
        if np.max(np.abs(sc)) < g_tol and abs(delta_ll) < ll_tol:
            report = ConvergenceReport(True, it, float(np.max(np.abs(sc))), ll)
            return beta, report, (eta, w, S0, S1), info
    raise CoxConvergenceError(
        f"Newton-Raphson did not converge in {constants.COX_MAX_ITER} iterations "
        f"(grad norm {np.max(np.abs(sc)):.3e})")


def build_cox_rows(xhat, w):
    """Covariate rows [xhat, w', xhat * w'] for an (n, p_w) confounder matrix."""
    xhat = np.asarray(xhat, dtype=float)[:, None]
    w = np.asarray(w, dtype=float)
    return np.hstack([xhat, w, xhat * w])
