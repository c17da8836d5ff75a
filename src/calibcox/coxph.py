"""Cox partial likelihood: score, information, Newton fit.

Covariate rows are u_i = [xhat_i, w_i', xhat_i * w_i'] with the calibrated
exposure in the first slot; it interacts with every confounder.  Ties are
handled by the Breslow convention, which is exact for the continuous
simulated times and the simplest correct choice otherwise.  A cohort enters
this module, and :mod:`calibcox.inference`, only as a :class:`RiskSets`
over rows that already arrive in time order: the caller sorts its cohort
once, before it builds any per-row array, and every evaluation is then
O(n d^2), with no gather of rows.  Every risk-set sum, S0, S1 and S2 here
and those of U_alpha and its check in :mod:`calibcox.inference`, is one
suffix sum (:meth:`RiskSets.suffix_at_starts`): blocks of rows, rows first,
from the last row down, with the running total carried between blocks,
kept only at the risk-set starts.  So no n-length S0, n x d S1 or
n x d x d S2 is built, and every element is still added in the order of
one sweep over all rows.  A sweep is a chain of dependent adds per series;
it runs adjacent pairs of series as the two halves of complex128 values,
whose add is two independent float adds, so one chain carries two series
and each keeps its own order bit for bit.

Each stage of the Newton loop takes one sweep over the rows.  A
step-halving candidate needs only the log-likelihood, so it takes S0 alone
(:meth:`RiskSets.weights`).  The accepted step takes S1 and S2 together
from one sweep of stacked terms (:meth:`RiskSets.moments`), and its score
and information are then sums over events with no further sweep; the fit's
outputs are pinned to that summation order.

The log-likelihood drops the additive -log(1/N) constant of the normalized
risk-set sum; it does not affect the maximizer or any derivative.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants, linalg
from .errors import DataError, NumericalError


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    grad_norm: float
    loglik: float


# Values per block of a risk-set sum: the block stays in cache, and no n x d
# (or n x d x d, or n x d x d_alpha) array is built.
_BLOCK_VALUES = 1 << 16


class RiskSets:
    """The risk set of each event of one cohort whose rows are in time order.

    Every risk-set sum runs over rows sorted by time, and the rows arrive
    sorted: the caller puts its cohort in time order once, before it builds
    any per-row array, so each Newton step, the information, G, U_alpha and
    its finite-difference check read their rows as given.  Times that
    decrease anywhere raise ``DataError``.

    time    the non-decreasing times
    events  positions of the events
    start   for each event, the first row tied with it: its risk set is
            every row from there on (ties share a risk set)
    upto    for each row, the number of events at or before its time: the
            first upto[j] events are those whose risk sets hold row j

    Risk-set sums are kept only at the starts: S0, S1 and S2 hold one value,
    row or matrix per event, in the order of ``events``.  A Newton
    candidate takes S0 from :meth:`weights`; an accepted step takes S1 and
    S2 from :meth:`moments`, one sweep for both.  Only this class reads
    ``start`` and ``upto``; :meth:`suffix_at_starts` sums rows into events
    and :meth:`prefix_at_rows` reads running sums over events back onto
    rows.

    A cohort without events has no risk set and raises ``DataError``.
    """

    def __init__(self, time, event):
        time = np.asarray(time, dtype=float)
        if not np.all(time[:-1] <= time[1:]):
            raise DataError(
                "times must be non-decreasing: sort the cohort by time first")
        self.time = time
        self.events = np.flatnonzero(np.asarray(event) == 1)
        if not self.events.size:
            raise DataError("no events; a Cox fit needs at least one")
        self.start = np.searchsorted(self.time, self.time[self.events], side="left")
        self.upto = np.searchsorted(self.time[self.events], self.time, side="right")

    def check_rows(self, *arrays):
        """Raise ``DataError`` unless each array has a row per subject."""
        for a in arrays:
            if len(a) != len(self.time):
                raise DataError(
                    f"{len(a)} rows for a cohort of {len(self.time)} subjects")

    def weights(self, u, beta):
        """(eta, w, S0) for the cohort's rows ``u`` at ``beta``.

        w = exp(eta - max eta) and S0[e] is event e's (scaled) risk-set
        total.  Every evaluator of the cohort's rows reaches them through
        here.
        """
        self.check_rows(u)
        eta = u @ np.asarray(beta, dtype=float)
        w = np.exp(eta - eta.max())
        # The kernel adds its carry into the terms, so they copy w.
        return eta, w, self.suffix_at_starts(lambda lo, hi: w[lo:hi].copy(), ())

    def moments(self, u, w):
        """(S1, S2), the risk-set sums of w*u and w*u*u', one E x d and one
        E x d x d C-contiguous array (E events), from one sweep whose blocks
        stack the terms w*u_j and (w*u_j)*u_k."""
        self.check_rows(u, w)
        d = u.shape[1]

        def terms(lo, hi):
            block = np.empty((hi - lo, 1 + d, d))
            # Written rows last through a transposed view, so each multiply
            # runs along the rows, not along d.
            last = block.transpose(1, 2, 0)
            ut = u[lo:hi].T.copy()
            np.multiply(w[lo:hi], ut, out=last[0])
            np.multiply(last[0][:, None, :], ut, out=last[1:])
            return block

        both = self.suffix_at_starts(terms, (1 + d, d))
        return np.ascontiguousarray(both[:, 0]), np.ascontiguousarray(both[:, 1:])

    def loglik(self, eta, S0):
        """Breslow log partial likelihood from :meth:`weights` (constant dropped)."""
        return float(np.sum(eta[self.events] - (np.log(S0) + eta.max())))

    def score(self, u, S0, S1):
        """sum over events of u_i - S1/S0, from :meth:`weights` and :meth:`moments`."""
        return np.sum(u[self.events] - S1 / S0[:, None], axis=0)

    def information(self, S0, S1, S2):
        """sum over events of S2/S0 - (S1/S0)(S1/S0)', from :meth:`weights`
        and :meth:`moments`; it makes no sweep over the rows."""
        ubar = S1 / S0[:, None]
        info = (S2 / S0[:, None, None]).sum(axis=0)
        info -= np.einsum("ij,ik->jk", ubar, ubar)
        return 0.5 * (info + info.T)

    def suffix_at_starts(self, terms, shape):
        """Suffix sums of per-row terms at each event's risk-set start.

        ``terms(lo, hi)`` returns a new C-contiguous array of shape
        ``(hi - lo,) + shape`` holding the terms of rows lo..hi-1, rows
        first: each row's terms are one contiguous run of series, and the
        kernel sums the block in place.  Row blocks run from the last row
        down; the running total is added into each block's last row before
        the cumsum, so every element is added in the order of one cumsum
        over all n rows, while only one block is held.

        Each series' cumsum is a chain of adds that each wait on the one
        before.  With an even number of series the block is viewed, not
        copied, as complex128 lanes, each holding two adjacent series; a
        complex add is two independent float adds, so one chain carries
        two series, and each series gets the same adds in the same order as
        a float cumsum, so its sums are bit-identical.  An odd number of
        series sums as floats.

        Returns a C-contiguous array of shape ``(len(events),) + shape``,
        into which the start rows of each block are written directly: a sum
        over its events reduces in memory order, which another layout would
        change in the last bits.
        """
        width = math.prod(shape)
        out = np.empty((len(self.start), width))
        rows = max(1, _BLOCK_VALUES // width)
        carry = None
        hi = len(self.time)
        # Rows before the first risk-set start feed no output.
        while hi > self.start[0]:
            lo = max(0, hi - rows)
            block = terms(lo, hi).reshape(hi - lo, width)
            if carry is not None:
                block[-1] += carry
            lanes = block[::-1]
            if width % 2 == 0:
                lanes = lanes.view(complex)
            np.cumsum(lanes, axis=0, out=lanes)
            a, b = np.searchsorted(self.start, (lo, hi))
            # The indices are in range; "clip" lets take write into out unbuffered.
            np.take(block, self.start[a:b] - lo, axis=0, out=out[a:b], mode="clip")
            carry = block[0]
            hi = lo
        return out.reshape((len(self.start),) + shape)

    def prefix_at_rows(self, prefix, lo=0, hi=None):
        """Running sums over events, read at rows lo..hi-1 (all rows by default).

        ``prefix`` holds one running sum, or one row of them, per event in
        the order of ``events``: entry e sums some x over events 0..e.  Row
        j gets the sum of x over the events whose risk sets hold it, entry
        upto[j] - 1, or zero when no event comes at or before it.  A strided
        view is read in place.
        """
        at = prefix[self.upto[lo:hi] - 1]
        # The rows before the first event's risk-set start have no event.
        at[:max(0, self.start[0] - lo)] = 0.0
        return at


def _step_derivatives(rs, u, w, S0):
    """(S1, score, information) at an accepted Newton iterate: one sweep."""
    S1, S2 = rs.moments(u, w)
    return S1, rs.score(u, S0, S1), rs.information(S0, S1, S2)


def fit(rs, u):
    """Newton-Raphson with step-halving from beta = 0.

    Converged when the max-norm of the score and the log-likelihood
    improvement drop below COX_GRAD_TOL / COX_LOGLIK_TOL, both scaled by the
    magnitude of the corresponding quantity at the starting point.  Any
    coefficient running past COX_DIVERGENCE_BOUND is treated as
    monotone-likelihood separation.  Separation, a step that no halving
    makes ascend and the iteration cap all raise :class:`NumericalError`.

    Returns (beta, ConvergenceReport, (eta, w, S0, S1), information), with
    the risk-set sums and the information the last step computed at beta, so
    the variance needs no second evaluation there.
    """
    beta = np.zeros(u.shape[1])
    eta, w, S0 = rs.weights(u, beta)
    ll = rs.loglik(eta, S0)
    S1, sc, info = _step_derivatives(rs, u, w, S0)
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
            # Free the last n-length arrays before the candidate's are built.
            del eta, w, S0
            eta, w, S0 = rs.weights(u, cand)
            ll_new = rs.loglik(eta, S0)
            if ll_new >= ll - 1e-13:
                break
            scale *= 0.5
        else:
            raise NumericalError(
                f"Newton-Raphson iteration {it}: 40 step-halvings did not "
                f"raise the log-likelihood (grad norm {np.max(np.abs(sc)):.3e})")
        delta_ll = ll_new - ll
        beta, ll = cand, ll_new
        S1, sc, info = _step_derivatives(rs, u, w, S0)
        if np.max(np.abs(beta)) > constants.COX_DIVERGENCE_BOUND:
            raise NumericalError(
                f"coefficient magnitude exceeded {constants.COX_DIVERGENCE_BOUND}; "
                f"likely monotone likelihood (separation)")
        if np.max(np.abs(sc)) < g_tol and abs(delta_ll) < ll_tol:
            report = ConvergenceReport(True, it, float(np.max(np.abs(sc))), ll)
            return beta, report, (eta, w, S0, S1), info
    raise NumericalError(
        f"Newton-Raphson did not converge in {constants.COX_MAX_ITER} iterations "
        f"(grad norm {np.max(np.abs(sc)):.3e})")


def build_cox_rows(xhat, w):
    """Covariate rows [xhat, w', xhat * w'] for an (n, p_w) confounder matrix,
    the only code that places their columns."""
    xhat = np.asarray(xhat, dtype=float)[:, None]
    w = np.asarray(w, dtype=float)
    return np.hstack([xhat, w, xhat * w])


def exposure_gradient(w):
    """d u / d xhat of the rows :func:`build_cox_rows` places, [1, 0', w'],
    for each row of a confounder matrix ``w`` or for one confounder vector."""
    w = np.asarray(w, dtype=float)
    return np.concatenate([np.ones(w.shape[:-1] + (1,)), np.zeros_like(w), w], axis=-1)
