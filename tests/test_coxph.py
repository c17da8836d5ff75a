"""Cox partial likelihood: closed forms, oracles, Newton fit, invariances."""

import numpy as np
import pytest

from calibcox import coxph
from calibcox.errors import DataError, NumericalError

from conftest import information, loglik, make_survival, score, time_ordered


def direct_loglik(u, time, event, beta):
    """O(n^2) reference implementation of the Breslow log partial likelihood."""
    u = np.asarray(u, dtype=float)
    ll = 0.0
    for i in np.flatnonzero(np.asarray(event) == 1):
        risk = np.asarray(time) >= time[i]
        ll += float(u[i] @ beta) - np.log(np.sum(np.exp(u[risk] @ beta)))
    return ll


class TestLogPartialLikelihood:
    def test_null_model_closed_form(self, rng):
        u, time, event, _ = make_survival(rng, n=40)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        ll = loglik(rs, u, np.zeros(u.shape[1]))
        n_at_risk = [np.sum(time >= time[i]) for i in np.flatnonzero(event == 1)]
        assert ll == pytest.approx(-np.sum(np.log(n_at_risk)), abs=1e-10)

    def test_two_subject_closed_form(self):
        u = np.array([[1.0], [2.0]])
        time = np.array([1.0, 2.0])
        event = np.array([1, 0])
        rs = coxph.RiskSets(time, event)
        beta = np.array([0.7])
        expected = np.log(np.exp(0.7) / (np.exp(0.7) + np.exp(1.4)))
        assert loglik(rs, u, beta) == pytest.approx(expected)

    def test_matches_quadratic_scan(self, rng):
        u, time, event, beta = make_survival(rng, n=50, d=3)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        ll = loglik(rs, u, beta)
        assert ll == pytest.approx(direct_loglik(u, time, event, beta), abs=1e-10)

    def test_no_events_rejected(self, rng):
        _, time, _, _ = make_survival(rng, n=10)
        with pytest.raises(ValueError, match="no events; a Cox fit needs at least one"):
            coxph.RiskSets(np.sort(time), np.zeros(10, dtype=int))

    def test_decreasing_times_rejected(self):
        with pytest.raises(DataError,
                           match="non-decreasing"):
            coxph.RiskSets(np.array([1.0, 3.0, 2.0]), np.array([1, 1, 0]))

    def test_overflow_guard(self, rng):
        u, time, event, _ = make_survival(rng, n=30)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        big = 300.0 * np.ones(u.shape[1])
        assert np.isfinite(loglik(rs, u, big))


class TestScore:
    def test_null_model_closed_form(self, rng):
        u, time, event, _ = make_survival(rng, n=30)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        sc = score(rs, u, np.zeros(u.shape[1]))
        expected = np.zeros(u.shape[1])
        for i in np.flatnonzero(event == 1):
            risk = time >= time[i]
            expected += u[i] - u[risk].mean(axis=0)
        assert np.allclose(sc, expected, atol=1e-10)

    def test_stationarity_at_fit(self, rng):
        u, time, event, _ = make_survival(rng, n=80)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta, *_ = coxph.fit(rs, u)
        assert np.max(np.abs(score(rs, u, beta))) < 1e-6

    def test_finite_difference_oracle(self, rng):
        u, time, event, beta = make_survival(rng, n=40, d=2)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        sc = score(rs, u, beta)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (loglik(rs, u, beta + e) - loglik(rs, u, beta - e)) / (2 * h)
            assert abs(sc[k] - fd) / (1.0 + abs(fd)) < 1e-6


class TestInformation:
    def test_two_subject_closed_form(self):
        u = np.array([[1.0], [3.0]])
        time = np.array([1.0, 2.0])
        event = np.array([1, 0])
        rs = coxph.RiskSets(time, event)
        beta = np.array([0.4])
        w = np.exp(u[:, 0] * 0.4)
        p = w[0] / w.sum()
        expected = p * (1 - p) * (u[0, 0] - u[1, 0]) ** 2
        info = information(rs, u, beta)
        assert info[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_jacobian_finite_difference(self, rng):
        u, time, event, beta = make_survival(rng, n=35, d=3)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        info = information(rs, u, beta)
        h = 1e-5
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (score(rs, u, beta - e)
                  - score(rs, u, beta + e)) / (2 * h)
            assert np.max(np.abs(info[:, k] - fd)) / (1.0 + np.max(np.abs(fd))) < 1e-5

    def test_psd_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 40))
            d = int(rng.integers(1, 4))
            u, time, event, beta = make_survival(rng, n=n, d=d)
            time, event, u = time_ordered(time, event, u)
            rs = coxph.RiskSets(time, event)
            info = information(rs, u, beta)
            assert np.min(np.linalg.eigvalsh(info)) > -1e-9 * (1.0 + np.max(np.abs(info)))


class TestFit:
    def test_null_simulation(self, rng):
        u = rng.normal(size=(2000, 1))
        t0 = rng.exponential(1.0, size=2000)
        cens = rng.exponential(1.5, size=2000)
        time = np.minimum(t0, cens)
        event = (t0 <= cens).astype(int)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta, *_ = coxph.fit(rs, u)
        info = information(rs, u, beta)
        se = 1.0 / np.sqrt(info[0, 0])
        assert abs(beta[0]) < 3.0 * se

    def test_matches_grid_search(self, rng):
        u, time, event, _ = make_survival(rng, n=20, d=1)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta, *_ = coxph.fit(rs, u)
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
        lls = [loglik(rs, u, np.array([b])) for b in grid]
        best = grid[int(np.argmax(lls))]
        assert abs(beta[0] - best) < 2e-4

    def test_monotone_likelihood_detected(self):
        # Perfectly separated covariate on a small scale: the maximizing
        # coefficient runs past the divergence bound before the score can
        # vanish numerically.
        u = 0.01 * np.concatenate([np.zeros(10), np.ones(10)])[:, None]
        time = np.concatenate([np.arange(1, 11), np.arange(11, 21)]).astype(float)
        event = np.concatenate([np.ones(10, dtype=int), np.zeros(10, dtype=int)])
        rs = coxph.RiskSets(time, event)
        with pytest.raises(NumericalError, match="likely monotone likelihood "
                                                 r"\(separation\)$"):
            coxph.fit(rs, u)

    def test_failed_step_halving_raises(self, rng, monkeypatch):
        # Every step points downhill, so no halving can raise the
        # likelihood: the fit must stop and name the iteration instead of
        # taking the step.
        u, time, event, _ = make_survival(rng, n=50, beta=[1.0, -1.0])
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        monkeypatch.setattr(coxph.linalg, "solve_spd",
                            lambda a, b: -np.linalg.solve(a, b))
        with pytest.raises(NumericalError,
                           match="^Newton-Raphson iteration 1: 40 step-halvings"):
            coxph.fit(rs, u)

    def test_report_fields(self, rng):
        u, time, event, _ = make_survival(rng, n=50)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta, report, *_ = coxph.fit(rs, u)
        assert report.converged
        assert report.iterations >= 1
        assert np.isfinite(report.loglik)


class TestInvariances:
    def test_location_invariance(self, rng):
        u, time, event, _ = make_survival(rng, n=60, d=2)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta0, *_ = coxph.fit(rs, u)
        shifted = u.copy()
        shifted[:, 0] += 3.7
        beta1, *_ = coxph.fit(rs, shifted)
        assert np.max(np.abs(beta0 - beta1)) < 1e-8

    def test_scale_equivariance(self, rng):
        u, time, event, _ = make_survival(rng, n=60, d=2)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta0, *_ = coxph.fit(rs, u)
        scaled = u.copy()
        scaled[:, 1] *= 4.0
        beta1, *_ = coxph.fit(rs, scaled)
        assert abs(beta1[1] - beta0[1] / 4.0) < 1e-8
        assert abs(beta1[0] - beta0[0]) < 1e-8

    def test_permutation_invariance(self, rng):
        u, time, event, beta = make_survival(rng, n=45, d=2)
        perm = rng.permutation(45)
        time0, event0, u0 = time_ordered(time, event, u)
        time1, event1, u1 = time_ordered(time[perm], event[perm], u[perm])
        rs0, rs1 = coxph.RiskSets(time0, event0), coxph.RiskSets(time1, event1)
        ll0 = loglik(rs0, u0, beta)
        ll1 = loglik(rs1, u1, beta)
        assert abs(ll0 - ll1) < 1e-12 * (1.0 + abs(ll0))
        b0, *_ = coxph.fit(rs0, u0)
        b1, *_ = coxph.fit(rs1, u1)
        assert np.max(np.abs(b0 - b1)) < 1e-10

    def test_tied_times_breslow(self):
        # Two events at the same time share the full risk set.
        u = np.array([[0.5], [1.0], [2.0]])
        time = np.array([1.0, 1.0, 2.0])
        event = np.array([1, 1, 0])
        rs = coxph.RiskSets(time, event)
        beta = np.array([0.3])
        denom = np.sum(np.exp(u[:, 0] * 0.3))
        expected = (0.3 * (0.5 + 1.0)) - 2.0 * np.log(denom)
        assert loglik(rs, u, beta) == pytest.approx(expected)


class TestBuildCoxRows:
    def test_layout(self):
        xhat = np.array([0.5, 1.0])
        w = np.array([[2.0], [3.0]])
        rows = coxph.build_cox_rows(xhat, w)
        assert np.allclose(rows, [[0.5, 2.0, 1.0], [1.0, 3.0, 3.0]])

