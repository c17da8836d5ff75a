"""Two-stage sandwich covariance: robust G, alpha-derivative, assembly, CIs."""

import dataclasses
import functools

import numpy as np
import pytest

from calibcox import coxph, inference, linalg, mem, simulate, transforms
from calibcox.errors import DataError, NumericalError
from calibcox.inference import SandwichComponents

from conftest import (check_fd, information, make_survival, risk_sums, row_build_fd,
                      time_ordered)


def reference_g_beta(u, time, event, beta):
    """O(n^2) expansion of the robust score-residual outer-product mean."""
    u = np.asarray(u, dtype=float)
    n, d = u.shape
    eta = u @ beta
    w = np.exp(eta - eta.max())
    resid = np.zeros((n, d))
    for i in range(n):
        if event[i] == 1:
            risk = time >= time[i]
            s0 = w[risk].sum()
            ubar = (w[risk, None] * u[risk]).sum(axis=0) / s0
            resid[i] += u[i] - ubar
    for e in np.flatnonzero(np.asarray(event) == 1):
        risk = time >= time[e]
        s0 = w[risk].sum()
        ubar = (w[risk, None] * u[risk]).sum(axis=0) / s0
        for i in np.flatnonzero(risk):
            resid[i] -= (w[i] / s0) * (u[i] - ubar)
    return (resid.T @ resid) / n


def reference_u_alpha(u, time, event, beta, phi, c, b):
    """O(n^2) expansion of the score derivative in the calibration coefficients."""
    u = np.asarray(u, dtype=float)
    n, d = u.shape
    da = phi.shape[1]
    eta = u @ beta
    w = np.exp(eta - eta.max())
    out = np.zeros((d, da))
    for i in np.flatnonzero(np.asarray(event) == 1):
        risk = np.flatnonzero(time >= time[i])
        s0 = w[risk].sum()
        s1 = (w[risk, None] * u[risk]).sum(axis=0)
        out += np.outer(c[i], phi[i])
        inner = np.zeros((d, da))
        q = np.zeros(da)
        for j in risk:
            inner += w[j] * np.outer(c[j] + b[j] * u[j], phi[j])
            q += w[j] * b[j] * phi[j]
        out -= inner / s0
        out += np.outer(s1 / s0 ** 2, q)
    return out


def small_calibration_problem(rng, n=40, d_alpha=4):
    u, time, event, beta = make_survival(rng, n=n, d=3)
    phi = rng.normal(size=(n, d_alpha))
    alpha = rng.normal(size=d_alpha)
    xhat = phi @ alpha
    w = rng.normal(size=(n, 1))
    rows = coxph.build_cox_rows(xhat, w)
    c = coxph.exposure_gradient(w)
    b = c @ beta
    time, event, rows, phi, w, c, b = time_ordered(time, event, rows, phi, w, c, b)
    return rows, time, event, beta, phi, alpha, w, c, b


class TestGBetaHat:
    def test_no_events_rejected(self):
        # A cohort without events has no risk set, so it never reaches G.
        with pytest.raises(ValueError, match="no events; a Cox fit needs at least one"):
            coxph.RiskSets(np.arange(1.0, 6.0), np.zeros(5, dtype=int))

    def test_single_event_hand_expansion(self, rng):
        u = rng.normal(size=(3, 2))
        time = np.array([1.0, 2.0, 3.0])
        event = np.array([0, 1, 0])
        rs = coxph.RiskSets(time, event)
        beta = rng.normal(size=2)
        g = inference.g_beta_hat(rs, u, risk_sums(rs, u, beta))
        assert np.allclose(g, reference_g_beta(u, time, event, beta), atol=1e-12)

    def test_matches_reference_random(self, rng):
        for _ in range(10):
            u, time, event, beta = make_survival(rng, n=30, d=2)
            time, event, u = time_ordered(time, event, u)
            rs = coxph.RiskSets(time, event)
            g = inference.g_beta_hat(rs, u, risk_sums(rs, u, beta))
            ref = reference_g_beta(u, time, event, beta)
            assert np.max(np.abs(g - ref)) < 1e-10 * (1.0 + np.max(np.abs(ref)))

    def test_sandwich_tracks_empirical_variance(self, rng):
        # Null simulation: the robust sandwich I^-1 G I^-T / N should track
        # the empirical variance of beta-hat across replicates.
        betas, vars_ = [], []
        for _ in range(300):
            n = 150
            u = rng.normal(size=(n, 1))
            t0 = rng.exponential(1.0, size=n)
            cens = rng.exponential(2.0, size=n)
            time = np.minimum(t0, cens)
            event = (t0 <= cens).astype(int)
            time, event, u = time_ordered(time, event, u)
            rs = coxph.RiskSets(time, event)
            beta, *_ = coxph.fit(rs, u)
            i_beta = information(rs, u, beta) / n
            g = inference.g_beta_hat(rs, u, risk_sums(rs, u, beta))
            i_inv = linalg.inv_spd(i_beta)
            vars_.append(float((i_inv @ g @ i_inv.T)[0, 0] / n))
            betas.append(beta[0])
        emp = np.var(betas, ddof=1)
        assert abs(np.mean(vars_) / emp - 1.0) < 0.2


class TestUAlphaHat:
    def test_zero_design(self, rng):
        rows, time, event, beta, phi, alpha, w, c, b = small_calibration_problem(rng)
        rs = coxph.RiskSets(time, event)
        ua = inference.u_alpha_hat(rs, rows, risk_sums(rs, rows, beta),
                                   np.zeros_like(phi), c, b)
        assert np.allclose(ua, 0.0)

    def test_hand_expansion_three_rows_null_beta(self, rng):
        # With beta = 0 the exposure moves the score only through u_i.
        n = 3
        phi = rng.normal(size=(n, 2))
        alpha = rng.normal(size=2)
        w = rng.normal(size=(n, 1))
        rows = coxph.build_cox_rows(phi @ alpha, w)
        time = np.array([1.0, 2.0, 3.0])
        event = np.array([1, 0, 1])
        rs = coxph.RiskSets(time, event)
        beta = np.zeros(3)
        c = coxph.exposure_gradient(w)
        b = c @ beta
        assert np.allclose(b, 0.0)
        ua = inference.u_alpha_hat(rs, rows, risk_sums(rs, rows, beta), phi, c, b)
        ref = reference_u_alpha(rows, time, event, beta, phi, c, b)
        assert np.allclose(ua, ref, atol=1e-12)

    def test_matches_reference_random(self, rng):
        for _ in range(10):
            rows, time, event, beta, phi, alpha, w, c, b = small_calibration_problem(rng)
            rs = coxph.RiskSets(time, event)
            ua = inference.u_alpha_hat(rs, rows, risk_sums(rs, rows, beta), phi, c, b)
            ref = reference_u_alpha(rows, time, event, beta, phi, c, b)
            assert np.max(np.abs(ua - ref)) < 1e-9 * (1.0 + np.max(np.abs(ref)))

    def test_matches_finite_differences(self, rng):
        rows, time, event, beta, phi, alpha, w, c, b = small_calibration_problem(rng)
        rs = coxph.RiskSets(time, event)
        ua = inference.u_alpha_hat(rs, rows, risk_sums(rs, rows, beta), phi, c, b)
        fd = inference.u_alpha_fd(rs, rows, risk_sums(rs, rows, beta), phi, c, b, alpha)
        assert np.max(np.abs(ua - fd)) / (1.0 + np.max(np.abs(fd))) < 1e-5

    def test_finite_differences_match_a_row_build_per_step(self, rng):
        # The check moves the fit's weights and builds no rows; new rows
        # and a new score per step give the same differences to rounding.
        # Coarse times tie events with events and with censorings.  Both
        # forms difference separately rounded S0 sums over a step of 1e-6,
        # so their noise grows with n: at n = 200 it stays below a third of
        # the bound.
        n, d_alpha = 200, 5
        time, event, phi, w = time_ordered(
            np.ceil(4.0 * rng.exponential(size=n)), rng.integers(0, 2, n),
            rng.normal(size=(n, d_alpha)), rng.normal(size=(n, 2)))
        assert len(np.unique(time)) < len(time) // 4
        rs = coxph.RiskSets(time, event)
        alpha, beta = rng.normal(size=d_alpha), rng.normal(0.0, 0.3, size=5)
        ref = row_build_fd(rs, phi, w, beta, alpha)
        fd = check_fd(rs, phi, w, beta, alpha)
        assert np.max(np.abs(fd - ref)) <= 1e-8 * (1.0 + np.max(np.abs(ref)))


class TestSandwichCovariance:
    def test_zero_v_alpha_reduces_to_robust(self, rng):
        u, time, event, _ = make_survival(rng, n=50, d=2)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta, *_ = coxph.fit(rs, u)
        n = len(time)
        i_beta = information(rs, u, beta) / n
        g = inference.g_beta_hat(rs, u, risk_sums(rs, u, beta))
        comps = SandwichComponents(i_beta=i_beta, g_beta=g,
                                   u_alpha=np.zeros((2, 3)),
                                   v_alpha=np.zeros((3, 3)))
        cov = inference.sandwich_covariance(comps, n)
        i_inv = linalg.inv_spd(i_beta)
        expected = i_inv @ g @ i_inv.T / n
        assert np.max(np.abs(cov - expected)) < 1e-12

    def test_psd_and_symmetry_sweep(self, rng):
        for _ in range(100):
            d, da = 3, 5
            a = rng.normal(size=(d, d))
            i_beta = a @ a.T + 0.5 * np.eye(d)
            gsqrt = rng.normal(size=(d, d))
            v = rng.normal(size=(da, da))
            comps = SandwichComponents(
                i_beta=i_beta, g_beta=gsqrt @ gsqrt.T,
                u_alpha=rng.normal(size=(d, da)), v_alpha=v @ v.T)
            cov = inference.sandwich_covariance(comps, 200)
            assert np.max(np.abs(cov - cov.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-9 * (1.0 + np.max(np.abs(cov)))

    def test_correction_is_psd_addition(self, rng):
        # The calibration term alone is PSD, so the two-stage covariance
        # dominates the v_alpha = 0 sandwich in the Loewner order.
        d, da = 2, 4
        a = rng.normal(size=(d, d))
        i_beta = a @ a.T + np.eye(d)
        gsqrt = rng.normal(size=(d, d))
        v = rng.normal(size=(da, da))
        comps = SandwichComponents(i_beta=i_beta, g_beta=gsqrt @ gsqrt.T,
                                   u_alpha=rng.normal(size=(d, da)),
                                   v_alpha=v @ v.T)
        base = SandwichComponents(i_beta=i_beta, g_beta=comps.g_beta,
                                  u_alpha=comps.u_alpha,
                                  v_alpha=np.zeros((da, da)))
        diff = (inference.sandwich_covariance(comps, 100)
                - inference.sandwich_covariance(base, 100))
        assert np.min(np.linalg.eigvalsh(diff)) > -1e-12

    def test_bad_sample_sizes(self, rng):
        comps = SandwichComponents(i_beta=np.eye(2), g_beta=np.eye(2),
                                   u_alpha=np.zeros((2, 2)), v_alpha=np.eye(2))
        with pytest.raises(ValueError):
            inference.sandwich_covariance(comps, 0)


class TestWaldCi:
    def test_zero_se_degenerate(self):
        beta = np.array([1.5])
        se, lo, hi = inference.wald_ci(beta, np.zeros((1, 1)))
        assert lo[0] == hi[0] == 1.5

    def test_arithmetic(self):
        beta = np.array([-0.284])
        se, lo, hi = inference.wald_ci(beta, np.array([[0.25]]))
        assert se[0] == pytest.approx(0.5)
        assert lo[0] == pytest.approx(-1.264, abs=5e-4)
        assert hi[0] == pytest.approx(0.696, abs=5e-4)


class TestFitCalibratedCox:
    def fixture_cell(self, seed=3, n1=1500, n2=100):
        cfg = simulate.setting1(n1=n1, n2=n2, event_rate=0.10, sigma2_v=0.01,
                                seed=seed, replicates=1)
        rng = np.random.default_rng(seed)
        cmax = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
        val = simulate.gen_validation(cfg, rng)
        main, x = simulate.gen_main(cfg, rng, cmax)
        return cfg, val, main

    def test_end_to_end_with_derivative_check(self):
        cfg, val, main = self.fixture_cell()
        spec = transforms.DesignSpec(variant="pca", n_components=3,
                                     include_interactions=True)
        memfit = mem.fit_gee(val, spec)
        fit = inference.fit_calibrated_cox(main, memfit, check_derivatives=True)
        assert fit.report.converged
        assert fit.beta.shape == (3,)
        assert np.all(fit.se > 0)
        assert np.all(fit.ci_lower < fit.ci_upper)
        assert fit.term_names == ("exposure", "w_1", "exposure:w_1")

    def test_derivative_check_with_three_confounders(self, monkeypatch):
        # p_w = 3 under pca3+int: 7 Cox and 16 calibration coefficients.
        # The check passes on the analytic U_alpha and refuses one entry
        # moved by a relative 1e-3, ten times FD_TOL.
        cfg, val, main = self.fixture_cell()
        rng = np.random.default_rng(31)

        def widen(ds):
            more = rng.normal(1.0, 1.0, size=(len(ds.w), 2))
            return dataclasses.replace(ds, w=np.hstack([ds.w, more]),
                                       confounder_names=("w_1", "w_2", "w_3"))

        spec = transforms.DesignSpec(variant="pca", n_components=3,
                                     include_interactions=True)
        memfit = mem.fit_gee(widen(val), spec)
        main = widen(main)
        assert memfit.alpha.size == 16
        fit = inference.fit_calibrated_cox(main, memfit, check_derivatives=True)
        assert fit.beta.shape == (7,)
        right = inference.u_alpha_hat

        def wrong(*args):
            u_alpha = right(*args)
            u_alpha.flat[np.argmax(np.abs(u_alpha))] *= 1.0 + 1e-3
            return u_alpha

        monkeypatch.setattr(inference, "u_alpha_hat", wrong)
        with pytest.raises(NumericalError, match="disagrees with finite differences"):
            inference.fit_calibrated_cox(main, memfit, check_derivatives=True)

    def test_se_increases_with_calibration_noise(self):
        # Matched replicates, PCA-3 calibration: more measurement noise means
        # a larger propagated SE.  (Under the heavily collinear standard
        # design the coefficient noise also inflates the calibrated-exposure
        # spread, which can mask this pattern; the reduced design does not.)
        ses = []
        for s2 in (0.01, 0.10):
            cfg = simulate.setting1(n1=1500, n2=100, event_rate=0.10,
                                    sigma2_v=s2, seed=5, replicates=1)
            rng = np.random.default_rng(5)
            cmax = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
            vals = []
            for rep in range(20):
                rr = simulate._replicate_rng(5, 0, rep)
                val = simulate.gen_validation(cfg, rr)
                main, _ = simulate.gen_main(cfg, rr, cmax)
                spec = transforms.DesignSpec(variant="pca", n_components=3,
                                             include_interactions=True)
                memfit = mem.fit_gee(val, spec)
                fit = inference.fit_calibrated_cox(main, memfit)
                vals.append(fit.se[0])
            ses.append(np.mean(vals))
        assert ses[1] > ses[0]

    def test_covariance_psd_symmetric(self):
        cfg, val, main = self.fixture_cell(seed=9)
        spec = transforms.DesignSpec(variant="standard", include_interactions=True)
        memfit = mem.fit_gee(val, spec)
        fit = inference.fit_calibrated_cox(main, memfit)
        assert np.max(np.abs(fit.covariance - fit.covariance.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(fit.covariance)) > -1e-9


    @pytest.mark.parametrize("n2, spec", [
        (1, transforms.DesignSpec(variant="pca", n_components=3,
                                  include_interactions=True)),
        (8, transforms.DesignSpec(variant="pca", n_components=3,
                                  include_interactions=True)),
        (4, transforms.DesignSpec(variant="pca", n_components=2)),
    ], ids=["1 subject, 8 coefficients", "8 subjects, 8 coefficients",
            "4 subjects, 4 coefficients"])
    def test_too_few_subjects_for_v_alpha(self, n2, spec):
        # The subject scores sum to zero at alpha-hat, so the meat of V_a has
        # rank <= subjects - 1: with subjects <= coefficients V_a is singular.
        cfg, val, main = self.fixture_cell(n2=n2)
        memfit = mem.fit_gee(val, spec)
        assert memfit.n_subjects == n2
        with pytest.raises(NumericalError,
                           match="V_alpha needs more subjects than coefficients$") as info:
            inference.fit_calibrated_cox(main, memfit)
        assert isinstance(info.value, ArithmeticError)
        assert str(info.value).startswith(
            f"{n2} validation subjects for {len(memfit.alpha)} calibration "
            f"coefficients")

    def test_one_more_subject_than_coefficients_fits(self):
        cfg, val, main = self.fixture_cell(n2=5)
        memfit = mem.fit_gee(val, transforms.DesignSpec(variant="pca", n_components=2))
        assert (memfit.n_subjects, len(memfit.alpha)) == (5, 4)
        fit = inference.fit_calibrated_cox(main, memfit)
        assert np.all(np.isfinite(fit.se)) and np.all(fit.se > 0)


JACKKNIFE_SPEC = transforms.DesignSpec(variant="standard", include_interactions=True)


@functools.lru_cache(maxsize=None)
def _jackknife_cohort(seed):
    """One setting-1 cohort (n1 = 2000; 300 validation subjects with 4
    occasions each; sigma2_v = 0.05), fitted under ``JACKKNIFE_SPEC`` with
    the independence GEE: the validation study, its fit, the Cox fit, and
    the main study's times, events, design rows and confounders in time
    order."""
    cfg = simulate.setting1(n1=2000, n2=300, occasions=4, sigma2_v=0.05,
                            event_rate=0.10, seed=seed)
    rng = np.random.default_rng(seed)
    cmax = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
    val = simulate.gen_validation(cfg, rng)
    main, _ = simulate.gen_main(cfg, rng, cmax)
    memfit = mem.fit_gee(val, JACKKNIFE_SPEC, working="independence")
    fit = inference.fit_calibrated_cox(main, memfit)
    time, event, z, w = time_ordered(main.time, main.event, main.z, main.w)
    phi = transforms.build_design_matrix(JACKKNIFE_SPEC, None, z, w)
    return val, memfit, fit, time, event, phi, w


def _newton_refit(rs, u, beta, steps=5):
    """The Cox estimate of the time-ordered rows ``u`` by ``steps`` full
    Newton steps from ``beta``.

    A refit that deletes a subject or a group starts one deletion away
    from the full fit's beta, so the last step is at rounding (measured
    below 1e-8 here).  A fixed count, not ``coxph.fit``'s stopping rule,
    which sits at the score's rounding noise and reports some refits at
    this size as not converged.
    """
    for _ in range(steps):
        _, w, S0 = rs.weights(u, beta)
        S1, S2 = rs.moments(u, w)
        step = np.linalg.solve(rs.information(S0, S1, S2), rs.score(u, S0, S1))
        beta = beta + step
    assert np.max(np.abs(step)) < 1e-8
    return beta


def _jackknife(estimates):
    """(g - 1)/g sum_k (b_k - b_bar)(b_k - b_bar)' over g delete-one estimates."""
    g = len(estimates)
    dev = estimates - estimates.mean(axis=0)
    return (g - 1) / g * dev.T @ dev


class TestVarianceTermsMatchJackknives:
    """Each term of the Cox sandwich against a jackknife of beta-hat on the
    same cohort: the robust sandwich is the infinitesimal jackknife (Efron
    1982; for the Cox score, Lin & Wei 1989).  Ratios are
    diag(V_J) / diag(term), for the exposure, w_1 and exposure:w_1."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_validation_term(self, seed):
        # Each validation subject deleted in turn, the main study held.
        # standard+int has no transform, so each refit's rows are
        # phi alpha_-i on the same design rows.  Against
        # I^-1 U_a V_a U_a' I^-1 / N^2 the ratios read 1.070-1.095 at seed
        # 1, 1.060-1.070 at 2, 1.049-1.051 at 3, 1.050-1.086 at 4,
        # 1.076-1.090 at 5 and 1.056-1.060 at 6: the cluster sandwich's
        # small-sample bias (see test_mem's V_alpha jackknife).  A halved
        # V_a reads about 2.1.
        val, _, fit, time, event, phi, w = _jackknife_cohort(seed)
        rs = coxph.RiskSets(time, event)
        betas = np.array([
            _newton_refit(rs, coxph.build_cox_rows(phi @ mem.fit_gee(
                val.subset(np.flatnonzero(val.subject_codes != i)),
                JACKKNIFE_SPEC, working="independence").alpha, w), fit.beta)
            for i in range(val.n_subjects)])
        c = fit.components
        i_inv = np.linalg.inv(c.i_beta)
        term = i_inv @ c.u_alpha @ c.v_alpha @ c.u_alpha.T @ i_inv / len(phi) ** 2
        ratio = np.diag(_jackknife(betas)) / np.diag(term)
        assert np.all((ratio > 1.0) & (ratio < 1.25)), ratio

    def test_main_study_term(self):
        # 100 random groups of main rows, each deleted in turn, the
        # validation fit held.  Against I^-1 G I^-1 / N the ratios read
        # 0.870-1.001 at seed 1, 0.981-1.179 at 2, 0.897-1.151 at 3,
        # 0.881-1.205 at 4, 0.963-1.100 at 5 and 1.008-1.200 at 6, a mean
        # of 1.043 over the 18; one ratio's own noise is about 0.14.  With
        # G's event term dropped they read 1.46-2.13.
        ratios = []
        for seed in range(1, 7):
            _, memfit, fit, time, event, phi, w = _jackknife_cohort(seed)
            u = coxph.build_cox_rows(phi @ memfit.alpha, w)
            group = np.random.default_rng(seed).permutation(len(u)) % 100
            betas = np.array([
                _newton_refit(coxph.RiskSets(time[group != k], event[group != k]),
                              u[group != k], fit.beta)
                for k in range(100)])
            c = fit.components
            i_inv = np.linalg.inv(c.i_beta)
            term = i_inv @ c.g_beta @ i_inv / len(u)
            ratios.append(np.diag(_jackknife(betas)) / np.diag(term))
        ratios = np.array(ratios)
        assert np.all((ratios > 0.75) & (ratios < 1.35)), ratios
        assert 0.95 < ratios.mean() < 1.15, ratios


class TestHazardRatio:
    def make_fit(self, beta, cov):
        se, lo, hi = inference.wald_ci(beta, cov)
        comps = SandwichComponents(np.eye(3), np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)))
        return inference.CoxFit(beta=beta, covariance=cov, se=se,
                                ci_lower=lo, ci_upper=hi, components=comps,
                                report=coxph.ConvergenceReport(True, 1, 0.0, 0.0),
                                term_names=("exposure", "w_1", "exposure:w_1"))

    def test_point_estimate_arithmetic(self):
        fit = self.make_fit(np.array([-0.284, 0.0, 0.0]), np.zeros((3, 3)))
        hr, lo, hi = inference.hazard_ratio(fit, 0.1, [0.0])
        assert hr == pytest.approx(np.exp(-0.0284), rel=1e-10)

    @pytest.mark.parametrize("w0", [[], [0.0, 1.0]])
    def test_w0_of_wrong_length_raises(self, w0):
        fit = self.make_fit(np.array([-0.3, 0.1, 5.0]), np.zeros((3, 3)))
        with pytest.raises(DataError,
                           match=r"one value per confounder column \(1\), got"):
            inference.hazard_ratio(fit, 0.1, w0)

    def test_zero_modifier_ignores_beta3(self):
        fit = self.make_fit(np.array([-0.3, 0.1, 5.0]), np.zeros((3, 3)))
        hr, _, _ = inference.hazard_ratio(fit, 0.1, [0.0])
        assert hr == pytest.approx(np.exp(-0.03), rel=1e-10)

    def test_delta_method_matches_fd_propagation(self, rng):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T
        beta = np.array([-0.3, 0.05, 0.02])
        w0 = [1.7]
        fit = self.make_fit(beta, cov)
        hr, lo, hi = inference.hazard_ratio(fit, 0.1, w0)
        # FD propagation of g(beta) = 0.1 (beta1 + beta3 w0) through the
        # covariance: var = grad' cov grad with grad from finite differences.
        h = 1e-7

        def g(b):
            return 0.1 * (b[0] + b[2] * w0[0])

        grad = np.array([(g(beta + h * e) - g(beta - h * e)) / (2 * h)
                         for e in np.eye(3)])
        var = float(grad @ cov @ grad)
        half = 1.959964 * np.sqrt(var)
        assert np.log(hr) == pytest.approx(g(beta), abs=1e-12)
        assert np.log(hi) - np.log(hr) == pytest.approx(half, abs=1e-6)
