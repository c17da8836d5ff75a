"""Monte Carlo engine: generators, event-rate calibration, replicate cells."""

import concurrent.futures
import dataclasses
import pickle

import numpy as np
import pytest

from calibcox import coxph, linalg, mem, simulate, transforms


class TestConfig:
    def test_event_rate_bounds(self):
        with pytest.raises(ValueError):
            simulate.setting1(event_rate=0.0)
        with pytest.raises(ValueError):
            simulate.setting1(event_rate=1.5)

    def test_sigma2_positive(self):
        with pytest.raises(ValueError):
            simulate.setting1(sigma2_v=-0.01)

    def test_z_cov_spd_checked(self):
        bad = np.ones((9, 9))  # singular
        with pytest.raises(linalg.DecompositionError):
            simulate.setting1(z_cov=bad)

    def test_grid_has_24_cells(self):
        cells = simulate.full_grid(setting=1, replicates=2, seed=0)
        assert len(cells) == 24
        keys = {(c.event_rate, c.n1, c.n2, c.sigma2_v) for c in cells}
        assert len(keys) == 24


class TestMvnSample:
    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(0)
        chol = np.eye(3)
        draws = simulate.mvn_sample(rng, np.zeros(3), chol, 50_000)
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - np.eye(3))) < 0.05

    def test_degenerate_covariance(self):
        rng = np.random.default_rng(0)
        chol = np.sqrt(1e-12) * np.eye(2)
        draws = simulate.mvn_sample(rng, np.array([5.0, -2.0]), chol, 100)
        assert np.max(np.abs(draws - [5.0, -2.0])) < 1e-4

    def test_deterministic_given_seed(self):
        a = simulate.mvn_sample(np.random.default_rng(42), np.zeros(2), np.eye(2), 10)
        b = simulate.mvn_sample(np.random.default_rng(42), np.zeros(2), np.eye(2), 10)
        assert np.array_equal(a, b)


class TestGenValidation:
    def test_row_count(self):
        cfg = simulate.setting1(n2=150)
        val = simulate.gen_validation(cfg, np.random.default_rng(1))
        assert len(val) == 1200
        assert len(val.subject_groups()) == 150

    def test_noiseless_limit(self):
        cfg = simulate.setting1(n2=100, sigma2_v=1e-12)
        val = simulate.gen_validation(cfg, np.random.default_rng(2))
        spec = transforms.DesignSpec(variant="standard", include_interactions=True)
        fit = mem.fit_ols(val, spec)
        phi = transforms.build_design_matrix(spec, None, val.z, val.w)
        resid = val.x - phi @ fit.alpha
        assert np.max(np.abs(resid)) < 1e-5

    def test_refit_recovers_generator(self):
        cfg = simulate.setting1(n2=300, sigma2_v=0.01)
        val = simulate.gen_validation(cfg, np.random.default_rng(3))
        spec = transforms.DesignSpec(variant="standard", include_interactions=True)
        fit = mem.fit_ols(val, spec)
        truth = np.concatenate([[cfg.alpha0], cfg.alpha1, cfg.alpha2, cfg.alpha3])
        se = np.sqrt(np.diag(fit.v_alpha))
        assert np.all(np.abs(fit.alpha - truth) < 4.0 * se)


class TestWeibullEventTime:
    def test_median_analytic(self):
        rng = np.random.default_rng(7)
        draws = simulate.weibull_event_time(rng, np.zeros(200_000), 10.0, 1.0)
        assert abs(np.median(draws) - np.log(2.0) ** 0.1) < 0.004

    def test_theta_one_is_exponential(self):
        rng = np.random.default_rng(8)
        eta = 0.5
        draws = simulate.weibull_event_time(rng, eta * np.ones(200_000), 1.0, 2.0)
        expected_mean = np.exp(-eta) / 2.0
        assert abs(draws.mean() / expected_mean - 1.0) < 0.01

    def test_monotone_in_eta(self):
        # Shared uniforms: larger eta gives stochastically smaller times.
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        lo = simulate.weibull_event_time(rng1, np.zeros(1000), 10.0, 1.0)
        hi = simulate.weibull_event_time(rng2, np.ones(1000), 10.0, 1.0)
        assert np.all(hi <= lo)

    def test_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate.weibull_event_time(rng, np.zeros(1), -1.0, 1.0)


class TestCalibrateCmax:
    def test_monotone_rate_in_cmax(self):
        cfg = simulate.setting1()
        rng = np.random.default_rng(10)
        t0, u = simulate._pilot(cfg, rng, 20000)
        rates = [np.mean(t0 <= u * c) for c in (0.5, 1.0, 2.0)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_achieves_target_rate(self):
        for target in (0.035, 0.10):
            cfg = simulate.setting1(n1=10_000, event_rate=target)
            rng = np.random.default_rng(11)
            cmax = simulate.calibrate_cmax(cfg, rng)
            main, _ = simulate.gen_main(cfg, np.random.default_rng(12), cmax)
            tol = 0.005 if target == 0.035 else 0.01
            assert abs(main.event.mean() - target) <= tol

    def test_matches_grid_scan(self):
        cfg = simulate.setting1()
        rng = np.random.default_rng(13)
        t0, u = simulate._pilot(cfg, rng, 20000)
        cmax = simulate.calibrate_cmax(simulate.setting1(),
                                       np.random.default_rng(13),
                                       pilot_size=20000)
        # Dense scan on the same pilot: the bisection answer must achieve a
        # rate at least as close to target as the best grid point, up to the
        # stated rate tolerance.
        grid = np.arange(1e-3, 2.0, 1e-3)
        rates = np.array([np.mean(t0 <= u * c) for c in grid])
        best = grid[np.argmin(np.abs(rates - cfg.event_rate))]
        rate_at_cmax = np.mean(t0 <= u * cmax)
        rate_at_best = np.mean(t0 <= u * best)
        assert abs(rate_at_cmax - cfg.event_rate) <= max(
            abs(rate_at_best - cfg.event_rate), 0.002)


class TestGenMain:
    def test_null_beta_independence(self):
        cfg = simulate.setting1(n1=10_000, beta=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(14)
        cmax = simulate.calibrate_cmax(cfg, rng)
        main, x = simulate.gen_main(cfg, np.random.default_rng(15), cmax)
        r = np.corrcoef(x, main.time)[0, 1]
        assert abs(r) < 0.02

    def test_oracle_cox_fit_recovers_beta(self):
        cfg = simulate.setting1(n1=5000, event_rate=0.10, seed=16)
        rng = np.random.default_rng(16)
        cmax = simulate.calibrate_cmax(cfg, rng)
        b1s = []
        for rep in range(40):
            rr = simulate._replicate_rng(16, 0, rep)
            main, x = simulate.gen_main(cfg, rr, cmax)
            rows = coxph.build_cox_rows(x, main.w)
            beta, _ = coxph.fit(coxph.RiskSets(main.time, main.event), rows)
            b1s.append(beta[0])
        b1s = np.array(b1s)
        mc_se = b1s.std(ddof=1) / np.sqrt(len(b1s))
        assert abs(b1s.mean() - cfg.beta[0]) < 3.0 * mc_se


class TestReplicateResult:
    def test_nan_fields_equal_after_pickling(self):
        failed = simulate.ReplicateResult(replicate=0, model="M1",
                                          converged=False, error="singular")
        back = pickle.loads(pickle.dumps(failed))
        assert back.beta1_hat is not failed.beta1_hat  # a new NaN object
        assert back == failed and hash(back) == hash(failed)
        assert dataclasses.replace(failed, se1=0.5) != failed
        assert dataclasses.replace(failed, error="other") != failed


class TestRunCell:
    def test_deterministic_summary(self):
        cfg = simulate.setting1(n1=800, n2=80, event_rate=0.10, replicates=4, seed=21)
        s1, r1 = simulate.run_cell(cfg)
        s2, r2 = simulate.run_cell(cfg)
        assert s1 == s2
        assert r1 == r2

    def test_thread_count_invariance(self):
        # The second cell has one validation subject, so every fit fails and
        # the results carry NaN estimates, which must still compare equal
        # after they come back from a worker process.
        for cfg in (simulate.setting1(n1=800, n2=80, event_rate=0.10,
                                      replicates=6, seed=22),
                    simulate.setting1(n1=600, n2=1, event_rate=0.1,
                                      replicates=2, seed=1)):
            s1, r1 = simulate.run_cell(cfg, threads=1)
            s4, r4 = simulate.run_cell(cfg, threads=4)
            assert s1 == s4
            assert r1 == r4

    def test_vanishing_error_limit(self):
        cfg = simulate.setting1(n1=4000, n2=150, event_rate=0.10,
                                sigma2_v=1e-10, replicates=30, seed=23)
        summaries, _ = simulate.run_cell(cfg, threads=4)
        m1 = next(s for s in summaries if s.model == "M1")
        assert m1.bias_pct < 25.0  # dominated by MC noise, not systematic error
        assert abs(m1.se_mean / m1.sd - 1.0) < 0.35

    def test_summary_fields(self):
        cfg = simulate.setting1(n1=600, n2=60, event_rate=0.10, replicates=3, seed=24)
        summaries, results = simulate.run_cell(cfg)
        assert {s.model for s in summaries} == {"M1", "M2"}
        for s in summaries:
            assert 0.0 <= s.coverage_pct <= 100.0
            assert s.sd >= 0.0 and s.se_mean >= 0.0
            assert s.n_replicates == 3
        assert len(results) == 6

    @pytest.mark.parametrize("error", [ValueError("bad input"),
                                       linalg.ContractViolationError("bad shape")])
    def test_replicate_failure_contained(self, monkeypatch, error):
        cfg = simulate.setting1(n1=600, n2=60, event_rate=0.10, replicates=3, seed=24)
        fit_gee = mem.fit_gee
        calls = []

        def fails_third_fit(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # replicate 1, model M1
                raise error
            return fit_gee(*args, **kwargs)

        monkeypatch.setattr(mem, "fit_gee", fails_third_fit)
        summaries, results = simulate.run_cell(cfg)
        assert len(results) == 6
        failed = [r for r in results if not r.converged]
        assert [(r.replicate, r.model, r.error) for r in failed] == [
            (1, "M1", str(error))]
        m1 = next(s for s in summaries if s.model == "M1")
        assert (m1.n_converged, m1.n_replicates) == (2, 3)

    def test_worker_failure_matches_serial(self, monkeypatch):
        # Each forked worker counts only its own calls, so the injected
        # failure is keyed on the replicate's data: replicate 2's validation
        # cohort, model M1.
        cfg = simulate.setting1(n1=600, n2=60, event_rate=0.10, replicates=5, seed=25)
        target = simulate.gen_validation(cfg, simulate._replicate_rng(25, 0, 2)).x[0]
        fit_gee = mem.fit_gee

        def fails_on_replicate_2(validation, spec, **kwargs):
            if validation.x[0] == target and spec.variant == "standard":
                raise ArithmeticError("injected failure")
            return fit_gee(validation, spec, **kwargs)

        monkeypatch.setattr(mem, "fit_gee", fails_on_replicate_2)
        s1, r1 = simulate.run_cell(cfg, threads=1)
        s2, r2 = simulate.run_cell(cfg, threads=2)
        assert [(r.replicate, r.model, r.error) for r in r1 if not r.converged] == [
            (2, "M1", "injected failure")]
        assert r2 == r1
        assert [(s.model, s.n_converged, s.n_replicates) for s in s2] == [
            ("M1", 4, 5), ("M2", 5, 5)]
        assert [(s.model, s.n_converged, s.n_replicates) for s in s1] == [
            ("M1", 4, 5), ("M2", 5, 5)]

    def test_workers_capped_at_replicates(self, monkeypatch):
        started = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        cfg = simulate.setting1(n1=600, n2=60, event_rate=0.10, replicates=1, seed=26)
        s4, r4 = simulate.run_cell(cfg, threads=4)
        assert started == [1]
        s1, r1 = simulate.run_cell(cfg, threads=1)
        assert started == [1]  # one thread runs in this process
        assert r4 == r1

    def test_too_few_validation_subjects_recorded(self):
        # One validation subject: V_alpha is singular for both models.
        cfg = simulate.setting1(n1=600, n2=1, event_rate=0.10, replicates=2, seed=1)
        summaries, results = simulate.run_cell(cfg)
        assert [(r.replicate, r.model, r.converged) for r in results] == [
            (0, "M1", False), (0, "M2", False), (1, "M1", False), (1, "M2", False)]
        m2 = [r for r in results if r.model == "M2"]
        assert all(r.error.startswith("1 validation subjects for 8 calibration "
                                      "coefficients") for r in m2)
        assert all(s.n_converged == 0 and s.flagged for s in summaries)

    def test_replicates_validated(self):
        cfg = simulate.setting1(replicates=1)
        bad = dataclasses.replace(cfg, replicates=0)
        with pytest.raises(ValueError):
            simulate.run_cell(bad)
