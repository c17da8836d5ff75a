"""Monte Carlo engine: generators, event-rate calibration, replicate cells."""

import concurrent.futures
import dataclasses
import itertools

import numpy as np
import pytest

from calibcox import coxph, data_model, mem, simulate, transforms
from calibcox.errors import DataError

from conftest import assert_same_results, time_ordered

import seed_simulate


class TestConfig:
    def test_event_rate_bounds(self):
        with pytest.raises(ValueError):
            simulate.setting1(event_rate=0.0)
        with pytest.raises(ValueError):
            simulate.setting1(event_rate=1.5)

    def test_sigma2_positive(self):
        with pytest.raises(ValueError):
            simulate.setting1(sigma2_v=-0.01)

    @pytest.mark.parametrize("field, value", [
        ("alpha1", (0.1,) * 5), ("alpha1", (0.1,) * 10), ("alpha3", (0.1,) * 8),
        ("alpha2", (0.1, 0.2)), ("alpha2", ()), ("beta", (0.1, 0.2)),
        ("beta", (0.1,) * 4), ("alpha1", np.full((9, 1), 0.1)),
    ], ids=lambda v: v if isinstance(v, str) else str(np.shape(v)))
    def test_coefficient_lengths_checked_at_construction(self, field, value):
        # alpha1 and alpha3 hold one value per default radius, alpha2 one
        # per confounder, and beta the exposure, confounder and interaction.
        with pytest.raises(DataError, match=field):
            simulate.setting1(n1=100, n2=5, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n1", 0), ("occasions", 0), ("occasions", -2), ("seed", -1)],
        ids=lambda v: v if isinstance(v, str) else str(v))
    def test_counts_and_seed_checked_at_construction(self, field, value):
        # The error names the field before anything is drawn; in run_cell,
        # NumPy or the validation dataset's code check would not name it.
        with pytest.raises(DataError, match=f"^{field} must"):
            simulate.setting1(**{"n1": 600, "n2": 20, "event_rate": 0.1, field: value})

    def test_unknown_setting_is_a_data_error(self):
        # A package error, not a KeyError from the table of settings.
        with pytest.raises(DataError, match="^setting must be 1 or 2, got 3$"):
            simulate.cell_config(3)
        with pytest.raises(DataError, match="^setting must be 1 or 2, got 0$"):
            simulate.full_grid(setting=0)

    def test_grid_has_24_cells(self):
        for setting, alpha, beta in (
                (1, simulate.SETTING1_ALPHA, simulate.SETTING1_BETA),
                (2, simulate.SETTING2_ALPHA, simulate.SETTING2_BETA)):
            cells = simulate.full_grid(setting=setting, replicates=2, seed=0)
            assert len(cells) == 24
            keys = {(c.event_rate, c.n1, c.n2, c.sigma2_v) for c in cells}
            assert len(keys) == 24
            assert all(c.alpha1.tolist() == list(alpha["a1"])
                       and c.beta.tolist() == list(beta) for c in cells)


def _assert_same_dataset(new, old, fields):
    for name in fields:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    if isinstance(new, data_model.ValidationDataset):
        assert (new.subject_ids[new.subject_codes].tolist()
                == old.subject_ids[old.subject_codes].tolist())
    assert new.confounder_names == old.confounder_names


class TestSeedEquality:
    """The generators draw bit for bit what the three separate generators
    of ``seed_simulate`` drew, leaving the stream in the same state."""

    @pytest.mark.parametrize("setting", [1, 2])
    @pytest.mark.parametrize("seed, n1, n2, occasions, sigma2_v", [
        (0, 300, 20, 8, 0.01), (7, 1000, 3, 1, 0.10), (12345, 57, 40, 3, 1e-10),
    ])
    def test_generators_match_seed(self, setting, seed, n1, n2, occasions,
                                   sigma2_v):
        cfg = simulate.cell_config(setting, n1=n1, n2=n2, occasions=occasions,
                                   sigma2_v=sigma2_v, event_rate=0.1, seed=seed)
        old_cfg = seed_simulate.config(cfg)
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new_t0, new_u = simulate._pilot(cfg, new_rng, 500)
        old_t0, old_u = seed_simulate._pilot(old_cfg, old_rng, 500)
        assert new_t0.tobytes() == old_t0.tobytes()
        assert new_u.tobytes() == old_u.tobytes()
        new_val = simulate.gen_validation(cfg, new_rng)
        _assert_same_dataset(new_val, seed_simulate.gen_validation(old_cfg, old_rng),
                             ("occasion", "x", "z", "w", "radii"))
        c_max = simulate.calibrate_cmax(cfg, np.random.default_rng(seed + 1),
                                        pilot_size=2000)
        new_main, new_x = simulate.gen_main(cfg, new_rng, c_max)
        old_main, old_x = seed_simulate.gen_main(old_cfg, old_rng, c_max)
        _assert_same_dataset(new_main, old_main,
                             ("time", "event", "z", "w", "radii"))
        assert new_x.tobytes() == old_x.tobytes()
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        # Each dataset holds a radii array of its own.
        radii = [new_val.radii, new_main.radii,
                 simulate.gen_validation(cfg, new_rng).radii,
                 simulate.gen_main(cfg, new_rng, c_max)[0].radii]
        assert not any(np.shares_memory(a, b)
                       for a, b in itertools.combinations(radii, 2))


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
        fit = mem.fit_gee(val, spec, working="independence")
        phi = transforms.build_design_matrix(spec, None, val.z, val.w)
        resid = val.x - phi @ fit.alpha
        assert np.max(np.abs(resid)) < 1e-5

    def test_refit_recovers_generator(self):
        cfg = simulate.setting1(n2=300, sigma2_v=0.01)
        val = simulate.gen_validation(cfg, np.random.default_rng(3))
        spec = transforms.DesignSpec(variant="standard", include_interactions=True)
        fit = mem.fit_gee(val, spec, working="independence")
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
            time, event, rows = time_ordered(main.time, main.event,
                                             coxph.build_cox_rows(x, main.w))
            beta, *_ = coxph.fit(coxph.RiskSets(time, event), rows)
            b1s.append(beta[0])
        b1s = np.array(b1s)
        mc_se = b1s.std(ddof=1) / np.sqrt(len(b1s))
        assert abs(b1s.mean() - cfg.beta[0]) < 3.0 * mc_se


class TestRunCell:
    def test_deterministic_summary(self):
        cfg = simulate.setting1(n1=800, n2=80, event_rate=0.10, replicates=4, seed=21)
        s1, r1 = simulate.run_cell(cfg)
        s2, r2 = simulate.run_cell(cfg)
        assert s1 == s2
        assert_same_results(r1, r2)

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
            assert_same_results(r1, r4)

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
                                       DataError("bad shape")])
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
        assert_same_results(r2, r1)
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
        assert_same_results(r4, r1)

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
        # The cell is checked where it is built, so run_cell never gets one
        # without replicates.
        cfg = simulate.setting1(replicates=1)
        with pytest.raises(DataError, match="replicates must be at least 1"):
            dataclasses.replace(cfg, replicates=0)
