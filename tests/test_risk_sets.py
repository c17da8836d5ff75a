"""The risk-set engine on time-ordered rows against its oracles.

Two references: the O(n^2) risk-set definition (``conftest.risk_set_indices``),
which the engine must match to rounding on data with ties, and a verbatim
copy of the per-call-sorting functions it replaced (``seed_cox``), which
takes the rows in file order and which the engine, given the same rows in
time order, must match bit for bit, including when the block suffix sums
carry a running total across blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibcox import coxph, inference, linalg, mem, simulate, transforms
from conftest import (information, loglik, make_survival, risk_set_indices, risk_sums,
                      time_ordered)
import seed_cox


@pytest.fixture(params=["default", "tiny", "one row"])
def block(request, monkeypatch):
    """Run with the package's block size, with blocks of a few rows, and
    with blocks of one row, so that every risk-set sum crosses block
    boundaries and, in the last, the carry crosses every row."""
    values = {"default": coxph._BLOCK_VALUES, "tiny": 24, "one row": 1}
    monkeypatch.setattr(coxph, "_BLOCK_VALUES", values[request.param])
    return request.param


def _tied_survival(rng, n=40, d=3):
    """File-order rows; tests put them in time order with ``time_ordered``."""
    u, time, event, beta = make_survival(rng, n=n, d=d)
    # Coarse times: events tie with events and with censorings.
    return u, np.ceil(time * 4.0) / 4.0 + 0.25, event, beta


def _halving_survival(rng, n=60):
    """File-order rows whose Newton steps from beta = 0 overshoot.

    A rare binary covariate with a large effect: its information at zero
    is small, so the first steps go past the maximum and halve.
    """
    u = np.column_stack([(rng.random(n) < 0.08).astype(float),
                         rng.normal(size=n)])
    t0 = rng.exponential(np.exp(-(u @ np.array([4.0, 0.5]))))
    cens = rng.exponential(2.0 * np.median(t0), size=n)
    return u, np.minimum(t0, cens), (t0 <= cens).astype(int)


def _calibration_terms(rng, n, d, da):
    phi = rng.normal(size=(n, da))
    c = rng.normal(size=(n, d))
    return phi, c


class TestOracleSums:
    """Engine results equal the per-risk-set sums of the definition."""

    def test_loglik_score_information(self, rng, block):
        u, time, event, beta = _tied_survival(rng)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        assert len(np.unique(time)) < len(time)
        ll = sc = info = 0.0
        for i, rows in risk_set_indices(time, event):
            r = np.exp(u[rows] @ beta)
            s0, s1 = r.sum(), r @ u[rows]
            s2 = (u[rows] * r[:, None]).T @ u[rows]
            ubar = s1 / s0
            ll += u[i] @ beta - np.log(s0)
            sc = sc + u[i] - ubar
            info = info + s2 / s0 - np.outer(ubar, ubar)
        assert np.isclose(loglik(rs, u, beta), ll, rtol=1e-12)
        assert np.allclose(coxph.score(rs, u, beta), sc, rtol=1e-12, atol=1e-12)
        assert np.allclose(information(rs, u, beta), info,
                           rtol=1e-12, atol=1e-12)

    def test_g_beta(self, rng, block):
        u, time, event, beta = _tied_survival(rng)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        n = len(time)
        resid = np.zeros_like(u)
        for i, rows in risk_set_indices(time, event):
            r = np.exp(u[rows] @ beta)
            ubar = (r @ u[rows]) / r.sum()
            resid[i] += u[i] - ubar
            resid[rows] -= (r / r.sum())[:, None] * (u[rows] - ubar)
        expected = resid.T @ resid / n
        assert np.allclose(inference.g_beta_hat(rs, u, risk_sums(rs, u, beta)), expected,
                           rtol=1e-12, atol=1e-14)

    def test_u_alpha(self, rng, block):
        u, time, event, beta = _tied_survival(rng)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        d, da = u.shape[1], 5
        phi, c = _calibration_terms(rng, len(time), d, da)
        b = c @ beta
        expected = np.zeros((d, da))
        for i, rows in risk_set_indices(time, event):
            r = np.exp(u[rows] @ beta)
            s0, s1 = r.sum(), r @ u[rows]
            m = ((r[:, None] * (c[rows] + b[rows, None] * u[rows])).T @ phi[rows])
            q = (r * b[rows]) @ phi[rows]
            expected += np.outer(c[i], phi[i]) - m / s0 + np.outer(s1 / s0 ** 2, q)
        got = inference.u_alpha_hat(rs, u, risk_sums(rs, u, beta), phi, c, b)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestKernel:
    """The one risk-set kernel against whole-cohort sums."""

    def test_sums_at_starts_match_whole_cohort_sums(self, rng, block):
        """S0, S1 and S2 are the whole-cohort suffix sums, read at each
        event's first tied row, bit for bit."""
        u, time, event, beta = _tied_survival(rng, n=300)
        t_s, e_s, u_s = time_ordered(time, event, u)
        rs = coxph.RiskSets(t_s, e_s)
        assert len(np.unique(t_s[rs.events])) < len(rs.events)
        eta, w, S0 = rs.weights(u_s, beta)
        S1, S2 = rs.moments(u_s, w)
        eta_all, w_all, S0_all, S1_all, first = seed_cox._risk_quantities(u_s, t_s, beta)
        wu = w_all[:, None] * u_s
        S2_all = np.cumsum((wu[:, :, None] * u_s[:, None, :])[::-1], axis=0)[::-1]
        starts = first[rs.events]
        assert len(S0) == len(S1) == len(S2) == len(rs.events)
        assert S1.flags.c_contiguous and S2.flags.c_contiguous
        for g, want in zip((eta, w, S0, S1, S2),
                           (eta_all, w_all, S0_all[starts], S1_all[starts],
                            S2_all[starts])):
            assert g.shape == want.shape and np.array_equal(g, want)

    def test_prefix_at_rows(self, rng):
        _, time, event, _ = _tied_survival(rng)
        rs = coxph.RiskSets(*time_ordered(time, event))
        x = rng.normal(size=(len(rs.events), 2))
        t_ev = rs.time[rs.events]
        want = np.array([x[t_ev <= t].sum(axis=0) for t in rs.time])
        assert np.allclose(rs.prefix_at_rows(x), want, rtol=1e-13, atol=1e-13)
        assert np.allclose(rs.prefix_at_rows(x[:, 0]), want[:, 0],
                           rtol=1e-13, atol=1e-13)


class TestSeedEquality:
    """Bit-for-bit equality with the per-call-sorting functions, which take
    the same rows in file order."""

    def test_evaluators(self, rng, block):
        u, time, event, beta = _tied_survival(rng, n=300)
        phi, c = _calibration_terms(rng, len(time), u.shape[1], 4)
        b = c @ beta
        t_s, e_s, u_s, phi_s, c_s, b_s = time_ordered(time, event, u, phi, c, b)
        rs = coxph.RiskSets(t_s, e_s)
        sums = risk_sums(rs, u_s, beta)
        # The Newton loop's score; coxph.score is held to rounding below.
        assert np.array_equal(rs.score(u_s, *sums[2:]),
                              seed_cox.score(u, time, event, beta))
        assert np.array_equal(information(rs, u_s, beta),
                              seed_cox.information(u, time, event, beta))
        assert np.array_equal(inference.g_beta_hat(rs, u_s, sums),
                              seed_cox.g_beta_hat(u, time, event, beta))
        assert np.array_equal(inference.u_alpha_hat(rs, u_s, sums, phi_s, c_s, b_s),
                              seed_cox.u_alpha_hat(u, time, event, beta, phi, c, b))
        got, want = coxph.fit(rs, u_s), seed_cox.fit(u, time, event)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        # The sums and information the fit returns are those at its beta.
        for returned, fresh in zip(got[2], risk_sums(rs, u_s, got[0])):
            assert np.array_equal(returned, fresh)
        assert np.array_equal(got[3], information(rs, u_s, got[0]))

    def test_step_halving_fit(self, block):
        """A fit whose Newton steps halve keeps the seed loop's beta and
        report, bit for bit."""
        u, time, event = _halving_survival(np.random.default_rng(0))
        t_s, e_s, u_s = time_ordered(time, event, u)
        got = coxph.fit(coxph.RiskSets(t_s, e_s), u_s)
        want = seed_cox.fit(u, time, event)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_fit_calibrated_cox(self, block):
        # n1 = 3000 with d_alpha = 20: the U_alpha blocks hold fewer rows
        # than n even at the package's block size.
        cfg = simulate.setting1(n1=3000, n2=150, event_rate=0.10, seed=7)
        rng = np.random.default_rng(7)
        c_max = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
        validation = simulate.gen_validation(cfg, rng)
        main, _ = simulate.gen_main(cfg, rng, c_max)
        spec = transforms.DesignSpec(variant="standard", include_interactions=True)
        memfit = mem.fit_gee(validation, spec)
        assert memfit.alpha.size == 20
        assert coxph._BLOCK_VALUES // (3 * 20) < len(main)
        fit = inference.fit_calibrated_cox(main, memfit, check_derivatives=True)

        # The same pipeline on the seed functions.
        xhat = transforms.build_design_matrix(memfit.spec, memfit.transform, main.z,
                                              main.w) @ memfit.alpha
        u = coxph.build_cox_rows(xhat, main.w)
        beta, report = seed_cox.fit(u, main.time, main.event)
        n = len(main)
        i_beta = seed_cox.information(u, main.time, main.event, beta) / n
        g_beta = seed_cox.g_beta_hat(u, main.time, main.event, beta)
        phi = transforms.build_design_matrix(spec, memfit.transform, main.z, main.w)
        c = coxph.exposure_gradient(main.w)
        b = c @ beta
        u_alpha = seed_cox.u_alpha_hat(u, main.time, main.event, beta, phi, c, b)
        comps = inference.SandwichComponents(i_beta=i_beta, g_beta=g_beta,
                                             u_alpha=u_alpha, v_alpha=memfit.v_alpha)
        cov = inference.sandwich_covariance(comps, n)

        assert fit.report == report
        assert np.array_equal(fit.beta, beta)
        assert np.array_equal(fit.covariance, cov)
        assert np.array_equal(fit.components.i_beta, i_beta)
        assert np.array_equal(fit.components.g_beta, g_beta)
        assert np.array_equal(fit.components.u_alpha, u_alpha)

        # The check forms its differences in other arithmetic than the seed
        # (phi alpha +- h phi_k, per-row event weights), so it agrees to
        # rounding, far inside FD_TOL.
        def builder(a):
            return coxph.build_cox_rows(phi @ a, main.w)
        time, event, phi_s, w_s = time_ordered(main.time, main.event, phi, main.w)
        rs = coxph.RiskSets(time, event)
        fd = inference.u_alpha_fd(rs, phi_s, w_s, beta, memfit.alpha)
        want = seed_cox.u_alpha_fd(builder, main.time, main.event, beta, memfit.alpha)
        assert np.max(np.abs(fd - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def _score_gap(time, event, seed, d=3, scale=1.0):
    """|coxph.score - RiskSets.score| over sum_e |u_e| on sorted rows."""
    rng = np.random.default_rng(seed)
    time, event = np.asarray(time, dtype=float), np.asarray(event)
    u = rng.normal(size=(len(time), d))
    beta = rng.normal(0.0, scale, size=d)
    rs = coxph.RiskSets(time, event)
    want = rs.score(u, *risk_sums(rs, u, beta)[2:])
    got = coxph.score(rs, u, beta)
    return np.max(np.abs(got - want)) / np.sum(np.abs(u[rs.events]))


class TestEventWeightScore:
    """coxph.score, summed row by row with per-row event weights, equals the
    Newton loop's suffix-sum score to rounding."""

    @pytest.mark.parametrize("time, event", [
        ([1, 1, 1, 2, 2, 3, 3, 3], [1, 1, 1, 1, 1, 0, 1, 1]),
        ([1, 1, 2, 2, 2, 4, 4, 5], [1, 0, 0, 1, 0, 1, 0, 0]),
        ([1, 2, 2, 3, 5, 5, 8, 9], [0, 0, 0, 0, 1, 0, 0, 0]),
        ([1, 2, 2, 3, 5, 5, 8, 9], [1, 1, 1, 1, 1, 1, 1, 1]),
        ([4], [1]),
    ], ids=["events tied with events", "events tied with censorings",
            "one event", "all events", "one row"])
    def test_named_cases(self, time, event):
        for seed in range(20):
            assert _score_gap(time, event, seed) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1,
                    max_size=60),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.1, 1.0, 5.0]))
    def test_tie_heavy_cohorts(self, rows, seed, scale):
        rows = sorted(rows)
        time = [t for t, _ in rows]
        event = [int(e) for _, e in rows]
        event[seed % len(event)] = 1
        assert _score_gap(time, event, seed, scale=scale) <= 1e-12


def test_rows_of_another_cohort_rejected(rng):
    u, time, event, beta = _tied_survival(rng)
    time, event, u = time_ordered(time, event, u)
    rs = coxph.RiskSets(time[:-1], event[:-1])
    with pytest.raises(linalg.ContractViolationError, match="39 subjects"):
        coxph.score(rs, u, beta)
    with pytest.raises(linalg.ContractViolationError, match="39 subjects"):
        inference.u_alpha_hat(rs, u[:-1], risk_sums(rs, u[:-1], beta),
                              np.ones((len(time), 2)), np.ones_like(u[:-1]),
                              np.ones(len(time) - 1))


def test_one_sweep_per_newton_stage(monkeypatch):
    """A step-halving candidate sweeps the rows once, for S0; an accepted
    step (beta = 0 included) once more, for S1 and S2 together; the
    information makes no sweep."""
    u, time, event = _halving_survival(np.random.default_rng(0))
    t_s, e_s, u_s = time_ordered(time, event, u)
    rs = coxph.RiskSets(t_s, e_s)
    calls = []

    def count(name):
        original = getattr(coxph.RiskSets, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(coxph.RiskSets, name, counted)

    for name in ("suffix_at_starts", "weights", "moments", "information"):
        count(name)
    report = coxph.fit(rs, u_s)[1]
    candidates, steps = calls.count("weights") - 1, report.iterations
    assert candidates > steps
    assert calls.count("moments") == calls.count("information") == steps + 1
    assert calls.count("suffix_at_starts") == (candidates + 1) + (steps + 1)
    # Every sweep comes straight from weights or moments, none from information.
    assert all(calls[i - 1] in ("weights", "moments")
               for i, name in enumerate(calls) if name == "suffix_at_starts")


def test_one_sort_and_no_second_evaluation_per_calibrated_fit(monkeypatch):
    cfg = simulate.setting1(n1=800, n2=60, event_rate=0.2, seed=3)
    rng = np.random.default_rng(3)
    c_max = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
    validation = simulate.gen_validation(cfg, rng)
    main, _ = simulate.gen_main(cfg, rng, c_max)
    memfit = mem.fit_gee(validation, transforms.DesignSpec(include_interactions=True))
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((name, args))
            result = original(*args, **kwargs)
            if name == "fit":
                calls.append(("fit returned", args))
            return result
        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(np, "argsort"), (coxph, "fit"), (coxph, "score"),
                        (coxph.RiskSets, "weights"), (coxph.RiskSets, "moments"),
                        (coxph.RiskSets, "information")]:
        count(owner, name)
    cox = inference.fit_calibrated_cox(main, memfit, check_derivatives=True)

    names = [name for name, _ in calls]
    assert [args[0] is main.time for name, args in calls if name == "argsort"] == [True]
    assert names.count("fit") == 1
    done = names.index("fit returned")
    fitted_rows = calls[done][1][1]
    # One S1 and S2 and one information per Newton iterate, beta = 0 included.
    assert names[:done].count("moments") == cox.report.iterations + 1
    assert names[:done].count("information") == cox.report.iterations + 1
    # After the fit, only the finite-difference scores evaluate the risk
    # sets, each through weights on rows built from a perturbed alpha, and
    # none of them takes S1.
    after = calls[done + 1:]
    assert [name for name, _ in after] == ["score", "weights"] * (2 * len(memfit.alpha))
    assert not any(np.array_equal(args[1], fitted_rows) for _, args in after)
