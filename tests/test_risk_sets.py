"""The risk-set engine on time-ordered rows against its oracles.

Two references: the O(n^2) risk-set definition (``conftest.risk_set_indices``),
which the engine must match to rounding on data with ties, and a verbatim
copy of the per-call-sorting functions it replaced (``seed_cox``), which
takes the rows in file order and which the engine, given the same rows in
time order, must match bit for bit, including when the block suffix sums
carry a running total across blocks.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calibcox import constants, coxph, inference, mem, simulate, transforms
from calibcox.errors import DataError
from conftest import (check_fd, information, loglik, make_survival, risk_set_indices,
                      risk_sums, row_build_fd, score, time_ordered)
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
        assert np.allclose(score(rs, u, beta), sc, rtol=1e-12, atol=1e-12)
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

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=1,
                    max_size=70),
           st.sampled_from([(), (2,), (3,), (3, 4), (2, 5, 8)]),
           st.integers(0, 2 ** 32 - 1))
    def test_suffix_sums_match_a_cumsum_per_series(self, block, rows, shape, seed):
        """At widths 1, 2, 3, 12 and 80 on tied times, each series' sums at
        the risk-set starts are its own whole-cohort cumsum from the last
        row, bit for bit: the complex lanes and the carry between blocks
        keep every series' order of adds."""
        rows = sorted(rows)
        time = np.array([t for t, _ in rows], dtype=float)
        event = np.array([int(e) for _, e in rows])
        event[seed % len(event)] = 1
        rs = coxph.RiskSets(time, event)
        x = np.random.default_rng(seed).normal(size=(len(time),) + shape)
        got = rs.suffix_at_starts(lambda lo, hi: x[lo:hi].copy(), shape)
        series = x.reshape(len(time), -1).T
        want = np.column_stack([np.cumsum(s[::-1])[::-1] for s in series])
        assert got.shape == (len(rs.events),) + shape and got.flags.c_contiguous
        assert np.array_equal(got.reshape(len(rs.events), -1), want[rs.start])

    def test_prefix_at_rows(self, rng):
        _, time, event, _ = _tied_survival(rng)
        rs = coxph.RiskSets(*time_ordered(time, event))
        x = rng.normal(size=(len(rs.events), 2))
        t_ev = rs.time[rs.events]
        want = np.array([x[t_ev <= t].sum(axis=0) for t in rs.time])
        prefix = np.cumsum(x, axis=0)
        assert np.allclose(rs.prefix_at_rows(prefix), want, rtol=1e-13, atol=1e-13)
        assert np.allclose(rs.prefix_at_rows(prefix[:, 0]), want[:, 0],
                           rtol=1e-13, atol=1e-13)
        # Ranges of rows, split inside a tie run, match the full read.
        assert np.array_equal(rs.prefix_at_rows(prefix, 0, 17),
                              rs.prefix_at_rows(prefix)[:17])
        assert np.array_equal(rs.prefix_at_rows(prefix, 17, 40),
                              rs.prefix_at_rows(prefix)[17:])
        # Rows before the first event read zero, in any range.
        rs = coxph.RiskSets([1, 1, 2, 3, 3, 4], [0, 0, 1, 0, 1, 1])
        prefix = np.cumsum([2.0, 3.0, 5.0])
        want = np.array([0.0, 0.0, 2.0, 5.0, 5.0, 10.0])
        for lo, hi in [(0, 6), (0, 3), (1, 4), (3, 6)]:
            assert np.array_equal(rs.prefix_at_rows(prefix, lo, hi), want[lo:hi])


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
        assert np.array_equal(rs.score(u_s, *sums[1:]),
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
        # (the fit's weights moved, per-row event weights), so it agrees to
        # rounding, far inside FD_TOL.
        def builder(a):
            return coxph.build_cox_rows(phi @ a, main.w)
        time, event, u_s, phi_s, c_s, b_s = time_ordered(main.time, main.event,
                                                         u, phi, c, b)
        rs = coxph.RiskSets(time, event)
        fd = inference.u_alpha_fd(rs, u_s, risk_sums(rs, u_s, beta), phi_s, c_s, b_s,
                                  memfit.alpha)
        want = seed_cox.u_alpha_fd(builder, main.time, main.event, beta, memfit.alpha)
        assert np.max(np.abs(fd - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def _check_gap(time, event, seed, scale=1.0):
    """|u_alpha_fd - row_build_fd| over 1 + max |row_build_fd| on sorted rows
    with two confounders and three calibration coefficients."""
    rng = np.random.default_rng(seed)
    time, event = np.asarray(time, dtype=float), np.asarray(event)
    phi, w = rng.normal(size=(len(time), 3)), rng.normal(size=(len(time), 2))
    alpha, beta = rng.normal(size=3), rng.normal(0.0, scale, size=5)
    rs = coxph.RiskSets(time, event)
    want = row_build_fd(rs, phi, w, beta, alpha)
    got = check_fd(rs, phi, w, beta, alpha)
    return np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))


class TestEventWeightScore:
    """The derivative check, which moves the fit's weights and sums its
    scores row by row with per-row event weights, equals central
    differences of the Newton loop's suffix-sum score on rows built per
    step, to rounding."""

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
            assert _check_gap(time, event, seed) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1,
                    max_size=60),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.1, 1.0, 5.0]))
    def test_tie_heavy_cohorts(self, rows, seed, scale):
        rows = sorted(rows)
        time = [t for t, _ in rows]
        event = [int(e) for _, e in rows]
        event[seed % len(event)] = 1
        assert _check_gap(time, event, seed, scale=scale) <= 1e-8


def per_coefficient_fd(rs, u, sums, phi, c, b, alpha):
    """The derivative check one coefficient at a time, with n-length
    vectors: the oracle for ``inference.u_alpha_fd``, which takes its
    coefficients in groups."""
    alpha = np.asarray(alpha, dtype=float)
    w = sums[0]
    c_ev = c[rs.events]
    cols = []
    for k in range(alpha.size):
        h = constants.FD_STEP * max(1.0, abs(alpha[k]))
        phi_k = phi[:, k].copy()
        e = np.exp(h * b * phi_k)
        omega = np.empty((2, len(w)))
        np.multiply(w, e, out=omega[0])
        np.divide(w, e, out=omega[1])
        S0 = rs.suffix_at_starts(lambda lo, hi: omega[:, lo:hi].T.copy(), (2,))
        H = rs.prefix_at_rows(np.cumsum(1.0 / S0, axis=0))
        plus, minus = omega[0] * H[:, 0], omega[1] * H[:, 1]
        moved = (plus - minus) @ u
        plus += minus
        plus *= phi_k
        cols.append(phi_k[rs.events] @ c_ev - moved / (2.0 * h) - (plus @ c) / 2.0)
    return np.column_stack(cols)


@pytest.fixture(scope="module", params=[("standard", 90), ("pca", 36)],
                ids=["standard+int", "pca3+int"])
def eight_confounders(request):
    """The check's arguments on 2,000 time-ordered rows with eight
    confounders (seven N(1, 1) columns added to w_1) and times rounded to
    two decimals, so that rows tie in runs of about twenty."""
    variant, d_alpha = request.param
    cfg = simulate.setting1(n1=2000, n2=300, event_rate=0.10, seed=5)
    rng = np.random.default_rng(5)
    c_max = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
    validation = simulate.gen_validation(cfg, rng)
    main, _ = simulate.gen_main(cfg, rng, c_max)

    def widen(ds):
        more = rng.normal(1.0, 1.0, size=(len(ds.w), 7))
        return dataclasses.replace(ds, w=np.hstack([ds.w, more]),
                                   confounder_names=tuple(f"w_{j + 1}" for j in range(8)))

    spec = transforms.DesignSpec(variant=variant, n_components=3,
                                 include_interactions=True)
    memfit = mem.fit_gee(widen(validation), spec)
    assert memfit.alpha.size == d_alpha
    main = widen(main)
    time, event, z, w = time_ordered(np.round(main.time, 2), main.event, main.z, main.w)
    rs = coxph.RiskSets(time, event)
    phi = transforms.build_design_matrix(spec, memfit.transform, z, w)
    u = coxph.build_cox_rows(phi @ memfit.alpha, w)
    beta, _, sums, _ = coxph.fit(rs, u)
    c = coxph.exposure_gradient(w)
    return rs, u, sums, phi, c, c @ beta, memfit.alpha


def _traced(call):
    """(result, peak bytes traced during the call)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGroupedCheck:
    """The derivative check takes its coefficients in groups."""

    # Blocks of one row would only repeat the tiny blocks' edges, slowly.
    @pytest.mark.parametrize("block", ["default", "tiny"], indirect=True)
    def test_eight_confounders(self, eight_confounders, block):
        """d_alpha = 90 and 36 on 2,000 tied rows: the grouped check equals
        the per-coefficient oracle to rounding, passes against U_alpha, and
        holds no more memory than the oracle."""
        args = eight_confounders
        rs, phi = args[0], args[3]
        n, d_alpha = phi.shape
        groups = inference._check_groups(n, len(rs.events), d_alpha)
        rows = max(1, coxph._BLOCK_VALUES // (2 * (groups[0].stop - groups[0].start)))
        if rows < n:
            # A block edge, of the sweep and of the second pass, splits a tie run.
            assert any(rs.time[e - 1] == rs.time[e] for e in range(rows, n, rows))
        want, oracle_peak = _traced(lambda: per_coefficient_fd(*args))
        got, peak = _traced(lambda: inference.u_alpha_fd(*args))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        u_alpha = inference.u_alpha_hat(*args[:-1])
        assert np.max(np.abs(u_alpha - got)) / (np.max(np.abs(got)) + 1.0) <= constants.FD_TOL
        assert peak <= oracle_peak

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 400_000), st.integers(1, 400_000), st.integers(1, 120))
    def test_groups_split_the_coefficients_within_budget(self, n, events, d_alpha):
        """The groups cover the coefficients in order, differ in size by at
        most one, and, unless a group is one coefficient, hold 2g values per
        event and two sweep blocks within 8n values."""
        events = min(events, n)
        groups = inference._check_groups(n, events, d_alpha)
        assert [k for ks in groups for k in range(ks.start, ks.stop)] == list(range(d_alpha))
        sizes = {ks.stop - ks.start for ks in groups}
        assert max(sizes) - min(sizes) <= 1
        g = max(sizes)
        assert g == 1 or 2 * g * events + 2 * coxph._BLOCK_VALUES <= 8 * n

    def test_fit_200k_size_is_one_group(self):
        # The fit_200k benchmark's cohort: d_alpha = 20 in one sweep; at
        # eight confounders, d_alpha = 90 in three.
        assert inference._check_groups(200_000, 20_597, 20) == [slice(0, 20)]
        assert len(inference._check_groups(200_000, 20_597, 90)) == 3


def test_rows_of_another_cohort_rejected(rng):
    u, time, event, beta = _tied_survival(rng)
    time, event, u = time_ordered(time, event, u)
    rs = coxph.RiskSets(time[:-1], event[:-1])
    with pytest.raises(DataError, match="39 subjects"):
        rs.weights(u, beta)
    with pytest.raises(DataError, match="39 subjects"):
        inference.u_alpha_hat(rs, u[:-1], risk_sums(rs, u[:-1], beta),
                              np.ones((len(time), 2)), np.ones_like(u[:-1]),
                              np.ones(len(time) - 1))
    with pytest.raises(DataError, match="39 subjects"):
        inference.u_alpha_fd(rs, u[:-1], risk_sums(rs, u[:-1], beta),
                             np.ones((len(time), 2)), np.ones_like(u[:-1]),
                             np.ones(len(time) - 1), np.ones(2))


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
    # Sweep blocks of 2,000 values leave the check room for groups of a few
    # coefficients on 800 rows.
    monkeypatch.setattr(coxph, "_BLOCK_VALUES", 2000)
    groups = inference._check_groups(len(main), int(main.event.sum()), len(memfit.alpha))
    assert 1 < len(groups) < len(memfit.alpha)
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

    for owner, name in [(np, "argsort"), (coxph, "fit"), (coxph, "build_cox_rows"),
                        (coxph.RiskSets, "weights"), (coxph.RiskSets, "moments"),
                        (coxph.RiskSets, "information"),
                        (coxph.RiskSets, "suffix_at_starts"), (inference, "u_alpha_fd")]:
        count(owner, name)
    cox = inference.fit_calibrated_cox(main, memfit, check_derivatives=True)

    names = [name for name, _ in calls]
    assert [args[0] is main.time for name, args in calls if name == "argsort"] == [True]
    assert names.count("fit") == 1
    done = names.index("fit returned")
    # The rows are built once, for the fit.
    assert names[:done].count("build_cox_rows") == 1
    # One S1 and S2 and one information per Newton iterate, beta = 0 included.
    assert names[:done].count("moments") == cox.report.iterations + 1
    assert names[:done].count("information") == cox.report.iterations + 1
    # After the fit no rows are built and no weights or moments taken:
    # U_alpha sweeps once, and the check once per group of coefficients,
    # for both signs' S0 of every coefficient in it.
    assert names[done + 1:] == (["suffix_at_starts", "u_alpha_fd"]
                                + ["suffix_at_starts"] * len(groups))
