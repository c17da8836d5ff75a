"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; without ``-s`` the pass/fail state is the pytest outcome itself.
The heavy Monte Carlo criteria (4 and 5) dominate the runtime.
"""

import time as _time

import numpy as np

from calibcox import coxph, inference, linalg, mem, simulate, transforms
from calibcox.transforms import DesignSpec

from conftest import (information, loglik, make_survival, make_validation, risk_sums,
                      time_ordered)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _grid_loglik(u, time, event, grid):
    """Vectorized Breslow log partial likelihood over a 1-covariate beta grid."""
    order = np.argsort(time, kind="stable")
    u_s = u[order, 0]
    t_s = time[order]
    e_s = event[order]
    eta = np.outer(grid, u_s)
    m = eta.max(axis=1, keepdims=True)
    w = np.exp(eta - m)
    s0 = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    first = np.searchsorted(t_s, t_s, side="left")
    ev = np.flatnonzero(e_s == 1)
    return (eta[:, ev] - (np.log(s0[:, first[ev]]) + m)).sum(axis=1)


def test_criterion_1_cox_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = _time.monotonic()
    grid = np.arange(-5.0, 5.0 + 1e-12, 1e-4)
    worst_beta, worst_ll = 0.0, 0.0
    for _ in range(25):
        u, time, event, _ = make_survival(rng, n=20, d=1)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        beta, _rep, *_ = coxph.fit(rs, u)
        lls = _grid_loglik(u, time, event, grid)
        best = grid[int(np.argmax(lls))]
        worst_beta = max(worst_beta, abs(beta[0] - best))
        # Direct O(n^2) log-likelihood oracle at a random beta.
        b = rng.normal(0.0, 0.5, size=1)
        direct = 0.0
        for i in np.flatnonzero(event == 1):
            risk = time >= time[i]
            direct += float(u[i] @ b) - np.log(np.sum(np.exp(u[risk] @ b)))
        worst_ll = max(worst_ll, abs(
            loglik(rs, u, b) - direct))
    elapsed = _time.monotonic() - t0
    ok = worst_beta < 2e-4 and worst_ll < 1e-10 and elapsed < 10.0
    _report(1, "oracle equivalence - Cox core", ok,
            f"max |beta - grid| {worst_beta:.2e}, max loglik diff {worst_ll:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_derivative_checks():
    rng = np.random.default_rng(202)
    t0 = _time.monotonic()
    worst_score = worst_info = worst_ua = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 50))
        d = int(rng.integers(1, 4))
        u, time, event, beta = make_survival(rng, n=n, d=d)
        time, event, u = time_ordered(time, event, u)
        rs = coxph.RiskSets(time, event)
        # score vs central FD of the log-likelihood
        sc = coxph.score(rs, u, beta)
        h = 1e-6
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd = (loglik(rs, u, beta + e) - loglik(rs, u, beta - e)) / (2 * h)
            worst_score = max(worst_score, abs(sc[k] - fd) / (1.0 + abs(fd)))
        # information vs FD of the score
        info = information(rs, u, beta)
        h = 1e-5
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd = (coxph.score(rs, u, beta - e)
                  - coxph.score(rs, u, beta + e)) / (2 * h)
            worst_info = max(worst_info, np.max(np.abs(info[:, k] - fd))
                             / (1.0 + np.max(np.abs(fd))))
        # U_alpha vs FD in alpha
        da = int(rng.integers(2, 5))
        phi = rng.normal(size=(n, da))
        alpha = rng.normal(size=da)
        w = rng.normal(size=(n, 1))
        rows = coxph.build_cox_rows(phi @ alpha, w)
        beta3 = rng.normal(0.0, 0.5, size=3)
        c = coxph.exposure_gradient(w)
        b = c @ beta3
        ua = inference.u_alpha_hat(rs, rows, risk_sums(rs, rows, beta3), phi, c, b)
        fd = inference.u_alpha_fd(rs, phi, w, beta3, alpha)
        worst_ua = max(worst_ua, np.max(np.abs(ua - fd)) / (1.0 + np.max(np.abs(fd))))
    elapsed = _time.monotonic() - t0
    ok = (worst_score < 1e-6 and worst_info < 1e-5 and worst_ua < 1e-5
          and elapsed < 30.0)
    _report(2, "derivative checks", ok,
            f"score {worst_score:.2e}, info {worst_info:.2e}, "
            f"u_alpha {worst_ua:.2e}, {elapsed:.1f}s")


def test_criterion_3_gee_ols_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    spec = DesignSpec(variant="standard")
    for _ in range(20):
        val, _ = make_validation(rng, n_subjects=int(rng.integers(10, 40)),
                                 occasions=int(rng.integers(2, 6)),
                                 rho=float(rng.uniform(0.0, 0.6)))
        phi = transforms.build_design_matrix(spec, None, val.z, val.w)
        a_ols = np.linalg.lstsq(phi, val.x, rcond=None)[0]
        a_gee = mem.fit_gee(val, spec, working="independence").alpha
        worst = max(worst, float(np.max(np.abs(a_ols - a_gee))))
    ok = worst < 1e-10
    _report(3, "GEE/OLS identity", ok, f"max coefficient diff {worst:.2e}")


def test_criterion_4_desk_scale_monte_carlo():
    t0 = _time.monotonic()
    detail = []
    # Cell (p = 3.5%, n1 = 5000, n2 = 300, sigma2_v = 0.01), 500 replicates.
    cfg = simulate.setting1(n1=5000, n2=300, event_rate=0.035, sigma2_v=0.01,
                            replicates=500, seed=7)
    summ, _ = simulate.run_cell(cfg, threads=4)
    ok = True
    for s in summ:
        cover_ok = 92.5 <= s.coverage_pct <= 98.5
        ratio = s.se_mean / s.sd
        ratio_ok = 0.85 <= ratio <= 1.25
        ok = ok and cover_ok and ratio_ok
        detail.append(f"{s.model}: cov {s.coverage_pct:.1f} SE/SD {ratio:.3f}")
    # Same (n1, n2) cell at sigma2_v = 0.10: PCA-3 less biased than standard.
    cfg10 = simulate.setting1(n1=5000, n2=300, event_rate=0.035, sigma2_v=0.10,
                              replicates=500, seed=7)
    summ10, _ = simulate.run_cell(cfg10, threads=4)
    bias = {s.model: s.bias_pct for s in summ10}
    order_ok = bias["M2"] < bias["M1"]
    ok = ok and order_ok
    detail.append(f"s2v=0.10 |bias%| M1 {bias['M1']:.2f} vs M2 {bias['M2']:.2f}")
    elapsed = _time.monotonic() - t0
    ok = ok and elapsed < 1200.0
    _report(4, "desk-scale Monte Carlo cell", ok,
            "; ".join(detail) + f"; {elapsed:.0f}s")


def test_criterion_5_model_comparison_pattern():
    t0 = _time.monotonic()
    specs = {
        "standard": DesignSpec(variant="standard", include_interactions=True),
        "pca3": DesignSpec(variant="pca", n_components=3,
                           include_interactions=True),
    }
    mae = {k: [] for k in specs}
    qic = {k: [] for k in specs}
    # sigma2_v = 0.05 gives an irreducible MAE floor of about 0.178 (the mean
    # absolute value of a N(0, 0.05) error); the comparison is between the
    # models' excesses above that floor.
    n3 = 10_000
    s2v = 0.05
    for run in range(100):
        rng = simulate._replicate_rng(505, 0, run)
        cfg = simulate.setting1(n2=300, sigma2_v=s2v, seed=505)
        train = simulate.gen_validation(cfg, rng)
        test_cfg = simulate.setting1(n2=n3 // 8, sigma2_v=s2v, seed=505)
        test = simulate.gen_validation(test_cfg, rng)
        for name, spec in specs.items():
            fit = mem.fit_gee(train, spec)
            pred = transforms.build_design_matrix(fit.spec, fit.transform, test.z,
                                                  test.w) @ fit.alpha
            mae[name].append(float(np.mean(np.abs(test.x - pred))))
            qic[name].append(fit.qic)
    mae_m = {k: float(np.mean(v)) for k, v in mae.items()}
    qic_m = {k: float(np.mean(v)) for k, v in qic.items()}
    elapsed = _time.monotonic() - t0
    ok = (mae_m["pca3"] < mae_m["standard"] and qic_m["pca3"] < qic_m["standard"]
          and elapsed < 600.0)
    _report(5, "model-comparison pattern", ok,
            f"MAE pca3 {mae_m['pca3']:.4f} < standard {mae_m['standard']:.4f}; "
            f"QIC pca3 {qic_m['pca3']:.1f} < standard {qic_m['standard']:.1f}; "
            f"{elapsed:.0f}s")


def test_criterion_6_event_rate_calibration():
    detail = []
    ok = True
    for target, tol in ((0.035, 0.005), (0.10, 0.01)):
        cfg = simulate.setting1(n1=10_000, event_rate=target, seed=606)
        cmax = simulate.calibrate_cmax(cfg, np.random.default_rng(606))
        main, _ = simulate.gen_main(cfg, np.random.default_rng(607), cmax)
        rate = float(main.event.mean())
        ok = ok and abs(rate - target) <= tol
        detail.append(f"target {target:g}: achieved {rate:.4f}")
    _report(6, "event-rate calibration", ok, "; ".join(detail))


def test_criterion_7_weibull_median():
    rng = np.random.default_rng(707)
    draws = simulate.weibull_event_time(rng, np.zeros(1_000_000), 10.0, 1.0)
    med = float(np.median(draws))
    target = np.log(2.0) ** 0.1
    ok = abs(med - target) < 0.002
    _report(7, "Weibull generator median", ok,
            f"median {med:.5f} vs (log 2)^0.1 = {target:.5f}")


def test_criterion_8_invariance_suite():
    rng = np.random.default_rng(808)
    checks = {}

    # Cox location invariance.
    u, time, event, _ = make_survival(rng, n=60, d=2)
    time, event, u = time_ordered(time, event, u)
    rs = coxph.RiskSets(time, event)
    b0, *_ = coxph.fit(rs, u)
    shifted = u.copy()
    shifted[:, 0] += 2.9
    b1, *_ = coxph.fit(rs, shifted)
    checks["location"] = np.max(np.abs(b0 - b1)) < 1e-8

    # Cox scale equivariance.
    scaled = u.copy()
    scaled[:, 1] *= 5.0
    b2, *_ = coxph.fit(rs, scaled)
    checks["scale"] = (abs(b2[1] - b0[1] / 5.0) < 1e-8
                       and abs(b2[0] - b0[0]) < 1e-8)

    # PCA full-rank prediction equivalence.
    n, p = 300, 4
    z = rng.normal(0.5, 0.2, size=(n, p))
    w = rng.normal(1.0, 1.0, size=(n, 1))
    x = 0.3 + z @ rng.normal(size=p) + 0.1 * w[:, 0] + rng.normal(0, 0.05, n)
    t = transforms.fit_pca(z, p)
    phi_std = transforms.build_design_matrix(DesignSpec(variant="standard"), None, z, w)
    phi_pca = transforms.build_design_matrix(
        DesignSpec(variant="pca", n_components=p), t, z, w)
    a_std = linalg.solve_spd(phi_std.T @ phi_std, phi_std.T @ x)
    a_pca = linalg.solve_spd(phi_pca.T @ phi_pca, phi_pca.T @ x)
    checks["pca_full_rank"] = np.max(np.abs(phi_std @ a_std - phi_pca @ a_pca)) < 1e-8

    # Sandwich PSD / symmetry on a fitted calibrated model.
    cfg = simulate.setting1(n1=1500, n2=100, event_rate=0.10, seed=808,
                            replicates=1)
    cmax = simulate.calibrate_cmax(cfg, np.random.default_rng(808),
                                   pilot_size=20000)
    rr = simulate._replicate_rng(808, 0, 0)
    val = simulate.gen_validation(cfg, rr)
    main, _ = simulate.gen_main(cfg, rr, cmax)
    memfit = mem.fit_gee(val, DesignSpec(variant="pca", n_components=3,
                                         include_interactions=True))
    fit = inference.fit_calibrated_cox(main, memfit)
    sym = np.max(np.abs(fit.covariance - fit.covariance.T))
    mineig = np.min(np.linalg.eigvalsh(fit.covariance))
    checks["sandwich"] = sym < 1e-9 and mineig > -1e-9

    # Thread-count byte identity of a replicate cell.
    cell = simulate.setting1(n1=800, n2=80, event_rate=0.10, replicates=6,
                             seed=809)
    s1, r1 = simulate.run_cell(cell, threads=1)
    s4, r4 = simulate.run_cell(cell, threads=4)
    checks["threads"] = (s1 == s4) and (r1 == r4)

    ok = all(checks.values())
    _report(8, "invariance suite", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
