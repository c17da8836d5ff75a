"""Measurement error model fitting: OLS, GEE, psi estimation, prediction, QIC."""

import dataclasses
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from calibcox import data_model, linalg, mem, simulate, transforms
from calibcox.errors import DataError, NumericalError
from calibcox.transforms import DesignSpec

from conftest import make_validation, residual_clusters


STD = DesignSpec(variant="standard")


class TestFitOls:
    def test_noiseless_recovery(self, rng):
        alpha = np.array([0.4, 1.0, -2.0, 0.5, 0.25])
        val, _ = make_validation(rng, alpha=alpha, sigma2=1e-24)
        fit = mem.fit_gee(val, STD, working="independence")
        assert np.max(np.abs(fit.alpha - alpha)) < 1e-9
        assert fit.psi == 0.0

    def test_matches_normal_equations(self, rng):
        val, _ = make_validation(rng, n_subjects=4, occasions=3)
        fit = mem.fit_gee(val, STD, working="independence")
        phi = transforms.build_design_matrix(STD, None, val.z, val.w)
        direct = linalg.solve_spd(phi.T @ phi, phi.T @ val.x)
        assert np.max(np.abs(fit.alpha - direct)) < 1e-12

    def test_setting1_coefficient_recovery(self):
        # Validation-study generator with the shipped mimicking-cohort
        # coefficients: OLS on the true design recovers them within 3 MC SEs.
        cfg = simulate.setting1(n2=300, sigma2_v=0.01, seed=11)
        rng = np.random.default_rng(11)
        val = simulate.gen_validation(cfg, rng)
        spec = DesignSpec(variant="standard", include_interactions=True)
        fit = mem.fit_gee(val, spec, working="independence")
        truth = np.concatenate([[cfg.alpha0], cfg.alpha1, cfg.alpha2, cfg.alpha3])
        se = np.sqrt(np.diag(fit.v_alpha))
        assert np.all(np.abs(fit.alpha - truth) < 3.0 * se)

    def test_rank_deficiency_names_column(self, rng):
        val, _ = make_validation(rng)
        z = val.z.copy()
        z[:, 2] = z[:, 0] + z[:, 1]  # collinear column
        bad = dataclasses.replace(val, z=z)
        with pytest.raises(NumericalError, match="^design matrix is rank deficient: column 3"):
            mem.fit_gee(bad, STD, working="independence")

    def test_v_alpha_symmetric_psd(self, rng):
        val, _ = make_validation(rng)
        fit = mem.fit_gee(val, STD, working="independence")
        assert np.max(np.abs(fit.v_alpha - fit.v_alpha.T)) < 1e-10
        eig = linalg.sym_eigen(fit.v_alpha)
        assert eig.eigenvalues[-1] > -1e-12
        assert fit.sigma2 >= 0.0

    def test_v_alpha_shrinks_with_n2(self, rng):
        alpha = np.array([0.4, 1.0, -2.0, 0.5, 0.25])
        diags = []
        for n_subj in (50, 100):
            vals = []
            for _ in range(40):
                val, _ = make_validation(rng, n_subjects=n_subj, alpha=alpha,
                                         sigma2=0.04, rho=0.3)
                vals.append(np.diag(mem.fit_gee(val, STD).v_alpha).mean())
            diags.append(np.mean(vals))
        # Doubling n2 halves the mean diagonal within 25% relative tolerance.
        assert abs(diags[0] / diags[1] - 2.0) < 0.5

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("spec", [
        DesignSpec(variant="standard", include_interactions=True),
        DesignSpec(variant="pca", n_components=3, include_interactions=True)],
        ids=lambda s: s.label())
    def test_copied_subjects_halve_v_alpha(self, spec, seed):
        # Every subject copied under a new label doubles both the bread and
        # the meat of the independence sandwich, so V_alpha halves and alpha
        # stays, to rounding; a small-sample factor g / (g - 1) on the meat
        # would break it.  The exchangeable fit's psi moves, so it is exact
        # only at psi = 0 and is not checked.
        val = simulate.gen_validation(simulate.setting1(n2=150, seed=seed),
                                      np.random.default_rng(seed))
        twice = data_model.ValidationDataset(
            subject_ids=np.concatenate([val.subject_ids,
                                        [f"copy {s}" for s in val.subject_ids]]),
            subject_codes=np.concatenate([val.subject_codes,
                                          val.subject_codes + val.n_subjects]),
            **{name: np.concatenate([getattr(val, name)] * 2)
               for name in ("occasion", "x", "z", "w")},
            radii=val.radii, confounder_names=val.confounder_names)
        one = mem.fit_gee(val, spec, working="independence")
        two = mem.fit_gee(twice, spec, working="independence")
        assert two.n_subjects == 2 * one.n_subjects
        # Relative to the largest entry: the near-collinear radii leave some
        # entries small (measured at most 7.4e-12 for alpha, 5.8e-12 for
        # V_alpha, over these ten fits).
        for got, want in ((two.alpha, one.alpha), (two.v_alpha, one.v_alpha / 2)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_v_alpha_matches_a_delete_one_subject_jackknife(self, seed):
        # The cluster sandwich is the infinitesimal jackknife, so it should
        # match V_J = (g - 1)/g sum (a_-i - a_bar)(a_-i - a_bar)' over the g
        # fits that each leave one subject out, with the transform of the
        # full fit held.  The jackknife runs a little larger, the known
        # small-sample bias of the sandwich (Mancl & DeRouen 2001): over
        # the 8 coefficients, diag(V_J) / diag(V_alpha) spans 1.032-1.194
        # at seed 1, 1.041-1.115 at 2, 1.043-1.139 at 3, 1.042-1.105 at 4,
        # 1.039-1.132 at 5 and 1.044-1.152 at 6.  A halved V_alpha reads
        # about 2.
        spec = DesignSpec(variant="pca", n_components=3, include_interactions=True)
        cfg = simulate.setting1(n2=120, occasions=4, sigma2_v=0.05, seed=seed)
        val = simulate.gen_validation(cfg, np.random.default_rng(seed))
        full = mem.fit_gee(val, spec)
        g = val.n_subjects
        left_out = np.array([
            mem.fit_gee(val.subset(np.flatnonzero(val.subject_codes != i)), spec,
                        transform=full.transform).alpha
            for i in range(g)])
        dev = left_out - left_out.mean(axis=0)
        v_j = (g - 1) / g * dev.T @ dev
        ratio = np.diag(v_j) / np.diag(full.v_alpha)
        assert np.all((ratio > 1.0) & (ratio < 1.3)), ratio


class TestFitGee:
    def test_independence_equals_ols(self, rng):
        # The independence GEE is least squares on the design.
        for _ in range(5):
            val, _ = make_validation(rng, rho=0.4)
            phi = transforms.build_design_matrix(STD, None, val.z, val.w)
            a_ols = np.linalg.lstsq(phi, val.x, rcond=None)[0]
            a_gee = mem.fit_gee(val, STD, working="independence").alpha
            assert np.max(np.abs(a_ols - a_gee)) < 1e-10

    def test_zero_correlation_data(self, rng):
        psis = [mem.fit_gee(make_validation(rng, n_subjects=100, rho=0.0)[0], STD).psi
                for _ in range(30)]
        psis = np.array(psis)
        se = psis.std(ddof=1) / np.sqrt(len(psis))
        assert abs(psis.mean()) < 3.0 * se + 0.02

    def test_known_exchangeable_correlation(self, rng):
        psis = [mem.fit_gee(make_validation(rng, n_subjects=150, occasions=6,
                                            rho=0.5)[0], STD).psi
                for _ in range(30)]
        psis = np.array(psis)
        se = psis.std(ddof=1) / np.sqrt(len(psis))
        assert abs(psis.mean() - 0.5) < 3.0 * se + 0.02

    def test_threads_leave_warning_filters_alone(self, rng):
        # Each subject's residuals alternate in sign, so every IRLS
        # iteration's psi moment is negative and clamped to 0.  Fits running
        # on several threads at once must neither change the process-wide
        # warning filters nor let a warning out.
        val, _ = make_validation(rng, n_subjects=100, occasions=4, sigma2=0.0)
        signs = np.tile([1.0, -1.0, 1.0, -1.0], 100)
        val = dataclasses.replace(val, x=val.x + 0.2 * signs * rng.random(400))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                filters = list(warnings.filters)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    fits = list(pool.map(lambda _: mem.fit_gee(val, STD), range(64)))
                assert warnings.filters == filters
        finally:
            sys.setswitchinterval(interval)
        assert [str(w.message) for w in caught] == []
        assert {f.psi for f in fits} == {0.0}
        assert all(np.array_equal(f.alpha, fits[0].alpha) for f in fits)

    def test_unknown_working_rejected(self, rng):
        val, _ = make_validation(rng)
        with pytest.raises(DataError, match="unknown working correlation 'ar1'"):
            mem.fit_gee(val, STD, working="ar1")

    @pytest.mark.parametrize("spec", [
        STD, DesignSpec(radius_subset=(1,)), DesignSpec(variant="pca", n_components=3),
    ], ids=["standard", "only150", "pca3"])
    def test_no_rows_is_a_data_error(self, spec, tmp_path):
        # A header-only file reads to no rows.  The fit refuses it before it
        # builds a design, so in_file gives fit's own line for the file.
        val = simulate.gen_validation(simulate.setting1(n2=10, seed=2),
                                      np.random.default_rng(2))
        path = tmp_path / "validation.csv"
        data_model.write_validation_csv(path, val)
        with open(path) as fh:
            header = fh.readline()
        path.write_text(header)
        empty = data_model.read_validation_csv(path)
        assert len(empty) == 0
        with pytest.raises(DataError) as info:
            data_model.in_file(path, mem.fit_gee, empty, spec)
        assert type(info.value) is DataError
        assert str(info.value) == f"{path}: no data rows"


def _psi(groups, sigma2=None):
    """estimate_psi on per-subject residual groups; sigma2 defaults to the
    mean squared residual."""
    resid, buckets = residual_clusters(groups)
    if sigma2 is None:
        sigma2 = float(resid @ resid) / resid.size
    return mem.estimate_psi(resid, buckets, sigma2)


class TestEstimatePsi:
    def test_identical_residuals_clamped(self):
        psi = _psi([np.array([1.0, 1.0]), np.array([-2.0, -2.0])])
        assert psi == pytest.approx(0.99)

    def test_hand_computed_two_by_two(self):
        # Two subjects, two occasions each; the moment estimator is the mean
        # pairwise product over the residual variance.
        groups = [np.array([1.0, 0.5]), np.array([-1.0, -0.5])]
        sigma2 = (1.0 + 0.25 + 1.0 + 0.25) / 4.0
        expected = ((1.0 * 0.5) + (1.0 * 0.5)) / 2.0 / sigma2
        assert _psi(groups, sigma2=sigma2) == pytest.approx(expected)

    def test_independent_residuals_near_zero(self, rng):
        vals = []
        for _ in range(50):
            groups = [rng.normal(size=4) for _ in range(80)]
            vals.append(_psi(groups))
        assert abs(np.mean(vals)) < 0.02

    def test_single_occasion_zero(self):
        assert _psi([np.array([1.0]), np.array([2.0])]) == 0.0

    def test_no_residuals_rejected(self):
        resid, buckets = residual_clusters([np.array([]), np.array([])])
        with pytest.raises(DataError, match="no residuals"):
            mem.estimate_psi(resid, buckets, 1.0)


def predict(fit, zmat, wmat):
    """Calibrated exposures phi(z, w)' alpha-hat for row-aligned z and w."""
    phi = transforms.build_design_matrix(fit.spec, fit.transform, zmat, wmat)
    return phi @ fit.alpha


class TestPredictMu:
    def test_setting2_intercept_isolated(self):
        alpha = np.concatenate([[simulate.SETTING2_ALPHA["a0"]],
                                simulate.SETTING2_ALPHA["a1"],
                                simulate.SETTING2_ALPHA["a2"],
                                simulate.SETTING2_ALPHA["a3"]])
        spec = DesignSpec(variant="standard", include_interactions=True)
        fit = mem.MemFit(alpha=alpha, psi=0.0, sigma2=0.01,
                         v_alpha=np.eye(len(alpha)), spec=spec, transform=None,
                         n_subjects=1, n_obs=1, qic=np.nan,
                         radii=np.asarray(data_model.DEFAULT_RADII),
                         confounder_names=("w_1",))
        assert predict(fit, np.zeros((1, 9)), np.zeros((1, 1))) == \
            pytest.approx([0.05])

    def test_intercept_only(self):
        alpha = np.array([1.0, 0.0, 0.0])
        spec = DesignSpec(variant="standard")
        fit = mem.MemFit(alpha=alpha, psi=0.0, sigma2=0.0,
                         v_alpha=np.eye(3), spec=spec, transform=None,
                         n_subjects=1, n_obs=1, qic=np.nan, radii=np.array([90.0]),
                         confounder_names=("w_1",))
        assert predict(fit, np.array([[7.0]]), np.array([[-3.0]])) == \
            pytest.approx([1.0])

    def test_matches_dot_product(self, rng):
        val, _ = make_validation(rng)
        fit = mem.fit_gee(val, STD, working="independence")
        z, w = rng.normal(size=3), rng.normal(size=1)
        phi = np.concatenate([[1.0], z, w])
        assert predict(fit, z[None], w[None]) == \
            pytest.approx([float(phi @ fit.alpha)])

    def test_affine_in_z(self, rng):
        val, _ = make_validation(rng)
        fit = mem.fit_gee(val, STD, working="independence")
        w = np.array([[0.8]])
        z1, z2 = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        for a in (0.0, 0.3, 1.0):
            mix = predict(fit, a * z1 + (1 - a) * z2, w)
            combo = a * predict(fit, z1, w) + (1 - a) * predict(fit, z2, w)
            assert abs(mix[0] - combo[0]) < 1e-12


class TestQic:
    def test_zero_residuals(self, rng):
        alpha = np.array([0.4, 1.0, -2.0, 0.5, 0.25])
        val, _ = make_validation(rng, alpha=alpha, sigma2=1e-30)
        fit = mem.fit_gee(val, STD, working="independence")
        q = fit.qic
        phi = transforms.build_design_matrix(STD, None, val.z, val.w)
        resid = val.x - phi @ fit.alpha
        n, p = phi.shape
        disp = float(resid @ resid) / (n - p)
        if disp == 0.0:
            expected = 2.0 * float(np.trace(phi.T @ phi @ fit.v_alpha))
            assert q == pytest.approx(expected)
        else:
            # Residuals at float noise: quasi term is (n - p) by construction.
            assert q == pytest.approx(n - p + 2.0 * np.trace(phi.T @ phi @ fit.v_alpha) / disp,
                                      rel=1e-10)

    def test_trace_term_elementwise_oracle(self, rng):
        val, _ = make_validation(rng)
        fit = mem.fit_gee(val, STD, working="independence")
        phi = transforms.build_design_matrix(STD, None, val.z, val.w)
        resid = val.x - phi @ fit.alpha
        n, p = phi.shape
        disp = float(resid @ resid) / (n - p)
        gram = phi.T @ phi
        # Elementwise trace oracle: tr(AB) = sum_ij A_ij * B_ji.
        tr = sum(gram[i, j] * fit.v_alpha[j, i]
                 for i in range(p) for j in range(p))
        expected = float(resid @ resid) / disp + 2.0 * tr / disp
        assert fit.qic == pytest.approx(expected, abs=1e-10)
