"""Cross-validated model ranking: folds, metrics, candidate grid."""

import dataclasses

import numpy as np
import pytest

from calibcox import data_model, mem, model_select, simulate, transforms
from calibcox.errors import NumericalError
from calibcox.transforms import DesignSpec

from conftest import make_validation


def row_labels(val):
    """Each row's subject label."""
    return val.subject_ids[val.subject_codes]


class TestKfoldSplit:
    def test_exact_division(self, rng):
        val, _ = make_validation(rng, n_subjects=10, occasions=2)
        folds = model_select.kfold_split(val, k=5, rng=rng)
        groups = val.subject_groups()
        sizes = []
        for f in folds:
            subjects = set(row_labels(val)[f])
            sizes.append(len(subjects))
        assert sizes == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self, rng):
        val, _ = make_validation(rng, n_subjects=11, occasions=2)
        folds = model_select.kfold_split(val, k=5, rng=rng)
        sizes = sorted(len(set(row_labels(val)[f])) for f in folds)
        assert sizes == [2, 2, 2, 2, 3]

    def test_partition_properties(self, rng):
        val, _ = make_validation(rng, n_subjects=23, occasions=3)
        folds = model_select.kfold_split(val, k=5, rng=rng)
        all_rows = np.concatenate(folds)
        assert len(all_rows) == len(val)
        assert len(set(all_rows.tolist())) == len(val)
        # No subject spans folds.
        for f in folds:
            subjects = set(row_labels(val)[f])
            for g in folds:
                if g is f:
                    continue
                assert subjects.isdisjoint(row_labels(val)[g])

    def test_too_few_subjects(self, rng):
        val, _ = make_validation(rng, n_subjects=3, occasions=2)
        with pytest.raises(ValueError):
            model_select.kfold_split(val, k=5, rng=rng)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("through_cv", [True, False])
    def test_fewer_than_two_folds(self, rng, k, through_cv):
        val, _ = make_validation(rng, n_subjects=6, occasions=2)
        with pytest.raises(ValueError, match="at least 2 folds"):
            if through_cv:
                model_select.cv_evaluate(val, [DesignSpec()], k=k, rng=rng)
            else:
                model_select.kfold_split(val, k=k, rng=rng)


class TestCvEvaluate:
    def test_noiseless_identifiable_mae_vanishes(self, rng):
        alpha = np.array([0.4, 1.0, -2.0, 0.5, 0.25])
        val, _ = make_validation(rng, n_subjects=40, alpha=alpha, sigma2=1e-24)
        out = model_select.cv_evaluate(val, [DesignSpec(variant="standard")],
                                       rng=np.random.default_rng(0))
        assert out[0].mae_mean < 1e-9

    def test_two_fold_manual_holdout(self, rng):
        # 4 subjects, 2 folds: metrics must match a hand-rolled split using
        # the same fold assignment and estimator.
        val, _ = make_validation(rng, n_subjects=4, occasions=3)
        spec = DesignSpec(variant="standard")
        split_rng = np.random.default_rng(77)
        folds = model_select.kfold_split(val, k=2, rng=np.random.default_rng(77))
        out = model_select.cv_evaluate(val, [spec], k=2,
                                       rng=np.random.default_rng(77),
                                       working="independence")
        abs_errors = []
        all_rows = np.arange(len(val))
        for f in folds:
            train_rows = np.setdiff1d(all_rows, f)
            subject_ids, subject_codes = data_model.number_subjects(row_labels(val)[train_rows])
            train = dataclasses.replace(
                val, subject_ids=subject_ids, subject_codes=subject_codes,
                occasion=val.occasion[train_rows],
                x=val.x[train_rows], z=val.z[train_rows], w=val.w[train_rows])
            fit = mem.fit_gee(train, spec, working="independence")
            pred = transforms.build_design_matrix(fit.spec, fit.transform, val.z[f],
                                                  val.w[f]) @ fit.alpha
            abs_errors.append(np.abs(val.x[f] - pred))
        expected_mae = float(np.concatenate(abs_errors).mean())
        assert out[0].mae_mean == pytest.approx(expected_mae, abs=1e-12)

    def test_quantiles_ordered(self, rng):
        val, _ = make_validation(rng, n_subjects=30)
        out = model_select.cv_evaluate(val, [DesignSpec(variant="standard")],
                                       rng=np.random.default_rng(1))
        m = out[0]
        assert m.mae_q25 <= m.mae_q50 <= m.mae_q75

    def test_failed_spec_reported_last(self, rng):
        val, _ = make_validation(rng, n_subjects=20, p_z=3)
        bad = DesignSpec(variant="rcs", n_knots=7)  # only 3 radii available
        good = DesignSpec(variant="standard")
        out = model_select.cv_evaluate(val, [bad, good],
                                       rng=np.random.default_rng(2))
        assert not out[0].failed
        assert out[-1].failed
        assert out[-1].failure_reason

    def test_failed_spec_keeps_its_error_without_tracebacks(self, rng):
        # A constant confounder makes the design rank deficient.  The error
        # is kept, but not the tracebacks whose frames would keep the call's
        # data alive.
        val, _ = make_validation(rng, n_subjects=20)
        val = dataclasses.replace(val, w=np.ones_like(val.w))
        out = model_select.cv_evaluate(val, [DesignSpec(variant="standard")],
                                       rng=np.random.default_rng(2))
        err = out[0].error
        assert type(err) is NumericalError
        assert out[0].failure_reason == str(err) and "rank deficient" in str(err)
        assert err.__traceback__ is None
        assert err.__cause__ is None and err.__context__ is None

    def test_ordering_invariant_to_subject_shuffle(self, rng):
        val, _ = make_validation(rng, n_subjects=20)
        # Same subjects presented in a different row order.
        groups = val.subject_groups()
        perm = np.concatenate([groups[s] for s in
                               np.random.default_rng(5).permutation(list(groups))])
        subject_ids, subject_codes = data_model.number_subjects(row_labels(val)[perm])
        shuffled = dataclasses.replace(
            val, subject_ids=subject_ids, subject_codes=subject_codes,
            occasion=val.occasion[perm],
            x=val.x[perm], z=val.z[perm], w=val.w[perm])
        specs = [DesignSpec(variant="standard"),
                 DesignSpec(variant="pca", n_components=2)]
        out1 = model_select.cv_evaluate(val, specs, rng=np.random.default_rng(9))
        out2 = model_select.cv_evaluate(shuffled, specs, rng=np.random.default_rng(9))
        assert [m.spec.label() for m in out1] == [m.spec.label() for m in out2]

    def test_one_eigen_solve_per_data_set(self, monkeypatch):
        # pca2, pca3 and their +int twins share one set of axes on each
        # training set and on the full data: 5 + 1 solves, not 4 x 6.
        val = simulate.gen_validation(simulate.setting1(n2=60, seed=4),
                                      np.random.default_rng(4))
        solves = []
        sym_eigen = transforms.linalg.sym_eigen

        def counted(a):
            solves.append(a.shape)
            return sym_eigen(a)

        monkeypatch.setattr(transforms.linalg, "sym_eigen", counted)
        specs = model_select.candidate_grid(p_z=val.z.shape[1])
        assert sum(s.variant == "pca" for s in specs) == 4
        out = model_select.cv_evaluate(val, specs, rng=np.random.default_rng(4), k=5)
        assert solves == [(9, 9)] * 6
        for m in out:
            if m.spec.variant == "pca":
                want = transforms.fit_pca(val.z, m.spec.n_components)
                assert m.transform.loadings.tobytes() == want.loadings.tobytes()

    def test_pca_candidates_keep_their_own_size_errors(self, rng):
        # Four subjects, one row each, in four folds: three training rows.
        val, _ = make_validation(rng, n_subjects=4, occasions=1, p_z=3)
        specs = [DesignSpec(variant="pca", n_components=k) for k in (4, 3)]
        out = model_select.cv_evaluate(val, specs, rng=np.random.default_rng(3), k=4)
        reasons = {m.spec.label(): m.failure_reason for m in out}
        assert reasons == {"pca4": "k=4 exceeds surrogate dimension 3",
                           "pca3": "need at least 4 rows, got 3"}

    def test_qic_prefers_reduced_model(self):
        # One draw of the Setting-1 generator: PCA-3 QIC beats the standard
        # model's (fewer parameters, near-identical fit).  The MAE comparison
        # is statistical and lives in the acceptance suite.
        cfg = simulate.setting1(n2=300, seed=31)
        val = simulate.gen_validation(cfg, np.random.default_rng(31))
        specs = [DesignSpec(variant="standard", include_interactions=True),
                 DesignSpec(variant="pca", n_components=3,
                            include_interactions=True)]
        qics = {}
        for spec in specs:
            fit = mem.fit_gee(val, spec)
            qics[spec.label()] = fit.qic
        assert qics["pca3+int"] < qics["standard+int"]


class TestCandidateGrid:
    def test_cardinality(self):
        specs = model_select.candidate_grid(p_z=9)
        assert len(specs) >= 17
        labels = [s.label() for s in specs]
        assert "standard" in labels
        assert "pca3" in labels and "pca3+int" in labels
        assert "rcs5" in labels
        assert len(set(labels)) == len(labels)

    def test_small_pz_filters(self):
        specs = model_select.candidate_grid(p_z=2)
        assert all(s.variant != "rcs" for s in specs)
        assert all(s.n_components <= 2 for s in specs if s.variant == "pca")
