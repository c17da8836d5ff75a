"""Property tests: row order, subject labels and transform files.

Each property is checked on small, fixed studies over a handful of drawn
examples, so the whole file runs in a few seconds.
"""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from calibcox import data_model, inference, mem, simulate, transforms
from calibcox.cli import parse_spec_token

from conftest import make_validation

FEW = settings(max_examples=15, deadline=None)

TOKENS = ["standard", "only150", "only2100", "pca1", "pca3", "pca9",
          "rcs3", "rcs5", "rcs7"]


@functools.lru_cache(maxsize=None)
def calibrated_study():
    """A 400-subject main study and the PCA-3 GEE fit it is calibrated with."""
    cfg = simulate.setting1(n1=400, n2=40, event_rate=0.3, sigma2_v=0.01, seed=31)
    rng = np.random.default_rng(31)
    cmax = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
    val = simulate.gen_validation(cfg, rng)
    main, _ = simulate.gen_main(cfg, rng, cmax)
    spec = transforms.DesignSpec(variant="pca", n_components=3,
                                 include_interactions=True)
    memfit = mem.fit_gee(val, spec)
    return main, memfit, inference.fit_calibrated_cox(main, memfit)


@functools.lru_cache(maxsize=None)
def repeated_measures(n_subjects=12):
    val, _ = make_validation(np.random.default_rng(32), n_subjects=n_subjects,
                             occasions=4, rho=0.3)
    return val


@FEW
@given(st.permutations(range(400)))
def test_main_row_order_leaves_cox_fit_unchanged(perm):
    # With distinct times the fit's one stable sort gives every permutation
    # the same rows in the same order, so the fit is the same bit for bit.
    main, memfit, fit = calibrated_study()
    assert np.unique(main.time).size == len(main)
    idx = np.asarray(perm)
    shuffled = dataclasses.replace(main, ids=main.ids[idx], time=main.time[idx],
                                   event=main.event[idx], z=main.z[idx],
                                   w=main.w[idx])
    refit = inference.fit_calibrated_cox(shuffled, memfit)
    np.testing.assert_array_equal(refit.beta, fit.beta)
    np.testing.assert_array_equal(refit.se, fit.se)


@FEW
@given(st.lists(st.text(min_size=1, max_size=4), min_size=12, max_size=12,
                unique=True),
       st.sampled_from(["independence", "exchangeable"]))
def test_subject_labels_leave_gee_unchanged(labels, working):
    # Subjects are numbered by first appearance, not by label, so new labels
    # give the same clusters in the same order and the same fit, bit for bit.
    val = repeated_measures()
    relabeled = dataclasses.replace(
        val, ids=np.asarray([labels[k] for k in val.subject_codes], dtype=object))
    spec = transforms.DesignSpec(variant="standard")
    before = mem.fit_gee(val, spec, working=working)
    after = mem.fit_gee(relabeled, spec, working=working)
    assert after.n_subjects == before.n_subjects == 12
    np.testing.assert_array_equal(after.alpha, before.alpha)
    np.testing.assert_array_equal(after.v_alpha, before.v_alpha)


@FEW
@given(st.sampled_from(TOKENS), st.booleans(), st.integers(0, 2**32 - 1))
def test_transform_json_round_trip_predicts_the_same(token, interactions, seed):
    radii = np.asarray(data_model.DEFAULT_RADII, dtype=float)
    spec = parse_spec_token(token + ("+int" if interactions else ""), radii)
    rng = np.random.default_rng(seed)
    z = simulate.mvn_sample(rng, 0.45 * np.ones(len(radii)),
                            np.linalg.cholesky(simulate.default_z_cov(len(radii))),
                            60)
    w = rng.normal(1.0, 3.0, size=(60, 1))
    fitted = transforms.fit_transform(spec, z, radii)
    spec2, restored = transforms.transform_from_json(
        transforms.transform_to_json(spec, fitted))
    assert spec2 == spec
    phi = transforms.build_design_matrix(spec, fitted, z, w)
    alpha = rng.normal(size=phi.shape[1])
    z_new = z + rng.normal(0.0, 0.05, size=z.shape)
    np.testing.assert_array_equal(
        transforms.build_design_matrix(spec2, restored, z_new, w) @ alpha,
        transforms.build_design_matrix(spec, fitted, z_new, w) @ alpha)
