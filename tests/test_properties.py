"""Property tests: row order, subject labels and numbering, transform files.

Each property is checked on small, fixed studies over a handful of drawn
examples, so the whole file runs in a few seconds.
"""

import csv
import dataclasses
import functools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calibcox import data_model, inference, mem, simulate, transforms
from calibcox.cli import parse_spec_token

from conftest import make_validation

FEW = settings(max_examples=15, deadline=None)
SOME = settings(max_examples=60, deadline=None)  # for the cheap subject properties

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
    shuffled = dataclasses.replace(main, time=main.time[idx],
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
    subject_ids, subject_codes = data_model.number_subjects(
        [labels[k] for k in val.subject_codes])
    relabeled = dataclasses.replace(val, subject_ids=subject_ids,
                                    subject_codes=subject_codes)
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
    fitted = transforms.fit_transform(spec, data_model.ValidationDataset(
        *data_model.number_subjects(range(60)), occasion=np.ones(60, dtype=int),
        x=np.zeros(60), z=z, w=w, radii=radii))
    spec2, restored = transforms.transform_from_json(
        transforms.transform_to_json(spec, fitted))
    assert spec2 == spec
    phi = transforms.build_design_matrix(spec, fitted, z, w)
    alpha = rng.normal(size=phi.shape[1])
    z_new = z + rng.normal(0.0, 0.05, size=z.shape)
    np.testing.assert_array_equal(
        transforms.build_design_matrix(spec2, restored, z_new, w) @ alpha,
        transforms.build_design_matrix(spec, fitted, z_new, w) @ alpha)


def first_appearance(ids):
    """The reference numbering: distinct labels in order of first row, and
    each row's index into them, from a dict."""
    index = {}
    codes = [index.setdefault(sid, len(index)) for sid in ids]
    return list(index), codes


# Labels the CSV writer must quote (a comma, a quote, a line break) and
# labels it writes bare; no control characters but the line breaks.
_LABEL = st.one_of(
    st.sampled_from(["site 1, subject 7", 'say "hi"', "a\r\nb", "x\ny", ",", '"']),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1,
            max_size=5))


@st.composite
def interleaved_studies(draw):
    """A validation study whose rows draw their subjects from distinct
    random labels in random order; each subject's occasions count 1, 2, ..."""
    labels = draw(st.lists(_LABEL, min_size=1, max_size=6, unique=True))
    picks = draw(st.lists(st.integers(0, len(labels) - 1), min_size=1, max_size=24))
    ids = [labels[k] for k in picks]
    occasion = [picks[:i + 1].count(k) for i, k in enumerate(picks)]
    rng = np.random.default_rng(len(ids))
    n = len(ids)
    return data_model.ValidationDataset(
        *data_model.number_subjects(ids), occasion=np.asarray(occasion),
        x=rng.normal(size=n), z=rng.normal(size=(n, 2)), w=rng.normal(size=(n, 1)),
        radii=np.array([90.0, 150.0])), ids


@SOME
@given(interleaved_studies())
def test_number_subjects_matches_dict_reference(study):
    val, ids = study
    subject_ids, codes = data_model.number_subjects(ids)
    want_ids, want_codes = first_appearance(ids)
    assert subject_ids.dtype == object and codes.dtype == np.intp
    assert subject_ids.tolist() == want_ids and codes.tolist() == want_codes
    assert val.subject_ids[val.subject_codes].tolist() == ids


def read_as(read, path, parse):
    """``read(path)``, parsed "as written" or, with no bulk parse, by the
    "row scan".  As written, a file reads in bulk unless a label needs
    quotes, which sends it to the row scan."""
    if parse == "as written":
        return read(path)
    with mock.patch.object(data_model, "_bulk_rows", lambda *args: None):
        return read(path)


@SOME
@given(interleaved_studies(), st.sampled_from(["as written", "row scan"]))
def test_write_read_keeps_subjects(study, parse):
    val, _ = study
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "v.csv"
        data_model.write_validation_csv(p, val)
        back = read_as(data_model.read_validation_csv, p, parse)
    assert back.subject_ids.tolist() == val.subject_ids.tolist()
    assert back.subject_codes.tolist() == val.subject_codes.tolist()


@SOME
@given(st.lists(_LABEL, min_size=1, max_size=6),
       st.sampled_from(["as written", "row scan"]))
@example(["site 1, subject 7"], "as written")
def test_main_labels_leave_arrays_unchanged(labels, parse):
    # A main study keeps no id, so the file with its ids rewritten to the
    # labels, in turn, reads to the arrays of the file as written.
    main = calibrated_study()[0]
    with tempfile.TemporaryDirectory() as tmp:
        plain, relabelled = Path(tmp) / "m.csv", Path(tmp) / "relabelled.csv"
        data_model.write_main_csv(plain, main)
        with open(plain, newline="") as src, \
                open(relabelled, "w", newline="") as dst:
            rows, out = csv.reader(src), csv.writer(dst)
            out.writerow(next(rows))
            out.writerows([labels[i % len(labels)], *cells]
                          for i, (_, *cells) in enumerate(rows))
        want = data_model.read_main_csv(plain)
        back = read_as(data_model.read_main_csv, relabelled, parse)
    for name in ("time", "event", "z", "w", "radii"):
        a, b = getattr(back, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert back.confounder_names == want.confounder_names


@SOME
@given(interleaved_studies(), st.data())
def test_subset_numbers_its_rows_by_first_appearance(study, data):
    val, ids = study
    rows = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(val) - 1),
                                               min_size=1))))
    sub = val.subset(rows)
    want_ids, want_codes = first_appearance([ids[i] for i in rows])
    assert sub.subject_ids.tolist() == want_ids
    assert sub.subject_codes.tolist() == want_codes
    assert sub.x.tolist() == val.x[rows].tolist()
