"""The size-bucketed GEE fits against the per-subject loops they replaced.

``seed_gee`` is a verbatim copy of the loop versions; every fit here must
match it bit for bit (``tobytes`` equality of alpha, v_alpha, psi, sigma2
and QIC), on equal and ragged cluster sizes, with subjects whose rows
interleave, and with the per-subject sums cut into blocks of one or a few
subjects, so that the running total is carried across blocks.  The
cross-validation, which scores held-out folds by row index and reads QIC
from the full-data fit, must match the seed's, which made a dataset of each
held-out fold and computed QIC in a separate pass.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from calibcox import data_model, mem, model_select, simulate, transforms
from calibcox.transforms import DesignSpec
import seed_gee
from conftest import ragged_validation, residual_clusters

SPECS = [DesignSpec(variant="standard"),
         DesignSpec(variant="standard", include_interactions=True),
         DesignSpec(variant="pca", n_components=2, include_interactions=True)]


@pytest.fixture(params=["default", "tiny"])
def block(request, monkeypatch):
    """Run once with the package's block size and once with blocks of one to
    four subjects, so that every sum over subjects crosses blocks."""
    if request.param == "tiny":
        monkeypatch.setattr(mem, "_BLOCK_VALUES", 100)
    return request.param


def _assert_same_fit(val, spec, working="exchangeable"):
    new = mem.fit_gee(val, spec, working=working)
    old = seed_gee.fit_gee(val, spec, working=working)
    for name in ("alpha", "v_alpha"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
    for name in ("psi", "sigma2"):
        assert np.float64(getattr(new, name)).tobytes() == \
            np.float64(getattr(old, name)).tobytes(), name
    assert np.float64(new.qic).tobytes() == \
        np.float64(seed_gee.qic(old, val)).tobytes()
    assert (new.n_subjects, new.n_obs) == (old.n_subjects, old.n_obs)
    return new


@pytest.mark.parametrize("spec", SPECS[1:], ids=lambda s: s.label())
def test_equal_clusters(spec, block):
    cfg = simulate.setting1(n2=60, seed=3)
    val = simulate.gen_validation(cfg, np.random.default_rng(3))
    assert set(np.bincount(val.subject_codes)) == {8}
    _assert_same_fit(val, spec)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_ragged_interleaved_clusters(spec, block, rng):
    sizes = rng.choice([1, 2, 3, 8], size=70)
    val = ragged_validation(rng, sizes)
    assert set(sizes) == {1, 2, 3, 8}
    assert any(np.any(np.diff(rows) > 1) for rows in val.subject_groups().values())
    fit = _assert_same_fit(val, spec)
    assert 0.0 < fit.psi < 1.0


def test_all_singletons(block, rng):
    val = ragged_validation(rng, np.ones(50, dtype=int))
    fit = _assert_same_fit(val, SPECS[1])
    assert fit.psi == 0.0


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_independence(spec, block, rng):
    val = ragged_validation(rng, rng.choice([1, 2, 3, 8], size=60))
    _assert_same_fit(val, spec, working="independence")


@pytest.mark.parametrize("working", ["independence", "exchangeable"])
def test_zero_residuals(working, rng):
    # x = 0 is fitted exactly, so the dispersion is 0 and QIC takes its
    # zero-dispersion branch.
    val = ragged_validation(rng, rng.choice([1, 2, 3], size=30))
    val = dataclasses.replace(val, x=np.zeros(len(val)))
    fit = _assert_same_fit(val, SPECS[1], working=working)
    assert fit.sigma2 == 0.0 and fit.qic == 0.0


def test_cv_folds(block, rng):
    val = ragged_validation(rng, rng.choice([2, 3, 8], size=60))
    folds = model_select.kfold_split(val, k=5, rng=np.random.default_rng(5))
    all_rows = np.arange(len(val))
    for f in folds:
        for rows in (np.setdiff1d(all_rows, f), f):
            _assert_same_fit(val.subset(rows), SPECS[2])


def test_estimate_psi(rng, monkeypatch):
    # The loop version warns when it clamps psi or finds no pair; the
    # bucketed one returns the same value and never warns.  The loop
    # version's default sigma2 is the mean squared residual, passed here
    # explicitly.  Subjects may have no residuals or a single one.
    ragged = [rng.normal(size=m) + 0.5 * rng.normal()
              for m in rng.choice([0, 1, 2, 3, 8], size=40)]
    for groups, sigma2 in [(ragged, None), (ragged, 0.7), (ragged, 0.2),
                           (ragged, 0.0),
                           ([np.array([1.0]), np.array([2.0])], None),
                           ([np.array([1.0, -1.0]), np.array([2.0, -2.0])], None)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = seed_gee.estimate_psi(groups, sigma2)
        resid, buckets = residual_clusters(groups)
        s2 = float(resid @ resid) / resid.size if sigma2 is None else sigma2
        for block in (1, 3, mem._BLOCK_VALUES):
            # A scalar term takes _BLOCK_VALUES subjects to a block.
            monkeypatch.setattr(mem, "_BLOCK_VALUES", block)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = mem.estimate_psi(resid, buckets, s2)
            assert caught == []
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), block


@pytest.mark.parametrize("values", [1, 24, mem._BLOCK_VALUES])
def test_block_size_moves_no_bit(values, monkeypatch):
    # Blocks of one subject, of one subject for p x p terms and 24 for the
    # psi moment's scalars, and the default, on one ragged rho = 0.4 study.
    rng = np.random.default_rng(21)
    val = ragged_validation(rng, rng.choice([1, 2, 3, 8], size=70))
    spec = SPECS[1]
    phi = transforms.build_design_matrix(
        spec, transforms.fit_transform(spec, val), val.z, val.w)
    resid = val.x - phi @ np.linalg.lstsq(phi, val.x, rcond=None)[0]
    want = mem.estimate_psi(resid, val.subject_buckets, 0.03)
    monkeypatch.setattr(mem, "_BLOCK_VALUES", values)
    got = mem.estimate_psi(resid, val.subject_buckets, 0.03)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert 0.0 < _assert_same_fit(val, spec).psi < 1.0


def test_cv_evaluate_builds_one_grouping_per_dataset(monkeypatch):
    # The file's grouping and one per training set; the fits build none.
    calls = []

    def counted(order, sizes):
        calls.append(len(sizes))
        return size_buckets(order, sizes)

    size_buckets = data_model._size_buckets
    monkeypatch.setattr(data_model, "_size_buckets", counted)
    val = _cv_dataset("ragged")
    specs = model_select.candidate_grid(p_z=val.z.shape[1])
    model_select.cv_evaluate(val, specs, np.random.default_rng(4), k=5)
    assert len(calls) == 6
    mem.fit_gee(val, specs[0])
    assert len(calls) == 6


def _cv_dataset(name):
    """The setting-1 generator, whose grid has ten failing ``rcs*``
    candidates, or ragged interleaved clusters."""
    if name == "setting1":
        return simulate.gen_validation(simulate.setting1(n2=40, seed=8),
                                       np.random.default_rng(8))
    rng = np.random.default_rng(9)
    return ragged_validation(rng, rng.choice([1, 2, 3, 8], size=60))


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("working", ["independence", "exchangeable"])
@pytest.mark.parametrize("name", ["setting1", "ragged"])
def test_cv_evaluate_matches_seed(name, working, k):
    val = _cv_dataset(name)
    specs = model_select.candidate_grid(p_z=val.z.shape[1])
    new = model_select.cv_evaluate(val, specs, np.random.default_rng(4), k=k,
                                   working=working)
    old = seed_gee.cv_evaluate(val, specs, np.random.default_rng(4), k=k,
                               working=working)
    assert [m.spec for m in new] == [m.spec for m in old]
    for a, b in zip(new, old):
        label = a.spec.label()
        for field in ("mae_mean", "mae_q25", "mae_q50", "mae_q75", "mse_mean", "qic"):
            assert np.float64(getattr(a, field)).tobytes() == \
                np.float64(getattr(b, field)).tobytes(), (label, field)
        assert (type(a.error), str(a.error)) == (type(b.error), str(b.error)), label
        assert transforms.transform_to_json(a.spec, a.transform) == \
            transforms.transform_to_json(b.spec, b.transform), label
    failed = [m.spec.label() for m in new if m.failed]
    if name == "setting1":
        assert failed == [s.label() for s in specs if s.variant == "rcs"]
    assert len(failed) < len(new)
