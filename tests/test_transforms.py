"""Design-row construction: PCA, restricted cubic splines, assembly, serialization."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from calibcox import linalg, transforms
from calibcox.linalg import ContractViolationError
from calibcox.transforms import DesignSpec

RADII = np.array([90.0, 150.0, 270.0, 510.0, 750.0, 990.0, 1230.0, 1500.0, 2100.0])


class TestFitPca:
    def test_diagonal_covariance_selects_axes(self, rng):
        # Columns with variances 3, 1, 2: top-2 components pick axes 1 and 3.
        z = rng.normal(0.0, 1.0, size=(4000, 3)) * np.sqrt([3.0, 1.0, 2.0])
        t = transforms.fit_pca(z, 2)
        picked = {int(np.argmax(np.abs(row))) for row in t.loadings}
        assert picked == {0, 2}

    def test_full_rank_reconstruction(self, rng):
        z = rng.normal(0.5, 0.2, size=(50, 4))
        t = transforms.fit_pca(z, 4)
        zc = z - t.center
        recon = t.center + (zc @ t.loadings.T) @ t.loadings
        assert np.max(np.abs(recon - z)) < 1e-10

    def test_explained_variance_matches_eigen_sum(self, rng):
        cov = 0.1 ** 2 * 0.95 ** np.abs(np.subtract.outer(np.arange(9), np.arange(9)))
        z = transforms.np.asarray(
            rng.multivariate_normal(0.45 * np.ones(9), cov, size=3000))
        t = transforms.fit_pca(z, 3)
        zc = z - z.mean(axis=0)
        emp_cov = (zc.T @ zc) / (len(z) - 1)
        eig = linalg.sym_eigen(emp_cov)
        assert np.allclose(t.eigenvalues[:3], eig.eigenvalues[:3], atol=1e-10)
        assert t.eigenvalues[:3].sum() <= eig.eigenvalues.sum() + 1e-12

    def test_loadings_orthonormal(self, rng):
        z = rng.normal(size=(100, 6))
        t = transforms.fit_pca(z, 4)
        assert np.max(np.abs(t.loadings @ t.loadings.T - np.eye(4))) < 1e-10

    def test_eigenvalues_descending(self, rng):
        z = rng.normal(size=(80, 5))
        t = transforms.fit_pca(z, 5)
        assert np.all(np.diff(t.eigenvalues) <= 1e-12)

    def test_k_too_large(self, rng):
        with pytest.raises(ContractViolationError):
            transforms.fit_pca(rng.normal(size=(10, 3)), 4)

    def test_zero_variance_column_warns(self, rng):
        z = rng.normal(size=(20, 3))
        z[:, 1] = 0.7
        with pytest.warns(UserWarning, match="zero-variance"):
            transforms.fit_pca(z, 2)

    def test_sign_convention_deterministic(self, rng):
        z = rng.normal(size=(60, 4))
        t = transforms.fit_pca(z, 3)
        for row in t.loadings:
            nz = row[np.abs(row) > 1e-12]
            assert nz[0] > 0


class TestApplyPca:
    def test_center_maps_to_zero(self, rng):
        z = rng.normal(size=(30, 3))
        t = transforms.fit_pca(z, 2)
        assert np.allclose(transforms.apply_pca(t, t.center), 0.0, atol=1e-14)

    def test_identity_loadings(self):
        t = transforms.PcaTransform(center=np.array([1.0, 2.0]),
                                    loadings=np.eye(2),
                                    eigenvalues=np.ones(2))
        out = transforms.apply_pca(t, np.array([3.0, 5.0]))
        assert np.allclose(out, [2.0, 3.0])

    def test_matches_direct_multiply(self, rng):
        z = rng.normal(size=(40, 5))
        t = transforms.fit_pca(z, 3)
        v = rng.normal(size=5)
        assert np.allclose(transforms.apply_pca(t, v),
                           t.loadings @ (v - t.center), atol=1e-14)

    def test_length_mismatch(self, rng):
        t = transforms.fit_pca(rng.normal(size=(20, 4)), 2)
        with pytest.raises(ContractViolationError):
            transforms.apply_pca(t, np.zeros(3))


class TestRcsBasis:
    def test_shape(self):
        t = transforms.rcs_basis(RADII, 3)
        assert t.basis.shape == (9, 2)
        assert t.knots.shape == (3,)

    def test_first_column_is_radius(self):
        t = transforms.rcs_basis(RADII, 5)
        assert np.allclose(t.basis[:, 0], RADII)

    def test_zero_below_first_knot(self):
        # Evaluate the same construction on a grid extended below the knots.
        t = transforms.rcs_basis(RADII, 4)
        below = RADII < t.knots[0] + 1e-9
        assert np.allclose(t.basis[below, 1:], 0.0, atol=1e-12)

    def test_linear_tails(self):
        # Rebuild the basis over a fine grid past the last knot; second
        # differences of every nonlinear column must vanish there.
        t = transforms.rcs_basis(RADII, 4)
        grid = np.concatenate([RADII, t.knots[-1] + np.array([10.0, 20.0, 30.0])])
        tt = transforms.RcsTransform(knots=t.knots, basis=None)
        K = len(t.knots)
        denom = t.knots[-1] - t.knots[-2]
        cols = []
        for j in range(K - 2):
            term = (np.clip(grid - t.knots[j], 0, None) ** 3
                    - np.clip(grid - t.knots[-2], 0, None) ** 3
                    * (t.knots[-1] - t.knots[j]) / denom
                    + np.clip(grid - t.knots[-1], 0, None) ** 3
                    * (t.knots[-2] - t.knots[j]) / denom)
            cols.append(term[-3:])
        for col in cols:
            second_diff = col[2] - 2 * col[1] + col[0]
            assert abs(second_diff) < 1e-9 * (1.0 + np.max(np.abs(col)))

    def test_smooth_at_knots(self):
        # Continuity and twice-differentiability checked by finite differences
        # across each interior knot.
        knots = transforms.rcs_basis(RADII, 5).knots
        h = 1e-3
        K = len(knots)
        denom = knots[-1] - knots[-2]

        def term(r, j):
            return (np.clip(r - knots[j], 0, None) ** 3
                    - np.clip(r - knots[-2], 0, None) ** 3 * (knots[-1] - knots[j]) / denom
                    + np.clip(r - knots[-1], 0, None) ** 3 * (knots[-2] - knots[j]) / denom)

        for j in range(K - 2):
            for t0 in knots[1:-1]:
                left = (term(t0, j) - term(t0 - h, j)) / h
                right = (term(t0 + h, j) - term(t0, j)) / h
                scale = 1.0 + abs(left) + abs(right)
                assert abs(right - left) / scale < 1e-5

    def test_knot_count_bounds(self):
        with pytest.raises(ContractViolationError):
            transforms.rcs_basis(RADII, 2)
        with pytest.raises(ContractViolationError):
            transforms.rcs_basis(RADII, 8)

    def test_too_few_radii(self):
        with pytest.raises(ContractViolationError):
            transforms.rcs_basis(np.array([90.0, 150.0]), 3)


class TestBuildDesign:
    def test_standard_width(self):
        spec = DesignSpec(variant="standard")
        phi = transforms.build_design_matrix(spec, None, np.zeros((1, 9)), np.zeros((1, 1)))
        assert phi.shape == (1, 11)

    def test_pca3_interaction_width(self, rng):
        spec = DesignSpec(variant="pca", n_components=3, include_interactions=True)
        t = transforms.fit_pca(rng.normal(size=(30, 9)), 3)
        phi = transforms.build_design_matrix(spec, t, np.zeros((1, 9)), np.zeros((1, 1)))
        assert phi.shape == (1, 8)  # 1 + 3 + 1 + 3

    def test_standard_interactions_concatenation(self, rng):
        spec = DesignSpec(variant="standard", include_interactions=True)
        z = rng.normal(size=4)
        w = np.array([2.5])
        phi = transforms.build_design_matrix(spec, None, z[None], w[None])
        expected = np.concatenate([[1.0], z, w, 2.5 * z])
        assert np.allclose(phi[0], expected, atol=1e-14)

    def test_matrix_matches_rowwise(self, rng):
        spec = DesignSpec(variant="pca", n_components=2, include_interactions=True)
        z = rng.normal(size=(15, 5))
        w = rng.normal(size=(15, 2))
        t = transforms.fit_pca(z, 2)
        mat = transforms.build_design_matrix(spec, t, z, w)
        for i in range(15):
            s = transforms.apply_pca(t, z[i])
            row = np.concatenate([[1.0], s, w[i], w[i, 0] * s, w[i, 1] * s])
            assert np.allclose(mat[i], row)

    @pytest.mark.parametrize("spec", [
        DesignSpec(), DesignSpec(radius_subset=(2,)),
        DesignSpec(variant="pca", n_components=3), DesignSpec(variant="rcs", n_knots=4)])
    @pytest.mark.parametrize("interactions", [False, True])
    def test_matches_stacked_parts_bit_for_bit(self, rng, spec, interactions):
        spec = dataclasses.replace(spec, include_interactions=interactions)
        z, w = rng.normal(0.5, 0.1, size=(40, 9)), rng.normal(1.0, 2.0, size=(40, 2))
        t = transforms.fit_transform(spec, z, RADII)
        s = transforms.reduce_z(spec, t, z)
        parts = [np.ones((40, 1)), s, w]
        if interactions:
            parts += [w[:, j:j + 1] * s for j in range(2)]
        mat = transforms.build_design_matrix(spec, t, z, w)
        assert mat.flags.c_contiguous
        assert mat.tobytes() == np.hstack(parts).tobytes()

    def test_standard_int_peak_memory(self, rng):
        # The rows are written into the result: no stacked parts next to it.
        spec = DesignSpec(include_interactions=True)
        z, w = rng.normal(size=(20_000, 9)), rng.normal(size=(20_000, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mat = transforms.build_design_matrix(spec, None, z, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.1 * mat.nbytes

    def test_radius_subset(self, rng):
        spec = DesignSpec(variant="standard", radius_subset=(1,))
        z = rng.normal(size=3)
        phi = transforms.build_design_matrix(spec, None, z[None], np.array([[1.0]]))
        assert np.allclose(phi, [[1.0, z[1], 1.0]])

    @pytest.mark.parametrize("subset", [(3,), (-1,)])
    def test_radius_subset_outside_z_rejected(self, subset, rng):
        # A spec parsed against more radii than z holds names no column of z.
        spec = DesignSpec(variant="standard", radius_subset=subset)
        with pytest.raises(ContractViolationError, match="outside z's 3 radii"):
            transforms.build_design_matrix(spec, None, rng.normal(size=(2, 3)),
                                           np.ones((2, 1)))

    def test_full_rank_pca_prediction_equivalence(self, rng):
        # A linear model on the full-rank PCA design predicts identically to
        # one on the standard design.
        n, p = 200, 4
        z = rng.normal(0.5, 0.2, size=(n, p))
        w = rng.normal(1.0, 1.0, size=(n, 1))
        x = 0.3 + z @ rng.normal(size=p) + 0.1 * w[:, 0] + rng.normal(0, 0.05, n)
        spec_std = DesignSpec(variant="standard")
        spec_pca = DesignSpec(variant="pca", n_components=p)
        t = transforms.fit_pca(z, p)
        phi_std = transforms.build_design_matrix(spec_std, None, z, w)
        phi_pca = transforms.build_design_matrix(spec_pca, t, z, w)
        a_std = np.linalg.lstsq(phi_std, x, rcond=None)[0]
        a_pca = np.linalg.lstsq(phi_pca, x, rcond=None)[0]
        assert np.max(np.abs(phi_std @ a_std - phi_pca @ a_pca)) < 1e-8


class TestSpecValidation:
    def test_unknown_variant(self):
        with pytest.raises(ContractViolationError):
            DesignSpec(variant="lasso")

    def test_labels(self):
        assert DesignSpec(variant="pca", n_components=3,
                          include_interactions=True).label() == "pca3+int"
        assert DesignSpec(variant="standard", radius_subset=(0,)).label() == "standard[0]"


class TestSerialization:
    def test_pca_round_trip(self, rng):
        spec = DesignSpec(variant="pca", n_components=2, include_interactions=True)
        t = transforms.fit_pca(rng.normal(size=(20, 4)), 2)
        spec2, t2 = transforms.transform_from_json(
            transforms.transform_to_json(spec, t))
        assert spec2 == spec
        assert np.allclose(t2.center, t.center)
        assert np.allclose(t2.loadings, t.loadings)

    def test_rcs_round_trip(self):
        spec = DesignSpec(variant="rcs", n_knots=4)
        t = transforms.rcs_basis(RADII, 4)
        spec2, t2 = transforms.transform_from_json(
            transforms.transform_to_json(spec, t))
        assert spec2 == spec
        assert np.allclose(t2.basis, t.basis)

    def test_version_check(self):
        with pytest.raises(ContractViolationError):
            transforms.transform_from_json('{"version": 99, "spec": {}}')

    # The pca3+int file written for Z_GOLDEN before interactions were fixed
    # to pair with every confounder; files like it must keep loading, and a
    # round trip must reproduce them byte for byte.
    Z_GOLDEN = np.array([[0.41, 0.52, 0.38, 0.47],
                         [0.55, 0.49, 0.61, 0.44],
                         [0.33, 0.40, 0.29, 0.51],
                         [0.62, 0.58, 0.66, 0.39],
                         [0.47, 0.45, 0.50, 0.58],
                         [0.39, 0.61, 0.42, 0.36]])
    GOLDEN_PCA3_INT = """{
  "version": 1,
  "spec": {
    "variant": "pca",
    "n_components": 3,
    "n_knots": 3,
    "include_interactions": true,
    "interacting_confounders": null,
    "radius_subset": null
  },
  "pca": {
    "center": [
      0.46166666666666667,
      0.5083333333333334,
      0.4766666666666666,
      0.4583333333333333
    ],
    "loadings": [
      [
        0.5747965531215232,
        0.23151535663079317,
        0.7603607790355038,
        -0.19457915579078475
      ],
      [
        0.20926014799076192,
        -0.6415442723669907,
        0.2176055020172649,
        0.705180106460617
      ],
      [
        0.07004310787681,
        -0.7283097415097826,
        -0.005625944006964202,
        -0.681635703447921
      ]
    ],
    "eigenvalues": [
      0.03341796256525982,
      0.00962151244284788,
      0.0008755307404343224,
      0.0002416609181246413
    ]
  }
}"""

    def test_golden_pca3_int_file(self):
        spec, t = transforms.transform_from_json(self.GOLDEN_PCA3_INT)
        assert spec == DesignSpec(variant="pca", n_components=3,
                                  include_interactions=True)
        fitted = transforms.fit_pca(self.Z_GOLDEN, 3)
        for name in ("center", "loadings", "eigenvalues"):
            np.testing.assert_allclose(getattr(t, name), getattr(fitted, name),
                                       rtol=0, atol=1e-12)
        assert transforms.transform_to_json(spec, t) == self.GOLDEN_PCA3_INT

    def test_confounder_subset_rejected(self):
        text = self.GOLDEN_PCA3_INT.replace('"interacting_confounders": null',
                                            '"interacting_confounders": [0]')
        with pytest.raises(ContractViolationError, match="subset of confounders"):
            transforms.transform_from_json(text)
