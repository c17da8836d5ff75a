"""Design-row construction for the measurement error model variants.

Three surrogate reductions are supported:

* standard -- the surrogate vector is used as-is (optionally a subset of radii);
* pca(k)   -- centered surrogates projected on the top-k principal axes;
* rcs(m)   -- coefficients across radii constrained to a restricted cubic
              spline with m knots, equivalent to reducing z to B'z where B is
              the spline basis evaluated at the radii.

A design row is always ordered [1, s(z), w, w x s(z)-interactions].
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import ContractViolationError

SERIALIZATION_VERSION = 1


@dataclass(frozen=True)
class DesignSpec:
    """Which reduction and interaction structure a design row uses.

    include_interactions adds the surrogates' interactions with every
    confounder.  radius_subset restricts the standard variant to a subset
    of z columns (single-radius models).
    """

    variant: str = "standard"  # standard | pca | rcs
    n_components: int = 3
    n_knots: int = 3
    include_interactions: bool = False
    radius_subset: tuple | None = None

    def __post_init__(self):
        if self.variant not in ("standard", "pca", "rcs"):
            raise ContractViolationError(f"unknown variant '{self.variant}'")
        if self.variant == "rcs" and not 3 <= self.n_knots <= 7:
            raise ContractViolationError("rcs knot count must be in [3, 7]")
        if self.variant == "pca" and self.n_components < 1:
            raise ContractViolationError("pca needs at least one component")

    def label(self):
        if self.variant == "standard":
            base = "standard" if self.radius_subset is None else (
                "standard[" + ",".join(str(i) for i in self.radius_subset) + "]")
        elif self.variant == "pca":
            base = f"pca{self.n_components}"
        else:
            base = f"rcs{self.n_knots}"
        return base + ("+int" if self.include_interactions else "")


@dataclass(frozen=True)
class PcaTransform:
    """Centering vector plus top-k orthonormal loading rows."""

    center: np.ndarray
    loadings: np.ndarray      # (k, p_z), rows orthonormal
    eigenvalues: np.ndarray   # descending, full spectrum


@dataclass(frozen=True)
class RcsTransform:
    """Spline basis evaluated at each radius; column 1 is the identity term."""

    knots: np.ndarray
    basis: np.ndarray  # (p_z, L_n)


def fit_pca(zmat, k):
    """Principal axes of the column covariance of ``zmat``.

    Centering only, no scaling: all surrogates share units by construction.
    Eigenvector signs are fixed so the first nonzero loading entry of each
    component is positive.  A zero-variance column raises a UserWarning.
    """
    zmat = np.asarray(zmat, dtype=float)
    n, p = zmat.shape
    if k > p:
        raise ContractViolationError(f"k={k} exceeds surrogate dimension {p}")
    if n < k + 1:
        raise ContractViolationError(f"need at least {k + 1} rows, got {n}")
    center = zmat.mean(axis=0)
    zc = zmat - center
    cov = (zc.T @ zc) / (n - 1)
    diag = np.diag(cov)
    if np.any(diag <= 1e-14 * max(float(diag.max()), 1e-300)):
        warnings.warn("zero-variance surrogate column in PCA input", stacklevel=2)
    eig = linalg.sym_eigen(cov)
    loadings = eig.eigenvectors[:, :k].T.copy()
    for row in loadings:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return PcaTransform(center=center, loadings=loadings,
                        eigenvalues=np.maximum(eig.eigenvalues, 0.0))


def apply_pca(transform, z):
    """Project a surrogate vector (or row matrix) onto the fitted axes."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != transform.center.shape[0]:
        raise ContractViolationError(
            f"z length {z.shape[-1]} does not match transform "
            f"dimension {transform.center.shape[0]}")
    return (z - transform.center) @ transform.loadings.T


def rcs_basis(radii, n_knots):
    """Restricted cubic spline basis over the radii grid.

    Truncated-power construction with linear tails: n_knots - 1 columns, the
    first being the radius itself and the rest Harrell-style cubic terms that
    vanish below the first knot and become linear beyond the last.  Knots sit
    at equally spaced quantiles of the radii vector.
    """
    radii = np.asarray(radii, dtype=float)
    if not 3 <= n_knots <= 7:
        raise ContractViolationError("n_knots must be in [3, 7]")
    if len(radii) < n_knots:
        raise ContractViolationError(
            f"need at least {n_knots} radii for {n_knots} knots, got {len(radii)}")
    knots = np.quantile(radii, np.linspace(0.0, 1.0, n_knots))
    t = knots
    K = n_knots
    denom = t[K - 1] - t[K - 2]
    cols = [radii]
    for j in range(K - 2):
        term = (np.clip(radii - t[j], 0.0, None) ** 3
                - np.clip(radii - t[K - 2], 0.0, None) ** 3 * (t[K - 1] - t[j]) / denom
                + np.clip(radii - t[K - 1], 0.0, None) ** 3 * (t[K - 2] - t[j]) / denom)
        cols.append(term)
    return RcsTransform(knots=knots, basis=np.column_stack(cols))


def reduce_z(spec, transform, z):
    """Reduced surrogate s(z) for a single z vector or a row matrix."""
    z = np.asarray(z, dtype=float)
    if spec.variant == "standard":
        if spec.radius_subset is not None:
            if not all(0 <= j < z.shape[-1] for j in spec.radius_subset):
                raise ContractViolationError(f"radius_subset outside z's {z.shape[-1]} radii")
            return z[..., list(spec.radius_subset)]
        return z
    if spec.variant == "pca":
        return apply_pca(transform, z)
    return z @ transform.basis  # rcs: B'z per row


def fit_transform(spec, zmat, radii):
    """Fit whatever transform the spec needs (None for the standard variant)."""
    if spec.variant == "pca":
        return fit_pca(zmat, spec.n_components)
    if spec.variant == "rcs":
        return rcs_basis(radii, spec.n_knots)
    return None


def build_design_matrix(spec, transform, zmat, wmat):
    """Design rows [1, s(z), w, interactions] for row-aligned z and w matrices.

    The interaction block repeats s(z) scaled by each confounder, in
    confounder-major order, and is present only when the spec asks for it.
    Each block is written straight into the one (n, p) result.
    """
    zmat = np.asarray(zmat, dtype=float)
    wmat = np.asarray(wmat, dtype=float)
    s = reduce_z(spec, transform, zmat)
    k, p_w = s.shape[1], wmat.shape[1]
    out = np.empty((len(zmat), 1 + k + p_w
                    + (k * p_w if spec.include_interactions else 0)))
    out[:, 0] = 1.0
    out[:, 1:1 + k] = s
    out[:, 1 + k:1 + k + p_w] = wmat
    if spec.include_interactions:
        for j in range(p_w):
            lo = 1 + k + p_w + j * k
            np.multiply(wmat[:, j:j + 1], s, out=out[:, lo:lo + k])
    return out


def transform_to_json(spec, transform):
    """Serialize a spec + fitted transform for reuse between CLI runs."""
    payload = {
        "version": SERIALIZATION_VERSION,
        "spec": {
            "variant": spec.variant,
            "n_components": spec.n_components,
            "n_knots": spec.n_knots,
            "include_interactions": spec.include_interactions,
            # Kept for the file format: interactions pair with every confounder.
            "interacting_confounders": None,
            "radius_subset": (None if spec.radius_subset is None
                              else list(spec.radius_subset)),
        },
    }
    if isinstance(transform, PcaTransform):
        payload["pca"] = {
            "center": transform.center.tolist(),
            "loadings": transform.loadings.tolist(),
            "eigenvalues": transform.eigenvalues.tolist(),
        }
    elif isinstance(transform, RcsTransform):
        payload["rcs"] = {
            "knots": transform.knots.tolist(),
            "basis": transform.basis.tolist(),
        }
    return json.dumps(payload, indent=2)


def transform_from_json(text):
    """Inverse of :func:`transform_to_json`; returns (spec, transform)."""
    payload = json.loads(text)
    if payload.get("version") != SERIALIZATION_VERSION:
        raise ContractViolationError(
            f"unsupported transform file version {payload.get('version')}")
    s = payload["spec"]
    if s["interacting_confounders"] is not None:
        raise ContractViolationError(
            "interactions with a subset of confounders are not supported")
    spec = DesignSpec(
        variant=s["variant"], n_components=s["n_components"], n_knots=s["n_knots"],
        include_interactions=s["include_interactions"],
        radius_subset=(None if s["radius_subset"] is None else tuple(s["radius_subset"])),
    )
    transform = None
    if "pca" in payload:
        p = payload["pca"]
        transform = PcaTransform(center=np.asarray(p["center"]),
                                 loadings=np.asarray(p["loadings"]),
                                 eigenvalues=np.asarray(p["eigenvalues"]))
    elif "rcs" in payload:
        r = payload["rcs"]
        transform = RcsTransform(knots=np.asarray(r["knots"]),
                                 basis=np.asarray(r["basis"]))
    return spec, transform
