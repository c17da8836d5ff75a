"""The simulation generators as they were before they drew through one helper.

A verbatim copy of ``default_z_cov``, ``_draw_covariates``,
``gen_validation``, ``_pilot`` and ``gen_main`` from when
``SimulationConfig`` carried the design values (surrogate mean and
covariance, confounder mean and variance, Weibull shape and scale, radii)
as fields.  ``config`` gives a cell config those fields at their former
defaults.  ``test_simulate`` requires the generators to draw bit for bit
what these did.  Only the imports and ``config`` are new, and
``gen_validation`` builds its dataset from ``number_subjects`` of the ids,
as ``ValidationDataset`` takes its subjects as labels and codes.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np

from calibcox import data_model, linalg
from calibcox.simulate import (_linear_predictor, _true_exposure_mean,
                               mvn_sample, weibull_event_time)


DEFAULT_Z_MEAN = 0.45
DEFAULT_Z_SD = 0.10
DEFAULT_Z_CORR = 0.99


def default_z_cov(p_z=9, sd=DEFAULT_Z_SD, corr=DEFAULT_Z_CORR):
    """Surrogate covariance: equal SDs, correlation corr^|i-j|."""
    idx = np.arange(p_z)
    return sd * sd * corr ** np.abs(np.subtract.outer(idx, idx))


def _draw_covariates(cfg, rng, n, z_chol):
    z = mvn_sample(rng, cfg.z_mean, z_chol, n)
    w = (cfg.w_mean + math.sqrt(cfg.w_var) * rng.standard_normal(n))[:, None]
    return z, w


def gen_validation(cfg, rng):
    """Validation cohort: n2 subjects x occasions, fresh covariates per row."""
    z_chol = linalg.cholesky(cfg.z_cov)
    n = cfg.n2 * cfg.occasions
    z, w = _draw_covariates(cfg, rng, n, z_chol)
    x = _true_exposure_mean(cfg, z, w) + math.sqrt(cfg.sigma2_v) * rng.standard_normal(n)
    ids = np.repeat([f"v{i + 1}" for i in range(cfg.n2)], cfg.occasions)
    occ = np.tile(np.arange(1, cfg.occasions + 1), cfg.n2)
    return data_model.ValidationDataset(
        *data_model.number_subjects(ids), occasion=occ, x=x, z=z, w=w,
        radii=np.asarray(cfg.radii), confounder_names=("w_1",))


def _pilot(cfg, rng, n):
    z_chol = linalg.cholesky(cfg.z_cov)
    z, w = _draw_covariates(cfg, rng, n, z_chol)
    x = _true_exposure_mean(cfg, z, w) + math.sqrt(cfg.sigma2_v) * rng.standard_normal(n)
    eta = _linear_predictor(cfg, x, w)
    t0 = weibull_event_time(rng, eta, cfg.theta, cfg.nu)
    u_cens = rng.uniform(size=n)
    return t0, u_cens


def gen_main(cfg, rng, c_max):
    """Main-study cohort plus the latent true exposure (for diagnostics only)."""
    z_chol = linalg.cholesky(cfg.z_cov)
    z, w = _draw_covariates(cfg, rng, cfg.n1, z_chol)
    x = _true_exposure_mean(cfg, z, w) + math.sqrt(cfg.sigma2_v) * rng.standard_normal(cfg.n1)
    eta = _linear_predictor(cfg, x, w)
    t0 = weibull_event_time(rng, eta, cfg.theta, cfg.nu)
    t_star = rng.uniform(0.0, c_max, size=cfg.n1)
    time = np.minimum(t0, t_star)
    event = (t0 <= t_star).astype(int)
    ds = data_model.MainDataset(time=time, event=event, z=z, w=w,
                                radii=np.asarray(cfg.radii),
                                confounder_names=("w_1",))
    return ds, x


def config(cfg):
    """``cfg`` with the design fields it carried, at their defaults."""
    p = len(cfg.alpha1)
    return SimpleNamespace(
        **{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
        theta=10.0, nu=1.0, z_mean=DEFAULT_Z_MEAN * np.ones(p),
        z_cov=np.asarray(default_z_cov(p), dtype=float), w_mean=1.0,
        w_var=10.0, radii=data_model.DEFAULT_RADII)
