"""Monte Carlo engine: data generation, event-rate calibration, replicate grids.

Data generation follows the main-study / external-validation design: the
validation study draws fresh surrogates and confounders at every occasion and
produces the true exposure from the standard measurement error model with
interactions; the main study draws the same marginals, produces a latent true
exposure with fresh noise, and feeds it through a Weibull proportional-hazards
outcome model with uniform censoring calibrated to a target event rate.

Two parameter settings are shipped, one mimicking the motivating cohort and
one with alternating-sign coefficients.  Every cell shares fixed design
constants: the motivating data's surrogate mean and covariance are not
public, so surrogates have mean 0.45, SD 0.10 and correlation 0.99^|i-j|
across the nine default radii; the confounder is Normal(1, variance 10); the
Weibull baseline has shape 10 and scale 1.

Determinism: every replicate's random stream is derived only from
(seed, cell_index, replicate index) via SeedSequence spawn keys, so results
are identical across worker counts and execution order.

Parallelism: with threads > 1, :func:`run_cell` hands replicates to a pool of
worker processes started with fork (a replicate is mostly short NumPy calls
that hold the GIL, so worker threads would not run side by side; spawned
workers would import NumPy and the package again for every cell).  A forked
child holds only the calling thread, so call it with threads > 1 from a
process that runs no other threads.  Each worker inherits the parent's BLAS;
set OPENBLAS_NUM_THREADS=1 (or the equivalent for another BLAS) so that the
workers do not oversubscribe the cores.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import constants, data_model, inference, linalg, mem, transforms
from .errors import DataError, NumericalError

SETTING1_ALPHA = {
    "a0": 0.105,
    "a1": (0.184, 0.068, 0.290, -0.246, 0.311, -0.613, 0.381, 0.276, -0.103),
    "a2": (-0.006,),
    "a3": (-0.038, -0.080, -0.056, 0.215, -0.247, 0.309, -0.058, -0.121, 0.052),
}
SETTING2_ALPHA = {
    "a0": 0.05,
    "a1": (0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5),
    "a2": (0.1,),
    "a3": (0.05, -0.05, 0.05, -0.05, 0.05, -0.05, 0.05, -0.05, 0.05),
}
SETTING1_BETA = (-0.284, -0.049, -0.047)
SETTING2_BETA = (1.0, 0.1, 0.1)

DEFAULT_Z_MEAN = 0.45
DEFAULT_Z_SD = 0.10
DEFAULT_Z_CORR = 0.99
W_MEAN = 1.0
W_VAR = 10.0
WEIBULL_THETA = 10.0
WEIBULL_NU = 1.0


def default_z_cov(p_z=9):
    """Surrogate covariance: equal SDs, correlation DEFAULT_Z_CORR^|i-j|."""
    idx = np.arange(p_z)
    return DEFAULT_Z_SD * DEFAULT_Z_SD * DEFAULT_Z_CORR ** np.abs(
        np.subtract.outer(idx, idx))


# The surrogate distribution over the default radii, factored once.
_Z_MEAN = np.full(len(data_model.DEFAULT_RADII), DEFAULT_Z_MEAN)
_Z_CHOLESKY = linalg.cholesky(default_z_cov(len(data_model.DEFAULT_RADII)))


@dataclass(frozen=True)
class SimulationConfig:
    """What one simulation cell sets; the design it shares is constant."""

    n1: int
    n2: int
    event_rate: float
    sigma2_v: float
    alpha0: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    beta: np.ndarray            # (beta1, beta2, beta3), scalar confounder
    occasions: int = 8
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("n1", "n2", "occasions", "replicates"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1, got {getattr(self, name)}")
        # NumPy's seeding takes no negative seed.
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.event_rate < 1.0:
            raise DataError("event_rate must be in (0, 1)")
        if not 0.0 < self.sigma2_v < math.inf:
            raise DataError("sigma2_v must be positive and finite")
        # One alpha1 and alpha3 value per default radius, one confounder.
        p_z = len(data_model.DEFAULT_RADII)
        for name, size in (("alpha1", p_z), ("alpha2", 1), ("alpha3", p_z),
                           ("beta", 3)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (size,):
                raise DataError(
                    f"{name} must hold {size} values, got shape {value.shape}")
            object.__setattr__(self, name, value)


_SETTINGS = {1: (SETTING1_ALPHA, SETTING1_BETA), 2: (SETTING2_ALPHA, SETTING2_BETA)}


def cell_config(setting, **overrides):
    """Parameter setting 1 or 2 at n1 5000, n2 300, event rate 0.035 and
    noise variance 0.01, with any field replaced by ``overrides``."""
    if setting not in _SETTINGS:
        raise DataError(f"setting must be 1 or 2, got {setting}")
    alpha, beta = _SETTINGS[setting]
    base = dict(n1=5000, n2=300, event_rate=0.035, sigma2_v=0.01,
                alpha0=alpha["a0"], alpha1=alpha["a1"], alpha2=alpha["a2"],
                alpha3=alpha["a3"], beta=beta)
    base.update(overrides)
    return SimulationConfig(**base)


def setting1(**overrides):
    """Cell config mimicking the motivating-cohort coefficients."""
    return cell_config(1, **overrides)


def mvn_sample(rng, mean, cov_cholesky, n):
    """n draws of mean + L * standard normal."""
    z = rng.standard_normal((n, len(mean)))
    return np.asarray(mean) + z @ np.asarray(cov_cholesky).T


def _true_exposure_mean(cfg, z, w):
    """E[X | Z, W] under the generating (standard, with-interaction) model."""
    return (cfg.alpha0 + z @ cfg.alpha1 + w @ cfg.alpha2
            + (w[:, 0:1] * z) @ cfg.alpha3)


def _draw(cfg, rng, n):
    """n fresh subjects: surrogates z, confounder w and true exposure x."""
    z = mvn_sample(rng, _Z_MEAN, _Z_CHOLESKY, n)
    w = (W_MEAN + math.sqrt(W_VAR) * rng.standard_normal(n))[:, None]
    x = _true_exposure_mean(cfg, z, w) + math.sqrt(cfg.sigma2_v) * rng.standard_normal(n)
    return z, w, x


def gen_validation(cfg, rng):
    """Validation cohort: n2 subjects x occasions, fresh covariates per row."""
    z, w, x = _draw(cfg, rng, cfg.n2 * cfg.occasions)
    occ = np.tile(np.arange(1, cfg.occasions + 1), cfg.n2)
    return data_model.ValidationDataset(
        subject_ids=np.array([f"v{i + 1}" for i in range(cfg.n2)], dtype=object),
        subject_codes=np.repeat(np.arange(cfg.n2), cfg.occasions),
        occasion=occ, x=x, z=z, w=w,
        radii=np.asarray(data_model.DEFAULT_RADII), confounder_names=("w_1",))


def weibull_event_time(rng, eta, theta, nu):
    """Inverse-CDF draw under cumulative baseline hazard (nu t)^theta.

    T = nu^-1 (-log U * exp(-eta))^(1/theta); eta may be a vector.
    """
    if theta <= 0 or nu <= 0:
        raise DataError("theta and nu must be positive")
    eta = np.asarray(eta, dtype=float)
    u = rng.uniform(size=eta.shape)
    return (-np.log(u) * np.exp(-eta)) ** (1.0 / theta) / nu


def _linear_predictor(cfg, x, w):
    b1, b2, b3 = cfg.beta
    return b1 * x + b2 * w[:, 0] + b3 * x * w[:, 0]


def _draw_main(cfg, rng, n):
    """n fresh main-study subjects: z, w, x, the event time and the
    censoring time as a fraction of c_max."""
    z, w, x = _draw(cfg, rng, n)
    t0 = weibull_event_time(rng, _linear_predictor(cfg, x, w),
                            WEIBULL_THETA, WEIBULL_NU)
    return z, w, x, t0, rng.uniform(size=n)


def _pilot(cfg, rng, n):
    return _draw_main(cfg, rng, n)[3:]


def calibrate_cmax(cfg, rng, pilot_size=constants.CMAX_PILOT_SIZE):
    """Bisection on the censoring-window upper bound to hit the event rate.

    The pilot draws are shared across candidate values (censoring times are
    u * c_max), so the achieved rate is monotone in c_max and the bisection
    is deterministic given the rng state.
    """
    t0, u_cens = _pilot(cfg, rng, pilot_size)

    def rate(cmax):
        return float(np.mean(t0 <= u_cens * cmax))

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        if rate(hi) >= cfg.event_rate:
            break
        hi *= 2.0
    else:
        raise NumericalError("could not bracket the target event rate")
    for _ in range(constants.CMAX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        if abs(r - cfg.event_rate) <= constants.CMAX_RATE_TOL:
            return mid
        if r < cfg.event_rate:
            lo = mid
        else:
            hi = mid
    raise NumericalError(
        f"event-rate bisection failed: achieved range "
        f"[{rate(lo):.4f}, {rate(hi):.4f}] around target {cfg.event_rate}")


def gen_main(cfg, rng, c_max):
    """Main-study cohort plus the latent true exposure (for diagnostics only)."""
    z, w, x, t0, u_cens = _draw_main(cfg, rng, cfg.n1)
    # Censoring times are uniform on [0, c_max): u * c_max, as in the
    # event rate calibrate_cmax bisects on.
    t_star = c_max * u_cens
    time = np.minimum(t0, t_star)
    event = (t0 <= t_star).astype(int)
    ds = data_model.MainDataset(time=time, event=event, z=z, w=w,
                                radii=np.asarray(data_model.DEFAULT_RADII),
                                confounder_names=("w_1",))
    return ds, x


# The two compared measurement error models, both with interactions.
MODEL_SPECS = {
    "M1": transforms.DesignSpec(variant="standard", include_interactions=True),
    "M2": transforms.DesignSpec(variant="pca", n_components=3,
                                include_interactions=True),
}


@dataclass(frozen=True)
class ReplicateResult:
    """One model's outcome on one replicate; NaN marks an estimate a failed
    fit did not produce.

    Two results are equal when their fields are, with NaN equal to NaN: a
    result that comes back from a worker process is unpickled, so its NaN
    fields are new float objects, and the field-tuple comparison a dataclass
    generates holds NaN equal only to the very same object.
    """

    replicate: int
    model: str
    converged: bool
    beta1_hat: float = np.nan
    se1: float = np.nan
    ci1_covers: bool = False
    beta3_hat: float = np.nan
    se3: float = np.nan
    ci3_covers: bool = False
    error: str = ""

    def _key(self):
        return tuple(None if isinstance(v, float) and math.isnan(v) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class SimulationSummary:
    """One model's aggregate over a cell's replicates."""

    model: str
    bias_pct: float
    bias_pct_signed: float
    sd: float
    se_mean: float
    coverage_pct: float
    n_converged: int
    n_replicates: int
    flagged: bool


def _replicate_rng(seed, cell_index, rep):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(cell_index, rep + 1)))


def run_replicate(cfg, c_max, rep, cell_index=0):
    """One fresh validation + main pair, both models fitted end to end.

    A model whose fit fails with a numerical or input error is recorded as
    not converged, with the error message; the other model and the rest of
    the cell still run.
    """
    rng = _replicate_rng(cfg.seed, cell_index, rep)
    validation = gen_validation(cfg, rng)
    main, _ = gen_main(cfg, rng, c_max)
    b1_true, _, b3_true = cfg.beta
    results = []
    for name, spec in MODEL_SPECS.items():
        try:
            fit = mem.fit_gee(validation, spec)
            cox = inference.fit_calibrated_cox(main, fit)
        except (ArithmeticError, ValueError) as exc:
            # The package's numerical errors (errors.NumericalError) derive
            # from ArithmeticError, its data errors (errors.DataError) from
            # ValueError.
            results.append(ReplicateResult(replicate=rep, model=name,
                                           converged=False, error=str(exc)))
            continue
        results.append(ReplicateResult(
            replicate=rep, model=name, converged=True,
            beta1_hat=float(cox.beta[0]), se1=float(cox.se[0]),
            ci1_covers=bool(cox.ci_lower[0] <= b1_true <= cox.ci_upper[0]),
            beta3_hat=float(cox.beta[2]), se3=float(cox.se[2]),
            ci3_covers=bool(cox.ci_lower[2] <= b3_true <= cox.ci_upper[2]),
        ))
    return results


def summarize(cfg, results):
    """Aggregate replicate results into per-model summary rows."""
    b1_true = cfg.beta[0]
    rows = []
    for name in MODEL_SPECS:
        sub = [r for r in results if r.model == name]
        ok = [r for r in sub if r.converged]
        n_ok = len(ok)
        if n_ok == 0:
            rows.append(SimulationSummary(name, np.nan, np.nan, np.nan, np.nan,
                                          np.nan, 0, len(sub), True))
            continue
        b1 = np.array([r.beta1_hat for r in ok])
        se = np.array([r.se1 for r in ok])
        cover = np.array([r.ci1_covers for r in ok])
        signed = 100.0 * (b1.mean() - b1_true) / abs(b1_true)
        rows.append(SimulationSummary(
            model=name, bias_pct=abs(signed), bias_pct_signed=signed,
            sd=float(b1.std(ddof=1)) if n_ok > 1 else 0.0,
            se_mean=float(se.mean()),
            coverage_pct=100.0 * float(cover.mean()),
            n_converged=n_ok, n_replicates=len(sub),
            flagged=(len(sub) - n_ok) > 0.05 * len(sub),
        ))
    return rows


def run_cell(cfg, cell_index=0, threads=1):
    """All replicates of one cell; returns (summaries, replicate results).

    Replicates are independent.  With threads > 1 they run in
    min(threads, replicates) forked worker processes, handed out one at a
    time; the output is identical to the in-process loop because each
    replicate's stream depends only on (seed, cell_index, replicate) and the
    results are aggregated in replicate order.  Where the platform has no
    fork start method, threads > 1 raises ValueError.
    """
    pilot_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cell_index, 0)))
    c_max = calibrate_cmax(cfg, pilot_rng)
    reps = range(cfg.replicates)
    if threads > 1:
        # Imported here, not at module level: they add to every import of
        # the package, and only a multi-worker cell needs them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        job = functools.partial(run_replicate, cfg, c_max, cell_index=cell_index)
        with ProcessPoolExecutor(max_workers=min(threads, cfg.replicates),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            chunks = list(pool.map(job, reps, chunksize=1))
    else:
        chunks = [run_replicate(cfg, c_max, r, cell_index) for r in reps]
    results = [r for chunk in chunks for r in chunk]
    return summarize(cfg, results), results


def full_grid(setting=1, replicates=1000, seed=0):
    """The 24-cell grid: 2 event rates x 2 main sizes x 2 validation sizes x 3 noise levels."""
    cells = []
    for p in (0.035, 0.10):
        for n1 in (5000, 10000):
            for n2 in (150, 300):
                for s2 in (0.01, 0.05, 0.10):
                    cells.append(cell_config(
                        setting, n1=n1, n2=n2, event_rate=p, sigma2_v=s2,
                        replicates=replicates, seed=seed))
    return cells
