"""The benchmark workloads: seeded inputs, the CLI call, and its output checks.

Every workload is a closed loop with one caller: the next ``calibcox`` call
starts only after the previous one returned.  Inputs are built from the
workload seed with the package's own generators and written with its own
CSV writers; the program then sees only those files and its argv.  Why each
workload exists is recorded in BENCHMARK.json and layer_map.json.

A check returns the problems it found (empty when the outputs are right),
the operations attempted and completed in the call, and the fits completed,
which the rate metric counts.  Each workload says how a run's calls make
one rate: the median of the per-call rates, which a rare slow call cannot
move, or the run's total fits over its total wall time, which weighs every
input by its cost.
"""

import csv
import hashlib
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from calibcox import data_model, simulate

Z_975 = 1.959964

# The workload seed used in examples, and a held-out seed on which a claim
# made with other seeds is to be re-checked.
WORKLOAD_SEED = 1
HELDOUT_SEED = 7919
# Seeds whose outputs are stored as references (digests), and those whose
# output files are kept in full.
REF_SEEDS = tuple(range(16)) + (HELDOUT_SEED,)
FULL_SEEDS = (WORKLOAD_SEED, HELDOUT_SEED)


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    ops_attempted: int = 0
    ops_ok: int = 0
    fits_ok: int = 0
    failed_names: list = field(default_factory=list)


def median_rate(calls):
    return statistics.median(c["fits_ok"] / c["wall"] for c in calls)


def total_rate(calls):
    return sum(c["fits_ok"] for c in calls) / sum(c["wall"] for c in calls)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _stream(seed, purpose, index=0):
    """Generator for one purpose (0 pilot, 1 main, 2 validation) of a seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index)))


def _write_validation(seed, index, path):
    cfg = simulate.setting1(seed=seed)
    data_model.write_validation_csv(
        path, simulate.gen_validation(cfg, _stream(seed, 2, index)))


class McCell:
    """One Monte Carlo cell of setting 1: the criterion-4 cell.

    Call i simulates with seed 8 * seed + i % 8, so a run's median call is
    not set by one seed's rare slow replicate.
    """

    name = "mc_cell"
    cell = "0.035,5000,300,0.01"
    replicates = 20
    inputs = 8
    ops_per_call = 2 * replicates  # (replicate, model) fits
    threads = 2
    min_calls = 5
    outputs = ("replicates.csv", "summary.csv")
    # About one call in four holds a replicate whose Cox fit runs out of
    # Newton iterations and doubles the call's time.
    rate = staticmethod(median_rate)

    def build_inputs(self, workdir, seed):
        self.seed = seed  # the inputs are simulate seeds

    def ref_key(self, i):
        return str(self.inputs * self.seed + i % self.inputs)

    def argv(self, i, outdir, threads=None):
        return ["simulate", "--cell", self.cell,
                "--replicates", str(self.replicates), "--seed", self.ref_key(i),
                "--threads", str(threads or self.threads), "--out", str(outdir)]

    def check(self, outdir):
        out = Outcome(ops_attempted=self.ops_per_call)
        reps = _read_csv(outdir / "replicates.csv")
        header = ["cell", "p", "n1", "n2", "sigma2v", "replicate", "model",
                  "converged", "beta1_hat", "se1", "ci1_covers", "beta3_hat",
                  "se3", "ci3_covers"]
        if not reps or reps[0] != header:
            out.problems.append("replicates.csv: unexpected header")
            return out
        rows = [dict(zip(header, r)) for r in reps[1:]]
        expected = [(str(r), m) for r in range(self.replicates) for m in ("M1", "M2")]
        if [(r["replicate"], r["model"]) for r in rows] != expected:
            out.problems.append("replicates.csv: replicate/model rows out of order")
            return out
        b1_true = simulate.SETTING1_BETA[0]
        by_model = {"M1": [], "M2": []}
        for r in rows:
            if r["converged"] != "1":
                continue
            b1, se1 = float(r["beta1_hat"]), float(r["se1"])
            lo, hi = b1 - Z_975 * se1, b1 + Z_975 * se1
            if not (math.isfinite(b1) and se1 > 0):
                out.problems.append(f"replicate {r['replicate']} {r['model']}: bad estimate")
            elif r["ci1_covers"] != str(int(lo <= b1_true <= hi)):
                out.problems.append(f"replicate {r['replicate']} {r['model']}: "
                                    "ci1_covers disagrees with beta1_hat and se1")
            by_model[r["model"]].append((b1, se1, lo <= b1_true <= hi))
        out.ops_ok = out.fits_ok = sum(len(v) for v in by_model.values())
        out.failed_names = [f"{r['replicate']}:{r['model']}" for r in rows
                            if r["converged"] != "1"]
        out.problems += self._check_summary(outdir, by_model, b1_true)
        return out

    def _check_summary(self, outdir, by_model, b1_true):
        """summary.csv must aggregate replicates.csv (to its printed digits)."""
        summary = _read_csv(outdir / "summary.csv")
        if [r[4] for r in summary[1:]] != ["M1", "M2"]:
            return ["summary.csv: expected one row per model"]
        problems = []
        for row in summary[1:]:
            fits = by_model[row[4]]
            if len(fits) < 2:
                continue
            b1 = np.array([f[0] for f in fits])
            want = [abs(100.0 * (b1.mean() - b1_true) / abs(b1_true)),
                    b1.std(ddof=1), np.mean([f[1] for f in fits]),
                    100.0 * np.mean([f[2] for f in fits])]
            got = [float(v) for v in row[5:9]]
            if any(abs(g - w) > 2e-4 * max(1.0, abs(w)) for g, w in zip(got, want)):
                problems.append(f"summary.csv: {row[4]} row {got} does not "
                                f"aggregate replicates.csv {want}")
        return problems


class Fit200k:
    """The README fit command on a 200,000-subject main study."""

    name = "fit_200k"
    n1 = 200_000
    event_rate = 0.10
    spec = "standard+int"
    inputs = 1
    ops_per_call = 1
    min_calls = 3
    outputs = ("fit.csv",)
    rate = staticmethod(median_rate)

    def build_inputs(self, workdir, seed):
        self.seed = seed
        self.cfg = simulate.setting1(n1=self.n1, event_rate=self.event_rate,
                                     seed=seed)
        c_max = simulate.calibrate_cmax(self.cfg, _stream(seed, 0))
        main, _ = simulate.gen_main(self.cfg, _stream(seed, 1), c_max)
        self.main_csv, self.val_csv = workdir / "main.csv", workdir / "val.csv"
        data_model.write_main_csv(self.main_csv, main)
        _write_validation(seed, 0, self.val_csv)

    def ref_key(self, i):
        return str(self.seed)

    def argv(self, i, outdir, threads=None):
        return ["fit", str(self.main_csv), "--validation", str(self.val_csv),
                "--spec", self.spec, "--check-derivatives", "--at", "1.0",
                "--out", str(outdir)]

    def check(self, outdir):
        out = Outcome(ops_attempted=self.ops_per_call)
        rows = _read_csv(outdir / "fit.csv")
        terms = ["exposure", "w_1", "exposure:w_1"]
        if (not rows or rows[0] != ["term", "estimate", "se", "ci_lo", "ci_hi"]
                or [r[0] for r in rows[1:]] != terms):
            out.problems.append("fit.csv: unexpected header or terms")
            return out
        for row, truth in zip(rows[1:], self.cfg.beta):
            est, se, lo, hi = (float(v) for v in row[1:])
            if not (all(map(math.isfinite, (est, se, lo, hi))) and se > 0):
                out.problems.append(f"fit.csv {row[0]}: non-finite or zero se")
            elif abs((hi - lo) / (2 * Z_975 * se) - 1.0) > 1e-6:
                out.problems.append(f"fit.csv {row[0]}: CI is not estimate +- z se")
            elif abs(est - truth) > 6.0 * se:
                # The spec is the generating model, so the calibrated estimate
                # is consistent; six standard errors away means a wrong fit.
                out.problems.append(f"fit.csv {row[0]}: estimate {est} is more "
                                    f"than 6 se from the true {truth}")
        if not out.problems:
            out.ops_ok = out.fits_ok = 1
        return out


SELECT_LABELS = (
    ["standard", "standard[0]", "standard[1]", "standard[2]", "standard[3]",
     "pca2", "pca3"] + [f"rcs{m}" for m in range(3, 8)]
    + ["standard+int", "pca2+int", "pca3+int"]
    + [f"rcs{m}+int" for m in range(3, 8)])


class SelectGrid:
    """CV ranking of the full candidate grid; call i uses dataset i % 32.

    The cost of one dataset depends on how often the GEE estimate of psi
    lands on its clamp at 0 (the generator's true value), and one dataset
    can cost four times another.  A run therefore uses a new dataset for
    every call it makes and reports its total fits over its total time.
    """

    name = "select_grid"
    folds = 5  # select's default
    inputs = 32
    ops_per_call = len(SELECT_LABELS)  # candidates
    min_calls = 5
    outputs = ("selection.csv",)
    rate = staticmethod(total_rate)

    def build_inputs(self, workdir, seed):
        self.seed = seed
        self.val_csvs = [workdir / f"val{j}.csv" for j in range(self.inputs)]
        for j, path in enumerate(self.val_csvs):
            _write_validation(seed, j, path)

    def ref_key(self, i):
        return f"{self.seed}.{i % self.inputs}"

    def argv(self, i, outdir, threads=None):
        return ["select", str(self.val_csvs[i % self.inputs]), "--seed", "1",
                "--out", str(outdir)]

    def check(self, outdir):
        out = Outcome(ops_attempted=self.ops_per_call)
        rows = _read_csv(outdir / "selection.csv")
        header = ["interactions", "model", "type", "mae", "mae25", "mae50",
                  "mae75", "mse", "qic", "note"]
        if not rows or rows[0] != header:
            out.problems.append("selection.csv: unexpected header")
            return out
        rows = rows[1:]
        if sorted(r[2] for r in rows) != sorted(SELECT_LABELS):
            out.problems.append("selection.csv: candidate set differs from the grid")
            return out
        ok = [r for r in rows if not r[9]]
        if rows[:len(ok)] != ok:
            out.problems.append("selection.csv: a failed candidate ranks above a fitted one")
        maes = [float(r[3]) for r in ok]
        if not all(map(math.isfinite, maes)) or maes != sorted(maes):
            out.problems.append("selection.csv: fitted candidates not ranked by MAE")
        if bool(ok) != (outdir / "best_transform.json").exists():
            out.problems.append("best_transform.json: present iff a candidate fitted")
        out.ops_ok = len(ok)
        out.failed_names = [r[2] for r in rows if r[9]]
        # Each fitted candidate: one GEE fit per training fold plus the
        # full-data fit for QIC; the winner is refit once for its transform.
        out.fits_ok = len(ok) * (self.folds + 1) + (1 if ok else 0)
        return out


WORKLOADS = {w.name: w for w in (McCell, Fit200k, SelectGrid)}
