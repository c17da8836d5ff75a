"""Command-line surface: simulate grids, select MEMs, fit calibrated Cox models.

Commands
--------
simulate  run a replicate grid and write summary.csv / replicates.csv
select    rank candidate measurement error models on a validation CSV
fit       calibrate a main-study CSV with a validation CSV and report
          estimates, sandwich SEs, CIs, and hazard ratios per increment
report    render previously written summary CSVs as text tables

simulate, select and fit accept --config pointing at an INI file whose
[simulate], [select], [fit] sections provide defaults; explicit flags
override the file, and a key that the command does not read is a usage
error.
The effective configuration is echoed to a provenance file next to the
outputs.  Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical
failure, 5 a worker process of ``simulate --threads N`` died, 141 stdout
was closed before the command's output was written.  An error's
base class in :mod:`calibcox.errors` alone decides its code (``_EXITS``); an
OSError, which only the operating system raises, exits 3 as a DataError does.
"""

import argparse
import configparser
import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import (__version__, data_model, inference, mem, model_select, simulate,
               transforms)
from .errors import DataError, NumericalError, UsageError

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_WORKER = 5
# 128 + SIGPIPE: what a shell reports for a process that a closed pipe ended.
EXIT_BROKEN_PIPE = 141
# Each error base, with its exit code and the first words of its message.
_EXITS = {UsageError: (EXIT_USAGE, "usage error"),
          DataError: (EXIT_DATA, "data error"),
          OSError: (EXIT_DATA, "data error"),
          NumericalError: (EXIT_NUMERIC, "numerical failure")}


def _exit_of(exc):
    """The (exit code, prefix) of the error's base; None outside the taxonomy."""
    return next((v for base, v in _EXITS.items() if isinstance(exc, base)), None)


def parse_spec_token(token, radii):
    """Parse tokens like 'standard', 'only150', 'pca3+int', 'rcs5'."""
    token = token.strip()
    interactions = token.endswith("+int")
    if interactions:
        token = token[:-4]
    if token == "standard":
        return transforms.DesignSpec(variant="standard",
                                     include_interactions=interactions)
    if token.startswith("only"):
        try:
            radius = float(token[4:])
        except ValueError:
            raise UsageError(f"bad radius in spec token '{token}'") from None
        matches = np.flatnonzero(np.asarray(radii) == radius)
        if matches.size != 1:
            raise UsageError(f"radius {radius:g} not in data radii")
        return transforms.DesignSpec(variant="standard",
                                     radius_subset=(int(matches[0]),),
                                     include_interactions=interactions)
    if token.startswith(("pca", "rcs")):
        variant = token[:3]
        try:
            count = int(token[3:])
        except ValueError:
            raise UsageError(f"bad count in spec token '{token}'") from None
        parts, field = ("components", "n_components") if variant == "pca" else ("knots", "n_knots")
        if count > len(radii):
            raise UsageError(f"'{token}' asks for more {parts} than the {len(radii)} radii")
        try:
            return transforms.DesignSpec(variant=variant,
                                         include_interactions=interactions, **{field: count})
        except DataError as exc:
            raise UsageError(f"spec token '{token}': {exc}") from None
    raise UsageError(f"unknown spec token '{token}'")


def _load_config(path, section, keys):
    """The ``[section]`` of the config file at ``path``.

    A key of the section outside ``keys`` would be ignored, so it is a
    usage error.  ``[DEFAULT]`` keys, which configparser copies into every
    section, are exempt.
    """
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise DataError(f"config file not found: {path}")
    if not parser.has_section(section):
        return {}
    unread = sorted(set(parser[section]) - set(parser.defaults()) - set(keys))
    if unread:
        raise UsageError(f"{path}: [{section}] does not read "
                         f"{', '.join(unread)}; its keys are {', '.join(keys)}")
    return dict(parser[section])


def _write_provenance(outdir, command, effective):
    payload = {"version": __version__, "command": command, "config": effective}
    (outdir / "provenance.json").write_text(json.dumps(payload, indent=2, default=str))


def _int_setting(flag, file_cfg, key, default=None, minimum=None):
    """The flag's value, else the config file's ``key``, else ``default``.

    A config value that is not an integer, or a value below ``minimum``, is
    a usage error.
    """
    value = flag if flag is not None else file_cfg.get(key, default)
    try:
        value = None if value is None else int(value)
    except ValueError:
        raise UsageError(f"{key} must be an integer, got '{value}'") from None
    if None not in (value, minimum) and value < minimum:
        raise UsageError(f"{key} must be >= {minimum}, got {value}")
    return value


def _read_validation(path):
    """The validation file, which must hold at least one data row."""
    validation = data_model.read_validation_csv(path)
    if not len(validation):
        raise DataError(f"{path}: no data rows")
    return validation


def _hr_at(args, confounder_names):
    """The confounder values w0 of the hazard ratio, one per confounder.

    A non-finite --hr-increment or --at value is a usage error.
    """
    if not math.isfinite(args.hr_increment):
        raise UsageError(f"--hr-increment must be finite, got {args.hr_increment}")
    if not args.at:
        return [0.0] * len(confounder_names)
    try:
        w0 = [float(v) for v in args.at.split(",")]
    except ValueError:
        w0 = []  # not numbers: fails the check below
    if len(w0) != len(confounder_names) or not all(map(math.isfinite, w0)):
        raise UsageError(f"--at needs one finite number per confounder "
                         f"({', '.join(confounder_names)}), got '{args.at}'")
    return w0


def _check_out(out):
    """Fail before any work if ``--out`` is empty, or it or the nearest of
    its ancestors that exists is a file, not a directory.

    fit and select make the directory only once their work has succeeded,
    so a failed run leaves none behind; simulate makes it before its first
    cell, and writes each cell's rows as the cell ends.
    """
    if out is None:
        return
    if not out:
        raise UsageError("--out needs a directory name, got an empty one")
    path = Path(out)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                where = "" if p == path else f"{p} "
                raise DataError(f"--out {out}: {where}exists and is not a directory")
            return


def _parse_cell(text):
    try:
        p, n1, n2, s2 = text.split(",")
        return float(p), int(n1), int(n2), float(s2)
    except ValueError:
        raise UsageError(f"--cell expects p,n1,n2,sigma2v, got '{text}'") from None


def _cell_fields(cfg):
    """A cell's p, n1, n2 and sigma2v as every simulate output writes them."""
    return [f"{cfg.event_rate:g}", str(cfg.n1), str(cfg.n2), f"{cfg.sigma2_v:g}"]


def cmd_simulate(args):
    file_cfg = _load_config(args.config, "simulate",
                            ("setting", "replicates", "seed"))
    setting = _int_setting(args.setting, file_cfg, "setting", 1)
    replicates = _int_setting(args.replicates, file_cfg, "replicates", 1000,
                              minimum=1)
    # NumPy's seeding takes no negative seed.
    seed = _int_setting(args.seed, file_cfg, "seed", minimum=0)
    if seed is None:
        raise UsageError("simulate requires --seed (or seed in the config file)")
    if setting not in (1, 2):
        raise UsageError(f"setting must be 1 or 2, got {setting}")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    if args.threads > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            raise UsageError("--threads above 1 starts forked worker processes, "
                             "and this platform cannot fork")
    if args.cell:
        cells = []
        for text in args.cell:
            p, n1, n2, s2 = _parse_cell(text)
            try:
                cells.append(simulate.cell_config(
                    setting, n1=n1, n2=n2, event_rate=p, sigma2_v=s2,
                    replicates=replicates, seed=seed))
            except ValueError as exc:
                raise UsageError(f"--cell '{text}': {exc}") from None
    else:
        cells = simulate.full_grid(setting=setting, replicates=replicates,
                                   seed=seed)

    _check_out(args.out)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    n_summaries = 0
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(outdir / name, "w", newline=""))
                 for name in ("summary.csv", "summary_detailed.csv",
                              "replicates.csv")]
        summary_csv, detailed_csv, replicates_csv = map(csv.writer, files)
        summary_csv.writerow(["p", "n1", "n2", "sigma2v", "model", "bias_pct",
                              "sd", "se", "coverage"])
        detailed_csv.writerow(["p", "n1", "n2", "sigma2v", "model", "bias_pct",
                               "bias_pct_signed", "sd", "se", "coverage",
                               "n_converged", "n_replicates", "flagged"])
        replicates_csv.writerow(["cell", "p", "n1", "n2", "sigma2v", "replicate",
                                 "model", "converged", "beta1_hat", "se1",
                                 "ci1_covers", "beta3_hat", "se3", "ci3_covers"])
        for ci, cfg in enumerate(cells):
            # What is written reaches the disk before this cell runs: a
            # forked worker inherits no unwritten rows, and the finished
            # cells stay on disk however the run ends.
            for fh in files:
                fh.flush()
            summaries, results = simulate.run_cell(cfg, cell_index=ci,
                                                   threads=args.threads)
            cell = _cell_fields(cfg)
            for s in summaries:
                bias, sd, se, coverage = (
                    f"{s.bias_pct:.4f}", f"{s.sd:.4f}", f"{s.se_mean:.4f}",
                    f"{s.coverage_pct:.2f}")
                summary_csv.writerow([*cell, s.model, bias, sd, se, coverage])
                detailed_csv.writerow([
                    *cell, s.model, bias, f"{s.bias_pct_signed:+.4f}", sd, se,
                    coverage, s.n_converged, s.n_replicates, int(s.flagged)])
            for r in results:
                replicates_csv.writerow([
                    ci, *cell, r.replicate, r.model, int(r.converged),
                    f"{r.beta1_hat:.8g}", f"{r.se1:.8g}", int(r.ci1_covers),
                    f"{r.beta3_hat:.8g}", f"{r.se3:.8g}", int(r.ci3_covers)])
            n_summaries += len(summaries)
    _write_provenance(outdir, "simulate", {
        "setting": setting, "replicates": replicates, "seed": seed,
        "threads": args.threads,
        "cells": [",".join(_cell_fields(c)) for c in cells],
    })
    print(f"wrote {n_summaries} summary rows to {outdir / 'summary.csv'}")
    return 0


def cmd_select(args):
    if args.specs == []:
        raise UsageError("--specs needs at least one candidate")
    file_cfg = _load_config(args.config, "select", ("seed", "folds"))
    seed = _int_setting(args.seed, file_cfg, "seed", 0, minimum=0)
    folds = _int_setting(args.folds, file_cfg, "folds", 5)
    _check_out(args.out)
    validation = _read_validation(args.validation_csv)
    n_subjects = validation.n_subjects
    if not 2 <= folds <= n_subjects:
        raise UsageError(f"--folds must be between 2 and the {n_subjects} "
                         f"validation subjects, got {folds}")
    if args.specs is not None:
        specs = []
        for token in args.specs:
            spec = parse_spec_token(token, validation.radii)
            if spec in specs:
                raise UsageError(f"--specs gives {spec.label()} twice")
            specs.append(spec)
    else:
        specs = model_select.candidate_grid(p_z=validation.z.shape[1])
    rng = np.random.default_rng(seed)
    metrics = model_select.cv_evaluate(validation, specs, k=folds, rng=rng,
                                       working=args.working)
    if all(m.failed for m in metrics):
        # Nothing fitted: exit with the commonest failure's code, with the
        # message of its earliest candidate (which also wins a tie).
        exits = [_exit_of(m.error) for m in metrics]
        raise metrics[exits.index(max(exits, key=exits.count))].error
    rows = []
    for m in metrics:
        rows.append([
            "yes" if m.spec.include_interactions else "no",
            m.spec.variant, m.spec.label(),
            f"{m.mae_mean:.4f}", f"{m.mae_q25:.4f}", f"{m.mae_q50:.4f}",
            f"{m.mae_q75:.4f}", f"{m.mse_mean:.4f}", f"{m.qic:.2f}",
        ] + ([m.failure_reason] if m.failed else [""]))
    header = ["interactions", "model", "type", "mae", "mae25", "mae50",
              "mae75", "mse", "qic", "note"]
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "selection.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        best = next((m for m in metrics if not m.failed), None)
        if best is not None:
            (outdir / "best_transform.json").write_text(
                transforms.transform_to_json(best.spec, best.transform))
        _write_provenance(outdir, "select", {
            "seed": seed, "folds": folds, "working": args.working,
            "validation_csv": str(args.validation_csv),
            "specs": [m.spec.label() for m in metrics],
        })
        print(f"wrote {len(rows)} ranked rows to {outdir / 'selection.csv'}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def cmd_fit(args):
    file_cfg = _load_config(args.config, "fit", ("spec",))
    spec_token = args.spec or file_cfg.get("spec", "pca3+int")
    _check_out(args.out)
    main = data_model.read_main_csv(args.main_csv)
    validation = _read_validation(args.validation_csv)
    w0 = _hr_at(args, main.confounder_names)
    # Parsed against the radii that the measurement error model is fitted on.
    spec = parse_spec_token(spec_token, validation.radii)
    # The spec parsed, so a fit that rejects the data names the data's file.
    memfit = data_model.in_file(args.validation_csv, mem.fit_gee, validation, spec,
                                working=args.working)
    cox = data_model.in_file(args.main_csv, inference.fit_calibrated_cox, main, memfit,
                             check_derivatives=args.check_derivatives)
    hr, hr_lo, hr_hi = inference.hazard_ratio(cox, args.hr_increment, w0)

    lines = [f"calibrated Cox fit ({spec.label()} measurement error model, "
             f"{memfit.n_subjects} validation subjects)"]
    lines.append(f"{'term':<24}{'estimate':>12}{'se':>12}{'ci_lo':>12}{'ci_hi':>12}")
    for k, name in enumerate(cox.term_names):
        lines.append(f"{name:<24}{cox.beta[k]:>12.5f}{cox.se[k]:>12.5f}"
                     f"{cox.ci_lower[k]:>12.5f}{cox.ci_upper[k]:>12.5f}")
    lines.append(f"HR per {args.hr_increment:g} exposure increment at "
                 f"w0={w0}: {hr:.4f} [{hr_lo:.4f}, {hr_hi:.4f}]")
    text = "\n".join(lines)
    print(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "fit.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term", "estimate", "se", "ci_lo", "ci_hi"])
            for k, name in enumerate(cox.term_names):
                writer.writerow([name, f"{cox.beta[k]:.8g}", f"{cox.se[k]:.8g}",
                                 f"{cox.ci_lower[k]:.8g}", f"{cox.ci_upper[k]:.8g}"])
        (outdir / "fit.txt").write_text(text + "\n")
        (outdir / "memfit_transform.json").write_text(
            transforms.transform_to_json(spec, memfit.transform))
        _write_provenance(outdir, "fit", {
            "spec": spec.label(), "working": args.working,
            "main_csv": str(args.main_csv),
            "validation_csv": str(args.validation_csv),
            "hr_increment": args.hr_increment, "at": w0,
        })
    return 0


def cmd_report(args):
    indir = Path(args.results_dir)
    summary = indir / "summary.csv"
    if not summary.exists():
        raise DataError(f"no summary.csv in {indir}; expected files: summary.csv "
                        "(from `calibcox simulate`)")
    with data_model._open_text(summary) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{summary}: empty file")
    header, body = rows[0], rows[1:]
    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(f"{summary}: row {line} has {len(row)} "
                            f"fields where the header has {len(header)}")
    widths = [max(len(str(r[k])) for r in rows) for k in range(len(header))]
    def fmt(row):
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
    print(fmt(header))
    print("  ".join("-" * w for w in widths))
    for row in body:
        print(fmt(row))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="calibcox",
        description="Measurement-error-corrected Cox modeling with external validation data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo replicate grid")
    sim.add_argument("--config")
    sim.add_argument("--setting", type=int, choices=(1, 2))
    sim.add_argument("--cell", action="append",
                     help="run one cell: p,n1,n2,sigma2v (repeatable); "
                          "without it, the full 24-cell grid")
    sim.add_argument("--replicates", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--threads", type=int, default=1,
                     help="worker processes for the replicates (forked; "
                          "default 1 runs them in this process); set "
                          "OPENBLAS_NUM_THREADS=1 to keep BLAS from "
                          "oversubscribing the cores")
    sim.add_argument("--out", default="results")
    sim.set_defaults(func=cmd_simulate)

    sel = sub.add_parser("select", help="rank measurement error models by CV")
    sel.add_argument("validation_csv")
    sel.add_argument("--config")
    sel.add_argument("--specs", nargs="*",
                     help="restrict to tokens like standard only150 pca3+int rcs5")
    sel.add_argument("--seed", type=int)
    sel.add_argument("--folds", type=int)
    sel.add_argument("--working", choices=("independence", "exchangeable"),
                     default="exchangeable")
    sel.add_argument("--out")
    sel.set_defaults(func=cmd_select)

    fit = sub.add_parser("fit", help="fit a calibrated Cox model on user data")
    fit.add_argument("main_csv")
    fit.add_argument("--validation", dest="validation_csv", required=True)
    fit.add_argument("--config")
    fit.add_argument("--spec", help="measurement error model token, e.g. pca3+int")
    fit.add_argument("--working", choices=("independence", "exchangeable"),
                     default="exchangeable")
    fit.add_argument("--hr-increment", type=float, default=0.1)
    fit.add_argument("--at", help="comma-separated confounder values for the HR")
    fit.add_argument("--check-derivatives", action="store_true")
    fit.add_argument("--out")
    fit.set_defaults(func=cmd_fit)

    rep = sub.add_parser("report", help="render summary CSVs as text tables")
    rep.add_argument("results_dir")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Output still in the buffer meets a closed pipe here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (``calibcox report DIR | head``),
        # which is no fault in the data.  stdout now points at the null
        # device, so that the interpreter's final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except tuple(_EXITS) as exc:
        code, prefix = _exit_of(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except RuntimeError as exc:
        # A dead worker process breaks the pool (BrokenProcessPool).  The
        # executor module is imported here, where it is already loaded if a
        # pool ran, because importing it up front slows every command.
        from concurrent.futures import BrokenExecutor
        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
