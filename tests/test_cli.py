"""CLI surface: argument handling, outputs, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calibcox import (cli, constants, data_model, errors, inference, linalg, mem,
                      model_select, simulate, transforms)
from calibcox.cli import main

from conftest import ragged_validation


@pytest.fixture(scope="module")
def study_files(tmp_path_factory):
    """Small simulated main + validation CSVs shared across CLI tests."""
    root = tmp_path_factory.mktemp("study")
    cfg = simulate.setting1(n1=1200, n2=80, event_rate=0.10, sigma2_v=0.01, seed=19)
    rng = np.random.default_rng(19)
    cmax = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
    val = simulate.gen_validation(cfg, rng)
    main_ds, _ = simulate.gen_main(cfg, rng, cmax)
    main_csv = root / "main.csv"
    val_csv = root / "validation.csv"
    data_model.write_main_csv(main_csv, main_ds)
    data_model.write_validation_csv(val_csv, val)
    return main_csv, val_csv


def _rewritten(study_files, root, change):
    """The study files, each read, given the fields ``change(ds)`` returns
    and written to ``root``."""
    paths = []
    for path, read, write in (
            (study_files[0], data_model.read_main_csv, data_model.write_main_csv),
            (study_files[1], data_model.read_validation_csv,
             data_model.write_validation_csv)):
        ds = read(path)
        paths.append(root / path.name)
        write(paths[-1], dataclasses.replace(ds, **change(ds)))
    return tuple(paths)


@pytest.fixture(scope="module")
def two_confounder_files(study_files, tmp_path_factory):
    """The study files with a second confounder column, w_2."""
    rng = np.random.default_rng(23)
    return _rewritten(study_files, tmp_path_factory.mktemp("two_confounders"),
                      lambda ds: dict(
                          w=np.hstack([ds.w, rng.normal(1.0, 1.0, size=(len(ds.w), 1))]),
                          confounder_names=("w_1", "w_2")))


@pytest.fixture(scope="module")
def five_radius_files(study_files, tmp_path_factory):
    """The study files with their first five radii only."""
    return _rewritten(study_files, tmp_path_factory.mktemp("five_radii"),
                      lambda ds: dict(z=ds.z[:, :5], radii=ds.radii[:5]))


SIMULATE_TABLES = ("summary.csv", "summary_detailed.csv", "replicates.csv")


class TestParseSpecToken:
    RADII = list(data_model.DEFAULT_RADII)

    def test_tokens(self):
        s = cli.parse_spec_token("pca3+int", self.RADII)
        assert s.variant == "pca" and s.n_components == 3 and s.include_interactions
        s = cli.parse_spec_token("rcs5", self.RADII)
        assert s.variant == "rcs" and s.n_knots == 5
        s = cli.parse_spec_token("only150", self.RADII)
        assert s.radius_subset == (1,)
        assert cli.parse_spec_token("standard", self.RADII).variant == "standard"

    def test_bad_tokens(self):
        with pytest.raises(cli.UsageError):
            cli.parse_spec_token("ridge", self.RADII)
        with pytest.raises(cli.UsageError):
            cli.parse_spec_token("only999", self.RADII)

    @pytest.mark.parametrize("spec", model_select.candidate_grid(p_z=9),
                             ids=lambda spec: spec.label())
    def test_select_labels_parse_back(self, spec):
        # selection.csv labels a single-radius model standard[j], which fit
        # takes as only<r_j>, with the z_ columns counted from 0.
        if spec.radius_subset is None:
            token = spec.label()
        else:
            (j,) = spec.radius_subset
            token = f"only{self.RADII[j]:g}"
        assert cli.parse_spec_token(token, self.RADII) == spec


class TestSimulateCommand:
    def test_single_cell_outputs(self, tmp_path):
        out = tmp_path / "res"
        code = main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "3",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "summary_detailed.csv").exists()
        assert (out / "replicates.csv").exists()
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["command"] == "simulate"
        assert prov["config"]["seed"] == 5
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "p,n1,n2,sigma2v,model,bias_pct,sd,se,coverage"
        assert len(lines) == 3  # header + M1 + M2

    def test_thread_invariant_bytes(self, tmp_path):
        # Two cells, so the second cell's workers fork from a process that
        # has already written the first cell's rows.
        outs = []
        for threads in ("1", "2", "3", "4"):
            out = tmp_path / f"t{threads}"
            code = main(["simulate", "--cell", "0.1,600,60,0.01",
                         "--cell", "0.1,600,60,0.05", "--replicates", "4",
                         "--seed", "9", "--threads", threads, "--out", str(out)])
            assert code == 0
            outs.append([(out / name).read_bytes() for name in SIMULATE_TABLES])
        assert outs[1:] == outs[:1] * 3

    def test_workers_need_fork(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        out = tmp_path / "out"
        argv = ["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "2",
                "--seed", "1", "--out", str(out)]
        assert main(argv + ["--threads", "2"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "fork" in err
        assert not out.exists()
        assert main(argv + ["--threads", "1"]) == 0

    def test_dead_worker_exits_5(self, tmp_path, capsys, monkeypatch):
        # A worker dies in the second of two cells.  The tables keep the
        # first cell's rows, as a run of that cell alone writes them, and
        # no provenance.json marks the run unfinished.
        argv = ["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "2",
                "--seed", "1", "--threads", "2"]
        first = tmp_path / "first"
        assert main(argv + ["--out", str(first)]) == 0
        capsys.readouterr()
        # The injected fit ends a forked worker of the second cell; the
        # cells begun so far are counted in this process, and a worker
        # forks with the count.
        parent = os.getpid()
        run_cell, fit_gee = simulate.run_cell, mem.fit_gee
        cells_begun = []

        def counted_run_cell(*args, **kwargs):
            cells_begun.append(None)
            return run_cell(*args, **kwargs)

        def dies_in_second_cell(*args, **kwargs):
            if os.getpid() != parent and len(cells_begun) == 2:
                os._exit(1)
            return fit_gee(*args, **kwargs)

        monkeypatch.setattr(simulate, "run_cell", counted_run_cell)
        monkeypatch.setattr(mem, "fit_gee", dies_in_second_cell)
        out = tmp_path / "out"
        code = main(argv + ["--cell", "0.1,600,60,0.05", "--out", str(out)])
        assert code == cli.EXIT_WORKER
        assert len(cells_begun) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died") and err.count("\n") == 1
        for name in SIMULATE_TABLES:
            assert (out / name).read_bytes() == (first / name).read_bytes(), name
        assert not (out / "provenance.json").exists()

    def test_zero_replicates_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "0",
                     "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE

    def test_missing_seed_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "2",
                     "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE

    def test_bad_cell_spec(self, tmp_path):
        code = main(["simulate", "--cell", "0.1,600", "--replicates", "2",
                     "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nseed = 3\nreplicates = 2\n")
        out = tmp_path / "res"
        code = main(["simulate", "--config", str(cfg),
                     "--cell", "0.1,600,60,0.01", "--out", str(out)])
        assert code == 0
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["config"]["seed"] == 3
        assert prov["config"]["replicates"] == 2


class TestSelectCommand:
    def test_restricted_specs(self, study_files, tmp_path, capsys):
        _, val_csv = study_files
        code = main(["select", str(val_csv), "--specs", "pca3", "--seed", "1",
                     "--out", str(tmp_path / "sel")])
        assert code == 0
        lines = (tmp_path / "sel" / "selection.csv").read_text().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "sel" / "best_transform.json").exists()

    def test_full_grid_cardinality(self, study_files, tmp_path):
        _, val_csv = study_files
        out = tmp_path / "grid"
        code = main(["select", str(val_csv), "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "selection.csv").read_text().splitlines()
        assert len(lines) - 1 >= 17

    def test_best_transform_is_the_winners_full_data_fit(self, study_files,
                                                         tmp_path):
        # The file holds what a fit of the winner on the full validation
        # data writes, byte for byte.
        _, val_csv = study_files
        out = tmp_path / "sel"
        assert main(["select", str(val_csv), "--specs", "pca2", "pca3", "pca3+int",
                     "--seed", "1", "--out", str(out)]) == 0
        winner = (out / "selection.csv").read_text().splitlines()[1].split(",")[2]
        validation = data_model.read_validation_csv(val_csv)
        spec = cli.parse_spec_token(winner, validation.radii)
        refit = mem.fit_gee(validation, spec)
        assert spec.variant == "pca"
        assert ((out / "best_transform.json").read_text()
                == transforms.transform_to_json(spec, refit.transform))

    @pytest.mark.parametrize("specs, label", [
        (["pca3", "pca3"], "pca3"),
        (["standard", "pca3+int", " pca3+int"], "pca3+int"),
        (["only150", "pca2", "only150.0"], "standard[1]"),
    ])
    def test_repeated_spec_usage_error(self, study_files, tmp_path, capsys,
                                       monkeypatch, specs, label):
        """A candidate given twice is refused before any fit."""
        def no_fit(*args, **kwargs):
            raise AssertionError("a candidate was fitted")

        monkeypatch.setattr(model_select, "cv_evaluate", no_fit)
        _, val_csv = study_files
        out = tmp_path / "sel"
        assert main(["select", str(val_csv), "--specs", *specs,
                     "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: --specs gives {label} twice\n")
        assert not out.exists()

    def test_missing_file_data_error(self, tmp_path, capsys):
        code = main(["select", str(tmp_path / "nope.csv"), "--seed", "1"])
        assert code == cli.EXIT_DATA

    def test_empty_specs_usage_error(self, tmp_path, capsys):
        """``--specs`` with no candidate is refused before the file is read."""
        code = main(["select", str(tmp_path / "nope.csv"), "--specs"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --specs needs at least one candidate\n")

    def test_stdout_is_csv(self, study_files, tmp_path, capsys):
        """Without --out the rows go to stdout as CSV: a note holding a
        comma is one quoted field, and plain rows keep their bytes."""
        # Six subjects of one row each, in two folds: a training set of
        # three rows fits only150's three columns, but not pca3's four axes.
        ds = data_model.read_validation_csv(study_files[1])
        val6 = tmp_path / "val6.csv"
        data_model.write_validation_csv(val6, ds.subset(
            np.unique(ds.subject_codes, return_index=True)[1][:6]))
        assert main(["select", str(val6), "--specs", "only150", "pca3",
                     "--folds", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert len(header) == 10 and header[-1] == "note"
        assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
        assert [row[-1] for row in rows] == ["", "need at least 4 rows, got 3"]
        lines = out.splitlines()
        assert lines[0] == ",".join(header) and lines[1] == ",".join(rows[0])


class TestFitCommand:
    def test_fit_outputs(self, study_files, tmp_path, capsys):
        main_csv, val_csv = study_files
        out = tmp_path / "fit"
        code = main(["fit", str(main_csv), "--validation", str(val_csv),
                     "--spec", "pca3+int", "--check-derivatives",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "fit.csv").read_text().splitlines()
        assert lines[0] == "term,estimate,se,ci_lo,ci_hi"
        terms = [ln.split(",")[0] for ln in lines[1:]]
        assert terms == ["exposure", "w_1", "exposure:w_1"]
        assert (out / "fit.txt").exists()
        assert (out / "memfit_transform.json").exists()
        captured = capsys.readouterr()
        assert "HR per 0.1 exposure increment" in captured.out

    def test_radii_mismatch_is_data_error(self, study_files, tmp_path, capsys):
        # As many radii as the main file, at twice its distances, so that
        # only the radii disagree.
        main_csv, val_csv = study_files
        val = data_model.read_validation_csv(val_csv)
        bad = tmp_path / "bad_val.csv"
        data_model.write_validation_csv(bad, dataclasses.replace(val, radii=2 * val.radii))
        code = main(["fit", str(main_csv), "--validation", str(bad)])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: {main_csv}: main and validation files disagree on "
            "buffer radii: [90.0, 150.0,")

    @pytest.mark.parametrize("spec, message", [
        ("only{last}", "radius {last} not in data radii"),
        ("pca3", "'pca3' asks for more components than the 2 radii"),
    ])
    def test_spec_beyond_validation_radii_is_usage_error(self, spec, message,
                                                         study_files, tmp_path, capsys):
        # The validation file keeps the main file's first two radii, so a
        # spec that the main radii allow names a radius, or asks for a
        # component, that the validation data lack.
        main_csv, val_csv = study_files
        val = data_model.read_validation_csv(val_csv)
        last = f"{val.radii[-1]:g}"
        bad = tmp_path / "bad_val.csv"
        data_model.write_validation_csv(
            bad, dataclasses.replace(val, radii=val.radii[:2], z=val.z[:, :2]))
        code = main(["fit", str(main_csv), "--validation", str(bad),
                     "--spec", spec.format(last=last), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {message.format(last=last)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda ds: {"event": np.zeros_like(ds.event)}, "no events"),
        (lambda ds: {"w": np.hstack([ds.w, ds.w]), "confounder_names": ("w_1", "w_2")},
         "disagree on confounder columns"),
        (lambda ds: {"w": np.ones_like(ds.w)}, "confounder column 'w_1' is constant"),
    ], ids=["no events", "confounders w_1,w_2 against w_1", "constant w_1"])
    def test_main_file_is_data_error(self, change, message, study_files, tmp_path,
                                     capsys):
        main_csv, val_csv = study_files
        ds = data_model.read_main_csv(main_csv)
        bad = tmp_path / "bad_main.csv"
        data_model.write_main_csv(bad, dataclasses.replace(ds, **change(ds)))
        code = main(["fit", str(bad), "--validation", str(val_csv),
                     "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_too_few_validation_subjects_is_numerical(self, study_files,
                                                      tmp_path, capsys):
        # Five subjects cannot give a full-rank V_alpha for pca3+int's eight
        # coefficients.
        main_csv, val_csv = study_files
        lines = val_csv.read_text().splitlines()
        keep = {f"v{i}" for i in range(1, 6)}
        few = tmp_path / "few.csv"
        few.write_text("\n".join([lines[0]] + [ln for ln in lines[1:]
                                               if ln.split(",")[0] in keep]) + "\n")
        code = main(["fit", str(main_csv), "--validation", str(few),
                     "--spec", "pca3+int", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 5 validation subjects for 8 "
                              "calibration coefficients")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("w_2", [lambda w_1: w_1, lambda w_1: 2.0 * w_1 + 3.0],
                             ids=["w_2 = w_1", "w_2 = 2 w_1 + 3"])
    def test_collinear_confounders_are_data_error(self, w_2, two_confounder_files,
                                                  tmp_path, capsys):
        main2, val2 = two_confounder_files
        ds = data_model.read_main_csv(main2)
        w_1 = ds.w[:, 0]
        bad = tmp_path / "collinear.csv"
        data_model.write_main_csv(
            bad, dataclasses.replace(ds, w=np.column_stack([w_1, w_2(w_1)])))
        code = main(["fit", str(bad), "--validation", str(val2),
                     "--spec", "standard", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {bad}: confounder column 'w_2' is collinear with the "
            "preceding ones\n")
        assert not (tmp_path / "out").exists()

    def test_derivative_check_catches_a_wrong_derivative(self, study_files,
                                                         tmp_path, capsys,
                                                         monkeypatch):
        # One entry of U_alpha off by a relative 1e-3, ten times FD_TOL.
        right = inference.u_alpha_hat

        def wrong(*args, **kwargs):
            u_alpha = right(*args, **kwargs)
            u_alpha.flat[np.argmax(np.abs(u_alpha))] *= 1.0 + 1e-3
            return u_alpha

        monkeypatch.setattr(inference, "u_alpha_hat", wrong)
        main_csv, val_csv = study_files
        main_ds = data_model.read_main_csv(main_csv)
        spec = cli.parse_spec_token("pca3+int", main_ds.radii)
        memfit = mem.fit_gee(data_model.read_validation_csv(val_csv), spec)
        with pytest.raises(errors.NumericalError,
                           match="disagrees with finite differences"):
            inference.fit_calibrated_cox(main_ds, memfit, check_derivatives=True)
        out = tmp_path / "fit"
        code = main(["fit", str(main_csv), "--validation", str(val_csv),
                     "--spec", "pca3+int", "--check-derivatives",
                     "--out", str(out)])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: analytic alpha-derivative "
                              "disagrees with finite differences")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_hr_at_modifier(self, study_files, tmp_path, capsys):
        main_csv, val_csv = study_files
        code = main(["fit", str(main_csv), "--validation", str(val_csv),
                     "--spec", "standard", "--at", "1.0"])
        assert code == 0
        assert "w0=[1.0]" in capsys.readouterr().out


FIT = ["fit", "{main}", "--validation", "{val}"]
FIT2 = ["fit", "{main2}", "--validation", "{val2}"]  # two confounders
FIT5 = ["fit", "{main5}", "--validation", "{val5}"]  # five radii


class TestExitCodes:
    """Bad arguments exit 2 with a usage error line, and data a fit cannot
    use exits 3 with a data error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        FIT + ["--spec", "pcax"],
        FIT + ["--spec", "rcs9"],
        FIT + ["--spec", "pca99"],
        FIT + ["--spec", "standard", "--at", "abc"],
        FIT + ["--spec", "standard", "--at", "1.0,2.0,3.0"],
        FIT + ["--spec", "standard", "--at", "nan"],
        FIT + ["--spec", "standard", "--hr-increment", "nan"],
        FIT2 + ["--spec", "standard", "--at", "1.0"],
        # More components or knots than the five radii.
        FIT5 + ["--spec", "pca6"],
        FIT5 + ["--spec", "rcs6"],
        ["select", "{val5}", "--specs", "pca6", "standard"],
        ["select", "{val5}", "--specs", "rcs6", "standard"],
        ["select", "{val}", "--specs", "pcax"],
        ["select", "{val}", "--specs", "--out", "{out}"],
        ["select", "{val}", "--folds", "0"],
        ["select", "{val}", "--folds", "1"],
        ["select", "{val}", "--folds", "81"],  # the study has 80 subjects
        ["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "1",
         "--seed", "1", "--threads", "0", "--out", "{out}"],
        ["simulate", "--cell", "abc,600,60,0.01", "--replicates", "1",
         "--seed", "1", "--out", "{out}"],
        ["simulate", "--cell", "1.5,600,60,0.01", "--replicates", "1",
         "--seed", "1", "--out", "{out}"],
        ["simulate", "--cell", "0.035,500,30,-1", "--replicates", "1",
         "--seed", "1", "--out", "{out}"],
        *(["simulate", "--cell", f"0.1,600,60,{s2}", "--replicates", "1",
           "--seed", "1", "--out", "{out}"] for s2 in ("nan", "inf", "-inf")),
        ["simulate", "--cell", "0.1,0,60,0.01", "--replicates", "1",
         "--seed", "1", "--out", "{out}"],
        # An argument starting with "[" is the text of a config file.
        ["simulate", "--config", "[simulate]\nreplicates = abc",
         "--cell", "0.1,600,60,0.01", "--seed", "1", "--out", "{out}"],
        ["simulate", "--config", "[simulate]\nsetting = 3",
         "--cell", "0.1,600,60,0.01", "--replicates", "1", "--seed", "1",
         "--out", "{out}"],
        ["select", "{val}", "--config", "[select]\nfolds = x", "--out", "{out}"],
        # NumPy's seeding takes no negative seed.
        ["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "2",
         "--seed", "-1", "--out", "{out}"],
        ["simulate", "--config", "[simulate]\nseed = -3",
         "--cell", "0.1,600,60,0.01", "--replicates", "1", "--out", "{out}"],
        ["select", "{val}", "--seed", "-1", "--out", "{out}"],
        ["select", "{val}", "--config", "[select]\nseed = -3", "--out", "{out}"],
    ], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_usage_error(self, argv, study_files, two_confounder_files,
                         five_radius_files, tmp_path, capsys):
        main_csv, val_csv = study_files
        main2, val2 = two_confounder_files
        main5, val5 = five_radius_files
        argv = [a.format(main=main_csv, val=val_csv, main2=main2, val2=val2,
                         main5=main5, val5=val5, out=tmp_path / "out")
                for a in argv]
        for i, a in enumerate(argv):
            if a.startswith("["):
                ini = tmp_path / "run.ini"
                ini.write_text(a + "\n")
                argv[i] = str(ini)
        assert main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_hr_arguments_checked_before_any_fit(self, study_files, tmp_path,
                                                  capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the measurement error model was fitted")

        monkeypatch.setattr(mem, "fit_gee", no_fit)
        main_csv, val_csv = study_files
        code = main(["fit", str(main_csv), "--validation", str(val_csv),
                     "--at", "1.0,2.0", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --at needs one finite number per confounder (w_1), "
            "got '1.0,2.0'\n")

    @pytest.mark.parametrize("text", ["spec = standard",
                                      "[fit]\nspec = standard\n[fit]"],
                             ids=["no section header", "duplicated [fit]"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "1",
         "--seed", "1", "--out", "{out}"],
        ["select", "{val}", "--out", "{out}"],
        FIT + ["--out", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_malformed_config_usage_error(self, command, text, study_files,
                                          tmp_path, capsys):
        main_csv, val_csv = study_files
        ini = tmp_path / "run.ini"
        ini.write_text(text + "\n")
        argv = [a.format(main=main_csv, val=val_csv, out=tmp_path / "out")
                for a in command] + ["--config", str(ini)]
        assert main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {ini}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, key", [
        (["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "1",
          "--seed", "1", "--out", "{out}"], "[simulate]\nthreads = 4", "threads"),
        (["select", "{val}", "--out", "{out}"],
         "[select]\nseed = 1\nworking = independence", "working"),
        (["select", "{val}"], "[select]\nspecs = pca3", "specs"),
        (FIT + ["--spec", "standard", "--out", "{out}"],
         "[fit]\nworking = independence", "working"),
        (FIT + ["--spec", "standard"], "[fit]\nhr_increment = 1", "hr_increment"),
    ], ids=["simulate-threads", "select-working", "select-specs", "fit-working",
            "fit-hr_increment"])
    def test_unread_config_key_usage_error(self, command, text, key, study_files,
                                           tmp_path, capsys):
        # A key the command does not read would be dropped without notice:
        # the fit would run exchangeable, or simulate on one thread.
        main_csv, val_csv = study_files
        ini = tmp_path / "run.ini"
        ini.write_text(text + "\n")
        argv = [a.format(main=main_csv, val=val_csv, out=tmp_path / "out")
                for a in command] + ["--config", str(ini)]
        assert main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: {ini}: ") and err.count("\n") == 1
        assert f" {key};" in err
        assert not (tmp_path / "out").exists()

    def test_config_default_section_keys_exempt(self, tmp_path):
        # configparser copies [DEFAULT] into every section, so a key there
        # may be meant for another command.
        ini = tmp_path / "run.ini"
        ini.write_text("[DEFAULT]\nspec = standard\n[simulate]\nseed = 3\n")
        code = main(["simulate", "--config", str(ini), "--cell", "0.1,600,60,0.01",
                     "--replicates", "1", "--out", str(tmp_path / "out")])
        assert code == 0

    def test_out_naming_a_file_is_data_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "1",
                     "--seed", "1", "--out", str(taken)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(taken) in err

    OUT_COMMANDS = [
        FIT + ["--spec", "pca3+int", "--check-derivatives"],
        ["select", "{val}", "--seed", "1"],
        ["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "1", "--seed", "1"],
    ]

    @staticmethod
    def forbid_work(monkeypatch):
        """Make reading a study file, ranking candidates or running a cell
        fail the test."""
        def no_work(*args, **kwargs):
            raise AssertionError("the work began before --out was checked")

        for name in ("read_main_csv", "read_validation_csv"):
            monkeypatch.setattr(data_model, name, no_work)
        monkeypatch.setattr(model_select, "cv_evaluate", no_work)
        monkeypatch.setattr(simulate, "run_cell", no_work)

    @pytest.mark.parametrize("command", OUT_COMMANDS, ids=lambda argv: argv[0])
    def test_out_naming_a_file_is_rejected_before_any_work(
            self, command, study_files, tmp_path, capsys, monkeypatch):
        main_csv, val_csv = study_files
        taken = tmp_path / "taken"
        taken.write_text("")
        self.forbid_work(monkeypatch)
        argv = [a.format(main=main_csv, val=val_csv) for a in command]
        # --out is the file itself, or a path under it.
        for out, where in [(taken, ""), (taken / "sub", f"{taken} ")]:
            assert main(argv + ["--out", str(out)]) == cli.EXIT_DATA
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"data error: --out {out}: {where}exists "
                                    "and is not a directory\n")
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command", OUT_COMMANDS, ids=lambda argv: argv[0])
    def test_empty_out_is_rejected_before_any_work(
            self, command, study_files, tmp_path, capsys, monkeypatch):
        # An empty --out names no directory, so nothing may be written to
        # the working directory either.
        main_csv, val_csv = study_files
        self.forbid_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        argv = [a.format(main=main_csv, val=val_csv) for a in command]
        assert main(argv + ["--out", ""]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: --out needs a directory name, "
                                "got an empty one\n")
        assert not any(tmp_path.iterdir())

    def test_too_few_validation_rows_is_data_error(self, study_files, tmp_path,
                                                   capsys):
        # pca3 needs four rows to fit its three axes.
        main_csv, val_csv = study_files
        few = tmp_path / "three_rows.csv"
        few.write_text("\n".join(val_csv.read_text().splitlines()[:4]) + "\n")
        code = main(["fit", str(main_csv), "--validation", str(few),
                     "--spec", "pca3+int", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {few}: need at least 4 rows, got 3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        FIT + ["--spec", "standard"], FIT + ["--spec", "pca3+int"],
        ["select", "{val}"],
    ], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_header_only_validation_is_data_error(self, command, study_files,
                                                  tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the measurement error model was fitted")

        monkeypatch.setattr(mem, "fit_gee", no_fit)
        monkeypatch.setattr(model_select, "cv_evaluate", no_fit)
        main_csv, val_csv = study_files
        empty = tmp_path / "header_only.csv"
        empty.write_text(val_csv.read_text().splitlines()[0] + "\n")
        argv = [a.format(main=main_csv, val=empty) for a in command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {empty}: no data rows\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("which, column", [
        ("main", "z_90"), ("main", "w_1"), ("validation", "x"),
        ("validation", "z_90")])
    def test_non_finite_cell_is_data_error(self, which, column, value, study_files,
                                           tmp_path, capsys):
        main_csv, val_csv = study_files
        files = {"main": main_csv, "validation": val_csv}
        rows = _rows(files[which])
        rows[5][rows[0].index(column)] = value
        bad = files[which] = tmp_path / f"bad_{which}.csv"
        _write_rows(bad, rows)
        calls = [["fit", str(files["main"]), "--validation", str(files["validation"])]]
        if which == "validation":
            calls.append(["select", str(bad), "--seed", "1"])
        for argv in calls:
            assert main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_DATA
            captured = capsys.readouterr()
            assert captured.err == (f"data error: {bad}: row 6, column '{column}': "
                                    "must be finite\n")
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which, old, new", [
        ("validation", "z_150,z_270", "z_270,z_150"), ("main", "z_150", "z_90")])
    def test_radii_out_of_order_name_their_file(self, which, old, new, study_files,
                                                tmp_path, capsys):
        # A header that swaps two radii, or repeats one, holds its file's
        # radii out of order; the dataset's own check finds it.
        main_csv, val_csv = study_files
        files = {"main": main_csv, "validation": val_csv}
        bad = tmp_path / f"bad_{which}.csv"
        bad.write_text(files[which].read_text().replace(old, new, 1))
        files[which] = bad
        calls = [["fit", str(files["main"]), "--validation", str(files["validation"])]]
        if which == "validation":
            calls.append(["select", str(bad), "--seed", "1"])
        for argv in calls:
            assert main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_DATA
            captured = capsys.readouterr()
            assert captured.err == (f"data error: {bad}: buffer radii must be "
                                    "strictly increasing\n")
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_select_with_nothing_fitted_fails(self, study_files, tmp_path, capsys):
        # A constant confounder makes every candidate's design rank deficient.
        _, val_csv = study_files
        ds = data_model.read_validation_csv(val_csv)
        bad = tmp_path / "constant_w.csv"
        data_model.write_validation_csv(bad,
                                        dataclasses.replace(ds, w=np.ones_like(ds.w)))
        out = tmp_path / "sel"
        assert main(["select", str(bad), "--seed", "1", "--out", str(out)]) == \
            cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1 and "rank deficient" in captured.err
        assert captured.out == ""
        assert not out.exists()

    # A data failure names the validation file, as fit's does; {val} is its path.
    @pytest.mark.parametrize("raised, code, message", [
        ([errors.NumericalError("a"), errors.DataError("b"), errors.DataError("c")],
         cli.EXIT_DATA, "data error: {val}: b"),
        ([errors.DataError("a"), errors.NumericalError("b"), errors.NumericalError("c"),
          errors.DataError("d")], cli.EXIT_DATA, "data error: {val}: a"),
        ([errors.UsageError("a")], cli.EXIT_USAGE, "usage error: a"),
        # Counted by base, not by class: two of the three are numerical.
        ([errors.DataError("a"), linalg.DecompositionError("b"), errors.NumericalError("c")],
         cli.EXIT_NUMERIC, "numerical failure: b"),
    ], ids=["commonest", "tie goes to the earliest", "one", "counted by base"])
    def test_select_with_nothing_fitted_exits_as_its_commonest_failure(
            self, raised, code, message, study_files, monkeypatch, capsys):
        def all_fail(validation, specs, **kwargs):
            return [model_select.CvMetrics(
                spec=transforms.DesignSpec(variant="standard"), mae_mean=np.nan,
                mae_q25=np.nan, mae_q50=np.nan, mae_q75=np.nan, mse_mean=np.nan,
                qic=np.nan, transform=None, error=exc) for exc in raised]

        monkeypatch.setattr(model_select, "cv_evaluate", all_fail)
        assert main(["select", str(study_files[1]), "--seed", "1"]) == code
        assert capsys.readouterr().err == message.format(val=study_files[1]) + "\n"

    def test_select_names_the_file_when_every_fold_is_too_small(self, study_files,
                                                                tmp_path, capsys):
        # Five rows of three subjects (2, 2 and 1 rows): of two folds, one
        # trains on a single subject, too few rows for pca3's coefficients.
        rows = _rows(study_files[1])
        ids = list(dict.fromkeys(row[0] for row in rows[1:]))[:3]
        kept = [row for i, n in zip(ids, (2, 2, 1))
                for row in [r for r in rows[1:] if r[0] == i][:n]]
        small = tmp_path / "v.csv"
        _write_rows(small, [rows[0]] + kept)
        assert main(["select", str(small), "--specs", "pca3", "--folds", "2",
                     "--seed", "1"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {small}: need at least 4 rows, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("token, message", [
        ("pca0", "spec token 'pca0': pca needs at least one component"),
        ("onlyX", "bad radius in spec token 'onlyX'"),
    ])
    def test_spec_token_usage_error_names_the_token(self, token, message, study_files,
                                                    tmp_path, capsys):
        main_csv, val_csv = study_files
        code = main(["fit", str(main_csv), "--validation", str(val_csv),
                     "--spec", token, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["main", "validation"])
    @pytest.mark.parametrize("change, message", [
        (lambda rows: [], "empty file"),
        (lambda rows: [["subject"] + rows[0][1:]] + rows[1:],
         "expected column 1 to be 'id'"),
        (lambda rows: [rows[0][:3] + ["z_abc"] + rows[0][4:]] + rows[1:],
         "bad radius in header 'z_abc'"),
        (lambda rows: [row[:-1] for row in rows], "no confounder columns found"),
    ] + [(lambda rows, r=r: [rows[0][:3] + [f"z_{r}"] + rows[0][4:]] + rows[1:],
          f"bad radius in header 'z_{r}'") for r in ("nan", "inf", "-inf", "1e999")],
        ids=["empty", "first column", "radius", "no confounder",
             "radius nan", "radius inf", "radius -inf", "radius 1e999"])
    def test_bad_header_is_data_error(self, which, change, message, study_files,
                                      tmp_path, capsys):
        main_csv, val_csv = study_files
        files = {"main": main_csv, "validation": val_csv}
        bad = tmp_path / f"bad_{which}.csv"
        _write_rows(bad, change(_rows(files[which])))
        files[which] = bad
        calls = [["fit", str(files["main"]), "--validation", str(files["validation"])]]
        if which == "validation":
            calls.append(["select", str(bad), "--seed", "1"])
        for argv in calls:
            assert main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_DATA
            assert capsys.readouterr().err == f"data error: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_cox_iteration_cap_is_numerical_failure(self, study_files, tmp_path,
                                                    capsys, monkeypatch):
        monkeypatch.setattr(constants, "COX_MAX_ITER", 1)
        main_csv, val_csv = study_files
        code = main(["fit", str(main_csv), "--validation", str(val_csv),
                     "--spec", "standard", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Newton-Raphson did not converge "
                              "in 1 iterations (grad norm ")
        assert err.count("\n") == 1

    def test_gee_iteration_cap_is_numerical_failure(self, study_files, tmp_path,
                                                    capsys, monkeypatch):
        # Ragged clusters with within-subject correlation 0.4: psi-hat > 0,
        # so the exchangeable IRLS moves off the OLS start.
        rng = np.random.default_rng(21)
        val = ragged_validation(rng, rng.choice([1, 2, 3, 8], size=70))
        assert mem.fit_gee(val, transforms.DesignSpec()).psi > 0.0
        val_csv = tmp_path / "clustered.csv"
        data_model.write_validation_csv(val_csv, val)
        monkeypatch.setattr(constants, "GEE_MAX_ITER", 1)
        code = main(["fit", str(study_files[0]), "--validation", str(val_csv),
                     "--spec", "standard", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: GEE did not converge in 1 "
                              "iterations (last max |delta| = ")
        assert err.count("\n") == 1

    def test_event_rate_bisection_cap_is_numerical_failure(self, tmp_path, capsys,
                                                          monkeypatch):
        # Every event rate in (0, 1) brackets, so only the cap can fail it.
        monkeypatch.setattr(constants, "CMAX_MAX_ITER", 0)
        code = main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "1",
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: event-rate bisection failed: "
                              "achieved range [")
        assert err.endswith("] around target 0.1\n") and err.count("\n") == 1


def _rows(path):
    """The cells of a CSV file written without quotes, header first."""
    return [line.split(",") for line in Path(path).read_text().splitlines()]


def _write_rows(path, rows):
    Path(path).write_text("".join(",".join(row) + "\n" for row in rows))


@functools.lru_cache(maxsize=None)
def _small_datasets():
    """A generated main study (400 subjects) and validation study (40
    subjects, 3 occasions each).  Callers must not write to their arrays."""
    cfg = simulate.setting1(n1=400, n2=40, occasions=3, event_rate=0.3,
                            sigma2_v=0.01, seed=37)
    rng = np.random.default_rng(37)
    cmax = simulate.calibrate_cmax(cfg, rng, pilot_size=20000)
    val = simulate.gen_validation(cfg, rng)
    main_ds, _ = simulate.gen_main(cfg, rng, cmax)
    return main_ds, val


@functools.lru_cache(maxsize=None)
def _small_study():
    """Rows of the :func:`_small_datasets` studies, as the package writers
    write them."""
    main_ds, val = _small_datasets()
    with tempfile.TemporaryDirectory() as tmp:
        data_model.write_main_csv(Path(tmp) / "m.csv", main_ds)
        data_model.write_validation_csv(Path(tmp) / "v.csv", val)
        return _rows(Path(tmp) / "m.csv"), _rows(Path(tmp) / "v.csv")


CORRUPTIONS = ["nan", "inf", "empty", "text", "constant", "duplicate",
               "one subject", "no events", "all events"]


def _corrupt(rows, kind, col, row):
    """A copy of ``rows`` (header first) with one corruption applied:
    cell (row, col) set to nan, inf, nothing or text; column col made
    constant or appended again; only the first subject's rows kept; or the
    event column (main files) set to all 0 or all 1."""
    header, body = list(rows[0]), [list(r) for r in rows[1:]]
    if kind in ("nan", "inf", "empty", "text"):
        body[row][col] = {"empty": "", "text": "abc"}.get(kind, kind)
    elif kind == "constant":
        for r in body:
            r[col] = body[0][col]
    elif kind == "duplicate":
        header.append(header[col])
        for r in body:
            r.append(r[col])
    elif kind == "one subject":
        body = [r for r in body if r[0] == body[0][0]]
    else:
        for r in body:
            r[2] = "0" if kind == "no events" else "1"
    return [header] + body


@pytest.mark.filterwarnings(
    "ignore:zero-variance surrogate column in PCA input:UserWarning")
@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(["main", "validation"]),
       kind=st.sampled_from(CORRUPTIONS), col=st.integers(1, 12),
       row=st.integers(0, 119))
@example(which="main", kind="nan", col=3, row=5)
def test_corrupted_inputs_reach_an_exit_code(which, kind, col, row):
    """Every fit and select on a corrupted copy of a small study exits 0, 2,
    3 or 4, never with a traceback; a failure prints exactly one line."""
    if kind in ("no events", "all events"):
        which = "main"
    rows = dict(zip(("main", "validation"), _small_study()))
    rows[which] = _corrupt(rows[which], kind, col, row)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in rows}
        for name, path in paths.items():
            _write_rows(path, rows[name])
        for argv in (["fit", str(paths["main"]),
                      "--validation", str(paths["validation"])],
                     ["select", str(paths["validation"]),
                      "--specs", "standard", "pca3+int"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4), argv[0]
            if code:
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert err.getvalue().endswith("\n")


STUDY_CORRUPTIONS = ["constant", "duplicate", "collinear", "one subject", "no events",
                     "all events", "doubled radii", "renamed confounder"]

# The DataError that fit_calibrated_cox raises before it builds phi, and
# that fit reports after the main file's name, for each corruption that the
# validation fit survives.  The first main row has an event, so a main study
# of one subject fails on its constant confounders.
CONTRACT_FAULTS = {
    **{(which, "doubled radii"): "main and validation files disagree on buffer radii"
       for which in ("main", "validation")},
    **{key: "main and validation files disagree on confounder columns"
       for key in [("main", "duplicate"), ("main", "renamed confounder"),
                   ("validation", "renamed confounder")]},
    ("main", "no events"): "no events; a Cox fit needs at least one",
    ("main", "constant w_1"): "confounder column 'w_1' is constant",
    ("main", "constant w_2"): "confounder column 'w_2' is constant",
    ("main", "one subject"): "confounder column 'w_1' is constant",
    ("main", "collinear"): "confounder column 'w_2' is collinear with the preceding ones",
}


def _corrupt_study(ds, kind, col):
    """A copy of the study ``ds`` with one corruption applied: column col
    of [z, w] made constant; confounder w_1 appended again; w_2 set to
    2 w_1 + 3; only the first subject kept; every event (main studies) set
    to 0 or 1; the radii doubled; or w_1 renamed."""
    if kind == "constant":
        zw = np.hstack([ds.z, ds.w])
        zw[:, col] = zw[0, col]
        return dataclasses.replace(ds, z=zw[:, :ds.z.shape[1]], w=zw[:, ds.z.shape[1]:])
    if kind == "duplicate":
        return dataclasses.replace(ds, w=ds.w[:, [0, 1, 0]],
                                   confounder_names=("w_1", "w_2", "w_1"))
    if kind == "collinear":
        w_1 = ds.w[:, 0]
        return dataclasses.replace(ds, w=np.column_stack([w_1, 2.0 * w_1 + 3.0]))
    if kind == "one subject":
        if isinstance(ds, data_model.ValidationDataset):
            return ds.subset(np.flatnonzero(ds.subject_codes == 0))
        return dataclasses.replace(ds, time=ds.time[:1], event=ds.event[:1],
                                   z=ds.z[:1], w=ds.w[:1])
    if kind in ("no events", "all events"):
        return dataclasses.replace(ds, event=np.full_like(ds.event, kind == "all events"))
    if kind == "doubled radii":
        return dataclasses.replace(ds, radii=2 * ds.radii)
    return dataclasses.replace(ds, confounder_names=("v_1", "w_2"))


class _Reached(Exception):
    """The fit began to build phi."""


@pytest.mark.filterwarnings(
    "ignore:zero-variance surrogate column in PCA input:UserWarning")
@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(["main", "validation", "both"]),
       kind=st.sampled_from(STUDY_CORRUPTIONS), col=st.integers(0, 10),
       spec=st.sampled_from([transforms.DesignSpec(variant="standard"),
                             transforms.DesignSpec(variant="pca", n_components=3,
                                                   include_interactions=True)]))
@example(which="main", kind="doubled radii", col=0,
         spec=transforms.DesignSpec(variant="standard"))
@example(which="validation", kind="renamed confounder", col=0,
         spec=transforms.DesignSpec(variant="standard"))
@example(which="main", kind="no events", col=0,
         spec=transforms.DesignSpec(variant="standard"))
@example(which="main", kind="constant", col=10,
         spec=transforms.DesignSpec(variant="standard"))
@example(which="main", kind="duplicate", col=0,
         spec=transforms.DesignSpec(variant="standard"))
@example(which="main", kind="collinear", col=0,
         spec=transforms.DesignSpec(variant="standard"))
def test_corrupted_studies_reach_a_package_error(which, kind, col, spec):
    """On the library path (fit_gee, then fit_calibrated_cox), a corrupted
    copy of a small two-confounder study fits or raises a calibcox.errors
    class, never a bare NumPy error; a main study that the validation fit
    cannot calibrate, or on which a Cox fit is not estimable, raises fit's
    DataError before phi is built."""
    if kind in ("no events", "all events"):
        which = "main"
    rng = np.random.default_rng(41)
    studies = {}
    for name, ds in zip(("main", "validation"), _small_datasets()):
        w_2 = rng.normal(1.0, 1.0, len(ds.w))
        ds = dataclasses.replace(ds, w=np.column_stack([ds.w, w_2]),
                                 confounder_names=("w_1", "w_2"))
        studies[name] = _corrupt_study(ds, kind, col) if which in (name, "both") else ds
    package_errors = (errors.UsageError, errors.DataError, errors.NumericalError)
    try:
        memfit = mem.fit_gee(studies["validation"], spec)
    except package_errors:
        return
    if kind == "constant":
        kind += f" w_{col - 8}" if col > 8 else " z"
    fault = CONTRACT_FAULTS.get((which, kind))
    with mock.patch.object(transforms, "build_design_matrix", side_effect=_Reached):
        try:
            inference.fit_calibrated_cox(studies["main"], memfit)
        except errors.DataError as exc:
            assert fault is not None and str(exc).startswith(fault), str(exc)
            return
        except (_Reached, errors.NumericalError) as exc:
            # Past fit's DataError checks, the one numerical failure before
            # phi is a validation fit on too few subjects for its V_alpha.
            assert fault is None
            assert isinstance(exc, _Reached) or "V_alpha needs more subjects" in str(exc)
    try:
        inference.fit_calibrated_cox(studies["main"], memfit)
    except package_errors:
        pass


@pytest.mark.parametrize("command", ["report", "select"])
def test_closed_stdout_exits_141_silently(study_files, tmp_path, command):
    """A reader that has gone before the output is written (``| head``,
    ``| true``) is no data error: the command exits 128 + SIGPIPE and
    prints nothing."""
    if command == "report":
        assert main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates",
                     "2", "--seed", "2", "--out", str(tmp_path)]) == 0
        argv = ["report", str(tmp_path)]
    else:
        argv = ["select", str(study_files[1]), "--specs", "pca3", "--seed", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    # stdout buffered, as by default: the write then fails at a flush.
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "calibcox.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


class TestReportCommand:
    def test_renders_and_idempotent(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "2",
                     "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(out)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "bias_pct" in first

    def test_short_row_data_error(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text("p,n1,model\n0.1,600,M1\n0.1,600\n")
        assert main(["report", str(tmp_path)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {summary}: row 3 has 2 fields where the header has 3\n")

    def test_empty_summary_data_error(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text("")
        assert main(["report", str(tmp_path)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {summary}: empty file\n"

    def test_non_utf8_data_error(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_bytes(b"p,n1,model\n0.1,600,M\xe9\n")
        assert main(["report", str(tmp_path)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {summary}: not UTF-8 text: byte 0xe9 "
            "(invalid continuation byte)\n")

    def test_byte_order_mark_renders_as_plain(self, tmp_path, capsys):
        text = b"p,n1,model\n0.1,600,M1\n"
        (tmp_path / "plain").mkdir()
        (tmp_path / "plain" / "summary.csv").write_bytes(text)
        (tmp_path / "bom").mkdir()
        (tmp_path / "bom" / "summary.csv").write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["report", str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr().out
        assert main(["report", str(tmp_path / "bom")]) == 0
        assert capsys.readouterr().out == plain

    def test_empty_dir_data_error(self, tmp_path, capsys):
        code = main(["report", str(tmp_path)])
        assert code == cli.EXIT_DATA
