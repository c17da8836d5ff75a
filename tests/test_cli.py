"""CLI surface: argument handling, outputs, determinism, exit codes."""

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from calibcox import cli, data_model, mem, simulate
from calibcox.cli import main


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
        outs = []
        for threads in ("1", "2", "3", "4"):
            out = tmp_path / f"t{threads}"
            code = main(["simulate", "--cell", "0.1,600,60,0.01",
                         "--replicates", "4", "--seed", "9",
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            outs.append((out / "summary.csv").read_bytes()
                        + (out / "replicates.csv").read_bytes())
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
        # The injected fit ends the process it runs in unless that is this
        # one, so only a forked worker dies.
        parent = os.getpid()
        fit_gee = mem.fit_gee

        def dies_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return fit_gee(*args, **kwargs)

        monkeypatch.setattr(mem, "fit_gee", dies_in_worker)
        code = main(["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "2",
                     "--seed", "1", "--threads", "2", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_WORKER
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died") and err.count("\n") == 1

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

    def test_missing_file_data_error(self, tmp_path, capsys):
        code = main(["select", str(tmp_path / "nope.csv"), "--seed", "1"])
        assert code == cli.EXIT_DATA


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
        main_csv, _ = study_files
        bad = tmp_path / "bad_val.csv"
        bad.write_text("id,occasion,x,z_90,z_150,w_1\na,1,0.5,0.1,0.2,1.0\n")
        code = main(["fit", str(main_csv), "--validation", str(bad)])
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("change, message", [
        (lambda ds: {"event": np.zeros_like(ds.event)}, "no events"),
        (lambda ds: {"w": np.hstack([ds.w, ds.w]), "confounder_names": ("w_1", "w_2")},
         "disagree on confounder columns"),
    ], ids=["no events", "confounders w_1,w_2 against w_1"])
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

    def test_hr_at_modifier(self, study_files, tmp_path, capsys):
        main_csv, val_csv = study_files
        code = main(["fit", str(main_csv), "--validation", str(val_csv),
                     "--spec", "standard", "--at", "1.0"])
        assert code == 0
        assert "w0=[1.0]" in capsys.readouterr().out


FIT = ["fit", "{main}", "--validation", "{val}"]


class TestExitCodes:
    """Bad arguments exit 2 with a usage error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        FIT + ["--spec", "pcax"],
        FIT + ["--spec", "rcs9"],
        FIT + ["--spec", "pca99"],
        FIT + ["--spec", "standard", "--at", "abc"],
        ["select", "{val}", "--specs", "pcax"],
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
        ["simulate", "--cell", "0.1,0,60,0.01", "--replicates", "1",
         "--seed", "1", "--out", "{out}"],
        # An argument starting with "[" is the text of a config file.
        ["simulate", "--config", "[simulate]\nreplicates = abc",
         "--cell", "0.1,600,60,0.01", "--seed", "1", "--out", "{out}"],
        ["simulate", "--config", "[simulate]\nsetting = 3",
         "--cell", "0.1,600,60,0.01", "--replicates", "1", "--seed", "1",
         "--out", "{out}"],
        ["select", "{val}", "--config", "[select]\nfolds = x", "--out", "{out}"],
    ], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_usage_error(self, argv, study_files, tmp_path, capsys):
        main_csv, val_csv = study_files
        argv = [a.format(main=main_csv, val=val_csv, out=tmp_path / "out")
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

    def test_empty_dir_data_error(self, tmp_path, capsys):
        code = main(["report", str(tmp_path)])
        assert code == cli.EXIT_DATA
