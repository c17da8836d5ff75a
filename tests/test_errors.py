"""The error taxonomy: every package exception derives from exactly one of
three bases, and that base alone decides the CLI exit code."""

import importlib
import inspect
import pkgutil
from concurrent.futures.process import BrokenProcessPool

import pytest

import calibcox
from calibcox import cli, errors, linalg

BASES = (errors.UsageError, errors.DataError, errors.NumericalError)


def _package_exceptions():
    """Every Exception subclass defined in a calibcox module, bases aside."""
    for info in pkgutil.iter_modules(calibcox.__path__):
        module = importlib.import_module(f"{calibcox.__name__}.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__ and obj not in BASES):
                yield obj


def test_every_exception_derives_from_exactly_one_base():
    # The one subclass carries a field that callers read: the failed pivot.
    # A new subclass needs such a reason; a message tells errors apart.
    found = list(_package_exceptions())
    assert found == [linalg.DecompositionError]
    for cls in found:
        assert sum(issubclass(cls, base) for base in BASES) == 1, cls


def test_bases_keep_the_builtin_roots():
    # Callers that catch ValueError or ArithmeticError still catch them.
    assert issubclass(errors.UsageError, ValueError)
    assert issubclass(errors.DataError, ValueError)
    assert issubclass(errors.NumericalError, ArithmeticError)
    assert cli.UsageError is errors.UsageError


@pytest.mark.parametrize("exc, code", [
    (errors.UsageError("bad flag"), cli.EXIT_USAGE),
    (errors.DataError("bad shape"), cli.EXIT_DATA),
    (FileNotFoundError("no file"), cli.EXIT_DATA),
    (IsADirectoryError("a directory"), cli.EXIT_DATA),
    (PermissionError("not readable"), cli.EXIT_DATA),
    (linalg.DecompositionError("pivot 2 is 0", pivot=2), cli.EXIT_NUMERIC),
    (errors.NumericalError("no bracket"), cli.EXIT_NUMERIC),
    (BrokenProcessPool("worker died"), cli.EXIT_WORKER),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_follows_the_base(exc, code, monkeypatch, capsys):
    def fails(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_report", fails)
    assert cli.main(["report", "results"]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(exc) in err


@pytest.mark.parametrize("exc", [ValueError("plain"), ZeroDivisionError("plain")])
def test_errors_outside_the_taxonomy_are_not_caught(exc, monkeypatch):
    # A built-in error escaping a command is a bug, not a documented exit.
    def fails(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_report", fails)
    with pytest.raises(type(exc)):
        cli.main(["report", "results"])


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", "{tmp}/missing.ini", "--seed", "1"],
     "config file not found: {tmp}/missing.ini"),
    (["simulate", "--cell", "0.1,600,60,0.01", "--replicates", "1", "--seed", "1",
      "--out", "{tmp}/taken"], "--out {tmp}/taken: exists and is not a directory"),
    (["report", "{tmp}"], "no summary.csv in {tmp}; expected files: summary.csv "
                          "(from `calibcox simulate`)"),
], ids=["missing config", "out names a file", "report without summary"])
def test_cli_faults_of_its_own_are_data_errors(argv, message, tmp_path, capsys):
    # The CLI raises the package's DataError for a broken precondition it
    # finds itself; an OSError is left to the operating system.
    (tmp_path / "taken").write_text("")
    argv = [a.format(tmp=tmp_path) for a in argv]
    message = message.format(tmp=tmp_path)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(errors.DataError) as caught:
        args.func(args)
    assert type(caught.value) is errors.DataError and str(caught.value) == message
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {message}\n"
