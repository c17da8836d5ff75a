"""The error taxonomy: every package exception derives from exactly one of
three bases, and that base alone decides the CLI exit code."""

import importlib
import inspect
import pkgutil
from concurrent.futures.process import BrokenProcessPool

import pytest

import calibcox
from calibcox import cli, coxph, data_model, errors, inference, linalg, mem

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
    found = list(_package_exceptions())
    assert {data_model.ParseError, linalg.ContractViolationError,
            linalg.DecompositionError, mem.SingularDesignError,
            mem.ConvergenceError, coxph.CoxConvergenceError,
            coxph.CoxDivergenceError, inference.TooFewSubjectsError} <= set(found)
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
    (data_model.ParseError("bad cell"), cli.EXIT_DATA),
    (linalg.ContractViolationError("bad shape"), cli.EXIT_DATA),
    (FileNotFoundError("no file"), cli.EXIT_DATA),
    (mem.SingularDesignError("rank deficient"), cli.EXIT_NUMERIC),
    (coxph.CoxDivergenceError("ran away"), cli.EXIT_NUMERIC),
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
