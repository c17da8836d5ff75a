"""The package's error taxonomy: one base class per CLI exit code.

Every exception class of the package derives from exactly one of these
bases, and :func:`calibcox.cli.main` maps an error to its exit code by that
base alone:

UsageError      2  a command-line argument or config value is wrong
DataError       3  input data break a documented precondition
NumericalError  4  a fit or factorization failed on data that passed its checks

``UsageError`` and ``DataError`` derive from ValueError, ``NumericalError``
from ArithmeticError, so code that catches those built-in roots catches the
package's errors too.
"""


class UsageError(ValueError):
    """A command-line argument or config value is wrong (exit 2)."""


class DataError(ValueError):
    """Input data break a documented precondition (exit 3)."""


class NumericalError(ArithmeticError):
    """A numerical method failed on data that passed its checks (exit 4)."""
