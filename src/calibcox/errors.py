"""The package's error taxonomy: one base class per CLI exit code.

The package raises these bases, and :class:`calibcox.linalg.DecompositionError`,
a ``NumericalError`` that names its failed pivot; a message, not a class,
tells two errors of one base apart.  The base alone decides the exit code:

UsageError      2  a command-line argument or config value is wrong
DataError       3  a documented precondition is broken
NumericalError  4  a fit or factorization failed on data that passed its checks

``DataError`` is the one class for a broken precondition, whether of an
argument (a non-square matrix, a missing --config file) or of the data.  An
``OSError`` comes only from the operating system; the CLI exits 3 on it too.

``UsageError`` and ``DataError`` derive from ValueError, ``NumericalError``
from ArithmeticError, so code that catches those built-in roots catches the
package's errors too.
"""


class UsageError(ValueError):
    """A command-line argument or config value is wrong (exit 2)."""


class DataError(ValueError):
    """An argument or the input data break a documented precondition (exit 3)."""


class NumericalError(ArithmeticError):
    """A numerical method failed on data that passed its checks (exit 4)."""
