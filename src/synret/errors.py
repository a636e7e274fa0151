"""Exception hierarchy shared by the library and the CLI exit-code mapping:
the CLI prints `synret: <label>: <message>` and exits with `exit_code`. A
`DataWarning` does not stop the command."""


class SynretError(Exception):
    """Base class for all errors raised by this package."""
    label, exit_code = "error", 2


class UsageError(SynretError):
    """Bad command-line usage or invalid configuration."""
    label, exit_code = "usage error", 1


class DataError(SynretError):
    """Malformed or inconsistent input data (files, schemas, shapes)."""
    label, exit_code = "data error", 2


class NumericalError(SynretError):
    """Non-finite values encountered where finite math is required."""
    label, exit_code = "numerical error", 3


class DataWarning(UserWarning):
    """Input that loads, but not all of it is used; the CLI prints each one
    as a `synret: warning: <message>` line and carries on."""
