"""Exception types shared across the package.

The CLI maps these onto exit codes: parse/input problems exit 3,
numerical blow-ups exit 4.
"""


class GasdiffError(Exception):
    """Base class for all package errors."""


class ParseError(GasdiffError):
    """Malformed input file (trajectory, field CSV, config)."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class InstabilityError(GasdiffError):
    """A numerical integration blew up (NaN or runaway magnitude)."""


class FitError(GasdiffError):
    """The least-squares fit could not make progress."""
