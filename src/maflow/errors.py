"""Exception types shared across the library.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericError -> 3, FormatError -> 4.
"""


class MaflowError(Exception):
    """Base class for library-specific failures."""


class ConfigError(MaflowError):
    """Invalid configuration: unknown keys, bad values, inconsistent choices."""


class NumericError(MaflowError):
    """A computation produced non-finite values and was aborted."""


class FormatError(MaflowError):
    """A file did not match its declared on-disk format."""


class StaleTapeError(MaflowError):
    """A recorded trajectory no longer matches the potential it was taken under."""
