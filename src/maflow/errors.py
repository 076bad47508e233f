"""Exception types shared across the library.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericError -> 3, FormatError -> 4.
"""


class MaflowError(Exception):
    """Base class for library-specific failures."""


class ConfigError(MaflowError):
    """Invalid configuration: unknown keys, bad values, inconsistent choices."""


class NumericError(MaflowError):
    """A computation produced non-finite values and was aborted.

    ``order`` ranks an integration's error by where it arose: forward step k
    is k, and reverse step k of ``steps`` is 2 * steps - 1 - k, so every
    forward step ranks before any reverse step and the reverse pass ranks
    its steps in the order it reaches them.  Of two row parts' errors, a
    call raises the one of lower order, part 0's on a tie, as one part would
    raise it.
    """

    def __init__(self, message, order=0):
        super().__init__(message)
        self.order = order


class FormatError(MaflowError):
    """A file did not match its declared on-disk format."""


class StaleTapeError(MaflowError):
    """A recorded trajectory no longer matches the potential it was taken under."""
