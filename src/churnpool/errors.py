"""Exception types shared across the package."""

import struct
from contextlib import contextmanager


class ChurnpoolError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ChurnpoolError, ValueError):
    """Raised when inputs violate a documented precondition."""


class DataError(ChurnpoolError, ValueError):
    """Raised when a data file is malformed or inconsistent."""


class ConvergenceError(ChurnpoolError, RuntimeError):
    """Raised when an iterative solver fails to meet its tolerance."""


class DiagnosticError(ChurnpoolError, RuntimeError):
    """Raised when sampler diagnostics indicate an unusable run."""


class NotFittedError(ChurnpoolError, RuntimeError):
    """Raised when an estimator is used before ``fit``."""


@contextmanager
def malformed_artifact(what: str):
    """Re-raise any parse failure inside the block as ``DataError``.

    Loaders of saved artifacts run inside it, so bad JSON, a missing key, a
    wrong type or a short binary payload ends in the data exit code rather
    than a traceback.
    """
    try:
        yield
    except DataError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, OverflowError,
            struct.error) as exc:
        raise DataError(f"malformed {what}: {type(exc).__name__}: {exc}") from None
