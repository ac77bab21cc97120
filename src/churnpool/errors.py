"""Exception types shared across the package, and the guards that load
and write saved artifacts."""

import os
import struct
from contextlib import contextmanager
from pathlib import Path


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


def check_is_fitted(estimator, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` has ``attribute``."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} instance is not fitted; call fit() first")


@contextmanager
def malformed_artifact(what: str):
    """Re-raise any parse failure inside the block as ``DataError``.

    Loaders of saved artifacts run inside it, so bad JSON, nesting too deep
    to parse, a missing key, a wrong type or a short binary payload ends in
    the data exit code rather than a traceback.
    """
    try:
        yield
    except DataError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, OverflowError,
            RecursionError, struct.error) as exc:
        raise DataError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write an artifact whole or not at all.

    The block writes to a file open on ``.<name>.tmp`` beside ``path``
    (UTF-8 text with ``\\n`` line ends, or bytes for a ``"b"`` mode), which
    ``os.replace`` then moves onto ``path``.  If the block or the move
    raises, the temporary file is removed and ``path`` keeps what it held
    before, or stays absent.  One writer per path at a time.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
