"""Input validation helpers used at every public entry point."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_float_matrix",
    "as_float_vector",
    "check_binary_labels",
    "as_name_tuple",
]


def as_float_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a 2-D float64 array with only finite entries."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError(f"{name} contains non-finite values")
    return X


def as_float_vector(x, name: str = "x", length: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 array, optionally of a required length."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite values")
    if length is not None and x.shape[0] != length:
        raise ValidationError(f"{name} has length {x.shape[0]}, expected {length}")
    return x


def check_binary_labels(y, name: str = "labels") -> np.ndarray:
    """Coerce labels to an int8 vector and require values in {0, 1}."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {y.shape}")
    values = np.unique(y)
    if not np.all(np.isin(values, (0, 1))):
        raise ValidationError(f"{name} must contain only 0/1, found {values.tolist()}")
    return y.astype(np.int8)


def as_name_tuple(names, name: str = "feature_names") -> tuple[str, ...]:
    """Require a list or tuple of strings, as read from a JSON artifact."""
    if not isinstance(names, (list, tuple)) or not all(
            isinstance(v, str) for v in names):
        raise ValidationError(f"{name} must be a list of strings")
    return tuple(names)
