"""Minimal estimator base class compatible with scikit-learn conventions.

The package does not depend on scikit-learn; this mirrors just enough of
the ``BaseEstimator`` contract (``get_params`` / ``set_params`` driven by
the ``__init__`` signature, ``repr`` showing parameters) for estimators
here to duck-type into pipelines and grid-search tooling that follow the
same protocol.  Parameters are flat: no estimator here nests another, so
there are no ``name__sub`` parameter names.
"""

from __future__ import annotations

import inspect
from typing import Any

from .errors import NotFittedError

__all__ = ["BaseEstimator", "check_is_fitted"]


class BaseEstimator:
    """Flat get_params/set_params derived from the ``__init__`` signature."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name, p in sig.parameters.items()
                if name != "self" and p.kind != p.VAR_KEYWORD]

    def get_params(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator: Any, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` has ``attribute``."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} instance is not fitted; call fit() first")
