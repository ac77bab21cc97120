"""Pooled split conformal calibration and set-valued prediction on arrays.

Nonconformity is ``|y - p_hat|``.  The threshold is the
``ceil((1-alpha)(n+1))``-th smallest calibration score, pooled across
entities, which under exchangeability guarantees coverage of at least
``ceil((1-alpha)(n+1)) / (n+1)`` for the binary prediction sets

    C(x) = {y in {0,1} : |y - p_hat(x)| <= q_hat}.

Sets for ``n`` rows are one ``(n, 2)`` bool array whose entry ``[i, y]``
says whether label ``y`` is in ``C(x_i)``.  The membership rule is applied
literally: 0 is included iff ``p_hat <= q_hat`` and 1 iff
``p_hat >= 1 - q_hat``, so the empty set is a possible (audited) outcome
whenever ``q_hat < 0.5``.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, malformed_artifact
from .validation import as_float_vector, check_binary_labels

__all__ = [
    "CalibrationResult",
    "calibrate_pooled",
    "conservative_adjust",
    "predict_sets",
    "coverage_audit",
    "recommend_conservative",
]

# Documented band for the conservative inflation factor; values outside it
# are applied with a warning.
INFLATION_BAND = (0.1, 0.3)


@dataclass(frozen=True)
class CalibrationResult:
    """Conformal threshold with its provenance."""

    q_hat: float
    alpha: float
    n_cal: int
    strategy: str
    inflation: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "q_hat": self.q_hat,
            "alpha": self.alpha,
            "n_cal": self.n_cal,
            "strategy": self.strategy,
            "inflation": self.inflation,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "CalibrationResult":
        """Inverse of ``to_json``; a malformed document raises ``DataError``."""
        with malformed_artifact("calibration result"):
            doc = json.loads(text)
            strategy = doc["strategy"]
            if not isinstance(strategy, str):
                raise TypeError("strategy must be a string")
            return cls(float(doc["q_hat"]), float(doc["alpha"]),
                       operator.index(doc["n_cal"]), strategy,
                       float(doc["inflation"]))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "CalibrationResult":
        return cls.from_json(Path(path).read_bytes())


def calibrate_pooled(per_sme_scores, alpha: float) -> CalibrationResult:
    """Threshold from held-out nonconformity scores pooled across entities.

    ``q_hat`` is the k-th smallest pooled score with
    ``k = ceil((1-alpha)(n+1))`` (stable ascending sort, ties share ranks
    naturally).  When ``k > n`` the sample is too small for the requested
    level; the threshold degenerates to 1.0, which covers trivially, and a
    warning is issued.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    alpha = float(alpha)
    arrays = [np.asarray(s, dtype=np.float64) for s in per_sme_scores]
    if any(a.ndim != 1 for a in arrays):
        raise ValidationError("each score list must be 1-D")
    if not arrays or all(a.size == 0 for a in arrays):
        raise ValidationError("all calibration score lists are empty")
    scores = np.concatenate(arrays)
    n = scores.size
    k = math.ceil((1.0 - alpha) * (n + 1))
    if k > n:
        warnings.warn(
            f"degenerate calibration: need rank {k} of {n} scores; "
            "q_hat set to 1.0", stacklevel=2)
        return CalibrationResult(1.0, alpha, n, "pooled")
    ordered = np.sort(scores, kind="stable")
    return CalibrationResult(float(ordered[k - 1]), alpha, n, "pooled")


def conservative_adjust(result: CalibrationResult,
                        inflation: float) -> CalibrationResult:
    """Inflate a threshold, trading set size for guaranteed coverage."""
    if inflation < 0:
        raise ValidationError("inflation must be >= 0")
    if not INFLATION_BAND[0] <= inflation <= INFLATION_BAND[1]:
        warnings.warn(
            f"inflation {inflation} outside the documented band "
            f"{INFLATION_BAND}; applied anyway", stacklevel=2)
    return CalibrationResult(min(1.0, result.q_hat * (1.0 + inflation)),
                             result.alpha, result.n_cal,
                             "conservative-wrapped", float(inflation))


def predict_sets(p_hat, q_hat: float) -> np.ndarray:
    """Conformal sets of a probability vector as an ``(n, 2)`` bool array.

    ``sets[i, y]`` says whether label ``y`` is in ``C(x_i)``: column 0 is
    ``p_hat <= q_hat`` and column 1 is ``p_hat >= 1 - q_hat``.
    """
    p_hat = as_float_vector(p_hat, "p_hat")
    if not np.all((p_hat >= 0.0) & (p_hat <= 1.0)):
        raise ValidationError("p_hat must be in [0, 1]")
    if not 0.0 <= q_hat <= 1.0:
        raise ValidationError(f"q_hat must be in [0, 1], got {q_hat}")
    return np.column_stack((p_hat <= q_hat, p_hat >= 1.0 - q_hat))


def coverage_audit(sets, labels) -> dict:
    """Empirical coverage and set-size profile of delivered sets against
    realized labels; an empty set covers nothing."""
    sets = np.asarray(sets)
    if sets.dtype != bool or sets.ndim != 2 or sets.shape[1] != 2:
        raise ValidationError(
            f"sets must be an (n, 2) bool array, got {sets.dtype} "
            f"{sets.shape}")
    labels = check_binary_labels(labels)
    n = sets.shape[0]
    if n == 0 or labels.size != n:
        raise ValidationError("sets and labels must be nonempty, equal length")
    covered = int(np.count_nonzero(sets[np.arange(n), labels]))
    sizes = sets.sum(axis=1)
    return {
        "empirical_coverage": covered / n,
        "singleton_rate": float((sizes == 1).mean()),
        "doubleton_rate": float((sizes == 2).mean()),
        "empty_set_rate": float((sizes == 0).mean()),
        "average_set_size": float(sizes.mean()),
        "n": n,
    }


def recommend_conservative(n_js) -> bool:
    """Whether the scale table recommends the conservative wrapper.

    Pooling five or more entities gives enough calibration scores; below
    that, the wrapper is recommended once the smallest entity has fewer
    than 100 rows.  Callers can always override explicitly.
    """
    n_js = [int(n) for n in n_js]
    if not n_js:
        raise ValidationError("need at least one entity size")
    return len(n_js) < 5 and min(n_js) < 100
