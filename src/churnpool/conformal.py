"""Pooled split conformal calibration and set-valued prediction on arrays.

Nonconformity is ``|y - p_hat|``, and ``q_hat`` is the k-th smallest
calibration score, pooled across entities.  ``calibrate_pooled`` takes the
split rank ``k = ceil((1-alpha)(n+1))``, whose sets cover at least
``k / (n+1)`` on average over calibration sets (exchangeability).
``conservative_adjust`` takes the smallest ``k`` with
``P(Beta(k, n+1-k) >= 1-alpha) >= 1-alpha``: coverage given the
calibration set follows ``Beta(k, n+1-k)``, so it is at least ``1-alpha``
for all but an ``alpha`` share of calibration sets (Vovk, "Conditional
validity of inductive conformal predictors", arXiv:1209.2673).  At
alpha = 0.1 that needs ``n >= 22``; when ``k > n``, ``q_hat`` is 1.0.  The
binary prediction sets are

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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, malformed_artifact
from .numerics import regularized_incomplete_beta
from .validation import as_float_vector, check_binary_labels

__all__ = [
    "CalibrationResult",
    "calibrate_pooled",
    "conservative_adjust",
    "predict_sets",
    "coverage_audit",
    "recommend_conservative",
]


@dataclass(frozen=True)
class CalibrationResult:
    """Conformal threshold with its provenance."""

    q_hat: float
    alpha: float
    n_cal: int
    strategy: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "CalibrationResult":
        """Inverse of ``to_json``; a malformed document raises ``DataError``,
        and the ``inflation`` key of older files is ignored."""
        with malformed_artifact("calibration result"):
            doc = json.loads(text)
            strategy = doc["strategy"]
            if not isinstance(strategy, str):
                raise TypeError("strategy must be a string")
            return cls(float(doc["q_hat"]), float(doc["alpha"]),
                       operator.index(doc["n_cal"]), strategy)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "CalibrationResult":
        return cls.from_json(Path(path).read_bytes())


def _probabilities(p_hat) -> np.ndarray:
    """``p_hat`` as a 1-D float vector, every entry in [0, 1]."""
    p_hat = as_float_vector(p_hat, "p_hat")
    if not np.all((p_hat >= 0.0) & (p_hat <= 1.0)):
        raise ValidationError("p_hat must be in [0, 1]")
    return p_hat


def _split_rank(n: int, alpha: float) -> int:
    return math.ceil((1.0 - alpha) * (n + 1))


def _conditional_rank(n: int, alpha: float) -> int:
    k = _split_rank(n, alpha)
    while k <= n and regularized_incomplete_beta(k, n + 1 - k,
                                                 1.0 - alpha) > alpha:
        k += 1
    return k


def _calibrate(p_hat, labels, alpha, rank, strategy) -> CalibrationResult:
    """The ``rank(n, alpha)``-th smallest score, or 1.0 past ``n``."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    alpha = float(alpha)
    p_hat = _probabilities(p_hat)
    labels = check_binary_labels(labels)
    n = p_hat.size
    if n == 0 or labels.size != n:
        raise ValidationError("p_hat and labels must be nonempty, equal length")
    k = rank(n, alpha)
    if k > n:
        warnings.warn(
            f"degenerate calibration: need rank {k} of {n} scores; "
            "q_hat set to 1.0", stacklevel=3)
        return CalibrationResult(1.0, alpha, n, strategy)
    ordered = np.sort(np.abs(labels - p_hat), kind="stable")
    return CalibrationResult(float(ordered[k - 1]), alpha, n, strategy)


def calibrate_pooled(p_hat, labels, alpha: float) -> CalibrationResult:
    """Split-rank threshold of held-out rows pooled across entities."""
    return _calibrate(p_hat, labels, alpha, _split_rank, "pooled")


def conservative_adjust(p_hat, labels, alpha: float) -> CalibrationResult:
    """Calibration-conditional threshold of the same pooled rows."""
    return _calibrate(p_hat, labels, alpha, _conditional_rank,
                      "pooled-conditional")


def predict_sets(p_hat, q_hat: float) -> np.ndarray:
    """Conformal sets of a probability vector as an ``(n, 2)`` bool array.

    ``sets[i, y]`` says whether label ``y`` is in ``C(x_i)``: column 0 is
    ``p_hat <= q_hat`` and column 1 is ``p_hat >= 1 - q_hat``.
    """
    p_hat = _probabilities(p_hat)
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
    """Whether the scale table recommends the calibration-conditional
    rank of ``conservative_adjust`` over the split rank.

    Pooling five or more entities gives enough calibration scores; below
    that, the conditional rank is recommended once the smallest entity has
    fewer than 100 rows.  ``calibrate`` passes per-entity calibration rows
    and ``run_experiment`` whole-entity sizes (aligning them changes results).
    """
    n_js = [int(n) for n in n_js]
    if not n_js:
        raise ValidationError("need at least one entity size")
    return len(n_js) < 5 and min(n_js) < 100
