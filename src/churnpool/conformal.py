"""Split/pooled conformal calibration and set-valued prediction.

Nonconformity is ``|y - p_hat|``.  The split threshold is the
``ceil((1-alpha)(n+1))``-th smallest calibration score, which under
exchangeability guarantees coverage of at least
``ceil((1-alpha)(n+1)) / (n+1)`` for the binary prediction sets

    C(x) = {y in {0,1} : |y - p_hat(x)| <= q_hat}.

The membership rule is applied literally: 0 is included iff
``p_hat <= q_hat`` and 1 iff ``p_hat >= 1 - q_hat``, so the empty set is a
possible (audited) outcome whenever ``q_hat < 0.5``.
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

__all__ = [
    "CalibrationResult",
    "calibrate_split",
    "calibrate_pooled",
    "conservative_adjust",
    "PredictionSet",
    "predict_set",
    "CoverageAudit",
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


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def calibrate_split(scores, alpha: float,
                    strategy: str = "split") -> CalibrationResult:
    """Threshold from held-out nonconformity scores.

    ``q_hat`` is the k-th smallest score with ``k = ceil((1-alpha)(n+1))``
    (stable ascending sort, ties share ranks naturally).  When ``k > n``
    the sample is too small for the requested level; the threshold
    degenerates to 1.0, which covers trivially, and a warning is issued.
    """
    alpha = _check_alpha(alpha)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValidationError("scores must be a nonempty 1-D sequence")
    n = scores.size
    k = math.ceil((1.0 - alpha) * (n + 1))
    if k > n:
        warnings.warn(
            f"degenerate calibration: need rank {k} of {n} scores; "
            "q_hat set to 1.0", stacklevel=2)
        return CalibrationResult(1.0, alpha, n, strategy)
    ordered = np.sort(scores, kind="stable")
    return CalibrationResult(float(ordered[k - 1]), alpha, n, strategy)


def calibrate_pooled(per_sme_scores, alpha: float) -> CalibrationResult:
    """Pool per-entity calibration scores into one split calibration."""
    arrays = [np.asarray(s, dtype=np.float64) for s in per_sme_scores]
    if not arrays or all(a.size == 0 for a in arrays):
        raise ValidationError("all calibration score lists are empty")
    pooled = np.concatenate([a for a in arrays if a.size])
    return calibrate_split(pooled, alpha, strategy="pooled")


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


@dataclass(frozen=True)
class PredictionSet:
    """Subset of {0, 1} delivered for one prediction."""

    contains_zero: bool
    contains_one: bool

    @property
    def size(self) -> int:
        return int(self.contains_zero) + int(self.contains_one)

    @property
    def labels(self) -> frozenset:
        members = []
        if self.contains_zero:
            members.append(0)
        if self.contains_one:
            members.append(1)
        return frozenset(members)

    def __contains__(self, label) -> bool:
        return (self.contains_zero if label == 0
                else self.contains_one if label == 1 else False)

    def __str__(self) -> str:
        inner = ",".join(str(v) for v in sorted(self.labels))
        return "{" + inner + "}"


def predict_set(p_hat: float, q_hat: float) -> PredictionSet:
    """Literal membership rule: 0 iff ``p_hat <= q_hat``, 1 iff
    ``p_hat >= 1 - q_hat``; empty only possible when ``q_hat < 0.5``."""
    if not 0.0 <= p_hat <= 1.0:
        raise ValidationError(f"p_hat must be in [0, 1], got {p_hat}")
    if not 0.0 <= q_hat <= 1.0:
        raise ValidationError(f"q_hat must be in [0, 1], got {q_hat}")
    return PredictionSet(p_hat <= q_hat, p_hat >= 1.0 - q_hat)


@dataclass(frozen=True)
class CoverageAudit:
    """Empirical coverage and set-size profile of delivered sets."""

    coverage: float
    singleton_rate: float
    doubleton_rate: float
    empty_rate: float
    average_set_size: float
    n: int

    def to_dict(self) -> dict:
        return {
            "empirical_coverage": self.coverage,
            "singleton_rate": self.singleton_rate,
            "doubleton_rate": self.doubleton_rate,
            "empty_set_rate": self.empty_rate,
            "average_set_size": self.average_set_size,
            "n": self.n,
        }


def coverage_audit(sets, labels) -> CoverageAudit:
    """Audit delivered sets against realized labels (empty sets count 0)."""
    sets = list(sets)
    labels = np.asarray(labels)
    if len(sets) != labels.size or not sets:
        raise ValidationError("sets and labels must be nonempty, equal length")
    covered = sum(int(label in s) for s, label in zip(sets, labels))
    sizes = np.array([s.size for s in sets])
    n = len(sets)
    return CoverageAudit(
        coverage=covered / n,
        singleton_rate=float((sizes == 1).mean()),
        doubleton_rate=float((sizes == 2).mean()),
        empty_rate=float((sizes == 0).mean()),
        average_set_size=float(sizes.mean()),
        n=n,
    )


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
