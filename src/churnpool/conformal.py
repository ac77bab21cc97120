"""Pooled split conformal calibration and set-valued prediction on arrays.

Nonconformity is ``|y - p_hat|``, and ``q_hat`` is the k-th smallest of
the ``n`` calibration scores, pooled across entities.  ``calibrate_pooled``
takes the calibration-conditional rank: the smallest ``k`` with
``P(Beta(k, n+1-k) >= 1-alpha) >= 1-alpha``.  Coverage given the
calibration set follows ``Beta(k, n+1-k)`` (exchangeability), so it is at
least ``1-alpha`` for all but an ``alpha`` share of calibration sets (Vovk,
"Conditional validity of inductive conformal predictors",
arXiv:1209.2673).  Its mean ``k/(n+1)`` is then at least ``1-alpha`` too,
which is the marginal guarantee of the split rank
``ceil((1-alpha)(n+1))``, where the search for ``k`` starts.  A threshold
below 1 needs ``n >= log(alpha) / log(1-alpha)`` scores: 59 at
alpha = 0.05, 22 at 0.10 and 8 at 0.20; when ``k > n``, ``q_hat`` is 1.0.
The binary prediction sets are

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

from .errors import ValidationError, atomic_write, malformed_artifact
from .numerics import regularized_incomplete_beta
from .validation import as_float_vector, check_binary_labels

__all__ = [
    "CalibrationResult",
    "calibrate_pooled",
    "predict_sets",
    "coverage_audit",
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
        """Inverse of ``to_json``; a malformed document raises ``DataError``.
        Older files (``strategy`` ``"pooled"``, an ``inflation`` key) load."""
        with malformed_artifact("calibration result"):
            doc = json.loads(text)
            strategy = doc["strategy"]
            if not isinstance(strategy, str):
                raise TypeError("strategy must be a string")
            return cls(float(doc["q_hat"]), float(doc["alpha"]),
                       operator.index(doc["n_cal"]), strategy)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json())

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
    # No smaller k has mean coverage k / (n+1) of at least 1 - alpha.
    k = _split_rank(n, alpha)
    while k <= n and regularized_incomplete_beta(k, n + 1 - k,
                                                 1.0 - alpha) > alpha:
        k += 1
    return k


def calibrate_pooled(p_hat, labels, alpha: float) -> CalibrationResult:
    """Calibration-conditional threshold of held-out rows pooled across
    entities: the ``_conditional_rank``-th smallest score, or 1.0 (with a
    warning) when that rank exceeds the number of rows."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    alpha = float(alpha)
    p_hat = _probabilities(p_hat)
    labels = check_binary_labels(labels)
    n = p_hat.size
    if n == 0 or labels.size != n:
        raise ValidationError("p_hat and labels must be nonempty, equal length")
    k = _conditional_rank(n, alpha)
    if k > n:
        warnings.warn(
            f"degenerate calibration: need rank {k} of {n} scores; "
            "q_hat set to 1.0", stacklevel=2)
        q_hat = 1.0
    else:
        q_hat = float(np.sort(np.abs(labels - p_hat), kind="stable")[k - 1])
    return CalibrationResult(q_hat, alpha, n, "pooled-conditional")


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
