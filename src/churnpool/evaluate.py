"""Baselines, metric suite, significance statistics, and the multi-entity
cross-validation experiment harness.

The harness compares three predictors on the same stratified folds:
per-entity L2 logistic regression (no pooling), one global L2 logistic
regression (complete pooling), and the hierarchical Bayesian model
(partial pooling), which arrives as an unfitted estimator carrying its
prior and sampler settings.  The default "fit-once" protocol fits it once
on complete data and evaluates it across folds through the posterior
predictive; this leaks evaluation rows into the Bayesian fit and is
flagged in the report, with a leakage-free refit-per-fold variant
available behind ``protocol="refit"``.

The conformal audit is pooled split conformal: each fold's prediction sets
use a threshold calibrated on the other folds' hierarchical scores, pooled
across entities.  The report names it ``"pooled"`` and records whether the
scale table recommends the conservative wrapper, which the audit does not
apply.
"""

from __future__ import annotations

import csv
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformal import (calibrate_pooled, coverage_audit, predict_sets,
                        recommend_conservative)
from .data import Dataset, SMECollection, stratified_kfold
from .errors import (ChurnpoolError, ConvergenceError, DataError,
                     ValidationError)
from .hier_model import HierarchicalLogistic
from .logreg import fit_penalized_logreg
from .numerics import average_ranks, binary_log_loss, sigmoid
from .validation import as_float_vector

__all__ = [
    "MetricReport",
    "auc",
    "classification_metrics",
    "fit_logreg_l2",
    "logreg_predict",
    "paired_t_test",
    "cohens_d_paired",
    "student_t_sf",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    """Scalar classification metrics at one threshold."""

    auc: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    log_loss: float
    threshold: float
    n: int

    def to_dict(self) -> dict:
        return {
            "auc": self.auc, "accuracy": self.accuracy,
            "precision": self.precision, "recall": self.recall,
            "f1": self.f1, "log_loss": self.log_loss,
            "threshold": self.threshold, "n": self.n,
        }


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative,
    ties counted one half (rank-statistic form)."""
    scores = as_float_vector(np.asarray(scores, dtype=np.float64), "scores")
    labels = np.asarray(labels)
    if labels.shape != scores.shape:
        raise ValidationError("scores and labels must have equal length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs both classes present")
    ranks = average_ranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def classification_metrics(probs, labels, threshold: float = 0.5) -> MetricReport:
    """Confusion-matrix metrics at a threshold (``>=`` predicts positive).

    Precision is defined as 0 when nothing is predicted positive.  AUC is
    included when both classes are present, NaN otherwise.
    """
    probs = as_float_vector(np.asarray(probs, dtype=np.float64), "probs")
    labels = np.asarray(labels)
    if probs.size == 0 or probs.size != labels.size:
        raise ValidationError("probs and labels must be nonempty, equal length")
    if probs.min() < 0 or probs.max() > 1:
        raise ValidationError("probs must lie in [0, 1]")
    pred = probs >= threshold
    actual = labels == 1
    tp = int((pred & actual).sum())
    fp = int((pred & ~actual).sum())
    fn = int((~pred & actual).sum())
    tn = int((~pred & ~actual).sum())
    accuracy = (tp + tn) / probs.size
    if tp + fp == 0:
        warnings.warn("no positive predictions; precision reported as 0",
                      stacklevel=2)
        precision = 0.0
    else:
        precision = tp / (tp + fp)
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if (precision + recall) else 0.0)
    try:
        auc_value = auc(probs, labels)
    except ValidationError:
        auc_value = math.nan
    return MetricReport(auc_value, accuracy, precision, recall, f1,
                        binary_log_loss(labels, probs), threshold, probs.size)


# ---------------------------------------------------------------------------
# Logistic regression baselines
# ---------------------------------------------------------------------------

def fit_logreg_l2(train: Dataset, C: float = 1.0) -> np.ndarray:
    """L2 logistic regression minimizing ``0.5 ||beta||^2 + C * sum log-loss``
    with an unpenalized intercept (returned as the last coefficient)."""
    neg, pos = train.class_counts()
    if neg == 0 or pos == 0:
        raise ValidationError("training data contains a single class")
    return fit_penalized_logreg(train.features, train.labels, l2=1.0,
                                loss_weight=C, fit_intercept=True)


def logreg_predict(coefs: np.ndarray, X) -> np.ndarray:
    """Probabilities from a coefficient vector with trailing intercept."""
    X = np.asarray(X, dtype=np.float64)
    return sigmoid(X @ coefs[:-1] + coefs[-1])


# ---------------------------------------------------------------------------
# Significance statistics
# ---------------------------------------------------------------------------

def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the regularized incomplete beta."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Survival function of Student's t via the incomplete beta function."""
    if df <= 0:
        raise ValidationError("df must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * _regularized_incomplete_beta(df / 2.0, 0.5, x)
    return tail if t >= 0 else 1.0 - tail


def paired_t_test(a, b) -> tuple[float, int, float]:
    """Two-sided paired t-test; returns ``(t, df, p)``.

    Identical zero-variance differences give ``t = +-inf, p = 0`` for a
    nonzero mean and ``t = 0, p = 1`` when the arrays are equal.
    """
    a = as_float_vector(np.asarray(a, dtype=np.float64), "a")
    b = as_float_vector(np.asarray(b, dtype=np.float64), "b", a.size)
    n = a.size
    if n < 2:
        raise ValidationError("paired test needs n >= 2")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, df, 1.0
        return math.copysign(math.inf, mean), df, 0.0
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * student_t_sf(abs(t), df)
    return t, df, min(p, 1.0)


def cohens_d_paired(a, b) -> float:
    """Paired-difference effect size ``mean(d) / sd(d)`` (sample sd)."""
    a = as_float_vector(np.asarray(a, dtype=np.float64), "a")
    b = as_float_vector(np.asarray(b, dtype=np.float64), "b", a.size)
    if a.size < 2:
        raise ValidationError("effect size needs n >= 2")
    d = a - b
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd == 0.0:
        return 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    return mean / sd


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Protocol settings for :func:`run_experiment`; the hierarchical
    model's own settings travel on the estimator passed alongside."""

    folds: int = 5
    l2_c: float = 1.0
    alpha: float = 0.10
    protocol: str = "fit-once"  # fit once on complete data, or "refit"

    def validate(self):
        if self.protocol not in ("fit-once", "refit"):
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if self.folds < 2:
            raise ValidationError("folds must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")


METHODS = ("hierarchical", "pooled", "independent")


@dataclass
class ExperimentReport:
    """Per-evaluation rows plus aggregates, tests, and audits."""

    rows: list[dict]
    aggregates: dict
    paired_tests: dict
    conformal: dict
    diagnostics: dict
    flags: list[str]
    protocol: str
    n_evaluations: int
    runtime_seconds: float

    def to_json(self) -> str:
        return json.dumps({
            "protocol": self.protocol,
            "protocol_note": (
                "hierarchical model fitted once on complete data and "
                "evaluated across folds (evaluation rows enter the fit)"
                if self.protocol == "fit-once" else
                "hierarchical model refitted per fold (leakage-free)"),
            "n_evaluations": self.n_evaluations,
            "aggregates": self.aggregates,
            "paired_tests": self.paired_tests,
            "conformal": self.conformal,
            "diagnostics": self.diagnostics,
            "flags": self.flags,
            "runtime_seconds": self.runtime_seconds,
        }, indent=2)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    def rows_to_csv(self, path) -> None:
        columns = ["sme", "fold", "method", "auc", "accuracy", "precision",
                   "recall", "f1", "log_loss", "n"]
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([row[c] for c in columns] for row in self.rows)


def _aggregate(rows: list[dict]) -> dict:
    out = {}
    for method in METHODS:
        values = {m: [] for m in ("auc", "accuracy", "precision", "recall",
                                  "f1", "log_loss")}
        for row in rows:
            if row["method"] == method:
                for m in values:
                    values[m].append(row[m])
        if values["auc"]:
            out[method] = {}
            for m, vals in values.items():
                arr = np.asarray(vals)
                out[method][f"{m}_mean"] = float(arr.mean())
                out[method][f"{m}_std"] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            out[method]["n"] = len(values["auc"])
    return out


def run_experiment(collection: SMECollection, model: HierarchicalLogistic,
                   config: ExperimentConfig, seed: int) -> ExperimentReport:
    """Run the multi-entity cross-validation comparison.

    Per entity, stratified folds are built deterministically from
    ``seed``; baselines are refitted on every fold's training data while
    the hierarchical model follows ``config.protocol``.  Each hierarchical
    fit clones the unfitted ``model`` with seed ``seed`` (fit-once) or
    ``seed + 1000 + k`` (refit, fold k).  A baseline fit that fails to
    converge is flagged and its rows for that fold are left out.  A
    failed hierarchical fit, such as a sampler failure, is flagged and the
    report has no hierarchical rows; a ``DataError`` from it (a prior over
    other features) propagates.  The conformal audit keeps each fold's
    ``(probs, labels)`` per entity: a fold's threshold pools the other
    folds' nonconformity scores across entities, its sets come from one
    ``predict_sets`` call, and the folds' sets are audited together.  A
    collection where no entity can be split into folds raises
    ``DataError`` before any fit.
    """
    config.validate()
    start = time.perf_counter()
    K = config.folds
    flags: list[str] = []

    folds_per_sme: dict[int, list] = {}
    for j, ds in enumerate(collection.smes):
        try:
            folds_per_sme[j] = stratified_kfold(ds, K, seed + j)
        except ValidationError as exc:
            flags.append(f"sme {collection.ids[j]} excluded from folds: {exc}")
    if not folds_per_sme:
        raise DataError(f"no entity can be split into {K} stratified folds: "
                        + "; ".join(flags))

    def make_hier(train_collection: SMECollection, fit_seed: int):
        params = {**model.get_params(), "seed": fit_seed}
        return type(model)(**params).fit(train_collection)

    hier_models: dict | None = {}
    try:
        if config.protocol == "fit-once":
            hier_models[None] = make_hier(collection, seed)
        else:
            for k in range(K):
                train_smes = tuple(folds_per_sme[j][k][0]
                                   if j in folds_per_sme else ds
                                   for j, ds in enumerate(collection.smes))
                hier_models[k] = make_hier(
                    SMECollection(train_smes, collection.ids),
                    seed + 1000 + k)
    except DataError:
        raise
    except ChurnpoolError as exc:
        # Partial report: baselines still run, hierarchical rows are absent.
        flags.append(f"hierarchical stage failed: {exc}")
        hier_models = None

    if hier_models is not None:
        diag_models = list(hier_models.values())
        diagnostics = {
            "max_rhat": max(m.diagnostics_.max_rhat() for m in diag_models),
            "min_ess": min(m.diagnostics_.min_ess() for m in diag_models),
            "n_divergent": sum(m.diagnostics_.n_divergent
                               for m in diag_models),
            "total_draws": sum(m.trace_.n_chains * m.trace_.n_draws
                               for m in diag_models),
            "mean_accept": float(np.mean([m.diagnostics_.mean_accept
                                          for m in diag_models])),
            "n_grad": sum(m.diagnostics_.n_grad for m in diag_models),
        }
    else:
        diagnostics = {}

    # Pooled baseline per fold: concatenation of all entities' training folds.
    pooled_models = {}
    for k in range(K):
        features = np.concatenate([folds_per_sme[j][k][0].features
                                   for j in folds_per_sme])
        labels = np.concatenate([folds_per_sme[j][k][0].labels
                                 for j in folds_per_sme])
        pooled_ds = Dataset(features, labels, collection.feature_names)
        try:
            pooled_models[k] = fit_logreg_l2(pooled_ds, config.l2_c)
        except ConvergenceError as exc:
            # Like a skipped independent fit: this fold has no pooled rows.
            flags.append(f"fold {k}: pooled fit skipped: {exc}")

    rows: list[dict] = []
    # Per fold, the (probs, labels) of each entity's scored held-out rows.
    hier_folds: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in range(K)]

    for j in sorted(folds_per_sme):
        for k, (train, test) in enumerate(folds_per_sme[j]):
            evals = {}
            probs_h = None
            if hier_models is not None:
                fitted = hier_models[None if config.protocol == "fit-once"
                                     else k]
                probs_h = fitted.predict_proba(test.features, j)
                evals["hierarchical"] = probs_h
            if k in pooled_models:
                evals["pooled"] = logreg_predict(pooled_models[k],
                                                 test.features)
            try:
                coefs = fit_logreg_l2(train, config.l2_c)
                evals["independent"] = logreg_predict(coefs, test.features)
            except (ValidationError, ConvergenceError) as exc:
                flags.append(
                    f"sme {collection.ids[j]} fold {k}: independent fit "
                    f"skipped: {exc}")
            neg, pos = test.class_counts()
            if neg == 0 or pos == 0:
                flags.append(
                    f"sme {collection.ids[j]} fold {k}: single-class test "
                    "fold excluded")
                continue
            for method, probs in evals.items():
                report = classification_metrics(probs, test.labels)
                row = {"sme": collection.ids[j], "fold": k, "method": method}
                row.update(report.to_dict())
                rows.append(row)
            if probs_h is not None:
                hier_folds[k].append((probs_h, test.labels))

    # Paired tests on per-evaluation AUC, restricted to complete pairs.
    auc_by_method: dict[str, dict] = {m: {} for m in METHODS}
    for row in rows:
        auc_by_method[row["method"]][(row["sme"], row["fold"])] = row["auc"]
    paired_tests = {}
    for other in ("independent", "pooled"):
        keys = sorted(set(auc_by_method["hierarchical"])
                      & set(auc_by_method[other]))
        if len(keys) >= 2:
            a = [auc_by_method["hierarchical"][key] for key in keys]
            b = [auc_by_method[other][key] for key in keys]
            t, df, p = paired_t_test(a, b)
            paired_tests[f"hierarchical_vs_{other}"] = {
                "t": t, "df": df, "p_two_sided": p,
                "cohens_d": cohens_d_paired(a, b),
                "mean_difference": float(np.mean(a) - np.mean(b)),
                "n_pairs": len(keys),
            }

    # Conformal audit: per fold, calibrate on the other folds' pooled
    # scores, predict sets for the held-out fold.
    conservative = recommend_conservative(
        [collection.smes[j].n for j in folds_per_sme])
    sets, labels_audited = [], []
    thresholds = {}
    for k in range(K):
        calibration = [np.abs(labels.astype(np.float64) - probs)
                       for kk in range(K) if kk != k
                       for probs, labels in hier_folds[kk]]
        if not calibration:
            continue
        result = calibrate_pooled(calibration, config.alpha)
        thresholds[k] = result.q_hat
        if hier_folds[k]:
            probs, labels = map(np.concatenate, zip(*hier_folds[k]))
            sets.append(predict_sets(probs, result.q_hat))
            labels_audited.append(labels)
    conformal: dict = {"strategy": "pooled",
                       "conservative_recommended": conservative,
                       "alpha": config.alpha,
                       "fold_thresholds": thresholds}
    if sets:
        conformal.update(coverage_audit(np.concatenate(sets),
                                        np.concatenate(labels_audited)))

    runtime = time.perf_counter() - start
    return ExperimentReport(
        rows=rows,
        aggregates=_aggregate(rows),
        paired_tests=paired_tests,
        conformal=conformal,
        diagnostics=diagnostics,
        flags=flags,
        protocol=config.protocol,
        n_evaluations=sum(1 for r in rows if r["method"] == "hierarchical"),
        runtime_seconds=runtime,
    )
