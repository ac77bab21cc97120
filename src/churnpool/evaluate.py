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
across entities.  The report names it ``"pooled"``, records whether the
scale table recommends the calibration-conditional rank (which the audit
does not apply) and breaks the audited coverage down per entity.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformal import (calibrate_pooled, coverage_audit, predict_sets,
                        recommend_conservative)
from .data import Dataset, SMECollection, _write_csv, stratified_kfold
from .errors import (ConvergenceError, DataError, DiagnosticError,
                     ValidationError)
from .hier_model import HierarchicalLogistic
from .logreg import fit_penalized_logreg
from .numerics import (average_ranks, binary_log_loss,
                       regularized_incomplete_beta, sigmoid)
from .validation import as_float_vector

__all__ = [
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


def classification_metrics(probs, labels, threshold: float = 0.5) -> dict:
    """Confusion-matrix metrics at a threshold (``>=`` predicts positive),
    keyed ``auc``, ``accuracy``, ``precision``, ``recall``, ``f1``,
    ``log_loss``, ``threshold`` and ``n``.

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
    return {"auc": auc_value, "accuracy": accuracy, "precision": precision,
            "recall": recall, "f1": f1,
            "log_loss": binary_log_loss(labels, probs),
            "threshold": threshold, "n": probs.size}


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

def student_t_sf(t: float, df: float) -> float:
    """Survival function of Student's t via the incomplete beta function."""
    if df <= 0:
        raise ValidationError("df must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
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
        if not self.l2_c > 0.0:
            raise ValidationError("l2_c must be > 0")
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
        _write_csv(path, columns,
                   ([row[c] for c in columns] for row in self.rows))


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
    sampler failure (``DiagnosticError``) in a hierarchical fit is flagged
    and the report has no hierarchical rows; any other error from the fit,
    such as a prior over other features or a bad sampler setting,
    propagates.  The conformal audit keeps each fold's hierarchical
    ``(p_hat, y)`` per entity: a fold's threshold comes from the other
    folds' rows pooled across entities, its sets come from one
    ``predict_sets`` call, and the folds' sets are audited together, in
    total and per entity.  A collection where no entity can be split into
    folds raises ``DataError`` before any fit.
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

    def fit_hier(train_collection: SMECollection, fit_seed: int):
        params = {**model.get_params(), "seed": fit_seed}
        return type(model)(**params).fit(train_collection)

    # fits holds the distinct hierarchical fits, by_fold[k] the one that
    # scores fold k.
    try:
        if config.protocol == "fit-once":
            fits = [fit_hier(collection, seed)]
            by_fold = fits * K
        else:
            fits = by_fold = [
                fit_hier(SMECollection(
                    tuple(folds_per_sme[j][k][0] if j in folds_per_sme else ds
                          for j, ds in enumerate(collection.smes)),
                    collection.ids), seed + 1000 + k)
                for k in range(K)]
    except DiagnosticError as exc:
        # Partial report: baselines still run, hierarchical rows are absent.
        flags.append(f"hierarchical stage failed: {exc}")
        fits = by_fold = None

    diagnostics = {}
    if fits is not None:
        diagnostics = {
            "max_rhat": max(m.diagnostics_.max_rhat() for m in fits),
            "min_ess": min(m.diagnostics_.min_ess() for m in fits),
            "n_divergent": sum(m.diagnostics_.n_divergent for m in fits),
            "total_draws": sum(m.trace_.n_chains * m.trace_.n_draws
                               for m in fits),
            "mean_accept": float(np.mean([m.diagnostics_.mean_accept
                                          for m in fits])),
            "n_grad": sum(m.diagnostics_.n_grad for m in fits),
        }

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
    # Per fold, the hierarchical (entity index, p_hat, y) of each entity's
    # scored held-out rows.
    hier_folds: list[list[tuple[int, np.ndarray, np.ndarray]]] = [
        [] for _ in range(K)]

    # Hierarchical scores, one call per fold over every entity's held-out
    # rows; hier_probs[j, k] holds entity j's share of fold k.
    hier_probs: dict[tuple[int, int], np.ndarray] = {}
    entities = sorted(folds_per_sme)
    for k, fitted in enumerate(by_fold or ()):
        tests = [folds_per_sme[j][k][1] for j in entities]
        sizes = [test.n for test in tests]
        probs = fitted.predict_proba(
            np.concatenate([test.features for test in tests]),
            np.repeat(entities, sizes))
        for j, part in zip(entities, np.split(probs, np.cumsum(sizes)[:-1])):
            hier_probs[j, k] = part

    for j in entities:
        for k, (train, test) in enumerate(folds_per_sme[j]):
            evals = {}
            probs_h = hier_probs.get((j, k))
            if probs_h is not None:
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
                rows.append({"sme": collection.ids[j], "fold": k,
                             "method": method,
                             **classification_metrics(probs, test.labels)})
            if probs_h is not None:
                hier_folds[k].append((j, probs_h, test.labels))

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

    # Conformal audit: per fold, calibrate on the other folds' rows pooled
    # across entities, predict sets for the held-out fold.
    conservative = recommend_conservative(
        [collection.smes[j].n for j in folds_per_sme])
    sets, labels_audited, owners = [], [], []
    thresholds = {}
    for k in range(K):
        calibration = [(p, y) for kk in range(K) if kk != k
                       for _, p, y in hier_folds[kk]]
        if not calibration:
            continue
        p_cal, y_cal = map(np.concatenate, zip(*calibration))
        result = calibrate_pooled(p_cal, y_cal, config.alpha)
        thresholds[k] = result.q_hat
        if hier_folds[k]:
            owner, probs, labels = zip(*hier_folds[k])
            sets.append(predict_sets(np.concatenate(probs), result.q_hat))
            labels_audited.extend(labels)
            owners.extend(np.full(y.size, j) for j, y in zip(owner, labels))
    conformal: dict = {"strategy": "pooled",
                       "conservative_recommended": conservative,
                       "alpha": config.alpha,
                       "fold_thresholds": thresholds}
    if sets:
        sets, labels_audited, owners = map(
            np.concatenate, (sets, labels_audited, owners))
        conformal.update(coverage_audit(sets, labels_audited))
        # The group-conditional (Mondrian) view: no guarantee of its own.
        covered = np.where(labels_audited == 1, sets[:, 1], sets[:, 0])
        conformal["per_entity_coverage"] = {
            collection.ids[j]: float(covered[owners == j].mean())
            for j in np.unique(owners)}

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
