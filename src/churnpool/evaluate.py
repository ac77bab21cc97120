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

The conformal audit calibrates each fold's threshold on the other folds'
hierarchical scores, pooled across entities, at the rank that
``calibrate`` delivers, and breaks the audited coverage down per entity
and per label.  Under fit-once the report names the audit ``"pooled"``;
the fit saw the calibration rows, so the audit carries no coverage
guarantee.  Under refit, fold k's threshold comes from scores of models
that did not see those rows but differ from the one scoring fold k: that
is cross-conformal prediction, named ``"cross-conformal"``, whose
guarantee is coverage of at least ``1 - 2 alpha`` (Barber et al.,
"Predictive inference with the jackknife+", arXiv:1905.02928), not
``1 - alpha``.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .conformal import calibrate_pooled, coverage_audit, predict_sets
from .data import SMECollection, _write_csv, stratified_kfold
from .errors import (ConvergenceError, DataError, DiagnosticError,
                     ValidationError, atomic_write)
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

def fit_logreg_l2(X, y, C: float = 1.0) -> np.ndarray:
    """L2 logistic regression of 0/1 labels ``y`` on the rows of ``X``,
    minimizing ``0.5 ||beta||^2 + C * sum log-loss`` with an unpenalized
    intercept (returned as the last coefficient)."""
    y = np.asarray(y)
    if y.size == 0 or y.min() == y.max():
        raise ValidationError("training data contains a single class")
    return fit_penalized_logreg(X, y, l2=1.0, loss_weight=C,
                                fit_intercept=True)


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
                "hierarchical model refitted per fold (leakage-free); "
                "the conformal audit is cross-conformal, guaranteeing "
                "coverage of at least 1 - 2 alpha"),
            "n_evaluations": self.n_evaluations,
            "aggregates": self.aggregates,
            "paired_tests": self.paired_tests,
            "conformal": self.conformal,
            "diagnostics": self.diagnostics,
            "flags": self.flags,
            "runtime_seconds": self.runtime_seconds,
        }, indent=2)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json())

    def rows_to_csv(self, path) -> None:
        columns = ["sme", "fold", "method", "auc", "accuracy", "precision",
                   "recall", "f1", "log_loss", "n"]
        _write_csv(path, columns,
                   ([row[c] for c in columns] for row in self.rows))


def _aggregate(rows: list[dict]) -> dict:
    out = {}
    for method in METHODS:
        picked = [row for row in rows if row["method"] == method]
        if picked:
            out[method] = {}
            for m in ("auc", "accuracy", "precision", "recall", "f1",
                      "log_loss"):
                arr = np.asarray([row[m] for row in picked])
                out[method][f"{m}_mean"] = float(arr.mean())
                out[method][f"{m}_std"] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            out[method]["n"] = len(picked)
    return out


def run_experiment(collection: SMECollection, model: HierarchicalLogistic,
                   config: ExperimentConfig, seed: int) -> ExperimentReport:
    """Run the multi-entity cross-validation comparison.

    Entity j's folds are ``stratified_kfold(y_j, K, seed + j)`` of its
    labels ``y_j``; an entity it rejects is flagged and its rows get fold
    -1, which is never a test fold: every pooled and hierarchical fit
    trains on them and nothing scores them.  Every fit, score and audit
    set is a mask on the collection's row table and ``fold``.  Baselines
    are refitted on every fold's training rows while the hierarchical
    model follows ``config.protocol``: one fit with seed ``seed``
    (fit-once), or one on ``collection.take(fold != k)`` with seed
    ``seed + 1000 + k`` (refit).  Each fold is scored in one
    ``predict_proba`` call.  A baseline fit that fails to converge is
    flagged and its rows for that fold are left out.  A sampler failure
    (``DiagnosticError``) in a hierarchical fit is flagged and the report
    has no hierarchical rows; any other error from the fit, such as a
    prior over other features or a bad sampler setting, propagates.  The
    conformal audit keeps the rows of every (entity, fold) test set with
    both classes: a fold's threshold comes from the other folds' kept
    rows, its sets from one ``predict_sets`` call, and the sets are
    audited in total and per entity.  A collection where no entity can be
    split into folds raises ``DataError`` before any fit.
    """
    config.validate()
    start = time.perf_counter()
    K = config.folds
    flags: list[str] = []

    X, y, entity = collection.X, collection.y, collection.entity
    split: list[int] = []
    fold = np.full(y.size, -1)
    for j in range(collection.J):
        rows = entity == j
        try:
            fold[rows] = stratified_kfold(y[rows], K, seed + j)
            split.append(j)
        except ValidationError as exc:
            flags.append(f"sme {collection.ids[j]} excluded from folds: {exc}")
    if not split:
        raise DataError(f"no entity can be split into {K} stratified folds: "
                        + "; ".join(flags))

    def fit_hier(train_collection: SMECollection, fit_seed: int):
        sampler = replace(model.sampler, seed=fit_seed)
        return replace(model, sampler=sampler).fit(train_collection)

    # fits holds the distinct hierarchical fits, by_fold[k] the one that
    # scores fold k.
    try:
        if config.protocol == "fit-once":
            fits = [fit_hier(collection, seed)]
            by_fold = fits * K
        else:
            fits = by_fold = [
                fit_hier(collection.take(fold != k), seed + 1000 + k)
                for k in range(K)]
    except DiagnosticError as exc:
        # Partial report: baselines still run, hierarchical rows are absent.
        flags.append(f"hierarchical stage failed: {exc}")
        fits = by_fold = None

    diagnostics = {}
    p_hier = None
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
            "n_grad_warmup": sum(m.diagnostics_.n_grad_warmup for m in fits),
            "n_max_depth": sum(m.diagnostics_.n_max_depth for m in fits),
        }
        p_hier = np.empty(y.size)
        for k, fitted in enumerate(by_fold):
            test = fold == k
            p_hier[test] = fitted.predict_proba(X[test], entity[test])

    # Pooled baseline per fold: every row outside the fold.
    pooled_models = {}
    for k in range(K):
        train = fold != k
        try:
            pooled_models[k] = fit_logreg_l2(X[train], y[train], config.l2_c)
        except ConvergenceError as exc:
            # Like a skipped independent fit: this fold has no pooled rows.
            flags.append(f"fold {k}: pooled fit skipped: {exc}")

    rows: list[dict] = []
    # The rows of every (entity, fold) test set that holds both classes.
    kept = np.zeros(y.size, dtype=bool)
    for j in split:
        for k in range(K):
            test = (entity == j) & (fold == k)
            train = (entity == j) & (fold != k)
            evals = {}
            if p_hier is not None:
                evals["hierarchical"] = p_hier[test]
            if k in pooled_models:
                evals["pooled"] = logreg_predict(pooled_models[k], X[test])
            try:
                coefs = fit_logreg_l2(X[train], y[train], config.l2_c)
                evals["independent"] = logreg_predict(coefs, X[test])
            except (ValidationError, ConvergenceError) as exc:
                flags.append(
                    f"sme {collection.ids[j]} fold {k}: independent fit "
                    f"skipped: {exc}")
            if np.unique(y[test]).size < 2:
                flags.append(
                    f"sme {collection.ids[j]} fold {k}: single-class test "
                    "fold excluded")
                continue
            for method, probs in evals.items():
                rows.append({"sme": collection.ids[j], "fold": k,
                             "method": method,
                             **classification_metrics(probs, y[test])})
            kept |= test

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

    # Conformal audit: per fold, calibrate on the other folds' kept rows
    # pooled across entities, predict sets for the fold's kept rows.
    sets = np.zeros((y.size, 2), dtype=bool)
    audited = np.zeros(y.size, dtype=bool)
    thresholds = {}
    for k in range(K):
        calibration = kept & (fold != k)
        if p_hier is None or not calibration.any():
            continue
        result = calibrate_pooled(p_hier[calibration], y[calibration],
                                  config.alpha)
        thresholds[k] = result.q_hat
        test = kept & (fold == k)
        sets[test] = predict_sets(p_hier[test], result.q_hat)
        audited |= test
    conformal: dict = {
        "strategy": "pooled" if config.protocol == "fit-once"
        else "cross-conformal",
        "alpha": config.alpha,
        "fold_thresholds": thresholds}
    if audited.any():
        conformal.update(coverage_audit(sets[audited], y[audited]))
        # The group-conditional (Mondrian) views: no guarantee of their own.
        covered = sets[np.arange(y.size), y]
        conformal["per_entity_coverage"] = {
            collection.ids[j]: float(covered[audited & (entity == j)].mean())
            for j in np.unique(entity[audited])}
        conformal["per_label_coverage"] = {
            str(label): float(covered[audited & (y == label)].mean())
            for label in np.unique(y[audited])}

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
