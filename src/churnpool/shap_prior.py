"""Exact per-feature Shapley attribution on tree ensembles, and the
transformation of attribution statistics into a Gaussian coefficient prior.

Attribution semantics
---------------------
Attributions are computed in margin (log-odds) space against the
path-dependent expectation of each tree: when a feature is "absent" the
tree is descended into both children weighted by their recorded fitting
covers, and when "present" the input's own branch is followed.

For a single root-to-leaf path this value function factorizes over the
path's distinct features, so each leaf contributes a multiplicative
cooperative game whose Shapley values have a closed form: for feature j,

    phi_j = value * (p_j - q_j) * sum_s w(s, d) * E_s,

where p_j indicates that x satisfies every node of feature j on the path,
q_j is the product of that feature's branch cover fractions, w(s, d) are
the Shapley order weights, and E_s are the coefficients of the leave-one-
out polynomial  prod_{k != j} (q_k + p_k t).  Summing over leaves and
trees yields attributions that satisfy local accuracy exactly:
base_value + sum_j phi_j equals the predicted margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, StandardizationStats
from .errors import ValidationError, malformed_artifact
from .gbdt import TreeEnsemble, TreeNode
from .numerics import sigmoid
from .rng import default_rng
from .validation import as_float_matrix, as_name_tuple

__all__ = [
    "TreeShapExplainer",
    "PriorSpec",
    "extract_priors",
    "prior_only_auc",
    "VARIANCE_FLOOR",
]

# Diagonal prior variances are floored here before scaling so the prior
# never becomes singular when per-source attribution means agree exactly.
VARIANCE_FLOOR = 1e-4


def _shapley_order_weights(d: int) -> np.ndarray:
    """w[s] = s! (d-1-s)! / d! for s = 0..d-1."""
    return np.array([math.factorial(s) * math.factorial(d - 1 - s)
                     / math.factorial(d) for s in range(d)])


# Element budget of one table DP pass's prefix and suffix products (2 MiB).
_CHUNK_CELLS = 1 << 18


class _LeafGame:
    """One leaf's game: value, distinct path features with their constraints
    and cover fractions, and its attribution table (see ``_set_tables``)."""

    __slots__ = ("value", "features", "constraints", "q", "weight_empty", "tables")

    def __init__(self, value: float, features: list[int],
                 constraints: list[list[tuple[float, bool]]], q: np.ndarray):
        self.value = value
        self.features = np.asarray(features, dtype=np.intp)
        self.constraints = constraints
        self.q = q
        # Weight of this leaf in the tree expectation: product of all
        # branch cover fractions along the path.
        self.weight_empty = float(np.prod(q))
        self.tables: np.ndarray | None = None


def _factor_products(q: np.ndarray, bits: np.ndarray, order) -> list[np.ndarray]:
    """Coefficients of prod over the first m factors (q_k + p_k t) in
    ``order``, for m = 0..d, as arrays indexed [leaf, pattern, power]."""
    products = [np.zeros((q.shape[0], bits.shape[0], 1))]
    products[0][:, :, 0] = 1.0
    for m, k in enumerate(order):
        cur = products[-1]
        nxt = np.zeros(cur.shape[:2] + (m + 2,))
        nxt[:, :, :m + 1] = cur * q[:, k, None, None]
        nxt[:, :, 1:m + 2] += cur * bits[:, k:k + 1]
        products.append(nxt)
    return products


def _attribution_tables(q: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Tables of shape (L, 2**d, d) for L leaves with d path features each:
    entry [l, pattern, j] is feature j's attribution in leaf l."""
    d = q.shape[1]
    n_pat = 1 << d
    bits = ((np.arange(n_pat)[:, None] >> np.arange(d)[None, :]) & 1
            ).astype(np.float64)
    # Leave-one-out polynomial products via prefix/suffix DP.
    prefix = _factor_products(q, bits, range(d))
    suffix = _factor_products(q, bits, range(d - 1, -1, -1))
    w = _shapley_order_weights(d)
    table = np.empty((q.shape[0], n_pat, d))
    for j in range(d):
        # prod_{k != j} = prefix[j] * suffix[d-1-j], degree d-1
        loo = np.zeros((q.shape[0], n_pat, d))
        pre, suf = prefix[j], suffix[d - 1 - j]
        for a in range(pre.shape[2]):
            loo[:, :, a:a + suf.shape[2]] += pre[:, :, a:a + 1] * suf
        table[:, :, j] = (bits[:, j] - q[:, j, None]) * (loo @ w)
    return table * value[:, None, None]


def _set_tables(games: list[_LeafGame], learning_rate: float) -> None:
    """Give every game its table times ``learning_rate``, stored transposed
    as (d, 2**d): row k holds path feature k's attribution per presence
    pattern.  Leaves of equal d share one DP pass, chunked so that the
    d + 1 prefix and d + 1 suffix products it keeps alive, 2**d * (d + 1)
    * (d + 2) elements per leaf, fit in ``_CHUNK_CELLS``; the table and
    the loop's temporaries add about 3 * 2**d * d per leaf."""
    by_depth: dict[int, list[_LeafGame]] = {}
    for game in games:
        by_depth.setdefault(game.q.size, []).append(game)
    for d, group in by_depth.items():
        chunk = max(1, _CHUNK_CELLS // ((1 << d) * (d + 1) * (d + 2)))
        for start in range(0, len(group), chunk):
            part = group[start:start + chunk]
            tables = learning_rate * _attribution_tables(
                np.array([g.q for g in part]),
                np.array([g.value for g in part]))
            for game, table in zip(part, tables):
                game.tables = np.ascontiguousarray(table.T)


def _leaf_games(root: TreeNode) -> list[_LeafGame]:
    games: list[_LeafGame] = []

    def walk(node: TreeNode, path: list[tuple[int, float, bool, float]]):
        if node.is_leaf:
            by_feature: dict[int, tuple[list[tuple[float, bool]], float]] = {}
            for feat, threshold, went_left, frac in path:
                conds, q = by_feature.get(feat, ([], 1.0))
                conds.append((threshold, went_left))
                by_feature[feat] = (conds, q * frac)
            feats = sorted(by_feature)
            games.append(_LeafGame(
                node.value, feats,
                [by_feature[f][0] for f in feats],
                np.array([by_feature[f][1] for f in feats])))
            return
        if node.cover <= 0:
            raise ValidationError("internal node with nonpositive cover")
        for child, went_left in ((node.left, True), (node.right, False)):
            frac = child.cover / node.cover
            path.append((node.feature_index, node.threshold, went_left, frac))
            walk(child, path)
            path.pop()

    walk(root, [])
    return games


class TreeShapExplainer:
    """Shapley attribution for a fitted :class:`TreeEnsemble`.

    Per-tree structures are built once at construction; ``shap_values`` is
    then a pure, thread-safe evaluation.
    """

    def __init__(self, ensemble: TreeEnsemble):
        self.ensemble = ensemble
        self._games = [_leaf_games(t) for t in ensemble.trees]
        leaves = [g for games in self._games for g in games]
        lr = ensemble.learning_rate
        self.expected_value = ensemble.init_logodds + lr * sum(
            g.value * g.weight_empty for g in leaves)
        _set_tables(leaves, lr)

    def shap_values(self, X) -> np.ndarray:
        """Attribution matrix of shape (n, p) in margin space for the rows
        of the matrix ``X``."""
        X = as_float_matrix(X)
        if X.shape[1] != self.ensemble.p:
            raise ValidationError(
                f"X has {X.shape[1]} features, expected {self.ensemble.p}")
        XT = np.ascontiguousarray(X.T)
        outT = np.zeros(XT.shape)
        for games in self._games:
            # X is finite, so a right branch is the negation of its node's
            # decision; each (feature, threshold) is compared once per tree.
            decisions: dict[tuple[int, float], np.ndarray] = {}
            for game in games:
                if game.features.size == 0:
                    continue
                idx = np.zeros(XT.shape[1], dtype=np.intp)
                for k, (feat, conds) in enumerate(
                        zip(game.features, game.constraints)):
                    ok = None
                    for threshold, went_left in conds:
                        left = decisions.get((feat, threshold))
                        if left is None:
                            left = decisions[feat, threshold] = (
                                XT[feat] <= threshold)
                        hit = left if went_left else ~left
                        ok = hit if ok is None else ok & hit
                    idx |= ok.astype(np.intp) << k
                # Accumulate in fixed (tree, leaf) order for determinism.
                rows = np.take(game.tables, idx, axis=1)
                for feat, row in zip(game.features, rows):
                    outT[feat] += row
        return np.ascontiguousarray(outT.T)


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian coefficient prior extracted from attribution statistics.

    ``beta0`` is nonnegative by construction (attribution magnitudes carry
    no sign), which the downstream hierarchical fit treats as a location
    to be corrected by data; see the provenance metadata for how the
    diagonal variances were formed.
    """

    feature_names: tuple[str, ...]
    beta0: np.ndarray
    sigma0_diag: np.ndarray
    scale_lambda: float
    provenance: dict

    def __post_init__(self):
        beta0 = np.asarray(self.beta0, dtype=np.float64)
        sigma0 = np.asarray(self.sigma0_diag, dtype=np.float64)
        if beta0.shape != sigma0.shape or beta0.ndim != 1:
            raise ValidationError("beta0 and sigma0_diag must be 1-D, equal length")
        if len(self.feature_names) != beta0.size:
            raise ValidationError("feature_names length must match beta0")
        if not np.all(np.isfinite(beta0)):
            raise ValidationError("beta0 must be finite")
        if np.any(sigma0 <= 0):
            raise ValidationError("sigma0_diag must be strictly positive")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "sigma0_diag", sigma0)

    @property
    def p(self) -> int:
        return self.beta0.size

    def to_json(self) -> str:
        return json.dumps({
            "feature_names": list(self.feature_names),
            "beta0": [float(v) for v in self.beta0],
            "sigma0_diag": [float(v) for v in self.sigma0_diag],
            "lambda": self.scale_lambda,
            "provenance": self.provenance,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "PriorSpec":
        """Inverse of ``to_json``; a malformed document raises ``DataError``."""
        with malformed_artifact("prior"):
            doc = json.loads(text)
            provenance = doc["provenance"]
            if not isinstance(provenance, dict):
                raise TypeError("provenance must be an object")
            return cls(as_name_tuple(doc["feature_names"]),
                       np.asarray(doc["beta0"], dtype=np.float64),
                       np.asarray(doc["sigma0_diag"], dtype=np.float64),
                       float(doc["lambda"]), provenance)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "PriorSpec":
        return cls.from_json(Path(path).read_bytes())


def extract_priors(ensemble: TreeEnsemble, val: Dataset,
                   stats: StandardizationStats,
                   lambda_scale: float = 1.0) -> PriorSpec:
    """Build a Gaussian coefficient prior from attribution statistics.

    The prior mean is the mean absolute attribution normalized to
    coefficient scale by the recorded pre-standardization stds.  Diagonal
    variances are the between-source-tag population variances of per-tag
    mean absolute attributions, floored and inflated by ``1 + lambda_scale``.

    With a single source tag the between-tag variance is undefined; the
    fallback uses ``(floor + phi_j**2) * (1 + lambda_scale)`` so prior
    width stays proportional to signal magnitude.  The fallback is
    recorded in the provenance.
    """
    if val.n == 0:
        raise ValidationError("validation dataset is empty")
    if lambda_scale < 0:
        raise ValidationError(f"lambda_scale must be >= 0, got {lambda_scale}")
    if stats.means.shape[0] != ensemble.p:
        raise ValidationError("standardization stats do not match model features")

    explainer = TreeShapExplainer(ensemble)
    all_abs = np.abs(explainer.shap_values(val.features))
    phi = all_abs.mean(axis=0)
    beta0 = phi / stats.stds

    tags = val.source_tags
    unique_tags = sorted(set(tags)) if tags is not None else []
    tag_arr = np.asarray(tags)
    fallback = len(unique_tags) < 2
    if fallback:
        sigma_sq = VARIANCE_FLOOR + phi ** 2
    else:
        per_tag = np.stack([
            all_abs[tag_arr == tag].mean(axis=0) for tag in unique_tags])
        sigma_sq = per_tag.var(axis=0)  # population variance over tags
    provenance = {
        "lambda": float(lambda_scale), "tags": unique_tags,
        "counts": {tag: int((tag_arr == tag).sum()) for tag in unique_tags},
        "fallback": fallback}
    sigma0 = np.maximum(sigma_sq, VARIANCE_FLOOR) * (1.0 + lambda_scale)
    return PriorSpec(ensemble.feature_names, beta0, sigma0,
                     float(lambda_scale), provenance)


def prior_only_auc(prior: PriorSpec, holdout: Dataset, draws: int,
                   seed: int) -> float:
    """Mean AUC of coefficient draws from the prior scored on held-out data."""
    # Imported at call time, so a wrapper installed on evaluate.auc (as
    # perfbench's tracer does) also sees these calls.
    from .evaluate import auc

    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    neg, pos = holdout.class_counts()
    if neg == 0 or pos == 0:
        raise ValidationError("holdout needs both classes for AUC")
    if holdout.p != prior.p:
        raise ValidationError("holdout feature count does not match prior")
    rng = default_rng(seed)
    sds = np.sqrt(prior.sigma0_diag)
    total = 0.0
    for _ in range(draws):
        beta = prior.beta0 + sds * rng.standard_normal(prior.p)
        total += auc(sigmoid(holdout.features @ beta), holdout.labels)
    return total / draws
