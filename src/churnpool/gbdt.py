"""Gradient-boosted regression trees on logistic loss.

Boosting starts from the base-rate log-odds and fits each squared-error tree
to the current residuals ``y - sigmoid(margin)`` on a fresh row subsample,
with per-tree feature subsampling, ridge-shrunk leaf values, and validation
early stopping.  Split search is exact greedy on a presorted layout: each
feature column is sorted once per fit, every node keeps its rows in that
order per feature, and a split partitions those orders with a stable
boolean filter, so no node sorts (the exact-greedy layout of XGBoost,
Chen & Guestrin, arXiv:1603.02754).

Each node scores all of its features in one search: it gathers the
residuals in every feature's order as one (features x rows) block, takes
the prefix sums along the rows, evaluates the gain of every cut on the
whole block and takes the first maximum per feature, then the first
feature reaching the largest gain.  The choice and the bits are those of a
per-feature search.  Three details keep them so, and keep memory flat:

* the parent term ``total ** 2 / n`` is a scalar power per feature, since
  ``np.square`` of the totals differs from it in the last bit now and then;
* only features whose training column repeats a value get a tie mask,
  because a column with no ties has none in any row subset;
* features go through in blocks of at most ``_BLOCK_ELEMENTS`` elements
  per temporary, so the root of a large fit adds no large arrays.

Node covers (fitting-subsample counts) are recorded on every node: the
attribution layer weighs tree paths by them, so they are part of the
persisted model.  Each leaf writes its value for its fitting rows into
one per-fit buffer, so only the rows the row subsample left out, and the
validation rows, are routed through the new tree, each through the root
child on its side.

Every root is grown by two sides that share no state (``_Side``).  The
lower side searches the lower half of the tree's features for the root
split and the upper side the upper half, as XGBoost and LightGBM's
feature-parallel mode split exact split finding by feature; the better
of the two is the root split.  Each side then rebuilds its root child's
order from ``presorted``, grows the child, and routes its side's
left-out training rows and validation rows through it.  The calling
process is the lower side and takes the larger child.  The upper side is
served through ``forking``: when the process may use two CPUs or more,
``fit`` forks one worker that inherits the data and ``presorted`` and
serves it.  Each round makes two calls of it: ``split`` with the
residuals, the fitting rows, the tree's features and their tie flags,
which returns its half's best split, and ``grow`` with the root split,
which returns its child's subtree and the leaf values of its rows.  With
one usable CPU, or in a daemon process, the upper side runs here through
the same calls.  Either way the model has the same bits.  The worker is
joined before ``fit`` returns, and terminated first on an error; a lost
worker is a ``RuntimeError``.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ValidationError, atomic_write, check_is_fitted,
                     malformed_artifact)
# _usable_cpus is looked up here at each call, so tests can patch it.
from .forking import served
from .forking import usable_cpus as _usable_cpus
from .numerics import PROB_CLIP, binary_log_loss, sigmoid
from .rng import default_rng
from .validation import as_float_matrix, as_name_tuple, check_binary_labels

__all__ = [
    "TreeNode",
    "TreeEnsemble",
    "GradientBoostedTrees",
    "feature_importance",
]

_MIN_SPLIT_GAIN = 1e-12
# Largest temporary of the split search, in elements (1 MiB of float64).
_BLOCK_ELEMENTS = 2 ** 17


class TreeNode:
    """One node of a regression tree.

    Internal nodes carry ``(feature_index, threshold, left, right, gain)``;
    leaves carry ``value``.  Both carry ``cover``, the number of fitting
    rows that reached the node.
    """

    __slots__ = ("feature_index", "threshold", "left", "right", "gain",
                 "value", "cover")

    def __init__(self, *, feature_index=None, threshold=None, left=None,
                 right=None, gain=None, value=None, cover=0.0):
        self.feature_index = feature_index
        self.threshold = threshold
        self.left = left
        self.right = right
        self.gain = gain
        self.value = value
        self.cover = float(cover)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value, "cover": self.cover}
        return {
            "feature_index": self.feature_index,
            "threshold": self.threshold,
            "gain": self.gain,
            "cover": self.cover,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict, p: int) -> "TreeNode":
        """Inverse of ``to_dict`` for a model of ``p`` features.

        A non-finite number or a negative cover raises ``ValueError``.
        """
        cover = _finite(doc, "cover")
        if cover < 0.0:
            raise ValueError(f"cover {cover} is negative")
        if "value" in doc:
            return cls(value=_finite(doc, "value"), cover=cover)
        feature = operator.index(doc["feature_index"])
        if not 0 <= feature < p:
            raise IndexError(f"feature_index {feature} outside [0, {p})")
        return cls(feature_index=feature, threshold=_finite(doc, "threshold"),
                   gain=_finite(doc, "gain"), cover=cover,
                   left=cls.from_dict(doc["left"], p),
                   right=cls.from_dict(doc["right"], p))


def _finite(doc: dict, key: str) -> float:
    value = float(doc[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} is {value}")
    return value


def _tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    return _route(root, X, np.arange(X.shape[0]), np.empty(X.shape[0]))


def _route(root: TreeNode, X: np.ndarray, rows: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """For each row index ``i`` in ``rows``, write the leaf value of
    ``X[i]`` to ``out[i]``."""
    stack = [(root, rows)]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.value
            continue
        go_left = X[rows, node.feature_index] <= node.threshold
        stack.append((node.left, rows[go_left]))
        stack.append((node.right, rows[~go_left]))
    return out


@dataclass
class TreeEnsemble:
    """Additive boosted trees: margin(x) = init_logodds + lr * sum tree_m(x)."""

    init_logodds: float
    learning_rate: float
    trees: list[TreeNode]
    feature_names: tuple[str, ...]

    @property
    def p(self) -> int:
        return len(self.feature_names)

    def predict_margin(self, X) -> np.ndarray:
        """Raw log-odds margin of every row of the matrix ``X``."""
        X = as_float_matrix(X)
        if X.shape[1] != self.p:
            raise ValidationError(f"X has {X.shape[1]} features, expected {self.p}")
        margins = np.full(X.shape[0], self.init_logodds)
        # Fixed tree-index order keeps the reduction bit-deterministic.
        for tree in self.trees:
            margins += self.learning_rate * _tree_predict(tree, X)
        return margins

    def predict_proba(self, X) -> np.ndarray:
        """Churn probability, clipped away from 0/1 for log-loss stability."""
        return np.clip(sigmoid(self.predict_margin(X)), PROB_CLIP,
                       1.0 - PROB_CLIP)

    def to_json(self) -> str:
        return json.dumps({
            "init_logodds": self.init_logodds,
            "learning_rate": self.learning_rate,
            "feature_names": list(self.feature_names),
            "trees": [t.to_dict() for t in self.trees],
        })

    @classmethod
    def from_json(cls, text: str | bytes) -> "TreeEnsemble":
        """Inverse of ``to_json``; a malformed document raises ``DataError``."""
        with malformed_artifact("tree ensemble"):
            doc = json.loads(text)
            names = as_name_tuple(doc["feature_names"])
            return cls(_finite(doc, "init_logodds"),
                       _finite(doc, "learning_rate"),
                       [TreeNode.from_dict(t, len(names)) for t in doc["trees"]],
                       names)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "TreeEnsemble":
        return cls.from_json(Path(path).read_bytes())


def _best_node_split(X: np.ndarray, r: np.ndarray, order: np.ndarray,
                     features: np.ndarray, tied: np.ndarray, min_leaf: int):
    """Best squared-error split of one node over all of its features.

    ``order[k]`` holds the node's rows sorted by feature ``features[k]``
    and ``tied[k]`` says whether that feature's training column repeats a
    value.  Returns ``(gain, k, cut, threshold)`` for the winning feature
    position ``k`` and its first ``cut`` rows of ``order[k]``, or ``None``.
    Gain is the parent SSE minus the children SSE under mean predictions,
    via the prefix-sum identity; the first feature and then the first cut
    reaching the largest gain wins, and no gain at or below
    ``_MIN_SPLIT_GAIN`` counts.  The node must hold at least
    ``2 * min_leaf`` rows.
    """
    n = order.shape[1]
    lo, hi = min_leaf, n - min_leaf
    # Cut c leaves c rows on the left; every c in [lo, hi] is scored.
    left_counts = np.arange(lo, hi + 1, dtype=np.float64)
    right_counts = n - left_counts
    best = None
    best_gain = _MIN_SPLIT_GAIN
    step = max(1, _BLOCK_ELEMENTS // n)
    for k0 in range(0, len(features), step):
        block = order[k0:k0 + step]
        csum = r.take(block)
        np.cumsum(csum, axis=1, out=csum)
        totals = csum[:, -1].copy()
        # The parent term is a scalar power per feature: np.square of the
        # totals can differ from it in the last bit and change the model.
        parents = np.array([t ** 2 / n for t in totals])
        left_sums = csum[:, lo - 1:hi]
        gains = np.square(left_sums)
        gains /= left_counts
        right = np.subtract(totals[:, None], left_sums, out=left_sums)
        np.square(right, out=right)
        right /= right_counts
        gains += right
        gains -= parents[:, None]
        # A cut between equal values is invalid; columns with no ties in
        # the training data have none in any node.
        ties = np.flatnonzero(tied[k0:k0 + step])
        if ties.size:
            xs = X[block[ties], features[k0 + ties, None]]
            gains[ties] = np.where(xs[:, lo - 1:hi] < xs[:, lo:hi + 1],
                                   gains[ties], -np.inf)
        cuts = np.argmax(gains, axis=1)
        block_gains = gains[np.arange(cuts.size), cuts]
        j = int(np.argmax(block_gains))
        if block_gains[j] > best_gain:
            best_gain = block_gains[j]
            best = (k0 + j, int(cuts[j]) + lo)
    if best is None:
        return None
    k, cut = best
    f = features[k]
    threshold = (X[order[k, cut - 1], f] + X[order[k, cut], f]) / 2.0
    return float(best_gain), k, cut, float(threshold)


def _node_order(presorted: np.ndarray, features: np.ndarray,
                member: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out[k]`` with the rows where the length-``n`` bool
    ``member`` holds, sorted by feature ``features[k]``, ties in row
    order, from the fit's ``presorted`` columns."""
    for k, f in enumerate(features):
        column = presorted[f]
        np.compress(member.take(column), column, out=out[k])
    return out


def _leaf(r: np.ndarray, rows: np.ndarray, fitted: np.ndarray,
          l2_leaf: float) -> TreeNode:
    n = rows.size
    value = float(r[rows].sum() / (n + l2_leaf))
    fitted[rows] = value
    return TreeNode(value=value, cover=n)


def _grow_tree(X: np.ndarray, r: np.ndarray, rows: np.ndarray,
               order: np.ndarray, features: np.ndarray, tied: np.ndarray,
               mark: np.ndarray, fitted: np.ndarray, depth: int,
               max_depth: int, min_leaf: int, l2_leaf: float) -> TreeNode:
    """Grow one node below the root and its subtree on the presorted
    layout.

    ``rows`` holds the node's fitting rows in ascending order, and
    ``order[k]`` holds the same rows sorted by feature ``features[k]``,
    ties in row order: exactly what a stable ``argsort`` of ``X[rows, f]``
    would give, so no node sorts.  ``tied[k]`` flags the features whose
    training column repeats a value.  A split marks its left rows in
    ``mark`` (a length-``n`` boolean scratch array shared by all nodes),
    gathers that mark once in ``order``'s layout, and filters every row of
    ``order`` by it and by its negation, which keeps the sorted order and
    the row order of ties in both children.  Each leaf writes its value to
    ``fitted`` at its rows.

    Memory: the fit holds ``presorted``, p * n ``intp`` indices.  No
    process holds the whole root's ``order``: each side of the root holds
    the order of its half of the features during the root search, then
    its root child's.  Every split on the current root-to-leaf path holds
    its ``order``, at most ``len(features) * rows.size`` ``intp`` per
    level, and a boolean mask of the same shape while its children grow.
    The split search adds a few temporaries of at most
    ``_BLOCK_ELEMENTS`` elements each.
    """
    n = rows.size
    if depth >= max_depth or n < 2 * min_leaf:
        return _leaf(r, rows, fitted, l2_leaf)
    found = _best_node_split(X, r, order, features, tied, min_leaf)
    if found is None:
        return _leaf(r, rows, fitted, l2_leaf)
    best_gain, k, _, best_threshold = found
    best_feature = int(features[k])
    go_left = X[rows, best_feature] <= best_threshold
    n_left = int(np.count_nonzero(go_left))
    limits = (depth + 1, max_depth, min_leaf, l2_leaf)
    mark[rows] = go_left
    sel = mark.take(order)
    # np.extract keeps the same elements in the same order as order[sel]
    # and runs several times faster on these half-and-half masks.
    left = _grow_tree(X, r, rows[go_left],
                      np.extract(sel, order).reshape(-1, n_left),
                      features, tied, mark, fitted, *limits)
    np.logical_not(sel, out=sel)
    right = _grow_tree(X, r, rows[~go_left],
                       np.extract(sel, order).reshape(-1, n - n_left),
                       features, tied, mark, fitted, *limits)
    return TreeNode(feature_index=best_feature, threshold=best_threshold,
                    left=left, right=right, gain=best_gain, cover=n)


def _side_masks(X: np.ndarray, X_val: np.ndarray, split) -> tuple:
    """The training and validation rows on one side of a root split
    ``(feature, threshold, left)``, as boolean masks: the rows with
    ``x[feature] <= threshold`` when ``left``, else the others."""
    feature, threshold, left = split
    masks = X[:, feature] <= threshold, X_val[:, feature] <= threshold
    if not left:
        for mask in masks:
            np.logical_not(mask, out=mask)
    return masks


class _Side:
    """One side of every tree's root: the lower or the upper half of the
    tree's features in the root split search, then one root child.

    ``split`` takes a round's residuals, fitting rows (ascending),
    features and their tie flags, builds the root order of this side's
    half of the features from ``presorted`` and returns its best ``(gain,
    k, cut, threshold)``, ``k`` counting from the tree's first feature,
    or ``None``.  ``grow`` takes the root split as ``(feature, threshold,
    left)``.  It builds the order of the child on this side from
    ``presorted``, grows the child at depth 1 and routes the side's
    left-out training rows and validation rows through it, so that
    ``fitted`` and ``val_fitted`` hold the leaf value of every row on
    this side.  It returns the child's subtree and those leaf values of
    the side's training and validation rows, each in row order.  The
    calling process keeps the lower side; the upper one is served through
    ``forking``, by the tree worker or in this process.
    """

    def __init__(self, X, X_val, presorted, limits, fitted, val_fitted,
                 upper: bool):
        self.X, self.X_val, self.presorted = X, X_val, presorted
        self.limits, self.upper = limits, upper
        self.fitted, self.val_fitted = fitted, val_fitted
        self._in_sample = np.empty(X.shape[0], dtype=bool)
        self._mark = np.empty(X.shape[0], dtype=bool)

    def split(self, r, rows, features, tied):
        self._job = r, features, tied
        self._in_sample[:] = False
        self._in_sample[rows] = True
        min_leaf = self.limits[1]
        if rows.size < 2 * min_leaf:
            return None
        h = (features.size + 1) // 2
        lo, hi = (h, features.size) if self.upper else (0, h)
        feats = features[lo:hi]
        order = _node_order(self.presorted, feats, self._in_sample,
                            np.empty((feats.size, rows.size), np.intp))
        found = _best_node_split(self.X, r, order, feats, tied[lo:hi],
                                 min_leaf)
        if found is None:
            return None
        gain, k, cut, threshold = found
        return gain, k + lo, cut, threshold

    def grow(self, split) -> tuple:
        r, features, tied = self._job
        train, val = _side_masks(self.X, self.X_val, split)
        # The child's rows are marked in the grower's scratch mask, which
        # is free again once the child's order is built from it.
        member = np.logical_and(train, self._in_sample, out=self._mark)
        child = np.flatnonzero(member)
        tree = _grow_tree(
            self.X, r, child,
            _node_order(self.presorted, features, member,
                        np.empty((features.size, child.size), np.intp)),
            features, tied, self._mark, self.fitted, 1, *self.limits)
        left_out = train & ~self._in_sample
        _route(tree, self.X, np.flatnonzero(left_out), self.fitted)
        _route(tree, self.X_val, np.flatnonzero(val), self.val_fitted)
        return tree, self.fitted[train], self.val_fitted[val]


def _grow_round(own, other, r: np.ndarray, rows: np.ndarray,
                features: np.ndarray, tied: np.ndarray) -> TreeNode:
    """Grow one round's tree on the residuals ``r`` of the fitting rows
    ``rows`` and leave the leaf value of every training row in
    ``own.fitted`` and of every validation row in ``own.val_fitted``.

    ``own`` is the lower ``_Side`` and ``other`` a ``forking`` proxy of
    the upper one.  Each side searches its half of ``features`` for the
    root split; the lower half's result stands unless the upper half's
    gain is strictly larger, which is the first feature reaching the
    largest gain, as one search over all of them would find.  The other
    side then grows the smaller root child (the right one on a tie) while
    ``own`` grows the larger, and its leaf values are written to the rows
    of its side.  The two subtrees cover disjoint rows, so the tree and
    every value are the same wherever a side runs.
    """
    other.call("split", r, rows, features, tied)
    found = own.split(r, rows, features, tied)
    theirs = other.result()
    if theirs is not None and (found is None or theirs[0] > found[0]):
        found = theirs
    if found is None:
        tree = _leaf(r, rows, own.fitted, own.limits[-1])
        own.fitted.fill(tree.value)
        own.val_fitted.fill(tree.value)
        return tree
    gain, k, cut, threshold = found
    feature = int(features[k])
    # The left child has cut fitting rows, or one more where the midpoint
    # threshold rounds onto the next value; either way only which side
    # grows which child depends on it.
    keep_left = 2 * cut >= rows.size
    handed_split = (feature, threshold, not keep_left)
    other.call("grow", handed_split)
    kept = own.grow((feature, threshold, keep_left))[0]
    handed, *values = other.result()
    for mask, out, side_values in zip(
            _side_masks(own.X, own.X_val, handed_split),
            (own.fitted, own.val_fitted), values):
        out[mask] = side_values
    left, right = (kept, handed) if keep_left else (handed, kept)
    return TreeNode(feature_index=feature, threshold=threshold, left=left,
                    right=right, gain=gain, cover=rows.size)


@dataclass(eq=False)
class GradientBoostedTrees:
    """Boosted-tree classifier with validation early stopping.

    Fields
    ------
    iterations : int
        Maximum number of boosting rounds.
    learning_rate : float
        Shrinkage applied to every tree's contribution.
    max_depth : int
        Depth cap per tree.
    min_samples_leaf : int
        Minimum fitting rows per leaf.
    l2_leaf : float
        Ridge term added to the leaf denominator: leaf = sum(r) / (n + l2).
    row_subsample, feature_subsample : float
        Fractions in (0, 1]; rows are drawn per iteration without
        replacement, features per tree.
    early_stopping_rounds : int
        Stop after this many consecutive rounds without validation
        improvement; the fitted ensemble is truncated at the best round.
    seed : int
        Subsampling seed.

    ``fit`` sets ``ensemble_``, ``best_iteration_`` and the per-round
    ``train_log_loss_`` and ``val_log_loss_``.
    """

    iterations: int = 1000
    learning_rate: float = 0.03
    max_depth: int = 6
    min_samples_leaf: int = 20
    l2_leaf: float = 3.0
    row_subsample: float = 0.8
    feature_subsample: float = 0.8
    early_stopping_rounds: int = 50
    seed: int = 0
    ensemble_: TreeEnsemble | None = field(default=None, init=False,
                                           repr=False)

    def validate(self) -> None:
        for name in ("iterations", "learning_rate", "max_depth",
                     "min_samples_leaf", "l2_leaf", "early_stopping_rounds"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("row_subsample", "feature_subsample"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1], got {value}")

    def fit(self, X, y, X_val, y_val, feature_names=None) -> "GradientBoostedTrees":
        self.validate()
        X = as_float_matrix(X)
        y = check_binary_labels(y).astype(np.float64)
        X_val = as_float_matrix(X_val, "X_val")
        y_val = check_binary_labels(y_val, "y_val").astype(np.float64)
        if X_val.shape[0] == 0:
            raise ValidationError("validation set is empty")
        n, p = X.shape
        if X_val.shape[1] != p:
            raise ValidationError(
                f"X_val has {X_val.shape[1]} features, expected {p}")
        for name, labels, rows in (("y", y, n),
                                   ("y_val", y_val, X_val.shape[0])):
            if labels.size != rows:
                raise ValidationError(
                    f"{name} has {labels.size} labels for {rows} rows")
        if feature_names is None:
            feature_names = tuple(f"f{k}" for k in range(p))
        elif len(feature_names) != p:
            raise ValidationError(
                f"{len(feature_names)} feature names for {p} features")
        p_bar = float(y.mean())
        if p_bar in (0.0, 1.0):
            raise ValidationError(
                "training labels contain a single class; base log-odds undefined")
        init = math.log(p_bar / (1.0 - p_bar))

        rng = default_rng(self.seed)
        margins = np.full(n, init)
        val_margins = np.full(X_val.shape[0], init)
        trees: list[TreeNode] = []
        train_losses, val_losses = [], []
        best_loss = math.inf
        best_iter = 0
        all_rows = np.arange(n)
        all_feats = np.arange(p)
        n_rows = max(1, int(round(self.row_subsample * n)))
        n_feats = max(1, int(round(self.feature_subsample * p)))
        # Each column sorted once, ties in row order: p * n intp indices,
        # one row per feature, so that no take on them casts its indices.
        presorted = np.empty((p, n), dtype=np.intp)
        for f in range(p):
            presorted[f] = np.argsort(X[:, f], kind="stable")
        # A column with no repeated value has no ties in any row subset.
        tied = np.array([bool(np.any(np.diff(X[column, f]) == 0.0))
                         for f, column in enumerate(presorted)])
        # Buffers reused by every tree: the residuals, and each training
        # and validation row's leaf value (its margin step).
        residual, fitted = np.empty(n), np.empty(n)
        val_fitted = np.empty(X_val.shape[0])
        limits = (self.max_depth, self.min_samples_leaf, self.l2_leaf)
        probs = sigmoid(margins)

        own, upper = (_Side(X, X_val, presorted, limits, fitted,
                            val_fitted, side) for side in (False, True))
        with served([upper], "tree worker", _usable_cpus() > 1) as [other]:
            for m in range(self.iterations):
                rows = all_rows if n_rows == n else np.sort(
                    rng.choice(n, size=n_rows, replace=False))
                feats = all_feats if n_feats == p else np.sort(
                    rng.choice(p, size=n_feats, replace=False))
                np.subtract(y, probs, out=residual)
                trees.append(_grow_round(own, other, residual, rows, feats,
                                         tied[feats]))
                margins += np.multiply(fitted, self.learning_rate,
                                       out=fitted)
                val_margins += self.learning_rate * val_fitted
                probs = sigmoid(margins)
                train_losses.append(binary_log_loss(y, probs))
                val_loss = binary_log_loss(y_val, sigmoid(val_margins))
                val_losses.append(val_loss)
                if val_loss < best_loss:
                    best_loss = val_loss
                    best_iter = m + 1
                elif (m + 1) - best_iter >= self.early_stopping_rounds:
                    break

        self.ensemble_ = TreeEnsemble(init, self.learning_rate,
                                      trees[:best_iter], tuple(feature_names))
        self.best_iteration_ = best_iter
        self.train_log_loss_ = train_losses
        self.val_log_loss_ = val_losses
        return self

    def predict_proba(self, X):
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.predict_proba(X)


def feature_importance(ensemble: TreeEnsemble) -> np.ndarray:
    """Gain-share importance vector; nonnegative, sums to one.

    The all-stump degenerate case (zero total gain) falls back to a uniform
    vector with a warning.
    """
    if not ensemble.trees:
        raise ValidationError("ensemble has no trees")
    gains = np.zeros(ensemble.p)
    stack = list(ensemble.trees)
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        gains[node.feature_index] += node.gain
        stack.extend((node.left, node.right))
    total = gains.sum()
    if total <= 0:
        warnings.warn("ensemble has zero total gain; importance set uniform",
                      stacklevel=2)
        return np.full(ensemble.p, 1.0 / ensemble.p)
    return gains / total
