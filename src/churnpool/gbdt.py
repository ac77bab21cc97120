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
one per-fit buffer, so only the rows the row subsample left out are
routed through the new tree to update the training margins.

The two subtrees under a root split share no state.  When the process
may use two CPUs or more, ``fit`` forks one worker (``forking``) that
inherits the data and ``presorted``.  For each tree the calling process
finds the root split, sends the worker the residuals, the smaller
child's rows, the tree's features and their tie flags as raw bytes, and
grows the larger child while the worker rebuilds the smaller child's
order from ``presorted`` and grows it through the same ``_grow_tree``.
The worker returns the subtree and the leaf value of each of its rows.
With one usable CPU, or in a daemon process, both children grow here.
Either way the model has the same bits.  The worker is joined before
``fit`` returns, and terminated first on an error; a lost worker is a
``RuntimeError``.
"""

from __future__ import annotations

import contextlib
import functools
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
from .forking import forked, read_into, receive, send_array, worker_failure
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
               max_depth: int, min_leaf: int, l2_leaf: float,
               worker=None) -> TreeNode:
    """Grow one node and its subtree on the presorted layout.

    ``rows`` holds the node's fitting rows in ascending order, and
    ``order[k]`` holds the same rows sorted by feature ``features[k]``,
    ties in row order: exactly what a stable ``argsort`` of ``X[rows, f]``
    would give, so no node sorts.  ``tied[k]`` flags the features whose
    training column repeats a value.  A split marks a child's rows in
    ``mark`` (a length-``n`` boolean scratch array shared by all nodes)
    and filters every row of ``order`` by that mark, which keeps the
    sorted order and the row order of ties in the child.  Each leaf
    writes its value to ``fitted`` at its rows.

    A split grows its larger child (the left one on a tie) first, in this
    call.  The fit passes a ``_SubtreeWorker`` as ``worker`` to the root
    call when it may use two CPUs; the root's smaller child then goes to
    the forked worker, which grows it through this same function.  Any
    other smaller child grows next in this call.  The two subtrees write
    disjoint rows of ``fitted`` and ``mark``, so the tree and each leaf
    value do not depend on the order of growth.

    Memory: the fit holds ``presorted``, p * n int32 indices, and every
    node on the current root-to-leaf path holds its own ``order``, at most
    ``len(features) * rows.size`` int32 per level.  The child that the
    worker grows gets its ``order`` in the worker's memory, not in this
    process.  The split search adds a few temporaries of at most
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

    def grow(side: np.ndarray) -> TreeNode:
        # np.extract keeps the same elements in the same order as
        # order[mark.take(order)] and runs several times faster on these
        # half-and-half masks.
        mark[rows] = side
        child = rows[side]
        return _grow_tree(X, r, child, np.extract(mark.take(order), order)
                          .reshape(-1, child.size),
                          features, tied, mark, fitted, *limits)

    keep_left = 2 * n_left >= n
    keep = go_left if keep_left else ~go_left
    if worker is not None:
        worker.start(r, rows[~keep], features, tied)
    kept = grow(keep)
    other = worker.finish() if worker is not None else grow(~keep)
    left, right = (kept, other) if keep_left else (other, kept)
    return TreeNode(feature_index=best_feature, threshold=best_threshold,
                    left=left, right=right, gain=best_gain, cover=n)


_WORKER_GONE = "a tree worker exited unexpectedly"


def _serve_subtrees(X, presorted, limits, conn) -> None:
    """Body of the forked tree worker: grow each root child the parent
    sends, at depth 1, and return its subtree and the leaf value of each
    of its rows, until the parent closes the pipe.

    A job is the ``(rows, features)`` sizes, then the residuals, the
    child's rows (ascending), the tree's features and their tie flags as
    raw bytes.  The child's ``order`` is rebuilt from ``presorted``,
    which gives the same rows in the same order as filtering the root's.
    """
    n, p = X.shape
    r, rows, features = np.empty(n), np.empty(n, np.intp), np.empty(p, np.intp)
    tied, mark, fitted = np.empty(p, bool), np.empty(n, bool), np.empty(n)
    while True:
        try:
            n_rows, n_feats = conn.recv()
        except EOFError:
            return
        job = (r, rows[:n_rows], features[:n_feats], tied[:n_feats])
        for out in job:
            read_into(conn, out, "the parent closed a tree job early")
        _, child, feats, flags = job
        mark[:] = False
        mark[child] = True
        order = _node_order(presorted, feats, mark,
                            np.empty((n_feats, n_rows), dtype=np.int32))
        conn.send(_grow_tree(X, r, child, order, feats, flags, mark, fitted,
                             1, *limits))
        send_array(conn, fitted.take(child))


class _SubtreeWorker:
    """Parent side of the forked tree worker.  ``start`` sends it a root
    child and returns at once; ``finish`` waits for the child's subtree
    and writes its rows' leaf values to ``fitted``.  The buffers are
    allocated once per fit."""

    def __init__(self, conn, fitted: np.ndarray):
        self._conn, self._fitted = conn, fitted
        self._values = np.empty(fitted.size)

    def start(self, r, rows, features, tied) -> None:
        self._rows = rows
        with worker_failure(_WORKER_GONE):
            self._conn.send((rows.size, features.size))
            for array in (r, rows, features, tied):
                send_array(self._conn, array)

    def finish(self) -> TreeNode:
        tree = receive(self._conn, _WORKER_GONE)
        values = self._values[:self._rows.size]
        read_into(self._conn, values, _WORKER_GONE)
        self._fitted[self._rows] = values
        return tree


@contextlib.contextmanager
def _subtree_worker(X, presorted, fitted, limits):
    """Yield a ``_SubtreeWorker`` when this process may use two CPUs, else
    None.  The worker inherits ``X`` and ``presorted``, and is joined on
    exit."""
    if _usable_cpus() < 2:
        yield None
        return
    body = functools.partial(_serve_subtrees, X, presorted, limits)
    with forked([body], "tree worker") as [(conn, _)]:
        yield _SubtreeWorker(conn, fitted)


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
        # Each column sorted once, ties in row order: p * n int32 indices,
        # one row per feature, filled column by column to keep the int64
        # argsort output one column long.
        presorted = np.empty((p, n), dtype=np.int32)
        for f in range(p):
            presorted[f] = np.argsort(X[:, f], kind="stable")
        # A column with no repeated value has no ties in any row subset.
        tied = np.array([bool(np.any(np.diff(X[column, f]) == 0.0))
                         for f, column in enumerate(presorted)])
        # Buffers reused by every tree: the root's order, the residuals,
        # and each row's leaf value (its training-margin step).
        order = np.empty((n_feats, n_rows), dtype=np.int32)
        residual, fitted = np.empty(n), np.empty(n)
        in_sample = np.zeros(n, dtype=bool)
        mark = np.empty(n, dtype=bool)
        limits = (self.max_depth, self.min_samples_leaf, self.l2_leaf)
        probs = sigmoid(margins)

        with _subtree_worker(X, presorted, fitted, limits) as worker:
            for m in range(self.iterations):
                rows = all_rows if n_rows == n else np.sort(
                    rng.choice(n, size=n_rows, replace=False))
                feats = all_feats if n_feats == p else np.sort(
                    rng.choice(p, size=n_feats, replace=False))
                in_sample[:] = False
                in_sample[rows] = True
                np.subtract(y, probs, out=residual)
                tree = _grow_tree(X, residual, rows,
                                  _node_order(presorted, feats, in_sample,
                                              order),
                                  feats, tied[feats], mark, fitted, 0, *limits,
                                  worker=worker)
                trees.append(tree)
                # The leaves wrote the fitting rows' values; the rows the
                # subsample left out are routed through the tree.
                if n_rows < n:
                    _route(tree, X, np.flatnonzero(~in_sample), fitted)
                margins += np.multiply(fitted, self.learning_rate,
                                       out=fitted)
                val_margins += self.learning_rate * _tree_predict(tree, X_val)
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
