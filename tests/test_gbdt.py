"""Boosting contracts: initialization, monotone training loss, early
stopping, importance, constraints, determinism, persistence, the
presorted grower against the argsort-per-node oracle, and the forked
subtree worker."""

import json
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

import churnpool.forking as forking
import churnpool.gbdt as gbdt
from churnpool.errors import ValidationError
from churnpool.gbdt import (GradientBoostedTrees, TreeEnsemble, TreeNode,
                            feature_importance)
from churnpool.numerics import binary_log_loss, sigmoid

from _oracles import argsort_best_split, argsort_grow_tree


def _stump(feature=0, threshold=0.0, left=-1.0, right=1.0, cover=(2.0, 2.0),
           gain=1.0):
    return TreeNode(feature_index=feature, threshold=threshold, gain=gain,
                    cover=cover[0] + cover[1],
                    left=TreeNode(value=left, cover=cover[0]),
                    right=TreeNode(value=right, cover=cover[1]))


def _separable(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = (x[:, 0] > 0).astype(int)
    if noise:
        flip = rng.random(n) < noise
        y = np.where(flip, 1 - y, y)
    return x, y


class TestInitialization:
    def test_balanced_base_rate_gives_zero(self):
        x, _ = _separable(100, seed=1)
        y = np.repeat([0, 1], 50)
        model = GradientBoostedTrees(iterations=1, seed=0).fit(x, y, x, y)
        assert model.ensemble_.init_logodds == 0.0

    def test_base_rate_log_odds(self):
        # pbar = 0.214 exactly; expected value frozen from direct evaluation
        # of log(pbar / (1 - pbar)).
        n = 1000
        x = np.random.default_rng(2).normal(size=(n, 2))
        y = np.zeros(n, dtype=int)
        y[:214] = 1
        model = GradientBoostedTrees(iterations=1, seed=0).fit(x, y, x, y)
        expected = math.log(0.214 / 0.786)
        assert model.ensemble_.init_logodds == pytest.approx(expected,
                                                             abs=1e-12)
        assert expected == pytest.approx(-1.3009807774073552, abs=1e-12)

    def test_single_class_rejected(self):
        x, _ = _separable(30, seed=3)
        y = np.ones(30, dtype=int)
        with pytest.raises(ValidationError, match="single class"):
            GradientBoostedTrees(iterations=1).fit(x, y, x, y)


class TestInputShapes:
    """Mismatched fit inputs are rejected before any tree grows."""

    @staticmethod
    def _fit(X, y, X_val, y_val, **kwargs):
        GradientBoostedTrees(iterations=2, min_samples_leaf=2).fit(
            X, y, X_val, y_val, **kwargs)

    def test_narrow_validation_matrix(self):
        x, y = _separable(40, seed=12)
        X = np.column_stack([x, -x])
        with pytest.raises(ValidationError, match="X_val has 1 features"):
            self._fit(X, y, x, y)

    def test_short_training_labels(self):
        x, y = _separable(40, seed=13)
        with pytest.raises(ValidationError, match="y has 39 labels"):
            self._fit(x, y[:-1], x, y)

    def test_short_validation_labels(self):
        x, y = _separable(40, seed=14)
        with pytest.raises(ValidationError, match="y_val has 39 labels"):
            self._fit(x, y, x, y[:-1])

    def test_feature_names_of_wrong_length(self):
        x, y = _separable(40, seed=15)
        with pytest.raises(ValidationError, match="2 feature names"):
            self._fit(x, y, x, y, feature_names=("a", "b"))


class TestTrainingDynamics:
    def test_train_loss_monotone_without_subsampling(self):
        x, y = _separable(150, seed=4)
        model = GradientBoostedTrees(
            iterations=10, learning_rate=0.3, max_depth=2, min_samples_leaf=5,
            row_subsample=1.0, feature_subsample=1.0,
            early_stopping_rounds=100, seed=0)
        model.fit(x, y, x, y)
        losses = model.train_log_loss_
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_early_stopping_truncates_at_best(self):
        # Noisy training target with a small clean validation set: the
        # validation loss bottoms out early and the ensemble is cut there.
        rng = np.random.default_rng(5)
        x_train = rng.normal(size=(120, 3))
        y_train = ((x_train[:, 0] + rng.normal(scale=1.5, size=120)) > 0)
        x_val = rng.normal(size=(40, 3))
        y_val = (x_val[:, 0] + rng.normal(scale=0.3, size=40)) > 0
        model = GradientBoostedTrees(
            iterations=400, learning_rate=0.3, max_depth=3,
            min_samples_leaf=2, row_subsample=1.0, feature_subsample=1.0,
            early_stopping_rounds=20, seed=0)
        model.fit(x_train, y_train.astype(int), x_val, y_val.astype(int))
        assert len(model.val_log_loss_) < 400, "early stopping never fired"
        best = int(np.argmin(model.val_log_loss_)) + 1
        assert model.best_iteration_ == best
        assert len(model.ensemble_.trees) == best

    def test_early_stopping_ties_keep_earliest(self):
        x, y = _separable(60, seed=6)
        model = GradientBoostedTrees(
            iterations=50, learning_rate=0.5, max_depth=2, min_samples_leaf=2,
            row_subsample=1.0, feature_subsample=1.0,
            early_stopping_rounds=5, seed=0)
        model.fit(x, y, x, y)
        losses = np.asarray(model.val_log_loss_)
        first_best = int(np.flatnonzero(losses == losses.min())[0]) + 1
        assert model.best_iteration_ == first_best

    def test_determinism(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 4))
        y = (x[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
        params = dict(iterations=30, max_depth=3, min_samples_leaf=5, seed=11)
        a = GradientBoostedTrees(**params).fit(x, y, x, y)
        b = GradientBoostedTrees(**params).fit(x, y, x, y)
        assert a.ensemble_.to_json() == b.ensemble_.to_json()

    def test_default_constraints_hold(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(600, 5))
        y = (x[:, 0] + x[:, 1] + rng.normal(size=600) > 0).astype(int)
        ensemble = GradientBoostedTrees(iterations=40, seed=1).fit(
            x, y, x[:100], y[:100], feature_names=tuple("abcde")).ensemble_

        def walk(node, depth):
            if node.is_leaf:
                assert node.cover >= 20
                assert depth <= 6
                return
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        for tree in ensemble.trees:
            walk(tree, 0)


class TestPrediction:
    def test_empty_tree_list_returns_init(self):
        ensemble = TreeEnsemble(0.7, 0.1, [], ("a",))
        assert ensemble.predict_margin(np.array([[3.0]]))[0] == 0.7

    def test_single_stump_paths(self):
        ensemble = TreeEnsemble(0.0, 1.0, [_stump()], ("a",))
        assert ensemble.predict_margin(np.array([[-1.0]]))[0] == -1.0
        assert ensemble.predict_margin(np.array([[2.0]]))[0] == 1.0

    def test_two_tree_margin_hand_trace(self):
        # Tree 1 splits at 0 with leaves -1/+1; tree 2 splits at 1 with
        # leaves 0.5/2.0; x = 0.5 follows right then left.
        t1 = _stump(threshold=0.0, left=-1.0, right=1.0)
        t2 = _stump(threshold=1.0, left=0.5, right=2.0)
        ensemble = TreeEnsemble(0.25, 0.1, [t1, t2], ("a",))
        expected = 0.25 + 0.1 * (1.0 + 0.5)
        assert ensemble.predict_margin(np.array([[0.5]]))[0] == pytest.approx(
            expected, abs=1e-15)

    def test_proba_at_zero_margin(self):
        ensemble = TreeEnsemble(0.0, 1.0, [], ("a",))
        assert ensemble.predict_proba(np.array([[0.0]]))[0] == 0.5

    def test_proba_inverts_base_rate(self):
        ensemble = TreeEnsemble(math.log(0.214 / 0.786), 1.0, [], ("a",))
        assert ensemble.predict_proba(np.array([[0.0]]))[0] == pytest.approx(
            0.214, abs=1e-12)

    def test_extreme_margins_clipped(self):
        lo = TreeEnsemble(-40.0, 1.0, [], ("a",))
        hi = TreeEnsemble(40.0, 1.0, [], ("a",))
        assert lo.predict_proba(np.array([[0.0]]))[0] == 1e-12
        assert hi.predict_proba(np.array([[0.0]]))[0] == 1.0 - 1e-12

    def test_dimension_mismatch(self):
        ensemble = TreeEnsemble(0.0, 1.0, [_stump()], ("a",))
        with pytest.raises(ValidationError):
            ensemble.predict_margin(np.array([[1.0, 2.0]]))

    def test_vector_input_rejected(self):
        ensemble = TreeEnsemble(0.0, 1.0, [_stump()], ("a",))
        with pytest.raises(ValidationError, match="2-dimensional"):
            ensemble.predict_margin(np.array([1.0]))


class TestImportance:
    def test_single_feature_gets_all(self):
        ensemble = TreeEnsemble(0.0, 1.0, [_stump(feature=0)], ("a", "b"))
        np.testing.assert_array_equal(feature_importance(ensemble),
                                      [1.0, 0.0])

    def test_hand_set_gain_ratio(self):
        trees = [_stump(feature=0, gain=3.0), _stump(feature=1, gain=1.0)]
        ensemble = TreeEnsemble(0.0, 1.0, trees, ("a", "b"))
        np.testing.assert_allclose(feature_importance(ensemble),
                                   [0.75, 0.25], atol=1e-15)

    def test_zero_gain_falls_back_uniform(self):
        leaf_only = TreeNode(value=0.3, cover=10.0)
        ensemble = TreeEnsemble(0.0, 1.0, [leaf_only], ("a", "b"))
        with pytest.warns(UserWarning, match="uniform"):
            np.testing.assert_array_equal(feature_importance(ensemble),
                                          [0.5, 0.5])

    def test_sums_to_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 6))
        y = (x[:, 2] - x[:, 4] + rng.normal(size=300) > 0).astype(int)
        model = GradientBoostedTrees(iterations=25, seed=2).fit(x, y, x, y)
        assert abs(feature_importance(model.ensemble_).sum() - 1.0) < 1e-12

    def test_dominant_feature_ranks_first(self):
        # Churn-like toy corpus where tenure carries nearly all the signal.
        rng = np.random.default_rng(10)
        n = 800
        tenure = rng.normal(size=n)
        frequency = rng.normal(size=n)
        age = rng.normal(size=n)
        margin = -2.5 * tenure + 0.3 * frequency
        y = (rng.random(n) < 1 / (1 + np.exp(-margin))).astype(int)
        x = np.column_stack([frequency, tenure, age])
        names = ("frequency", "tenure_months", "age")
        model = GradientBoostedTrees(iterations=60, seed=3).fit(
            x, y, x, y, feature_names=names)
        ranked = np.argsort(feature_importance(model.ensemble_))[::-1]
        assert names[ranked[0]] == "tenure_months"


class TestPersistence:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(150, 3))
        y = (x[:, 0] > 0.2).astype(int)
        model = GradientBoostedTrees(iterations=15, max_depth=4,
                                     min_samples_leaf=3, seed=4)
        model.fit(x, y, x, y)
        text = model.ensemble_.to_json()
        loaded = TreeEnsemble.from_json(text)
        probe = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(model.ensemble_.predict_margin(probe),
                                      loaded.predict_margin(probe))
        assert loaded.to_json() == text

    def test_file_round_trip(self, tmp_path):
        ensemble = TreeEnsemble(-0.5, 0.03, [_stump()], ("a",))
        path = tmp_path / "model.json"
        ensemble.save(path)
        loaded = TreeEnsemble.load(path)
        assert loaded.init_logodds == -0.5
        assert loaded.trees[0].threshold == 0.0
        doc = json.loads(path.read_text())
        assert set(doc) == {"init_logodds", "learning_rate", "feature_names",
                            "trees"}


def _tied_problem(n, seed):
    """Rounded columns with heavy ties, a 0/1 column and a continuous one."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        np.round(rng.normal(size=n)),            # about 7 distinct values
        np.round(2.0 * rng.normal(size=n)) / 2,  # about 20 distinct values
        (rng.random(n) < 0.3).astype(float),     # one-hot style 0/1
        rng.integers(0, 4, size=n).astype(float),
        rng.normal(size=n),
    ])
    margin = X[:, 0] - 0.8 * X[:, 2] + 0.5 * X[:, 4] * X[:, 3]
    y = (rng.random(n) < 1 / (1 + np.exp(-margin))).astype(int)
    return X, y


# (seed, params) of the grower checks, on _tied_problem(500, seed).
GROWER_CASES = [
    (0, dict(max_depth=6, min_samples_leaf=1)),
    (1, dict(max_depth=6, min_samples_leaf=25)),
    (2, dict(max_depth=1, min_samples_leaf=1)),
    (3, dict(max_depth=3, min_samples_leaf=29, row_subsample=0.6)),
    (4, dict(max_depth=6, min_samples_leaf=2, row_subsample=0.7,
             feature_subsample=0.6)),
    (5, dict(max_depth=4, min_samples_leaf=5, row_subsample=0.5,
             feature_subsample=0.4)),
]


class TestPresortedGrower:
    """Every tree must equal the one grown by sorting at every node."""

    @pytest.mark.parametrize("seed, params", GROWER_CASES)
    def test_models_match_argsort_oracle_exactly(self, seed, params,
                                                 monkeypatch):
        X, y = _tied_problem(500, seed)
        X_val, y_val = _tied_problem(120, seed + 100)
        self._check(X, y, X_val, y_val, seed, params, monkeypatch)

    def test_untied_columns_match_argsort_oracle_exactly(self, monkeypatch):
        # No column repeats a value, so the search builds no tie mask.
        rng = np.random.default_rng(6)
        X = rng.normal(size=(620, 4))
        assert all(np.unique(col).size == 500 for col in X[:500].T)
        margin = X[:, 0] * X[:, 1]
        y = (rng.random(620) < 1 / (1 + np.exp(-margin))).astype(int)
        self._check(X[:500], y[:500], X[500:], y[500:], 6,
                    dict(max_depth=5, min_samples_leaf=3, row_subsample=0.8),
                    monkeypatch)

    @staticmethod
    def _check(X, y, X_val, y_val, seed, params, monkeypatch):
        params = dict(dict(iterations=12, learning_rate=0.3, seed=seed,
                           row_subsample=1.0, feature_subsample=1.0,
                           early_stopping_rounds=100), **params)
        presorted = GradientBoostedTrees(**params).fit(X, y, X_val, y_val)

        def oracle(own, other, r, rows, features, tied):
            # The whole tree, root included; the margin steps then come
            # from predicting every training and validation row with it.
            tree = argsort_grow_tree(own.X, r, rows, features, 0,
                                     *own.limits)
            own.fitted[:] = gbdt._tree_predict(tree, own.X)
            own.val_fitted[:] = gbdt._tree_predict(tree, own.X_val)
            return tree

        monkeypatch.setattr(gbdt, "_grow_round", oracle)
        reference = GradientBoostedTrees(**params).fit(X, y, X_val, y_val)
        assert presorted.ensemble_.to_json() == reference.ensemble_.to_json()
        # The losses cover the trees after the best round as well.
        assert len(reference.val_log_loss_) == 12
        assert presorted.val_log_loss_ == reference.val_log_loss_
        assert presorted.train_log_loss_ == reference.train_log_loss_


class _WorkerFailure(Exception):
    """Raised by the grower only when it runs in the forked worker."""


class TestSubtreeWorker:
    """With two usable CPUs a forked worker searches the upper half of each
    root's features and grows the root's smaller child; the CPU count is
    the seam, and the model may not depend on it."""

    @staticmethod
    def _same_for_one_and_two_workers(monkeypatch, params, X, y, X_val,
                                      y_val):
        # The fitting rows of each root child the worker grew, read from
        # the worker's replies to grow: (subtree, leaf values...).
        handed = []
        result = forking._Proxy.result

        def counted(self):
            reply = result(self)
            if isinstance(reply, tuple) and isinstance(reply[0], TreeNode):
                handed.append(int(reply[0].cover))
            return reply

        monkeypatch.setattr(forking._Proxy, "result", counted)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(gbdt, "_usable_cpus", lambda: workers)
            model = GradientBoostedTrees(**params).fit(X, y, X_val, y_val)
            runs.append((model.ensemble_.to_json(), model.train_log_loss_,
                         model.val_log_loss_))
        assert runs[1] == runs[0]
        assert multiprocessing.active_children() == []
        return handed, runs[0]

    @pytest.mark.parametrize("seed, params", GROWER_CASES)
    def test_grower_cases(self, seed, params, monkeypatch):
        X, y = _tied_problem(500, seed)
        X_val, y_val = _tied_problem(120, seed + 100)
        params = dict(dict(iterations=12, learning_rate=0.3, seed=seed,
                           row_subsample=1.0, feature_subsample=1.0,
                           early_stopping_rounds=100), **params)
        handed, _ = self._same_for_one_and_two_workers(monkeypatch, params,
                                                       X, y, X_val, y_val)
        assert len(handed) == 12 and all(handed)

    def test_root_that_cannot_split(self, monkeypatch):
        # Constant columns: the root has rows to spare but no cut.
        X = np.column_stack([np.full(60, 1.5), np.full(60, -2.0)])
        y = np.tile([0, 1], 30)
        params = dict(iterations=5, min_samples_leaf=2, seed=1)
        handed, _ = self._same_for_one_and_two_workers(monkeypatch, params,
                                                       X, y, X, y)
        assert handed == []

    def test_depth_one(self, monkeypatch):
        X, y = _tied_problem(300, 8)
        params = dict(iterations=8, max_depth=1, min_samples_leaf=3, seed=8)
        handed, _ = self._same_for_one_and_two_workers(monkeypatch, params,
                                                       X, y, X[:80], y[:80])
        # The worker takes the smaller child, the right one on a tie.
        assert len(handed) == 8 and max(handed) <= 0.5 * 240

    def test_early_stopped_fit(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(240, 3))
        y = (X[:, 0] + rng.normal(scale=1.5, size=240) > 0).astype(int)
        params = dict(iterations=400, learning_rate=0.3, max_depth=3,
                      min_samples_leaf=2, early_stopping_rounds=10, seed=0)
        _, (_, train_losses, _) = self._same_for_one_and_two_workers(
            monkeypatch, params, X[:160], y[:160], X[160:], y[160:])
        assert len(train_losses) < 400, "early stopping never fired"

    def test_tie_across_the_halves_keeps_the_lower_feature(self,
                                                             monkeypatch):
        # Column 5 copies column 0, the strongest; with six features the
        # worker searches columns 3-5, so every root split on column 0
        # ties with the worker's best, and the lower index must win.
        X, y = _tied_problem(400, 12)
        X_val, y_val = _tied_problem(100, 112)
        X, X_val = (np.column_stack([A, A[:, 0]]) for A in (X, X_val))
        params = dict(iterations=8, learning_rate=0.3, max_depth=3,
                      min_samples_leaf=5, row_subsample=0.8,
                      feature_subsample=1.0, seed=12)
        handed, (text, _, _) = self._same_for_one_and_two_workers(
            monkeypatch, params, X, y, X_val, y_val)
        assert len(handed) == 8
        trees = json.loads(text)["trees"]
        assert any(tree["feature_index"] == 0 for tree in trees)
        assert '"feature_index": 5' not in text

    def test_one_feature_per_tree(self, monkeypatch):
        # feature_subsample gives one feature per tree: the worker's half
        # is empty, but it still grows the smaller root child.
        X, y = _tied_problem(300, 13)
        params = dict(iterations=10, learning_rate=0.3, max_depth=3,
                      min_samples_leaf=5, feature_subsample=0.2, seed=13)
        handed, (text, _, _) = self._same_for_one_and_two_workers(
            monkeypatch, params, X, y, X[:90], y[:90])
        assert handed and all(handed)
        assert len({tree["feature_index"]
                    for tree in json.loads(text)["trees"]}) > 1

    @pytest.mark.parametrize("row_subsample", [1.0, 0.8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_losses_equal_predicting_every_row(self, row_subsample, workers,
                                               monkeypatch):
        # The leaves give the fitting rows' margin steps and only the rows
        # left out are routed; each round's losses must have the bits of
        # predicting every row with the trees so far.
        monkeypatch.setattr(gbdt, "_usable_cpus", lambda: workers)
        X, y = _tied_problem(400, 9)
        params = dict(iterations=10, learning_rate=0.1, max_depth=4,
                      min_samples_leaf=5, row_subsample=row_subsample,
                      feature_subsample=0.8, seed=9)
        model = GradientBoostedTrees(**params).fit(X, y, X, y)
        assert model.best_iteration_ == 10
        ensemble = model.ensemble_
        for m in range(1, 11):
            head = TreeEnsemble(ensemble.init_logodds, 0.1,
                                ensemble.trees[:m], ensemble.feature_names)
            loss = binary_log_loss(y, sigmoid(head.predict_margin(X)))
            assert model.train_log_loss_[m - 1] == loss
            assert model.val_log_loss_[m - 1] == loss

    @staticmethod
    def _fail_in_worker(monkeypatch, failure):
        parent = os.getpid()
        grow = gbdt._grow_tree

        def grow_here(*args, **kwargs):
            if os.getpid() != parent:
                failure()
            return grow(*args, **kwargs)

        monkeypatch.setattr(gbdt, "_grow_tree", grow_here)
        monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 2)
        X, y = _tied_problem(200, 10)
        return lambda: GradientBoostedTrees(iterations=3, seed=10).fit(
            X, y, X, y)

    def test_worker_exception_keeps_its_type(self, monkeypatch):
        def boom():
            raise _WorkerFailure("boom")

        fit = self._fail_in_worker(monkeypatch, boom)
        with pytest.raises(_WorkerFailure, match="boom"):
            fit()
        assert multiprocessing.active_children() == []

    def test_killed_worker_is_runtime_error(self, monkeypatch):
        fit = self._fail_in_worker(
            monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="tree worker exited"):
            fit()
        assert multiprocessing.active_children() == []

    def test_failed_fork_is_runtime_error(self, monkeypatch):
        def refuse(self):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            refuse)
        monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 2)
        X, y = _tied_problem(100, 11)
        with pytest.raises(RuntimeError, match="cannot start a tree worker"):
            GradientBoostedTrees(iterations=2).fit(X, y, X, y)
        assert multiprocessing.active_children() == []


def _oracle_node_split(X, r, rows, features, min_leaf):
    """``(gain, feature, threshold)`` of the first feature whose argsort
    split has the strictly largest gain, or ``None``."""
    best = None
    for f in features:
        found = argsort_best_split(X[rows, f], r[rows], min_leaf)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(f), found[1])
    return best


class TestNodeSplitSearch:
    """The one-call-per-node search must pick the argsort oracle's split
    with the same gain and threshold bits, on random nodes."""

    @pytest.mark.parametrize("block", [gbdt._BLOCK_ELEMENTS, 600])
    @pytest.mark.parametrize("min_leaf", [1, 3, 20])
    def test_matches_argsort_oracle_bit_for_bit(self, min_leaf, block,
                                                monkeypatch):
        # A small block splits most nodes' features over several blocks.
        monkeypatch.setattr(gbdt, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng([min_leaf, block])
        size = 300
        kinds = [
            lambda: rng.normal(size=size),
            lambda: np.round(rng.normal(size=size)),         # heavy ties
            lambda: (rng.random(size) < 0.3).astype(float),  # 0/1
            lambda: np.full(size, 2.5),                      # constant
            lambda: np.round(2.0 * rng.normal(size=size)) / 2,
            lambda: 1e3 * rng.normal(size=size),
        ]
        X = np.column_stack([kind() for kind in kinds + kinds])
        # The last column orders the rows as the first does, so its gains
        # tie with the first column's, and the first column must win.
        X = np.column_stack([X, 2.0 * X[:, 0]])
        tied = np.array([np.unique(col).size < size for col in X.T])
        assert tied.tolist() == 2 * [False, True, True, True, True,
                                     False] + [False]
        compared = chosen = 0
        for trial in range(500):
            n = (2 * min_leaf if trial % 5 == 0
                 else int(rng.integers(2 * min_leaf, size + 1)))
            rows = np.sort(rng.choice(size, n, replace=False))
            features = np.sort(rng.choice(X.shape[1],
                                          int(rng.integers(1, 14)),
                                          replace=False))
            r = rng.uniform(-1.0, 1.0, size=size)
            order = np.array([rows[np.argsort(X[rows, f], kind="stable")]
                              for f in features], dtype=np.int32)
            # The whole node, then each feature alone: the second also pins
            # the gain bits of the features that lose.
            cases = [(features, order)] + [
                (features[k:k + 1], order[k:k + 1])
                for k in range(features.size)]
            for feats, ords in cases:
                found = gbdt._best_node_split(X, r, ords, feats, tied[feats],
                                              min_leaf)
                expected = _oracle_node_split(X, r, rows, feats, min_leaf)
                compared += 1
                if expected is None:
                    assert found is None
                    continue
                chosen += 1
                gain, k, cut, threshold = found
                assert int(feats[k]) == expected[1]
                assert gain.hex() == expected[0].hex()
                assert threshold.hex() == expected[2].hex()
                assert cut == np.count_nonzero(X[rows, feats[k]] <= threshold)
        assert chosen > compared // 2
