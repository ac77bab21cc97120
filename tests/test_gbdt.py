"""Boosting contracts: initialization, monotone training loss, early
stopping, importance, constraints, determinism, persistence, and the
presorted grower against the argsort-per-node oracle."""

import json
import math

import numpy as np
import pytest

import churnpool.gbdt as gbdt
from churnpool.errors import ValidationError
from churnpool.gbdt import (GradientBoostedTrees, TreeEnsemble, TreeNode,
                            feature_importance)

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


class TestPresortedGrower:
    """Every tree must equal the one grown by sorting at every node."""

    @pytest.mark.parametrize("seed, params", [
        (0, dict(max_depth=6, min_samples_leaf=1)),
        (1, dict(max_depth=6, min_samples_leaf=25)),
        (2, dict(max_depth=1, min_samples_leaf=1)),
        (3, dict(max_depth=3, min_samples_leaf=29, row_subsample=0.6)),
        (4, dict(max_depth=6, min_samples_leaf=2, row_subsample=0.7,
                 feature_subsample=0.6)),
        (5, dict(max_depth=4, min_samples_leaf=5, row_subsample=0.5,
                 feature_subsample=0.4)),
    ])
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

        def oracle(X, r, rows, order, features, tied, mark, *limits):
            return argsort_grow_tree(X, r, rows, features, *limits)

        monkeypatch.setattr(gbdt, "_grow_tree", oracle)
        reference = GradientBoostedTrees(**params).fit(X, y, X_val, y_val)
        assert presorted.ensemble_.to_json() == reference.ensemble_.to_json()
        # The losses cover the trees after the best round as well.
        assert len(reference.val_log_loss_) == 12
        assert presorted.val_log_loss_ == reference.val_log_loss_
        assert presorted.train_log_loss_ == reference.train_log_loss_


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
