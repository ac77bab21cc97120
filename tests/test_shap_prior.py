"""Attribution correctness against exhaustive enumeration, and the prior
extraction arithmetic."""

import math

import numpy as np
import pytest

from churnpool.data import Dataset, StandardizationStats
from churnpool.errors import ValidationError
from churnpool.gbdt import GradientBoostedTrees, TreeEnsemble, TreeNode
from churnpool.shap_prior import (VARIANCE_FLOOR, PriorSpec, TreeShapExplainer,
                                  extract_priors, prior_only_auc)

from _oracles import brute_force_shapley, per_leaf_shap_values

NAMES6 = tuple(f"f{k}" for k in range(6))


def _stump(feature=0, threshold=0.0, left=-1.0, right=1.0,
           covers=(2.0, 2.0)):
    return TreeNode(feature_index=feature, threshold=threshold, gain=1.0,
                    cover=covers[0] + covers[1],
                    left=TreeNode(value=left, cover=covers[0]),
                    right=TreeNode(value=right, cover=covers[1]))


def _repeated_feature_tree():
    """Depth-3 tree reusing feature 0 on one path (the tricky case)."""
    inner = TreeNode(feature_index=0, threshold=1.5, gain=1.0, cover=6.0,
                     left=TreeNode(value=0.5, cover=4.0),
                     right=TreeNode(value=-2.0, cover=2.0))
    right = TreeNode(feature_index=1, threshold=0.0, gain=1.0, cover=10.0,
                     left=inner,
                     right=TreeNode(value=3.0, cover=4.0))
    return TreeNode(feature_index=0, threshold=-1.0, gain=1.0, cover=16.0,
                    left=TreeNode(value=-1.0, cover=6.0),
                    right=right)


def _fitted(seed, p=6, depth=3, n=300, iterations=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = (X[:, 0] - 0.7 * X[:, 1] + rng.normal(size=n) > 0).astype(int)
    model = GradientBoostedTrees(iterations=iterations, max_depth=depth,
                                 min_samples_leaf=5, row_subsample=1.0,
                                 feature_subsample=1.0, seed=seed)
    model.fit(X, y, X, y, feature_names=tuple(f"f{k}" for k in range(p)))
    return model.ensemble_, X


def _shap_row(ensemble, x):
    """Attributions of one input and the base value."""
    explainer = TreeShapExplainer(ensemble)
    return explainer.shap_values(x[None, :])[0], explainer.expected_value


class TestTreeShap:
    def test_single_stump_single_player(self):
        ensemble = TreeEnsemble(0.3, 1.0, [_stump()], ("a", "b"))
        x = np.array([-2.0, 5.0])
        phi, base = _shap_row(ensemble, x)
        margin = ensemble.predict_margin(x[None, :])[0]
        assert phi[1] == 0.0
        assert phi[0] == pytest.approx(margin - base, abs=1e-12)
        assert base == pytest.approx(0.3 + 0.0, abs=1e-12)  # equal covers

    def test_local_accuracy_everywhere(self):
        ensemble, X = _fitted(seed=21, p=5, depth=4, iterations=12)
        explainer = TreeShapExplainer(ensemble)
        phi = explainer.shap_values(X)
        reconstructed = explainer.expected_value + phi.sum(axis=1)
        np.testing.assert_allclose(reconstructed,
                                   ensemble.predict_margin(X), atol=1e-8)

    def test_matches_exhaustive_enumeration_fitted(self):
        ensemble, X = _fitted(seed=22, p=6, depth=3)
        rng = np.random.default_rng(0)
        rows = rng.choice(X.shape[0], size=12, replace=False)
        for i in rows:
            phi, base = _shap_row(ensemble, X[i])
            phi_ref, base_ref = brute_force_shapley(ensemble, X[i])
            np.testing.assert_allclose(phi, phi_ref, atol=1e-8)
            assert base == pytest.approx(base_ref, abs=1e-8)

    def test_matches_enumeration_with_repeated_feature(self):
        ensemble = TreeEnsemble(0.1, 0.7, [_repeated_feature_tree()],
                                ("a", "b"))
        for x in ([-2.0, -1.0], [0.0, -1.0], [2.0, -1.0], [0.0, 1.0],
                  [-1.0, 0.0], [1.5, -0.5]):
            x = np.array(x)
            phi, base = _shap_row(ensemble, x)
            phi_ref, base_ref = brute_force_shapley(ensemble, x)
            np.testing.assert_allclose(phi, phi_ref, atol=1e-8)
            assert base == pytest.approx(base_ref, abs=1e-8)
            assert base + phi.sum() == pytest.approx(
                ensemble.predict_margin(x[None, :])[0], abs=1e-8)

    def test_null_player_is_exactly_zero(self):
        # Feature 2 is constant, so no split ever uses it.
        rng = np.random.default_rng(23)
        X = rng.normal(size=(200, 3))
        X[:, 2] = 1.0
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoostedTrees(iterations=10, max_depth=3,
                                     min_samples_leaf=5, row_subsample=1.0,
                                     feature_subsample=1.0, seed=0)
        model.fit(X, y, X, y)
        phi = TreeShapExplainer(model.ensemble_).shap_values(X)
        np.testing.assert_array_equal(phi[:, 2], np.zeros(X.shape[0]))

    def test_dimension_mismatch(self):
        ensemble = TreeEnsemble(0.0, 1.0, [_stump()], ("a", "b"))
        with pytest.raises(ValidationError):
            _shap_row(ensemble, np.array([1.0]))


def _internal_nodes(ensemble):
    stack = list(ensemble.trees)
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield node
            stack += [node.left, node.right]


def _on_thresholds(ensemble, X):
    """A copy of X in which every split threshold of the ensemble appears
    in its feature's column, on successive rows."""
    X = X.copy()
    for i, node in enumerate(_internal_nodes(ensemble)):
        X[i % X.shape[0], node.feature_index] = node.threshold
    return X


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestMatchesPerLeafOracle:
    """Batched tables and the one-pass-per-leaf scoring give the per-leaf
    result bit for bit, as a C-ordered array."""

    @staticmethod
    def _assert_same_bits(ensemble, X):
        explainer = TreeShapExplainer(ensemble)
        phi = explainer.shap_values(X)
        ref, expected = per_leaf_shap_values(ensemble, X)
        assert phi.flags.c_contiguous
        np.testing.assert_array_equal(_bits(phi), _bits(ref))
        assert _bits(explainer.expected_value) == _bits(expected)

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_fitted_ensembles(self, depth):
        ensemble, X = _fitted(seed=40 + depth, p=6, depth=depth, n=500,
                              iterations=10)
        X = _on_thresholds(ensemble, X)
        self._assert_same_bits(ensemble, X)
        self._assert_same_bits(ensemble, X[:1])

    def test_repeated_feature_and_root_only_trees(self):
        root_only = TreeNode(value=0.7, cover=3.0)
        ensemble = TreeEnsemble(
            0.1, 0.7, [_repeated_feature_tree(), root_only, _stump(1)],
            ("a", "b"))
        grid = np.array([-2.0, -1.0, 0.0, 1.5, 2.0])
        X = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        self._assert_same_bits(ensemble, X)
        self._assert_same_bits(TreeEnsemble(0.2, 0.5, [root_only], ("a",)),
                               np.ones((3, 1)))

    def test_extract_priors_bits(self):
        ensemble, X = _fitted(seed=48, p=5, depth=5, n=500, iterations=20)
        tags = tuple(f"t{i % 3}" for i in range(X.shape[0]))
        ds = Dataset(X, np.arange(X.shape[0]) % 2, ensemble.feature_names,
                     tags)
        stats = StandardizationStats(np.zeros(5),
                                     np.array([0.5, 1.0, 2.0, 3.0, 7.0]))
        prior = extract_priors(ensemble, ds, stats, lambda_scale=0.5)
        ref, _ = per_leaf_shap_values(ensemble, X)
        all_abs = np.abs(ref)
        per_tag = np.stack([all_abs[np.asarray(tags) == tag].mean(axis=0)
                            for tag in ("t0", "t1", "t2")])
        np.testing.assert_array_equal(
            _bits(prior.beta0), _bits(all_abs.mean(axis=0) / stats.stds))
        np.testing.assert_array_equal(
            _bits(prior.sigma0_diag),
            _bits(np.maximum(per_tag.var(axis=0), VARIANCE_FLOOR) * 1.5))


class TestMeanAbsShap:
    """The prior location is the mean absolute attribution over the
    validation rows; unit stds leave it on attribution scale."""

    @staticmethod
    def _mean_abs(ensemble, ds):
        unit = StandardizationStats(np.zeros(ds.p), np.ones(ds.p))
        return extract_priors(ensemble, ds, unit).beta0

    def test_single_row_identity(self):
        ensemble, X = _fitted(seed=24, p=4, depth=2)
        ds = Dataset(X[:1], [1], tuple(f"f{k}" for k in range(4)))
        phi_row, _ = _shap_row(ensemble, X[0])
        np.testing.assert_allclose(self._mean_abs(ensemble, ds),
                                   np.abs(phi_row), atol=1e-12)

    def test_matches_hand_sum(self):
        ensemble, X = _fitted(seed=25, p=4, depth=2)
        ds = Dataset(X[:5], [0, 1, 0, 1, 0], tuple(f"f{k}" for k in range(4)))
        expected = np.mean(
            [np.abs(_shap_row(ensemble, X[i])[0]) for i in range(5)], axis=0)
        np.testing.assert_allclose(self._mean_abs(ensemble, ds), expected,
                                   atol=1e-12)

    def test_empty_rejected(self):
        ensemble, _ = _fitted(seed=26, p=3, depth=2)
        empty = Dataset(np.empty((0, 3)), np.empty(0, dtype=int),
                        ("f0", "f1", "f2"))
        with pytest.raises(ValidationError):
            self._mean_abs(ensemble, empty)


def _tagged_stump_dataset():
    """Stump with covers 1/3 and unit leaves at learning rate 2.

    Expected mean: E = (1*(-1) + 3*1)/4 = 0.5, so |phi| is 3 for rows on
    the left branch and 1 on the right. Tags: a -> left (3), b -> right
    (1), c -> one of each (2); population variance of {3, 1, 2} is 2/3.
    """
    tree = _stump(covers=(1.0, 3.0))
    ensemble = TreeEnsemble(0.0, 2.0, [tree], ("a", "b"))
    features = np.array([[-1.0, 0.0],
                         [1.0, 0.0],
                         [-1.0, 0.0],
                         [1.0, 0.0]])
    ds = Dataset(features, [0, 1, 0, 1], ("a", "b"),
                 ("tag_a", "tag_b", "tag_c", "tag_c"))
    stats = StandardizationStats(np.zeros(2), np.array([2.0, 1.0]))
    return ensemble, ds, stats


class TestExtractPriors:
    def test_hand_variance_case(self):
        ensemble, ds, stats = _tagged_stump_dataset()
        prior = extract_priors(ensemble, ds, stats, lambda_scale=0.5)
        # phi over rows: feature 0 -> (3+1+3+1)/4 = 2; feature 1 -> 0.
        np.testing.assert_allclose(prior.beta0, [2.0 / 2.0, 0.0], atol=1e-12)
        # Per-tag means {3, 1, 2} -> population variance 2/3.
        assert prior.sigma0_diag[0] == pytest.approx((2.0 / 3.0) * 1.5,
                                                     abs=1e-12)
        # Feature 1 never contributes: floored variance.
        assert prior.sigma0_diag[1] == pytest.approx(1e-4 * 1.5, abs=1e-15)
        assert prior.provenance["fallback"] is False
        assert prior.provenance["counts"] == {"tag_a": 1, "tag_b": 1,
                                              "tag_c": 2}

    def test_lambda_one_doubles_variances(self):
        ensemble, ds, stats = _tagged_stump_dataset()
        base = extract_priors(ensemble, ds, stats, lambda_scale=0.0)
        doubled = extract_priors(ensemble, ds, stats, lambda_scale=1.0)
        np.testing.assert_allclose(doubled.sigma0_diag,
                                   2.0 * base.sigma0_diag, rtol=1e-15)

    def test_identical_tags_hit_floor(self):
        # Equal covers put every row's |phi| at the same value, so per-tag
        # means agree exactly and the variance floors.
        ensemble = TreeEnsemble(0.0, 1.0, [_stump(covers=(2.0, 2.0))],
                                ("a", "b"))
        features = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                             [1.0, 0.0]])
        ds = Dataset(features, [0, 1, 0, 1], ("a", "b"),
                     ("t1", "t1", "t2", "t2"))
        stats = StandardizationStats(np.zeros(2), np.ones(2))
        prior = extract_priors(ensemble, ds, stats, lambda_scale=1.0)
        assert prior.sigma0_diag[0] == pytest.approx(2e-4, abs=1e-18)

    def test_lambda_monotonicity(self):
        ensemble, ds, stats = _tagged_stump_dataset()
        low = extract_priors(ensemble, ds, stats, lambda_scale=0.2)
        high = extract_priors(ensemble, ds, stats, lambda_scale=0.9)
        assert np.all(high.sigma0_diag > low.sigma0_diag)

    def test_invariant_to_row_and_tag_order(self):
        ensemble, ds, stats = _tagged_stump_dataset()
        perm = [3, 1, 0, 2]
        shuffled = ds.subset(perm)
        a = extract_priors(ensemble, ds, stats, 1.0)
        b = extract_priors(ensemble, shuffled, stats, 1.0)
        np.testing.assert_allclose(a.beta0, b.beta0, atol=1e-15)
        np.testing.assert_allclose(a.sigma0_diag, b.sigma0_diag, atol=1e-15)

    def test_single_tag_fallback(self):
        ensemble, ds, stats = _tagged_stump_dataset()
        untagged = Dataset(ds.features, ds.labels, ds.feature_names, None)
        prior = extract_priors(ensemble, untagged, stats, lambda_scale=1.0)
        assert prior.provenance == {"lambda": 1.0, "tags": [], "counts": {},
                                    "fallback": True}
        phi0 = 2.0
        assert prior.sigma0_diag[0] == pytest.approx((1e-4 + phi0 ** 2) * 2.0,
                                                     rel=1e-12)
        # One tag on every row takes the same fallback and counts its rows.
        one_tag = Dataset(ds.features, ds.labels, ds.feature_names,
                          ("t",) * ds.n)
        single = extract_priors(ensemble, one_tag, stats, lambda_scale=1.0)
        assert single.provenance == {"lambda": 1.0, "tags": ["t"],
                                     "counts": {"t": ds.n}, "fallback": True}
        np.testing.assert_array_equal(single.sigma0_diag, prior.sigma0_diag)

    def test_persistence_round_trip(self, tmp_path):
        ensemble, ds, stats = _tagged_stump_dataset()
        prior = extract_priors(ensemble, ds, stats, 1.0)
        path = tmp_path / "prior.json"
        prior.save(path)
        loaded = PriorSpec.load(path)
        np.testing.assert_array_equal(loaded.beta0, prior.beta0)
        np.testing.assert_array_equal(loaded.sigma0_diag, prior.sigma0_diag)
        assert loaded.scale_lambda == prior.scale_lambda
        assert loaded.provenance == prior.provenance


class TestPriorOnlyAuc:
    def _linear_holdout(self, beta, n=400, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, beta.size))
        probs = 1 / (1 + np.exp(-X @ beta))
        y = (rng.random(n) < probs).astype(int)
        names = tuple(f"f{k}" for k in range(beta.size))
        return Dataset(X, y, names)

    def test_oracle_prior_beats_chance(self):
        beta = np.array([1.5, -1.0, 0.5])
        holdout = self._linear_holdout(beta, seed=31)
        prior = PriorSpec(holdout.feature_names, beta,
                          np.full(3, 1e-10), 0.0, {})
        score = prior_only_auc(prior, holdout, draws=20, seed=1)
        assert score > 0.75

    def test_uninformative_prior_near_half(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(500, 3))
        y = np.tile([0, 1], 250)[:500]
        holdout = Dataset(X, y, ("a", "b", "c"))
        prior = PriorSpec(holdout.feature_names, np.zeros(3), np.ones(3),
                          0.0, {})
        draws = 200
        score = prior_only_auc(prior, holdout, draws=draws, seed=2)
        # Per-draw AUC of random scores has sd ~ sqrt((n0+n1+1)/(12 n0 n1)).
        se = math.sqrt((250 + 250 + 1) / (12 * 250 * 250)) / math.sqrt(draws)
        assert abs(score - 0.5) < 3 * se

    def test_prior_auc_below_full_model(self):
        ensemble, X = _fitted(seed=33, p=4, depth=3, n=500, iterations=30)
        rng = np.random.default_rng(34)
        y = (X[:, 0] - 0.7 * X[:, 1] + rng.normal(size=500) > 0).astype(int)
        ds = Dataset(X, y, tuple(f"f{k}" for k in range(4)),
                     tuple(np.where(X[:, 3] > 0, "t1", "t2")))
        stats = StandardizationStats(np.zeros(4), np.ones(4))
        prior = extract_priors(ensemble, ds, stats, 1.0)
        from churnpool.evaluate import auc
        full_auc = auc(ensemble.predict_proba(X), y)
        prior_auc = prior_only_auc(prior, ds, draws=50, seed=3)
        assert 0.5 < prior_auc < full_auc

    def test_single_class_holdout_rejected(self):
        prior = PriorSpec(("a",), np.zeros(1), np.ones(1), 0.0, {})
        holdout = Dataset(np.zeros((5, 1)), np.ones(5, dtype=int), ("a",))
        with pytest.raises(ValidationError):
            prior_only_auc(prior, holdout, draws=2, seed=0)
