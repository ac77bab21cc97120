"""Estimator protocol: dataclass settings, cloning and fitted-state guards."""

from dataclasses import replace

import numpy as np
import pytest

from churnpool.errors import NotFittedError, check_is_fitted
from churnpool.gbdt import GradientBoostedTrees
from churnpool.hier_model import HierarchicalLogistic
from churnpool.nuts import SamplerConfig


def test_replace_round_trip():
    model = GradientBoostedTrees(iterations=50, learning_rate=0.1, seed=3)
    clone = replace(model, seed=4)
    assert (clone.iterations, clone.learning_rate, clone.seed) == (50, 0.1, 4)
    assert repr(replace(clone, seed=3)) == repr(model)


def test_replace_clones_unfitted():
    model = HierarchicalLogistic(tau=1.5, sampler=SamplerConfig(chains=2))
    model.trace_ = object()
    clone = replace(model, sampler=replace(model.sampler, seed=9))
    assert clone.trace_ is None and clone.diagnostics_ is None
    assert (clone.tau, clone.sampler.chains, clone.sampler.seed) == (1.5, 2, 9)
    assert model.sampler.seed == 0


def test_repr_shows_params():
    text = repr(GradientBoostedTrees(iterations=5))
    assert text == (
        "GradientBoostedTrees(iterations=5, learning_rate=0.03, max_depth=6, "
        "min_samples_leaf=20, l2_leaf=3.0, row_subsample=0.8, "
        "feature_subsample=0.8, early_stopping_rounds=50, seed=0)")


def test_unfitted_guard():
    with pytest.raises(NotFittedError):
        HierarchicalLogistic().predict_proba(np.ones((2, 2)), 0)
    with pytest.raises(NotFittedError):
        check_is_fitted(GradientBoostedTrees(), "ensemble_")
