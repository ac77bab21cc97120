"""Estimator protocol: parameter introspection and fitted-state guards."""

import numpy as np
import pytest

from churnpool.base import check_is_fitted
from churnpool.errors import NotFittedError
from churnpool.gbdt import GradientBoostedTrees
from churnpool.hier_model import HierarchicalLogistic


def test_get_params_round_trip():
    model = GradientBoostedTrees(iterations=50, learning_rate=0.1, seed=3)
    params = model.get_params()
    assert params["iterations"] == 50
    clone = GradientBoostedTrees(**params)
    assert clone.get_params() == params


def test_set_params_chains():
    model = HierarchicalLogistic()
    model.set_params(chains=2, warmup=1500)
    assert model.chains == 2 and model.warmup == 1500
    with pytest.raises(ValueError, match="unknown parameter"):
        model.set_params(bogus=1)


def test_repr_shows_params():
    text = repr(GradientBoostedTrees(iterations=5))
    assert text.startswith("GradientBoostedTrees(")
    assert "iterations=5" in text


def test_unfitted_guard():
    with pytest.raises(NotFittedError):
        HierarchicalLogistic().predict_proba(np.ones((2, 2)), 0)
    with pytest.raises(NotFittedError):
        check_is_fitted(GradientBoostedTrees(), "ensemble_")

