"""Calibration order statistics, membership rule, audits, and the
finite-sample coverage guarantee in simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churnpool.conformal import (CalibrationResult, calibrate_pooled,
                                 conservative_adjust, coverage_audit,
                                 predict_sets, recommend_conservative)
from churnpool.errors import ValidationError
from churnpool.rng import default_rng


class TestNonconformity:
    """The score ``|y - p_hat|`` is the smallest threshold whose
    prediction set contains ``y``."""

    @pytest.mark.parametrize("y,p,expected", [(1, 1.0, 0.0), (0, 0.73, 0.73),
                                              (1, 0.73, 0.27)])
    def test_absolute_error(self, y, p, expected):
        assert predict_sets([p], expected + 1e-15)[0, y]
        if expected > 0.0:
            assert not predict_sets([p], expected - 1e-15)[0, y]

    def test_rejects_bad_inputs(self):
        assert predict_sets([0.5], 1.0).shape == (1, 2)
        for p, q in [([1.5], 0.5), ([-0.1], 0.5), ([0.2, math.nan], 0.5),
                     ([0.5], math.nan), ([0.5], 1.5), ([[0.5]], 0.5)]:
            with pytest.raises(ValidationError):
                predict_sets(p, q)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_rule(self, ps, q):
        # The ties p == q and p == 1 - q are always among the rows.
        ps = ps + [q, 1.0 - q]
        expected = [[p <= q, p >= 1.0 - q] for p in ps]
        assert predict_sets(ps, q).tolist() == expected


class TestCalibrateSplit:
    """The split-conformal order statistic, through ``calibrate_pooled``
    with one score list."""

    def test_coverage_rank_at_hundred(self):
        scores = np.linspace(0.001, 0.999, 100)
        result = calibrate_pooled([scores], alpha=0.10)
        k = math.ceil(0.9 * 101)
        assert k == 91
        assert result.q_hat == scores[90]
        assert result.n_cal == 100
        # Finite-sample bound for this configuration: 91/101.
        assert k / 101 == pytest.approx(0.90099, abs=1e-5)

    def test_hand_case(self):
        result = calibrate_pooled([[0.1, 0.2, 0.3, 0.4]], alpha=0.2)
        assert result.q_hat == 0.4

    def test_small_sample_degenerates(self):
        with pytest.warns(UserWarning, match="degenerate"):
            result = calibrate_pooled([[0.1, 0.2, 0.3, 0.4]], alpha=0.05)
        assert result.q_hat == 1.0

    def test_threshold_is_order_statistic(self):
        rng = default_rng(1)
        scores = rng.uniform(size=37)
        result = calibrate_pooled([scores], alpha=0.25)
        assert result.q_hat in scores

    @given(st.floats(min_value=0.02, max_value=0.45),
           st.floats(min_value=0.02, max_value=0.45))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_confidence(self, a1, a2):
        scores = default_rng(2).uniform(size=60)
        lo, hi = sorted((a1, a2))
        q_strict = calibrate_pooled([scores], alpha=lo).q_hat
        q_loose = calibrate_pooled([scores], alpha=hi).q_hat
        assert q_strict >= q_loose

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_pooled([[]], alpha=0.1)


class TestCalibratePooled:
    def test_pooled_count(self):
        lists = [default_rng(i).uniform(size=25) for i in range(15)]
        result = calibrate_pooled(lists, alpha=0.1)
        assert result.n_cal == 375
        assert result.strategy == "pooled"

    def test_single_entity_reduces_to_split(self):
        scores = default_rng(7).uniform(size=40)
        whole = calibrate_pooled([scores], alpha=0.2)
        halves = calibrate_pooled([scores[:17], scores[17:]], alpha=0.2)
        assert halves.q_hat == whole.q_hat

    def test_order_invariance(self):
        lists = [default_rng(i).uniform(size=10) for i in range(6)]
        a = calibrate_pooled(lists, alpha=0.15)
        b = calibrate_pooled(lists[::-1], alpha=0.15)
        assert a.q_hat == b.q_hat

    def test_all_empty_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_pooled([[], []], alpha=0.1)


class TestConservativeAdjust:
    def test_arithmetic(self):
        base = CalibrationResult(0.5, 0.1, 50, "split")
        adjusted = conservative_adjust(base, 0.2)
        assert adjusted.q_hat == pytest.approx(0.6, abs=1e-15)
        assert adjusted.strategy == "conservative-wrapped"
        assert adjusted.inflation == 0.2

    def test_cap_at_one(self):
        base = CalibrationResult(0.9, 0.1, 50, "split")
        assert conservative_adjust(base, 0.3).q_hat == 1.0

    def test_band_endpoints_silent(self):
        base = CalibrationResult(0.4, 0.1, 50, "split")
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            conservative_adjust(base, 0.1)
            conservative_adjust(base, 0.3)

    def test_outside_band_warns_but_applies(self):
        base = CalibrationResult(0.4, 0.1, 50, "split")
        with pytest.warns(UserWarning, match="band"):
            adjusted = conservative_adjust(base, 0.5)
        assert adjusted.q_hat == pytest.approx(0.6, abs=1e-15)


class TestPredictSet:
    def test_wide_threshold_gives_doubleton(self):
        assert predict_sets([0.5], 0.5).tolist() == [[True, True]]
        assert predict_sets([0.5], 0.8).tolist() == [[True, True]]

    def test_narrow_threshold_regions(self):
        assert predict_sets([0.2, 0.95, 0.5], 0.40).tolist() == [
            [True, False], [False, True], [False, False]]

    def test_empty_only_below_half(self):
        rng = default_rng(8)
        for q in rng.uniform(0.5, 1.0, size=50):
            p = rng.uniform(0.0, 1.0, size=20)
            assert predict_sets(p, float(q)).any(axis=1).all()

    def test_nested_as_threshold_grows(self):
        p = default_rng(9).uniform(0, 1, size=30)
        previous = np.zeros((30, 2), dtype=bool)
        for q in np.linspace(0.0, 1.0, 21):
            sets = predict_sets(p, float(q))
            assert not (previous & ~sets).any()
            previous = sets


class TestCoverageAudit:
    def test_vacuous_sets(self):
        sets = predict_sets(np.full(10, 0.5), 1.0)
        audit = coverage_audit(sets, [0, 1] * 5)
        assert audit["empirical_coverage"] == 1.0
        assert audit["average_set_size"] == 2.0
        assert audit["doubleton_rate"] == 1.0

    def test_correct_singletons(self):
        labels = [0, 1, 0, 1]
        sets = predict_sets([0.1 if y == 0 else 0.9 for y in labels], 0.2)
        audit = coverage_audit(sets, labels)
        assert audit["empirical_coverage"] == 1.0
        assert audit["singleton_rate"] == 1.0
        assert audit["average_set_size"] == 1.0

    def test_empty_set_is_uncovered(self):
        sets = predict_sets([0.5, 0.5, 0.1, 0.9], 0.4)
        audit = coverage_audit(sets, [0, 1, 0, 0])
        assert list(audit) == ["empirical_coverage", "singleton_rate",
                               "doubleton_rate", "empty_set_rate",
                               "average_set_size", "n"]
        assert audit["empirical_coverage"] == 0.25
        assert audit["empty_set_rate"] == 0.5
        assert audit["singleton_rate"] == 0.5
        assert audit["average_set_size"] == 0.5
        assert audit["n"] == 4

    def test_length_mismatch(self):
        pair = predict_sets([0.5], 0.5)
        for sets, labels in [(pair, [0, 1]),
                             (np.ones((2, 3), dtype=bool), [0, 1]),
                             (np.ones(2, dtype=bool), [0, 1]),
                             (pair.astype(int), [0]),
                             (pair, [2]),
                             (pair[:0], [])]:
            with pytest.raises(ValidationError):
                coverage_audit(sets, labels)

    def test_exchangeable_coverage_guarantee(self):
        # 2,000 trials here; the acceptance suite runs the full 10,000.
        rng = default_rng(10)
        trials = 2000
        cal = rng.uniform(size=(trials, 100))
        q = np.sort(cal, axis=1)[:, 90]
        fresh = rng.uniform(size=trials)
        coverage = float((fresh <= q).mean())
        bound = math.ceil(0.9 * 101) / 101
        se = math.sqrt(bound * (1 - bound) / trials)
        assert coverage >= bound - 3 * se


class TestSelectStrategy:
    def test_scale_table(self):
        # Pooled throughout; the conservative wrapper is recommended only
        # for fewer than five entities with one below 100 rows.
        assert recommend_conservative([100] * 15) is False
        assert recommend_conservative([60] * 6) is False
        assert recommend_conservative([150, 200, 120]) is False
        assert recommend_conservative([40, 80, 90]) is True
        with pytest.raises(ValidationError):
            recommend_conservative([])

    def test_result_persistence(self, tmp_path):
        result = CalibrationResult(0.42, 0.1, 375, "pooled", 0.0)
        path = tmp_path / "calibration.json"
        result.save(path)
        assert CalibrationResult.load(path) == result
