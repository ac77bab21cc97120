"""Calibration order statistics, membership rule, audits, and the
finite-sample coverage guarantee in simulation."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from churnpool.conformal import (CalibrationResult, _conditional_rank,
                                 calibrate_pooled, conservative_adjust,
                                 coverage_audit, predict_sets,
                                 recommend_conservative)
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


def _negatives(scores):
    """``(p_hat, y)`` whose nonconformity scores are ``scores`` exactly:
    every label is 0, so ``|y - p_hat| = p_hat``."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores, np.zeros(scores.size, dtype=int)


class TestCalibrateSplit:
    """The split-conformal order statistic, through ``calibrate_pooled``
    on one entity's rows."""

    def test_coverage_rank_at_hundred(self):
        scores = np.linspace(0.001, 0.999, 100)
        result = calibrate_pooled(*_negatives(scores), alpha=0.10)
        k = math.ceil(0.9 * 101)
        assert k == 91
        assert result.q_hat == scores[90]
        assert result.n_cal == 100
        # Finite-sample bound for this configuration: 91/101.
        assert k / 101 == pytest.approx(0.90099, abs=1e-5)

    def test_hand_case(self):
        result = calibrate_pooled(*_negatives([0.1, 0.2, 0.3, 0.4]),
                                  alpha=0.2)
        assert result.q_hat == 0.4

    def test_ties_share_a_rank(self):
        # k = ceil(0.6 * 5) = 3 lands inside the run of tied 0.2 scores.
        result = calibrate_pooled(*_negatives([0.5, 0.2, 0.2, 0.2]),
                                  alpha=0.4)
        assert result.q_hat == 0.2

    def test_score_is_absolute_error(self):
        # Scores |1 - 0.9| and |1 - 0.2|; k = ceil(0.3 * 3) = 1 picks the
        # smaller, k = ceil(0.5 * 3) = 2 the larger.
        p_hat, y = [0.9, 0.2], [1, 1]
        assert calibrate_pooled(p_hat, y, alpha=0.7).q_hat == 1.0 - 0.9
        assert calibrate_pooled(p_hat, y, alpha=0.5).q_hat == 1.0 - 0.2

    def test_small_sample_degenerates(self):
        with pytest.warns(UserWarning, match="degenerate"):
            result = calibrate_pooled(*_negatives([0.1, 0.2, 0.3, 0.4]),
                                      alpha=0.05)
        assert result.q_hat == 1.0

    def test_threshold_is_order_statistic(self):
        rng = default_rng(1)
        scores = rng.uniform(size=37)
        result = calibrate_pooled(*_negatives(scores), alpha=0.25)
        assert result.q_hat in scores

    @given(st.floats(min_value=0.02, max_value=0.45),
           st.floats(min_value=0.02, max_value=0.45))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_confidence(self, a1, a2):
        p_hat, y = _negatives(default_rng(2).uniform(size=60))
        lo, hi = sorted((a1, a2))
        q_strict = calibrate_pooled(p_hat, y, alpha=lo).q_hat
        q_loose = calibrate_pooled(p_hat, y, alpha=hi).q_hat
        assert q_strict >= q_loose

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_pooled([], [], alpha=0.1)


class TestCalibratePooled:
    def test_pooled_count(self):
        scores = np.concatenate([default_rng(i).uniform(size=25)
                                 for i in range(15)])
        result = calibrate_pooled(*_negatives(scores), alpha=0.1)
        assert result.n_cal == 375
        assert result.strategy == "pooled"

    def test_single_entity_reduces_to_split(self):
        # Dyadic scores make 1 - (1 - s) == s exact, so an entity whose
        # rows are all positives scores exactly like one of negatives.
        scores = default_rng(7).integers(0, 1025, size=40) / 1024
        whole = calibrate_pooled(*_negatives(scores), alpha=0.2)
        p_hat = np.concatenate([scores[:17], 1.0 - scores[17:]])
        y = np.concatenate([np.zeros(17, int), np.ones(23, int)])
        halves = calibrate_pooled(p_hat, y, alpha=0.2)
        assert halves.q_hat == whole.q_hat

    def test_order_invariance(self):
        p_hat = default_rng(6).uniform(size=60)
        y = (default_rng(5).random(60) < 0.4).astype(int)
        a = calibrate_pooled(p_hat, y, alpha=0.15)
        b = calibrate_pooled(p_hat[::-1], y[::-1], alpha=0.15)
        assert a.q_hat == b.q_hat

    def test_all_empty_rejected(self):
        # Two entities without calibration rows.
        with pytest.raises(ValidationError):
            calibrate_pooled(np.concatenate([[], []]),
                             np.concatenate([[], []]), alpha=0.1)

    def test_rejects_bad_inputs(self):
        for p_hat, y in [([0.2, 0.3], [0]), ([0.2], [0, 1]), ([1.5], [0]),
                         ([-0.1], [1]), ([math.nan], [0]), ([0.5], [2]),
                         ([[0.5]], [[0]])]:
            with pytest.raises(ValidationError):
                calibrate_pooled(p_hat, y, alpha=0.1)


class TestConservativeAdjust:
    """The calibration-conditional rank: the smallest ``k`` with
    ``P(Beta(k, n+1-k) >= 1-alpha) >= 1-alpha``."""

    @pytest.mark.parametrize("n,k", [(22, 22), (24, 24), (36, 36), (40, 39),
                                     (60, 58), (150, 141)])
    def test_rank_at_alpha_tenth(self, n, k):
        scores = default_rng(n).permutation(np.arange(1, n + 1) / (n + 1))
        result = conservative_adjust(*_negatives(scores), alpha=0.1)
        assert result.q_hat == k / (n + 1)
        assert result.n_cal == n
        assert result.strategy == "pooled-conditional"

    @pytest.mark.parametrize("n", [1, 10, 21])
    def test_small_sample_degenerates(self, n):
        with pytest.warns(UserWarning, match="degenerate"):
            result = conservative_adjust(*_negatives(np.full(n, 0.1)),
                                         alpha=0.1)
        assert result.q_hat == 1.0

    def test_rank_matches_scipy_beta(self):
        # For every n up to 2,000 the rank is the first k whose Beta
        # distribution puts at most alpha below 1 - alpha; n + 1 when no
        # k does.
        for n in range(1, 2001):
            ks = np.arange(1, n + 1)
            tail = scipy.stats.beta.cdf(0.9, ks, n + 1 - ks)
            below = np.flatnonzero(tail <= 0.1)
            expected = int(ks[below[0]]) if below.size else n + 1
            assert _conditional_rank(n, 0.1) == expected, n

    def test_shares_input_checks(self):
        for p_hat, y, alpha in [([0.2, 0.3], [0], 0.1), ([1.5], [0], 0.1),
                                ([], [], 0.1), ([0.5] * 30, [0] * 30, 0.0)]:
            with pytest.raises(ValidationError):
                conservative_adjust(p_hat, y, alpha)

    @pytest.mark.parametrize("calibrate, holds", [
        (conservative_adjust, True), (calibrate_pooled, False)])
    def test_coverage_given_calibration_set(self, calibrate, holds):
        # All labels 0 with p_hat ~ U(0, 1): a fresh row is covered iff
        # its score is at most q_hat, so the coverage given the
        # calibration set is q_hat itself.  Below 1 - alpha it may be for
        # at most an alpha share of calibration sets (expected 0.023 at
        # n = 36); the split rank's share is 0.288.
        trials = 20_000
        rng = default_rng(36)
        labels = np.zeros(36, dtype=int)
        short = np.mean([calibrate(rng.uniform(size=36), labels, 0.1).q_hat
                         < 0.9 for _ in range(trials)])
        bound = 0.1 + 3 * math.sqrt(0.1 * 0.9 / trials)
        assert bool(short <= bound) == holds, short


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
        # The split rank throughout; the conditional rank is recommended
        # only for fewer than five entities with one below 100 rows.
        assert recommend_conservative([100] * 15) is False
        assert recommend_conservative([60] * 6) is False
        assert recommend_conservative([150, 200, 120]) is False
        assert recommend_conservative([40, 80, 90]) is True
        with pytest.raises(ValidationError):
            recommend_conservative([])

    def test_result_persistence(self, tmp_path):
        result = CalibrationResult(0.42, 0.1, 375, "pooled")
        path = tmp_path / "calibration.json"
        result.save(path)
        assert CalibrationResult.load(path) == result
