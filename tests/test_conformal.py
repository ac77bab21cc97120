"""Calibration order statistics, membership rule, audits, and the
finite-sample coverage guarantee in simulation."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from churnpool.conformal import (CalibrationResult, _conditional_rank,
                                 _split_rank, calibrate_pooled,
                                 coverage_audit, predict_sets)
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
    """The split-conformal order statistic at the calibration-conditional
    rank, through ``calibrate_pooled`` on one entity's rows."""

    def test_coverage_rank_at_hundred(self):
        scores = np.linspace(0.001, 0.999, 100)
        result = calibrate_pooled(*_negatives(scores), alpha=0.10)
        k = _conditional_rank(100, 0.10)
        assert k == 95
        assert result.q_hat == scores[94]
        assert result.n_cal == 100
        # Mean coverage at this rank, 95/101, clears 1 - alpha.
        assert k / 101 == pytest.approx(0.94059, abs=1e-5)

    def test_hand_case(self):
        # n = 4, 1 - alpha = 0.6: k = 3 leaves P(Beta(3, 2) < 0.6) =
        # 0.4752 > alpha, and k = 4 leaves 0.6**4 = 0.1296, so the largest
        # score is the threshold.
        result = calibrate_pooled(*_negatives([0.1, 0.2, 0.3, 0.4]),
                                  alpha=0.4)
        assert result.q_hat == 0.4

    def test_ties_share_a_rank(self):
        # k = 3 (P(Beta(3, 2) < 0.5) = 0.3125 <= 0.5) lands inside the run
        # of tied 0.2 scores.
        result = calibrate_pooled(*_negatives([0.5, 0.2, 0.2, 0.2]),
                                  alpha=0.5)
        assert result.q_hat == 0.2

    def test_score_is_absolute_error(self):
        # Scores |1 - 0.9| and |1 - 0.2|; at alpha = 0.7 the rank is 1
        # and picks the smaller, at alpha = 0.5 it is 2 and picks the
        # larger.
        p_hat, y = [0.9, 0.2], [1, 1]
        assert calibrate_pooled(p_hat, y, alpha=0.7).q_hat == 1.0 - 0.9
        assert calibrate_pooled(p_hat, y, alpha=0.5).q_hat == 1.0 - 0.2

    def test_small_sample_degenerates(self):
        with pytest.warns(UserWarning, match="degenerate"):
            result = calibrate_pooled(*_negatives([0.1, 0.2, 0.3, 0.4]),
                                      alpha=0.05)
        assert result.q_hat == 1.0

    def test_degenerate_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="degenerate") as record:
            calibrate_pooled(*_negatives([0.1]), alpha=0.1)
        assert record[0].filename == __file__

    def test_threshold_is_order_statistic(self):
        rng = default_rng(1)
        scores = rng.uniform(size=37)
        result = calibrate_pooled(*_negatives(scores), alpha=0.25)
        assert result.q_hat in scores

    # Below alpha = 0.05, 60 rows are too few and q_hat is 1.0.
    @pytest.mark.filterwarnings("ignore:degenerate calibration")
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
        assert result.strategy == "pooled-conditional"

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
    """The calibration-conditional rank that ``calibrate_pooled`` takes:
    the smallest ``k`` with ``P(Beta(k, n+1-k) >= 1-alpha) >= 1-alpha``."""

    @pytest.mark.parametrize("n,k", [(22, 22), (24, 24), (36, 36), (40, 39),
                                     (60, 58), (150, 141)])
    def test_rank_at_alpha_tenth(self, n, k):
        scores = default_rng(n).permutation(np.arange(1, n + 1) / (n + 1))
        result = calibrate_pooled(*_negatives(scores), alpha=0.1)
        assert result.q_hat == k / (n + 1)
        assert result.n_cal == n
        assert result.strategy == "pooled-conditional"

    @pytest.mark.parametrize("n", [1, 10, 21])
    def test_small_sample_degenerates(self, n):
        with pytest.warns(UserWarning, match="degenerate"):
            result = calibrate_pooled(*_negatives(np.full(n, 0.1)),
                                      alpha=0.1)
        assert result.q_hat == 1.0

    @pytest.mark.parametrize("alpha, n_min", [(0.05, 59), (0.10, 22),
                                              (0.20, 8)])
    def test_fewest_rows_below_one(self, alpha, n_min):
        # k = n first clears the test at (1 - alpha)**n <= alpha.
        assert _conditional_rank(n_min, alpha) == n_min
        assert _conditional_rank(n_min - 1, alpha) == n_min

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
                calibrate_pooled(p_hat, y, alpha)

    @pytest.mark.parametrize("n", [36, 300])
    @pytest.mark.parametrize("rank", ["conditional", "split"])
    def test_coverage_given_calibration_set(self, rank, n):
        # All labels 0 with p_hat ~ U(0, 1): a fresh row is covered iff
        # its score is at most q_hat, so the coverage given the
        # calibration set is q_hat itself.  Below 1 - alpha it may be for
        # at most an alpha share of calibration sets: expected 0.023 at
        # n = 36 and 0.070 at n = 300.  The split rank's order statistic,
        # taken here as the contrast, falls short for 0.288 and 0.472.
        trials = 10_000
        cal = default_rng(n).uniform(size=(trials, n))
        if rank == "conditional":
            labels = np.zeros(n, dtype=int)
            q_hat = np.array([calibrate_pooled(u, labels, 0.1).q_hat
                              for u in cal])
        else:
            q_hat = np.sort(cal, axis=1)[:, _split_rank(n, 0.1) - 1]
        short = float(np.mean(q_hat < 0.9))
        bound = 0.1 + 3 * math.sqrt(0.1 * 0.9 / trials)
        assert (short <= bound) == (rank == "conditional"), short


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


class TestCalibrationResult:
    def test_result_persistence(self, tmp_path):
        # "pooled" names the split rank of older files, which still load.
        for strategy in ("pooled-conditional", "pooled"):
            result = CalibrationResult(0.42, 0.1, 375, strategy)
            path = tmp_path / "calibration.json"
            result.save(path)
            assert CalibrationResult.load(path) == result
