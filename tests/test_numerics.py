"""Average ranks against the scipy oracle, heavy ties included; the
logistic function against its two-branch form; the incomplete beta against
scipy where the calibration-conditional rank evaluates it."""

import math

import numpy as np
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from churnpool.numerics import (average_ranks, regularized_incomplete_beta,
                                sigmoid)

from _oracles import two_branch_sigmoid


# Values are drawn from a small pool, so most arrays repeat some of them.
_pool = st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=6)


@st.composite
def _tied_arrays(draw):
    pool = draw(_pool)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.float64)


class TestAverageRanks:
    @given(_tied_arrays())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_rankdata_exactly(self, x):
        np.testing.assert_array_equal(
            average_ranks(x), scipy.stats.rankdata(x, method="average"))

    def test_hand_case(self):
        x = np.array([3.0, 1.0, 3.0, 2.0, 3.0])
        np.testing.assert_array_equal(average_ranks(x),
                                      [4.0, 1.0, 4.0, 2.0, 4.0])

    def test_empty(self):
        assert average_ranks(np.empty(0)).shape == (0,)


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.8, -709.8,
             745.2, -745.2, 1e308, -1e308, 36.7, -36.7, 1.0, -1.0]

    def test_matches_two_branch_form_bitwise(self):
        rng = np.random.default_rng(0)
        draws = [rng.normal(scale=s, size=100_000) for s in (1, 10, 100, 1000)]
        z = np.concatenate([np.array(self.EDGES)] + draws)
        got = sigmoid(z)
        want = two_branch_sigmoid(z)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_edge_values(self):
        got = sigmoid(np.array(self.EDGES))
        assert got[0] == got[1] == 0.5
        assert got[2] == 1.0 and got[3] == 0.0
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_zero_dim_input_returns_float(self):
        for z in (0.3, np.float64(-2.0), np.array(4.0)):
            value = sigmoid(z)
            assert type(value) is float
            assert value == two_branch_sigmoid(z)

    def test_shape_preserved(self):
        z = np.linspace(-5, 5, 12).reshape(3, 4)
        assert sigmoid(z).shape == (3, 4)


class TestRegularizedIncompleteBeta:
    def test_matches_scipy_at_rank_rule_parameters(self):
        # a = k, b = n + 1 - k for ranks from the split rank upward, as
        # the conditional rank steps through them, at x = 1 - alpha.
        worst = 0.0
        for n in np.unique(np.geomspace(22, 10_000, 60).astype(int)):
            for x in (0.8, 0.9, 0.95):
                start = math.ceil(x * (n + 1))
                for k in range(start, min(n, start + 4 * int(math.sqrt(n))
                                           + 4) + 1):
                    mine = regularized_incomplete_beta(k, n + 1 - k, x)
                    worst = max(worst, abs(
                        mine - scipy.special.betainc(k, n + 1 - k, x)))
        assert worst < 1e-10

    def test_endpoints(self):
        assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0
