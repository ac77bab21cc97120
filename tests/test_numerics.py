"""Average ranks against the scipy oracle, heavy ties included."""

import numpy as np
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from churnpool.numerics import average_ranks


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
