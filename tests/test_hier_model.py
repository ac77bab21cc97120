"""Log-posterior and gradient correctness, predictive quantiles,
shrinkage arithmetic, and simulation-based calibration of the sampled
posterior."""

import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
import scipy.stats

import churnpool.hier_model as hier_model
from churnpool.data import generate_hierarchical_population
from churnpool.errors import DataError, ValidationError
from churnpool.hier_model import (INTERCEPT_NAME, INTERCEPT_PRIOR_VAR,
                                  PREDICT_CHUNK_ROWS, HierData, HierHyper,
                                  HierTarget, HierarchicalLogistic,
                                  param_names, posterior_predict_matrix,
                                  shrinkage_report, shrinkage_weight)
from churnpool.numerics import sigmoid
from churnpool.nuts import PosteriorTrace, SamplerConfig, sample
from churnpool.shap_prior import PriorSpec

from _oracles import (longdouble_grad_log_posterior,
                      longdouble_log_posterior, padded_logp_and_grad,
                      tiled_block)


class _Params(NamedTuple):
    """A point in the documented flat order of theta."""

    mu: np.ndarray
    log_sigma: float
    beta_raw: np.ndarray

    def pack(self) -> np.ndarray:
        return np.concatenate([self.mu, [self.log_sigma],
                               np.ravel(self.beta_raw)])


def _hier_data(Xs, ys, names):
    """HierData over per-entity arrays joined into one entity-major table."""
    return HierData(np.concatenate(Xs), np.concatenate(ys),
                    [len(y) for y in ys], names)


def _entities(data):
    """Per-entity ``(Xs, ys)`` read back from the tiles."""
    rows = [data.entity_rows(j) for j in range(data.J)]
    return tuple(X for X, _ in rows), tuple(y for _, y in rows)


def _random_instance(p, sizes, seed):
    """Random data, hyperparameters and point for entities of ``sizes`` rows."""
    rng = np.random.default_rng(seed)
    Xs, ys = [], []
    for n in sizes:
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p)
        probs = 1 / (1 + np.exp(-X @ beta))
        Xs.append(X)
        ys.append((rng.random(n) < probs).astype(int))
    data = _hier_data(Xs, ys, tuple(f"x{k}" for k in range(p)))
    hyper = HierHyper(rng.normal(size=p), rng.uniform(0.5, 2.0, size=p),
                      tau=2.0)
    params = _Params(rng.normal(size=p), float(rng.uniform(-1, 1)),
                        rng.normal(size=(len(sizes), p)))
    return data, hyper, params


def _logp(params, data, hyper):
    return HierTarget(data, hyper).logp_and_grad(params.pack())[0]


def _grad(params, data, hyper):
    return HierTarget(data, hyper).logp_and_grad(params.pack())[1]


# The entity sizes of the seed-1 ``mixed_cv`` benchmark workload.
MIXED_CV_SIZES = (280, 89, 113, 315, 64, 199, 151, 488, 50, 371, 85, 190)

# (p, J): J entities of one size, or an explicit tuple of entity sizes.
# The equal layouts get one tile per entity; the rest are cut into
# shorter tiles, except the near-equal one, where any shorter tile would
# hold more rows than padding every entity to 101.
UNEQUAL_LAYOUTS = [
    pytest.param(3, (5, 17, 9, 40), id="3-unequal"),
    pytest.param(3, (5, 17, 0, 40), id="3-unequal-with-empty"),
    pytest.param(3, (0, 25, 3, 0), id="3-empty-first-and-last"),
    pytest.param(3, (1, 30, 12), id="3-one-row"),
    pytest.param(3, (100, 100, 101), id="3-near-equal"),
    pytest.param(4, MIXED_CV_SIZES, id="4-mixed-cv")]
LAYOUTS = [(2, 1), (2, 5), (10, 1), (10, 5)] + UNEQUAL_LAYOUTS


def _sizes(J, n):
    return (n,) * J if isinstance(J, int) else J


def _extreme_margin_instance(p, sizes, seed):
    """``_random_instance`` with every row rescaled so its margin
    ``x . beta_j`` has magnitude in [700, 800]; labels keep their draw, so
    some rows sit on the wrong side with a loss near 750."""
    data, hyper, params = _random_instance(p, sizes, seed)
    rng = np.random.default_rng(seed + 1)
    betas = params.mu + math.exp(params.log_sigma) * params.beta_raw
    entity_Xs, ys = _entities(data)
    Xs = []
    for X, beta in zip(entity_Xs, betas):
        z = X @ beta
        Xs.append(X * (rng.uniform(700.0, 800.0, z.size) / np.abs(z))[:, None])
    return _hier_data(Xs, ys, data.feature_names), hyper, params


class TestHierData:
    def test_wrong_width_rejected(self):
        # Ten rows of four columns are not twenty rows of two.
        with pytest.raises(ValidationError, match="columns"):
            HierData(np.zeros((10, 4)), np.zeros(10, dtype=int), (10,),
                     ("a", "b"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_feature_rejected(self, bad):
        X = np.zeros((3, 2))
        X[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            HierData(X, np.array([0, 1, 0]), (3,), ("a", "b"))

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            HierData(np.zeros(4), np.zeros(2, dtype=int), (2,), ("a", "b"))

    def test_two_dimensional_labels_rejected(self):
        with pytest.raises(ValidationError, match="1-dimensional"):
            HierData(np.zeros((4, 2)), np.zeros((2, 2), dtype=int), (4,),
                     ("a", "b"))

    @pytest.mark.parametrize("y,sizes", [
        (np.zeros(3, dtype=int), (2, 2)), (np.zeros(4, dtype=int), (3, 2)),
        (np.zeros(4, dtype=int), (5, -1)), (np.zeros(4, dtype=int), ()),
        (np.zeros(4, dtype=int), (2.0, 2.0)),
        (np.zeros(4, dtype=int), ((2, 2),)),
    ], ids=["short-labels", "sizes-over", "negative", "no-entity", "float",
            "two-dimensional"])
    def test_inconsistent_sizes_rejected(self, y, sizes):
        with pytest.raises(ValidationError, match="sizes"):
            HierData(np.zeros((4, 2)), y, sizes, ("a", "b"))

    @pytest.mark.parametrize("p,J", LAYOUTS)
    def test_block_matches_per_entity_fill(self, p, J):
        # The tiles built from the joined table, against tiles cut from
        # each entity's own arrays one entity at a time.
        sizes = _sizes(J, 12)
        rng = np.random.default_rng(400)
        Xs = [rng.normal(size=(n, p)) for n in sizes]
        ys = [rng.integers(0, 2, size=n) for n in sizes]
        data = _hier_data(Xs, ys, tuple(f"x{k}" for k in range(p)))
        tiles, y, pad_softplus, owner = tiled_block(Xs, ys, data.T)
        label_products = np.array([X_j.T @ (1.0 - y_j)
                                   for X_j, y_j in zip(Xs, ys)])
        for mine, reference in ((data._tiles, tiles), (data._y, y),
                                (data._xt_one_minus_y, label_products)):
            assert mine.dtype == reference.dtype == np.float64
            np.testing.assert_array_equal(mine, reference, strict=True)
        assert data._pad_softplus == pad_softplus
        assert data.n_j == tuple(sizes)
        if data._tile_entity is None:
            np.testing.assert_array_equal(owner, np.arange(len(sizes)))
        else:
            np.testing.assert_array_equal(data._tile_entity, owner)
        n_tiles = tiles.shape[0]
        assert n_tiles * data.T <= len(sizes) * max(sizes)
        assert n_tiles <= len(sizes) * max(sizes)
        assert data._tiles.flags.c_contiguous
        assert data._tiles.ctypes.data % 64 == data._y.ctypes.data % 64 == 0
        for j, (X, y_j) in enumerate(zip(*_entities(data))):
            np.testing.assert_array_equal(X, Xs[j], strict=True)
            np.testing.assert_array_equal(y_j, ys[j].astype(np.float64),
                                          strict=True)
            assert not np.shares_memory(X, data._tiles)
            assert not np.shares_memory(y_j, data._y)

    def test_tile_length_rule(self):
        # Brute force over every length against the documented rule: the
        # fewest rows plus a fixed cost per tile, ties to the longer tile.
        rng = np.random.default_rng(401)
        cost_rows = HierData._TILE_COST_ROWS
        for trial in range(300):
            J = int(rng.integers(1, 9))
            sizes = rng.integers(0, 3 if trial < 30 else 130, size=J)
            T = HierData.tile_length(sizes)
            n_max = int(sizes.max())
            assert 1 <= T <= max(n_max, 1)

            def tiles(t):
                return sum(-(-int(n) // t) for n in sizes)

            best = min(range(1, max(n_max, 1) + 1),
                       key=lambda t: (tiles(t) * (t + cost_rows), -t))
            assert T == best
            assert tiles(T) * T <= J * n_max
            assert tiles(T) <= int(sizes.sum())

    @pytest.mark.parametrize("sizes", [(1,), (7, 7, 7), (100,) * 15,
                                       (488,) * 12])
    def test_equal_sizes_get_one_tile_each(self, sizes):
        assert HierData.tile_length(sizes) == sizes[0]
        data = _hier_data([np.zeros((n, 2)) for n in sizes],
                          [np.zeros(n, dtype=int) for n in sizes], ("a", "b"))
        assert data._tiles.shape == (len(sizes), 2, sizes[0])
        assert data._tile_entity is None


class TestLogPosterior:
    def test_zero_data_closed_form(self):
        p, J = 3, 2
        rng = np.random.default_rng(1)
        beta0 = rng.normal(size=p)
        sigma0 = rng.uniform(0.5, 2.0, size=p)
        data, hyper, _ = _random_instance(p, (0,) * J, seed=2)
        hyper = HierHyper(beta0, sigma0, tau=2.0)
        params = _Params(beta0, 0.3, np.zeros((J, p)))
        value = _logp(params, data, hyper)
        expected = longdouble_log_posterior(
            beta0, 0.3, np.zeros((J, p)), *_entities(data), beta0, sigma0,
            2.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_row_zero_margin_is_log_half(self):
        p = 2
        data_with = _hier_data((np.zeros((1, p)),), (np.array([1]),),
                               ("a", "b"))
        data_empty = _hier_data((np.empty((0, p)),),
                                (np.empty(0, dtype=int),), ("a", "b"))
        hyper = HierHyper(np.zeros(p), np.ones(p))
        params = _Params(np.array([3.0, -1.0]), 0.1,
                            np.array([[0.5, 0.5]]))
        delta = (_logp(params, data_with, hyper)
                 - _logp(params, data_empty, hyper))
        assert delta == pytest.approx(math.log(0.5), abs=1e-14)

    @pytest.mark.parametrize("p,J", LAYOUTS)
    def test_matches_extended_precision_oracle(self, p, J):
        for seed in range(5):
            data, hyper, params = _random_instance(p, _sizes(J, 12),
                                                   seed=100 + seed)
            value = _logp(params, data, hyper)
            expected = longdouble_log_posterior(
                params.mu, params.log_sigma, params.beta_raw,
                *_entities(data), hyper.beta0, hyper.sigma0_diag, hyper.tau)
            assert value == pytest.approx(expected, rel=1e-10)

    def test_invariant_to_entity_and_row_order(self):
        data, hyper, params = _random_instance(3, (15,) * 4, seed=7)
        value = _logp(params, data, hyper)
        perm = [2, 0, 3, 1]
        Xs, ys = _entities(data)
        data_perm = _hier_data(tuple(Xs[j] for j in perm),
                               tuple(ys[j] for j in perm),
                             data.feature_names)
        params_perm = _Params(params.mu, params.log_sigma,
                                 params.beta_raw[perm])
        assert _logp(params_perm, data_perm, hyper) == pytest.approx(
            value, rel=1e-14)
        row_perm = np.arange(15)[::-1]
        data_rows = _hier_data(
            tuple(X[row_perm] for X in Xs),
            tuple(y[row_perm] for y in ys), data.feature_names)
        assert _logp(params, data_rows, hyper) == pytest.approx(
            value, rel=1e-14)

    def test_extreme_log_sigma_underflows_to_neg_inf(self):
        # The HalfNormal factor drives the density to zero long before
        # exp(log_sigma) overflows; the evaluation must not raise.
        data, hyper, params = _random_instance(2, (8, 8), seed=99)
        theta = params.pack()
        theta[2] = 400.0
        value, grad = HierTarget(data, hyper).logp_and_grad(theta)
        assert value == -math.inf
        assert np.all(np.isfinite(grad))


class TestGradient:
    def test_prior_mode_is_stationary(self):
        p, J = 4, 3
        rng = np.random.default_rng(8)
        beta0 = rng.normal(size=p)
        hyper = HierHyper(beta0, rng.uniform(0.5, 2.0, size=p), tau=1.7)
        data = _hier_data(tuple(np.empty((0, p)) for _ in range(J)),
                        tuple(np.empty(0, dtype=int) for _ in range(J)),
                        tuple(f"x{k}" for k in range(p)))
        # HalfNormal-with-Jacobian mode in log space is log(tau).
        params = _Params(beta0, math.log(1.7), np.zeros((J, p)))
        grad = _grad(params, data, hyper)
        np.testing.assert_array_equal(grad[:p], np.zeros(p))
        np.testing.assert_array_equal(grad[p + 1:], np.zeros(J * p))
        assert grad[p] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p,J", LAYOUTS)
    def test_finite_differences(self, p, J):
        h = 1e-5
        for seed in range(25):
            data, hyper, params = _random_instance(p, _sizes(J, 10),
                                                   seed=200 + seed)
            target = HierTarget(data, hyper)
            theta = params.pack()
            _, grad = target.logp_and_grad(theta)
            for idx in np.random.default_rng(seed).choice(
                    theta.size, size=min(6, theta.size), replace=False):
                plus = theta.copy()
                plus[idx] += h
                minus = theta.copy()
                minus[idx] -= h
                fd = (target.logp_and_grad(plus)[0]
                      - target.logp_and_grad(minus)[0]) / (2 * h)
                denom = max(abs(grad[idx]), abs(fd), 1e-6)
                assert abs(grad[idx] - fd) / denom < 1e-5

    @pytest.mark.parametrize("p,J", [(2, 1), (2, 5), (10, 5), (11, 15)])
    def test_equal_sizes_match_padded_kernel_bits(self, p, J):
        # One tile per entity is the padded block: the same operations
        # in the same order, so the same bits.
        for seed in range(3):
            data, hyper, params = _random_instance(p, _sizes(J, 40),
                                                   seed=500 + seed)
            value, grad = HierTarget(data, hyper).logp_and_grad(
                params.pack())
            ref_value, ref_grad = padded_logp_and_grad(
                params.pack(), *_entities(data), hyper.beta0,
                hyper.sigma0_diag, hyper.tau)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad, strict=True)

    @pytest.mark.parametrize("p,J", UNEQUAL_LAYOUTS)
    def test_tiles_match_padded_kernel(self, p, J):
        # Unequal sizes sum in another order than the padded block does.
        for seed in range(3):
            data, hyper, params = _random_instance(p, J, seed=510 + seed)
            value, grad = HierTarget(data, hyper).logp_and_grad(
                params.pack())
            ref_value, ref_grad = padded_logp_and_grad(
                params.pack(), *_entities(data), hyper.beta0,
                hyper.sigma0_diag, hyper.tau)
            assert value == pytest.approx(ref_value, rel=1e-13)
            np.testing.assert_allclose(
                grad, ref_grad, rtol=1e-12,
                atol=1e-13 * np.abs(ref_grad).max())

    @pytest.mark.parametrize("sizes", [(5000,) * 4, (3000, 7000, 0, 10000)],
                             ids=["equal", "tiled"])
    def test_calls_allocate_no_row_length_array(self, sizes):
        # The kernel writes its row-length intermediates into the
        # target's work arrays, so 50 calls on 20,000 rows must peak
        # below one row-length float64 array.
        data, hyper, params = _random_instance(4, sizes, seed=600)
        target = HierTarget(data, hyper)
        theta = params.pack()
        target.logp_and_grad(theta)
        tracemalloc.start()
        try:
            for _ in range(50):
                target.logp_and_grad(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(sizes) * 8

    @pytest.mark.parametrize("p,J", LAYOUTS)
    def test_extreme_margins_match_oracle(self, p, J):
        # |z| of 700-800 is past where exp(-z) overflows for z < -709.
        for seed in range(3):
            data, hyper, params = _extreme_margin_instance(
                p, _sizes(J, 12), seed=300 + seed)
            value, grad = HierTarget(data, hyper).logp_and_grad(params.pack())
            oracle_args = (params.mu, params.log_sigma, params.beta_raw,
                           *_entities(data), hyper.beta0, hyper.sigma0_diag,
                           hyper.tau)
            assert math.isfinite(value) and np.all(np.isfinite(grad))
            assert value == pytest.approx(
                longdouble_log_posterior(*oracle_args), rel=1e-10)
            np.testing.assert_allclose(
                grad, longdouble_grad_log_posterior(*oracle_args), rtol=1e-10)

    def test_duplicated_row_doubles_likelihood_gradient(self):
        p, J = 3, 1
        rng = np.random.default_rng(9)
        row = rng.normal(size=(1, p))
        hyper = HierHyper(np.zeros(p), np.ones(p))
        params = _Params(rng.normal(size=p), 0.2, rng.normal(size=(J, p)))
        names = tuple(f"x{k}" for k in range(p))
        empty = _hier_data((np.empty((0, p)),), (np.empty(0, dtype=int),),
                           names)
        once = _hier_data((row,), (np.array([1]),), names)
        twice = _hier_data((np.vstack([row, row]),), (np.array([1, 1]),),
                           names)
        g0 = _grad(params, empty, hyper)
        g1 = _grad(params, once, hyper)
        g2 = _grad(params, twice, hyper)
        np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), rtol=1e-12)


class TestCenteredBetas:
    """Entity j's coefficients are ``mu + exp(log_sigma) * beta_raw[j]``:
    with one draw and unit rows, the predictive mean is their sigmoid."""

    @staticmethod
    def _predicted(params):
        p, J = params.mu.size, params.beta_raw.shape[0]
        trace = _predict_trace(params.pack()[None, :], p, J)
        unit_rows = np.eye(p)
        return np.array([posterior_predict_matrix(trace, unit_rows, j)[0]
                         for j in range(J)])

    def test_zero_raw_gives_mu(self):
        params = _Params(np.array([1.0, -2.0]), 0.7, np.zeros((3, 2)))
        np.testing.assert_array_equal(self._predicted(params),
                                      sigmoid(np.tile([1.0, -2.0], (3, 1))))

    def test_sigma_zero_limit(self):
        params = _Params(np.array([1.0]), -745.0, np.ones((2, 1)))
        np.testing.assert_array_equal(self._predicted(params),
                                      sigmoid(np.ones((2, 1))))

    def test_linear_map(self):
        params = _Params(np.zeros(2), math.log(2.0),
                         np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(self._predicted(params),
                                   sigmoid(np.array([[2.0, -2.0]])),
                                   rtol=1e-15)


def _trace_from_flat(flat, p, J):
    """One chain of draws over ``p`` coefficients and ``J`` entities."""
    flat = np.asarray(flat, dtype=np.float64)
    return PosteriorTrace(
        draws=flat[None, :, :], divergent=np.zeros((1, flat.shape[0]), bool),
        step_sizes=np.array([0.5]), initial_step_sizes=np.array([1.0]),
        mass_diag=np.ones((1, flat.shape[1])),
        param_names=param_names(J, [f"x{k}" for k in range(p)]), seed=0)


def _predict_trace(flat, p, J):
    """``_trace_from_flat`` over ``p`` raw features, with a zero intercept
    coordinate appended to mu and to every beta_raw row, as a fit lays
    them out."""
    flat = np.asarray(flat, dtype=np.float64)
    M = flat.shape[0]
    braw = flat[:, p + 1:].reshape(M, J, p)
    zero = np.zeros((M, 1))
    return _trace_from_flat(np.hstack([
        flat[:, :p], zero, flat[:, p:p + 1],
        np.concatenate([braw, np.zeros((M, J, 1))], axis=2).reshape(M, -1),
    ]), p + 1, J)


def _predict_row(trace, x, entity):
    """Mean and bounds for one raw row through ``posterior_predict_matrix``."""
    mean, lower, upper = posterior_predict_matrix(trace, x[None, :], entity)
    return float(mean[0]), float(lower[0]), float(upper[0])


class TestPosteriorPredict:
    def test_all_zero_draws(self):
        p, J = 2, 2
        D = p + 1 + J * p
        trace = _predict_trace(np.zeros((10, D)), p, J)
        mean, lo, hi = _predict_row(trace, np.array([1.0, -1.0]), 0)
        assert (mean, lo, hi) == (0.5, 0.5, 0.5)

    def test_two_draw_quantiles(self):
        # Two draws produce probabilities 0.2 and 0.8 at x = 1: interval
        # endpoints are the order statistics themselves.
        p, J = 1, 1
        logits = [math.log(0.2 / 0.8), math.log(0.8 / 0.2)]
        flat = np.zeros((2, 3))
        flat[:, 0] = logits          # mu
        flat[:, 1] = -60.0           # log_sigma -> sigma ~ 0
        trace = _predict_trace(flat, p, J)
        mean, lo, hi = _predict_row(trace, np.array([1.0]), 0)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert lo == pytest.approx(0.2, abs=1e-12)
        assert hi == pytest.approx(0.8, abs=1e-12)

    def test_mean_invariant_to_draw_permutation(self):
        rng = np.random.default_rng(11)
        p, J = 2, 1
        D = p + 1 + J * p
        flat = rng.normal(size=(100, D))
        trace_a = _predict_trace(flat, p, J)
        trace_b = _predict_trace(flat[::-1], p, J)
        x = np.array([1.0, 1.0])
        assert _predict_row(trace_a, x, 0) == _predict_row(
            trace_b, x, 0)

    def test_unknown_entity_rejected(self):
        trace = _predict_trace(np.zeros((4, 5)), 2, 1)
        with pytest.raises(ValidationError):
            _predict_row(trace, np.array([1.0, 1.0]), 3)

    def test_mixed_entities_match_per_entity_calls(self):
        # Entity 1 has more rows than one chunk holds, so its rows cross a
        # chunk boundary in both the mixed call and its own call.
        rng = np.random.default_rng(12)
        p, J = 3, 4
        trace = _predict_trace(rng.normal(size=(300, p + 1 + J * p)), p, J)
        entity = rng.permutation(np.repeat(
            np.arange(J), [5, PREDICT_CHUNK_ROWS + 9, 1, 20]))
        X = rng.normal(size=(entity.size, p))
        mixed = posterior_predict_matrix(trace, X, entity)
        for j in range(J):
            rows = np.flatnonzero(entity == j)
            alone = posterior_predict_matrix(trace, X[rows], j)
            for together, own in zip(mixed, alone):
                np.testing.assert_array_equal(together[rows], own)

    @pytest.mark.parametrize("entity", [
        np.array([0, 1, 2]), np.array([0, -1, 1]), 1.5,
        np.array([0.0, 1.0, 0.0]), np.array([0, 1]), np.array([[0, 1, 0]]),
    ], ids=["out-of-range", "negative", "float", "float-rows",
            "wrong-length", "two-dimensional"])
    def test_bad_entity_rejected(self, entity):
        trace = _predict_trace(np.zeros((4, 4)), 1, 2)
        with pytest.raises(ValidationError):
            posterior_predict_matrix(trace, np.ones((3, 1)), entity)

    def test_wrong_feature_count_rejected(self):
        # The draws' length also fits one raw feature over 5 entities
        # (13 = 2 + 1 + 5 * 2); only the trace's layout tells them apart.
        trace = _predict_trace(np.zeros((4, 2 + 1 + 3 * 2)), 2, 3)
        assert trace.dim == 13
        with pytest.raises(ValidationError):
            posterior_predict_matrix(trace, np.ones((1, 1)), 0)


class TestShrinkageWeight:
    def test_large_n_limit(self):
        assert shrinkage_weight(1.0, 4.0, 10 ** 9) == pytest.approx(1.0,
                                                                    abs=1e-8)

    def test_balanced_point(self):
        assert shrinkage_weight(0.04, 0.04 * 50, 50) == pytest.approx(0.5)

    def test_hand_arithmetic(self):
        assert shrinkage_weight(0.25, 25.0, 100) == pytest.approx(0.5)

    def test_monotone(self):
        grid = [shrinkage_weight(s, 4.0, 20) for s in (0.1, 0.5, 1.0, 4.0)]
        assert all(b > a for a, b in zip(grid, grid[1:]))
        by_n = [shrinkage_weight(0.5, 4.0, n) for n in (1, 5, 25, 125)]
        assert all(b > a for a, b in zip(by_n, by_n[1:]))

    def test_undefined_when_both_zero(self):
        with pytest.raises(ValidationError):
            shrinkage_weight(0.0, 0.0, 5)


class TestShrinkageReport:
    def test_shapes_and_flags(self):
        collection, _ = generate_hierarchical_population(
            p=2, J=3, n_per=40, mu_scale=0.8, sigma_true=0.3, seed=12)
        data = HierData(collection.X, collection.y, collection.sizes,
                        collection.feature_names)
        rng = np.random.default_rng(13)
        D = 2 + 1 + 3 * 2
        flat = 0.1 * rng.normal(size=(200, D))
        trace = _trace_from_flat(flat, 2, 3)
        report = shrinkage_report(trace, data)
        assert report.lambda_jk.shape == (3, 2)
        valid = report.lambda_jk[~report.flagged]
        assert np.all((valid >= 0) & (valid <= 1))
        assert 0.0 <= report.lambda_bar <= 1.0

    def test_single_class_entity_flagged(self):
        names = ("a",)
        Xs = (np.random.default_rng(14).normal(size=(20, 1)),
              np.random.default_rng(15).normal(size=(20, 1)))
        ys = (np.ones(20, dtype=int),
              np.tile([0, 1], 10))
        data = _hier_data(Xs, ys, names)
        trace = _trace_from_flat(np.zeros((50, 4)), 1, 2)
        report = shrinkage_report(trace, data)
        assert report.flagged[0] and not report.flagged[1]
        assert np.isnan(report.mle[0, 0])

    @pytest.mark.parametrize("fitted_J", [2, 5])
    def test_trace_of_other_entity_count_rejected(self, fitted_J):
        # A 5-entity trace used to report entities 0-2 of the other fit,
        # and a 2-entity trace ended in a numpy broadcasting error.
        collection, _ = generate_hierarchical_population(
            p=2, J=3, n_per=20, mu_scale=0.8, sigma_true=0.3, seed=12)
        data = HierData(collection.X, collection.y, collection.sizes,
                        collection.feature_names)
        trace = _trace_from_flat(np.zeros((50, 3 + 2 * fitted_J)), 2,
                                 fitted_J)
        with pytest.raises(ValidationError, match="entities"):
            shrinkage_report(trace, data)

    def test_strong_shrinkage_regime_near_underdetermined(self):
        # At 50 rows against 40 features the per-entity likelihood barely
        # constrains anything, so hierarchical estimates keep almost none
        # of the entity-level MLE deviation.
        from churnpool.data import generate_hierarchical_population
        from churnpool.nuts import SamplerConfig, sample

        collection, _ = generate_hierarchical_population(
            p=40, J=10, n_per=50, mu_scale=0.2, sigma_true=0.3, seed=41)
        data = HierData(collection.X, collection.y, collection.sizes,
                        collection.feature_names)
        target = HierTarget(data, HierHyper(np.zeros(40), np.ones(40), 2.0))
        config = SamplerConfig(chains=2, warmup=600, draws=600, seed=41)
        trace, _ = sample(target, config)
        report = shrinkage_report(trace, data)
        assert report.lambda_bar < 0.1


class _Stop(Exception):
    """Raised by a stand-in sampler once it has seen the target."""


class TestWeakPrior:
    def test_none_is_zeros_ones_prior_plus_intercept_entry(self, monkeypatch):
        collection, _ = generate_hierarchical_population(
            p=3, J=2, n_per=20, mu_scale=1.0, sigma_true=0.3, seed=31)
        hypers = []

        def record(target, config, **kwargs):
            hypers.append(target.hyper)
            raise _Stop

        monkeypatch.setattr(hier_model, "sample", record)
        zeros_ones = PriorSpec(collection.feature_names, np.zeros(3),
                               np.ones(3), 0.0, {})
        for prior in (None, zeros_ones):
            with pytest.raises(_Stop):
                HierarchicalLogistic(prior=prior, tau=1.5).fit(collection)
        weak, spec = hypers
        np.testing.assert_array_equal(weak.beta0, spec.beta0)
        np.testing.assert_array_equal(weak.sigma0_diag, spec.sigma0_diag)
        assert weak.tau == spec.tau == 1.5
        np.testing.assert_array_equal(weak.beta0, np.zeros(4))
        np.testing.assert_array_equal(
            weak.sigma0_diag, [1.0, 1.0, 1.0, INTERCEPT_PRIOR_VAR])


class TestTransferPrior:
    def test_prior_over_other_features_is_data_error(self, monkeypatch):
        collection, _ = generate_hierarchical_population(
            p=3, J=2, n_per=20, mu_scale=1.0, sigma_true=0.3, seed=31)
        assert collection.feature_names == ("x00", "x01", "x02")

        def refuse(target, config, **kwargs):
            raise _Stop

        monkeypatch.setattr(hier_model, "sample", refuse)
        prior = PriorSpec(("tenure", "spend", "age"), np.zeros(3),
                          np.ones(3), 0.0, {})
        with pytest.raises(DataError, match="tenure"):
            HierarchicalLogistic(prior=prior).fit(collection)


class TestEstimator:
    def test_sampler_settings_reach_sample_with_the_model_start(
            self, monkeypatch):
        collection, _ = generate_hierarchical_population(
            p=3, J=2, n_per=20, mu_scale=1.0, sigma_true=0.3, seed=31)
        seen = []

        def record(target, config, **kwargs):
            seen.append((target, config))
            return sample(target, config, **kwargs)

        monkeypatch.setattr(hier_model, "sample", record)
        prior = PriorSpec(collection.feature_names, np.array([0.5, -0.3, 0.2]),
                          np.ones(3), 0.0, {})
        sampler = SamplerConfig(chains=2, warmup=100, draws=8, seed=5)
        model = HierarchicalLogistic(prior, sampler=sampler).fit(collection)
        (target, config), = seen
        assert config is sampler
        assert sampler == SamplerConfig(chains=2, warmup=100, draws=8, seed=5)
        header = model.trace_.config
        assert header["init"] == "point"
        assert header["init_point"] == target.init_point().tolist()
        assert header["init_point"][:3] == [0.5, -0.3, 0.2]


class TestSimulationBasedCalibration:
    """Simulation-based calibration (Talts et al., arXiv:1804.06788).

    Each fit draws ``(mu, sigma, beta_raw)`` from ``HierTarget``'s own
    prior, simulates labels on fixed features and samples the posterior.
    When the sampler targets exactly the density that this prior and the
    likelihood define, the rank of each true quantity among independent
    posterior draws is uniform on ``0 .. L``.  Thinning by ``THIN`` makes
    the retained draws close to independent.  A log density without the
    ``+ log sigma`` Jacobian leaves log sigma's posterior improper toward
    zero, and its true value then ranks near the top in most fits.
    """

    J, ROWS, FITS, DRAWS, THIN, BINS = 3, 20, 30, 100, 10, 7
    NAMES = ("x0", "x1", INTERCEPT_NAME)

    def _ranks(self, fit: int, X: np.ndarray, hyper: HierHyper) -> np.ndarray:
        """Ranks of mu_0, log sigma, beta_{1,0} and the log-likelihood."""
        J, n, p = X.shape
        rng = np.random.default_rng(fit)
        mu = hyper.beta0 + np.sqrt(hyper.sigma0_diag) * rng.standard_normal(p)
        sigma = hyper.tau * abs(rng.standard_normal())
        braw = rng.standard_normal((J, p))
        truth = np.concatenate([mu, [math.log(sigma)], braw.ravel()])
        z = np.einsum("jnp,jp->jn", X, mu + sigma * braw)
        y = (rng.uniform(size=(J, n)) < sigmoid(z)).astype(np.int8)
        target = HierTarget(HierData(X.reshape(J * n, p), y.ravel(),
                                     (n,) * J, self.NAMES), hyper)
        trace, _ = sample(target, SamplerConfig(chains=2, warmup=150,
                                                draws=self.DRAWS, seed=fit))
        draws = trace.draws[:, self.THIN - 1::self.THIN].reshape(-1, target.dim)

        def quantities(theta):
            mu, log_sigma = theta[..., :p], theta[..., p]
            braw = theta[..., p + 1:].reshape(theta.shape[:-1] + (J, p))
            betas = (mu[..., None, :]
                     + np.exp(log_sigma)[..., None, None] * braw)
            z = np.einsum("jnp,...jp->...jn", X, betas)
            loglik = (y * z - np.logaddexp(0.0, z)).sum(axis=(-2, -1))
            return np.stack([mu[..., 0], log_sigma, betas[..., 1, 0], loglik],
                            axis=-1)

        return (quantities(draws) < quantities(truth)).sum(axis=0)

    def test_ranks_uniform(self):
        X = np.random.default_rng(2024).standard_normal(
            (self.J, self.ROWS, len(self.NAMES)))
        X[..., -1] = 1.0
        hyper = HierHyper(np.zeros(3), np.ones(3), tau=1.0)
        ranks = np.array([self._ranks(fit, X, hyper)
                          for fit in range(self.FITS)])
        n_ranks = 2 * (self.DRAWS // self.THIN) + 1
        for name, column in zip(("mu_0", "log_sigma", "beta_1_0", "loglik"),
                                ranks.T):
            counts = np.bincount(column * self.BINS // n_ranks,
                                 minlength=self.BINS)
            pvalue = scipy.stats.chisquare(counts).pvalue
            assert pvalue > 1e-3, f"{name} rank counts {counts}, p={pvalue:.2g}"
