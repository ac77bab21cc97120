"""Log-posterior and gradient correctness, predictive quantiles, and
shrinkage arithmetic."""

import math

import numpy as np
import pytest

import churnpool.hier_model as hier_model
from churnpool.data import generate_hierarchical_population
from churnpool.errors import DataError, ValidationError
from churnpool.hier_model import (INTERCEPT_PRIOR_VAR, HierData, HierHyper,
                                  HierParams, HierTarget, HierarchicalLogistic,
                                  posterior_predict_matrix, shrinkage_report,
                                  shrinkage_weight)
from churnpool.numerics import sigmoid
from churnpool.nuts import PosteriorTrace
from churnpool.shap_prior import PriorSpec

from _oracles import longdouble_grad_log_posterior, longdouble_log_posterior


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
    data = HierData(tuple(Xs), tuple(ys), tuple(f"x{k}" for k in range(p)))
    hyper = HierHyper(rng.normal(size=p), rng.uniform(0.5, 2.0, size=p),
                      tau=2.0)
    params = HierParams(rng.normal(size=p), float(rng.uniform(-1, 1)),
                        rng.normal(size=(len(sizes), p)))
    return data, hyper, params


def _logp(params, data, hyper):
    return HierTarget(data, hyper).logp_and_grad(params.pack())[0]


def _grad(params, data, hyper):
    return HierTarget(data, hyper).logp_and_grad(params.pack())[1]


# (p, J): J entities of one size, or an explicit tuple of entity sizes.
LAYOUTS = [(2, 1), (2, 5), (10, 1), (10, 5),
           pytest.param(3, (5, 17, 9, 40), id="3-unequal"),
           pytest.param(3, (5, 17, 0, 40), id="3-unequal-with-empty")]


def _sizes(J, n):
    return (n,) * J if isinstance(J, int) else J


def _extreme_margin_instance(p, sizes, seed):
    """``_random_instance`` with every row rescaled so its margin
    ``x . beta_j`` has magnitude in [700, 800]; labels keep their draw, so
    some rows sit on the wrong side with a loss near 750."""
    data, hyper, params = _random_instance(p, sizes, seed)
    rng = np.random.default_rng(seed + 1)
    betas = params.mu + math.exp(params.log_sigma) * params.beta_raw
    Xs = []
    for X, beta in zip(data.Xs, betas):
        z = X @ beta
        Xs.append(X * (rng.uniform(700.0, 800.0, z.size) / np.abs(z))[:, None])
    return HierData(tuple(Xs), data.ys, data.feature_names), hyper, params


class TestLogPosterior:
    def test_zero_data_closed_form(self):
        p, J = 3, 2
        rng = np.random.default_rng(1)
        beta0 = rng.normal(size=p)
        sigma0 = rng.uniform(0.5, 2.0, size=p)
        data, hyper, _ = _random_instance(p, (0,) * J, seed=2)
        hyper = HierHyper(beta0, sigma0, tau=2.0)
        params = HierParams(beta0, 0.3, np.zeros((J, p)))
        value = _logp(params, data, hyper)
        expected = longdouble_log_posterior(
            beta0, 0.3, np.zeros((J, p)), data.Xs, data.ys, beta0, sigma0, 2.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_row_zero_margin_is_log_half(self):
        p = 2
        data_with = HierData((np.zeros((1, p)),), (np.array([1]),),
                             ("a", "b"))
        data_empty = HierData((np.empty((0, p)),),
                              (np.empty(0, dtype=int),), ("a", "b"))
        hyper = HierHyper(np.zeros(p), np.ones(p))
        params = HierParams(np.array([3.0, -1.0]), 0.1,
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
                params.mu, params.log_sigma, params.beta_raw, data.Xs,
                data.ys, hyper.beta0, hyper.sigma0_diag, hyper.tau)
            assert value == pytest.approx(expected, rel=1e-10)

    def test_invariant_to_entity_and_row_order(self):
        data, hyper, params = _random_instance(3, (15,) * 4, seed=7)
        value = _logp(params, data, hyper)
        perm = [2, 0, 3, 1]
        data_perm = HierData(tuple(data.Xs[j] for j in perm),
                             tuple(data.ys[j] for j in perm),
                             data.feature_names)
        params_perm = HierParams(params.mu, params.log_sigma,
                                 params.beta_raw[perm])
        assert _logp(params_perm, data_perm, hyper) == pytest.approx(
            value, rel=1e-14)
        row_perm = np.arange(15)[::-1]
        data_rows = HierData(
            tuple(X[row_perm] for X in data.Xs),
            tuple(y[row_perm] for y in data.ys), data.feature_names)
        assert _logp(params, data_rows, hyper) == pytest.approx(
            value, rel=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            HierParams(np.array([np.inf]), 0.0, np.zeros((1, 1)))

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
        data = HierData(tuple(np.empty((0, p)) for _ in range(J)),
                        tuple(np.empty(0, dtype=int) for _ in range(J)),
                        tuple(f"x{k}" for k in range(p)))
        # HalfNormal-with-Jacobian mode in log space is log(tau).
        params = HierParams(beta0, math.log(1.7), np.zeros((J, p)))
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

    @pytest.mark.parametrize("p,J", LAYOUTS)
    def test_extreme_margins_match_oracle(self, p, J):
        # |z| of 700-800 is past where exp(-z) overflows for z < -709.
        for seed in range(3):
            data, hyper, params = _extreme_margin_instance(
                p, _sizes(J, 12), seed=300 + seed)
            value, grad = HierTarget(data, hyper).logp_and_grad(params.pack())
            oracle_args = (params.mu, params.log_sigma, params.beta_raw,
                           data.Xs, data.ys, hyper.beta0, hyper.sigma0_diag,
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
        params = HierParams(rng.normal(size=p), 0.2, rng.normal(size=(J, p)))
        names = tuple(f"x{k}" for k in range(p))
        empty = HierData((np.empty((0, p)),), (np.empty(0, dtype=int),), names)
        once = HierData((row,), (np.array([1]),), names)
        twice = HierData((np.vstack([row, row]),), (np.array([1, 1]),), names)
        g0 = _grad(params, empty, hyper)
        g1 = _grad(params, once, hyper)
        g2 = _grad(params, twice, hyper)
        np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), rtol=1e-12)


class TestCenteredBetas:
    """Entity j's coefficients are ``mu + exp(log_sigma) * beta_raw[j]``:
    with one draw and unit rows, the predictive mean is their sigmoid."""

    @staticmethod
    def _predicted(params):
        trace = _trace_from_flat(params.pack()[None, :], params.mu.size,
                                 params.beta_raw.shape[0])
        unit_rows = np.eye(params.mu.size)
        return np.array([posterior_predict_matrix(trace, unit_rows, j)[0]
                         for j in range(params.beta_raw.shape[0])])

    def test_zero_raw_gives_mu(self):
        params = HierParams(np.array([1.0, -2.0]), 0.7, np.zeros((3, 2)))
        np.testing.assert_array_equal(self._predicted(params),
                                      sigmoid(np.tile([1.0, -2.0], (3, 1))))

    def test_sigma_zero_limit(self):
        params = HierParams(np.array([1.0]), -745.0, np.ones((2, 1)))
        np.testing.assert_array_equal(self._predicted(params),
                                      sigmoid(np.ones((2, 1))))

    def test_linear_map(self):
        params = HierParams(np.zeros(2), math.log(2.0),
                            np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(self._predicted(params),
                                   sigmoid(np.array([[2.0, -2.0]])),
                                   rtol=1e-15)


def _trace_from_flat(flat, p, J):
    flat = np.asarray(flat, dtype=np.float64)
    return PosteriorTrace(
        draws=flat[None, :, :], divergent=np.zeros((1, flat.shape[0]), bool),
        step_sizes=np.array([0.5]), initial_step_sizes=np.array([1.0]),
        mass_diag=np.ones((1, flat.shape[1])),
        param_names=tuple(f"t{i}" for i in range(flat.shape[1])),
        seed=0)


def _predict_row(trace, x, sme_index, interval_mass=0.90):
    """Mean and bounds for one row through ``posterior_predict_matrix``."""
    mean, lower, upper = posterior_predict_matrix(trace, x[None, :],
                                                  sme_index, interval_mass)
    return float(mean[0]), float(lower[0]), float(upper[0])


class TestPosteriorPredict:
    def test_all_zero_draws(self):
        p, J = 2, 2
        D = p + 1 + J * p
        trace = _trace_from_flat(np.zeros((10, D)), p, J)
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
        trace = _trace_from_flat(flat, p, J)
        mean, lo, hi = _predict_row(trace, np.array([1.0]), 0,
                                    interval_mass=0.90)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert lo == pytest.approx(0.2, abs=1e-12)
        assert hi == pytest.approx(0.8, abs=1e-12)

    def test_zero_mass_degenerates_to_median(self):
        p, J = 1, 1
        flat = np.zeros((2, 3))
        flat[:, 0] = [math.log(0.2 / 0.8), math.log(0.8 / 0.2)]
        flat[:, 1] = -60.0
        trace = _trace_from_flat(flat, p, J)
        _, lo, hi = _predict_row(trace, np.array([1.0]), 0,
                                 interval_mass=0.0)
        assert lo == hi == pytest.approx(0.2, abs=1e-12)

    def test_intervals_nested_in_mass(self):
        rng = np.random.default_rng(10)
        p, J = 2, 3
        D = p + 1 + J * p
        trace = _trace_from_flat(rng.normal(size=(500, D)), p, J)
        x = np.array([0.3, -0.8])
        intervals = [_predict_row(trace, x, 1, m)[1:]
                     for m in (0.5, 0.8, 0.95)]
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo2 <= lo1 and hi2 >= hi1

    def test_mean_invariant_to_draw_permutation(self):
        rng = np.random.default_rng(11)
        p, J = 2, 1
        D = p + 1 + J * p
        flat = rng.normal(size=(100, D))
        trace_a = _trace_from_flat(flat, p, J)
        trace_b = _trace_from_flat(flat[::-1], p, J)
        x = np.array([1.0, 1.0])
        assert _predict_row(trace_a, x, 0) == _predict_row(
            trace_b, x, 0)

    def test_unknown_entity_rejected(self):
        trace = _trace_from_flat(np.zeros((4, 5)), 2, 1)
        with pytest.raises(ValidationError):
            _predict_row(trace, np.array([1.0, 1.0]), 3)


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
        data = HierData(tuple(ds.features for ds in collection.smes),
                        tuple(ds.labels for ds in collection.smes),
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
        data = HierData(Xs, ys, names)
        trace = _trace_from_flat(np.zeros((50, 4)), 1, 2)
        report = shrinkage_report(trace, data)
        assert report.flagged[0] and not report.flagged[1]
        assert np.isnan(report.mle[0, 0])

    def test_strong_shrinkage_regime_near_underdetermined(self):
        # At 50 rows against 40 features the per-entity likelihood barely
        # constrains anything, so hierarchical estimates keep almost none
        # of the entity-level MLE deviation.
        from churnpool.data import generate_hierarchical_population
        from churnpool.nuts import SamplerConfig, sample

        collection, _ = generate_hierarchical_population(
            p=40, J=10, n_per=50, mu_scale=0.2, sigma_true=0.3, seed=41)
        data = HierData(tuple(ds.features for ds in collection.smes),
                        tuple(ds.labels for ds in collection.smes),
                        collection.feature_names)
        target = HierTarget(data, HierHyper(np.zeros(40), np.ones(40), 2.0))
        config = SamplerConfig(chains=2, warmup=600, draws=600, seed=41,
                               init_point=target.init_point())
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
