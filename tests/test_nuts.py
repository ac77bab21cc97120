"""Integrator properties, the shared low-rank metric, sampling accuracy on
analytic targets, funnel behavior of centered vs non-centered
parameterizations, diagnostics oracles, determinism across worker and BLAS
thread counts, forked-worker hygiene, gradient counts and trace
persistence."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import churnpool
import churnpool.nuts as nuts
from churnpool.errors import DiagnosticError, ValidationError
from churnpool.nuts import (Diagnostics, FunctionTarget, PosteriorTrace,
                            SamplerConfig, _Chain, _leapfrog, _log_add_exp,
                            _Metric, _PooledMoments,
                            _find_reasonable_step_size, ess, rhat, sample)
from churnpool.rng import default_rng, spawn

from _oracles import RecursiveChain, dense_inverse_metric


def gaussian_target(mean, sd):
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    sd = np.atleast_1d(np.asarray(sd, dtype=np.float64))

    def logp(q):
        return float(-0.5 * np.sum(((q - mean) / sd) ** 2))

    def grad(q):
        return -(q - mean) / sd ** 2

    return FunctionTarget(mean.size, logp, grad)


def equicorrelated_target(dim, rho):
    """Zero-mean Gaussian with unit variances and every correlation rho."""
    cov = np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim)
    precision = np.linalg.inv(cov)
    return FunctionTarget(dim, lambda q: float(-0.5 * q @ precision @ q),
                          lambda q: -precision @ q)


def _step(state, step_size, target, inv_mass=None):
    """``(position, momentum) -> (position, momentum)`` through the
    sampler's integrator step; None when the new point is not finite."""
    q, r = state
    if inv_mass is None:
        metric = _Metric(np.ones_like(q))
    elif isinstance(inv_mass, _Metric):
        metric = inv_mass
    else:
        metric = _Metric(np.asarray(inv_mass, dtype=np.float64))
    logp, grad = target.logp_and_grad(q)
    new = _leapfrog((q, r, grad, logp, metric.apply(r), metric.apply(grad)),
                    step_size, target.logp_and_grad, metric.apply)
    return None if new is None else new[:2]


def _record_windows(monkeypatch):
    """Record every warmup window's pooled draws, in merge order, and the
    metric built from them."""
    windows = []
    merge, build = _PooledMoments.merge, _PooledMoments.metric

    def recording_merge(self, block):
        self.__dict__.setdefault("blocks", []).append(block.copy())
        merge(self, block)

    def recording_metric(self):
        metric = build(self)
        windows.append((np.concatenate(self.blocks), metric))
        return metric

    monkeypatch.setattr(_PooledMoments, "merge", recording_merge)
    monkeypatch.setattr(_PooledMoments, "metric", recording_metric)
    return windows


class TestLeapfrog:
    def test_reversibility(self):
        target = gaussian_target([0.0], [1.0])
        q0, r0 = np.array([0.3]), np.array([-0.7])
        q1, r1 = _step((q0, r0), 0.05, target)
        q2, r2 = _step((q1, -r1), 0.05, target)
        np.testing.assert_allclose(q2, q0, atol=1e-12)
        np.testing.assert_allclose(-r2, r0, atol=1e-12)

    def test_free_particle(self):
        flat = FunctionTarget(2, lambda q: 0.0, lambda q: np.zeros(2))
        inv_mass = np.array([2.0, 0.5])
        q0, r0 = np.zeros(2), np.array([1.0, -2.0])
        q1, r1 = _step((q0, r0), 0.25, flat, inv_mass)
        np.testing.assert_array_equal(q1, 0.25 * inv_mass * r0)
        np.testing.assert_array_equal(r1, r0)

    def test_symplectic_energy_drift(self):
        target = gaussian_target([0.0], [1.0])
        q, r = np.array([1.0]), np.array([0.5])

        def hamiltonian(q, r):
            return -target.logp_and_grad(q)[0] + 0.5 * float(r @ r)

        h0 = hamiltonian(q, r)
        for _ in range(1000):
            q, r = _step((q, r), 0.1, target)
        assert abs(hamiltonian(q, r) - h0) < 0.01

    def test_nonfinite_state_rejected(self):
        # A step that lands where the density or gradient is not finite
        # yields no state; the tree builder counts it as a divergence.
        target = gaussian_target([0.0], [1.0])
        assert _step((np.array([np.nan]), np.array([0.0])), 0.1,
                     target) is None
        wall = FunctionTarget(1, lambda q: 0.0 if q[0] < 1.0 else -math.inf,
                              lambda q: np.zeros(1))
        assert _step((np.zeros(1), np.ones(1)), 0.5, wall) is not None
        assert _step((np.zeros(1), np.ones(1)), 2.0, wall) is None

    def test_volume_preservation_jacobian(self):
        # Linear gradient field (random quadratic log-density): the
        # finite-difference Jacobian of one step has determinant 1, for a
        # diagonal metric and for one with a low-rank part.
        rng = default_rng(3)
        A = rng.standard_normal((2, 2))
        precision = A @ A.T + 0.5 * np.eye(2)
        target = FunctionTarget(
            2, lambda q: float(-0.5 * q @ precision @ q),
            lambda q: -precision @ q)
        diag = np.array([1.3, 0.6])
        x0 = rng.standard_normal(4)
        for metric in (_Metric(diag),
                       _Metric(diag, np.array([[0.6], [0.8]]),
                               np.array([3.0]))):

            def step(state):
                q, r = _step((state[:2], state[2:]), 0.2, target, metric)
                return np.concatenate([q, r])

            h = 1e-6
            jac = np.empty((4, 4))
            for i in range(4):
                plus, minus = x0.copy(), x0.copy()
                plus[i] += h
                minus[i] -= h
                jac[:, i] = (step(plus) - step(minus)) / (2 * h)
            assert abs(np.linalg.det(jac) - 1.0) < 1e-8


def test_log_add_exp_matches_numpy_bitwise():
    rng = np.random.default_rng(5)
    values = [-math.inf, -1e3, -745.0, -1.0, -0.0, 0.0, 5e-324, 1.0, 700.0,
              1e3, *rng.normal(scale=30.0, size=40)]
    pairs = [(a, b) for a in values for b in values]
    pairs += [(a, a) for a in values]
    pairs += [(a, a + gap) for a in values[1:]
              for gap in (1e-12, 0.5, 37.0, 1e3)]
    for a, b in pairs:
        got, want = _log_add_exp(a, b), float(np.logaddexp(a, b))
        assert got == want and math.copysign(1.0, got) == math.copysign(
            1.0, want), (a, b, got, want)


class TestFindReasonableStepSize:
    @staticmethod
    def _search(target, q0):
        metric = _Metric(np.ones(q0.size))
        logp, grad = target.logp_and_grad(q0)
        zeros = np.zeros_like(q0)
        state = (q0, zeros, grad, logp, zeros, metric.apply(grad))
        return _find_reasonable_step_size(target, state, metric,
                                          default_rng(0))

    def test_unit_gaussian_order_one(self):
        eps = self._search(gaussian_target([0.0], [1.0]), np.zeros(1))
        assert 0.1 < eps < 10.0

    def test_narrow_gaussian_small_step(self):
        eps = self._search(gaussian_target([0.0], [1e-3]), np.zeros(1))
        assert eps < 0.1

    def test_start_state_is_not_reevaluated(self):
        # The state carries its log density and gradient, so every call
        # the search makes is at a leapfrog step away from it.
        inner = gaussian_target([0.0, 0.0], [1.0, 2.0])
        points = []

        class Recording:
            dim = 2

            def logp_and_grad(self, q):
                points.append(q.copy())
                return inner.logp_and_grad(q)

        q0 = np.array([0.3, -0.2])
        self._search(Recording(), q0)
        assert np.array_equal(points[0], q0) and len(points) > 1
        assert not any(np.array_equal(q, q0) for q in points[1:])


class TestSampling:
    def _run(self, target, **kwargs):
        defaults = dict(chains=4, warmup=500, draws=1000, target_accept=0.90,
                        seed=101)
        defaults.update(kwargs)
        return sample(target, SamplerConfig(**defaults))

    def test_standard_2d_gaussian_moments(self):
        trace, diag = self._run(gaussian_target([0.0, 0.0], [1.0, 1.0]))
        flat = trace.flat()
        for d in range(2):
            tol = 3.0 / math.sqrt(diag.ess_bulk[d])
            assert abs(flat[:, d].mean()) < tol
            assert abs(flat[:, d].var() - 1.0) < 0.10

    def test_offset_narrow_gaussian(self):
        trace, diag = self._run(gaussian_target([5.0], [0.1]),
                                warmup=800, draws=1500)
        flat = trace.flat()
        tol = 3.0 * 0.1 / math.sqrt(diag.ess_bulk[0])
        assert abs(flat[:, 0].mean() - 5.0) < tol
        assert abs(flat[:, 0].var() - 0.01) < 0.001

    def test_acceptance_near_target(self):
        _, diag = self._run(gaussian_target([0.0, 0.0], [1.0, 2.0]))
        assert 0.83 <= diag.mean_accept <= 0.97

    def test_step_size_adapts_down_from_coarse_start(self):
        # Unit metric on a sd=0.1 target: the 50%-acceptance search
        # overshoots what a 0.9 target tolerates, so averaging adapts down.
        # The chains start as sample() starts them, but never leave the
        # identity metric.
        target = gaussian_target([5.0], [0.1])
        config = SamplerConfig(chains=2, warmup=600, draws=200, seed=101)
        for rng in spawn(config.seed, config.chains):
            start = 5.0 + rng.uniform(-nuts._JITTER, nuts._JITTER, 1)
            chain = _Chain(target, config, rng, start, _Metric(np.ones(1)))
            assert chain.warm(config.warmup).shape == (config.warmup, 1)
            assert chain.averaging.averaged < chain.initial_eps

    def test_trace_shape_and_flags(self):
        trace, diag = self._run(gaussian_target([0.0], [1.0]),
                                chains=3, warmup=200, draws=250)
        assert trace.draws.shape == (3, 250, 1)
        assert trace.divergent.shape == (3, 250)
        assert diag.rhat.shape == (1,)
        assert trace.n_chains == 3 and trace.n_draws == 250

    def test_determinism_bitwise(self):
        target = gaussian_target([1.0, -1.0], [1.0, 0.5])
        config = SamplerConfig(chains=2, warmup=300, draws=400, seed=7)
        trace_a, _ = sample(target, config)
        trace_b, _ = sample(target, config)
        assert np.array_equal(trace_a.draws, trace_b.draws)
        assert np.array_equal(trace_a.divergent, trace_b.divergent)

    def test_repeat_runs_byte_identical(self, tmp_path, monkeypatch):
        # Lockstep chains share the metric, so the run as a whole is the
        # unit of reproducibility; the correlated target exercises the
        # low-rank part.  The last run spreads the chains over two workers.
        target = equicorrelated_target(6, 0.9)
        config = SamplerConfig(chains=3, warmup=300, draws=150, seed=13)
        for name, workers in (("first", 1), ("second", 1), ("forked", 2)):
            monkeypatch.setattr(nuts, "_usable_cpus", lambda: workers)
            sample(target, config)[0].save(tmp_path / f"{name}.bin")
        first = (tmp_path / "first.bin").read_bytes()
        assert first == (tmp_path / "second.bin").read_bytes()
        assert first == (tmp_path / "forked.bin").read_bytes()

    @pytest.mark.parametrize("point", [None, [2.0, -1.0]],
                             ids=["origin", "target-point"])
    def test_chains_start_at_the_target_point(self, monkeypatch, point):
        # A target without init_point() starts every chain near the origin.
        starts = []

        class RecordingChain(_Chain):
            def __init__(self, target, config, rng, q0, metric):
                starts.append(q0.copy())
                super().__init__(target, config, rng, q0, metric)

        monkeypatch.setattr(nuts, "_Chain", RecordingChain)
        target = gaussian_target([2.0, -1.0], [1.0, 1.0])
        if point is not None:
            target.init_point = lambda: np.array(point)
        trace, _ = sample(target, SamplerConfig(chains=3, warmup=100,
                                                draws=8, seed=4))
        base = np.zeros(2) if point is None else np.array(point)
        assert len(starts) == 3
        for start in starts:
            assert np.all(np.abs(start - base) <= nuts._JITTER)
        assert trace.config["init"] == ("zero" if point is None else "point")
        assert trace.config.get("init_point") == point

    def test_target_point_of_wrong_shape_rejected(self):
        target = gaussian_target([2.0, -1.0], [1.0, 1.0])
        target.init_point = lambda: np.zeros(3)
        with pytest.raises(ValidationError, match="init_point has shape"):
            sample(target, SamplerConfig(chains=2, warmup=100, draws=8))

    def test_nonfinite_init_rejected(self):
        target = FunctionTarget(1, lambda q: math.nan,
                                lambda q: np.zeros(1))
        with pytest.raises(ValidationError, match="initial point"):
            sample(target, SamplerConfig(chains=1, warmup=100, draws=10,
                                         seed=0))

    def test_all_divergent_warmup_aborts(self):
        # Gradient is finite only for the initialization check, so every
        # integrator step is flagged divergent no matter how small the
        # step size becomes.
        class BrokenGradient:
            dim = 1

            def __init__(self):
                self.calls = 0

            def logp_and_grad(self, q):
                self.calls += 1
                if self.calls == 1:
                    return 0.0, np.zeros(1)
                return 0.0, np.full(1, np.nan)

        with pytest.raises(DiagnosticError, match="target_accept"):
            sample(BrokenGradient(),
                   SamplerConfig(chains=1, warmup=100, draws=10, seed=3))


class _RawTarget:
    """Plain ``logp``/``grad`` callables without ``FunctionTarget``'s
    contract: the reference builder tests the gradient at every leaf."""

    def __init__(self, dim, logp, grad):
        self.dim, self._logp, self._grad = dim, logp, grad

    def logp_and_grad(self, q):
        return float(self._logp(q)), np.asarray(self._grad(q),
                                                dtype=np.float64)


def _scaled_gaussian():
    """Six coordinates with sds 0.1-3 and every correlation 0.8:
    ``(logp, grad)`` callables."""
    dim = 6
    sd = np.geomspace(0.1, 3.0, dim)
    cov = (np.full((dim, dim), 0.8) + 0.2 * np.eye(dim)) * np.outer(sd, sd)
    precision = np.linalg.inv(cov)
    return (dim, lambda q: -0.5 * q @ precision @ q,
            lambda q: -precision @ q)


def _nan_gradient_gaussian():
    """The scaled Gaussian, with a NaN gradient but a finite log density
    beyond q[0] = 0.15, which the chains reach."""
    dim, logp, grad = _scaled_gaussian()
    return dim, logp, lambda q: (grad(q) if q[0] < 0.15
                                 else np.full(dim, np.nan))


def _walled_gaussian():
    """The scaled Gaussian cut at q[0] = 0.15: ``-inf`` beyond."""
    dim, logp, grad = _scaled_gaussian()
    return dim, (lambda q: logp(q) if q[0] < 0.15 else -math.inf), grad


def _rank_two_metric(dim):
    u, _ = np.linalg.qr(default_rng(2).standard_normal((dim, 2)))
    return _Metric(np.linspace(0.5, 2.0, dim), np.ascontiguousarray(u),
                   np.array([6.0, 0.2]))


def _drive(chain_class, target, config, metric):
    """Run ``config.chains`` chains of ``chain_class`` the way ``sample``
    does on one worker, from ``metric``; per chain, the initial step size,
    the ``draw`` reply and the draw, divergence and acceptance rows."""
    dim = target.dim
    chains = [chain_class(target, config, rng,
                          rng.uniform(-0.05, 0.05, dim), metric)
              for rng in spawn(config.seed, config.chains)]
    for start, end in nuts._mass_windows(config.warmup):
        moments = _PooledMoments(dim)
        for chain in chains:
            moments.merge(chain.block(start, end))
        metric = moments.metric()
        for chain in chains:
            chain.adopt(metric)
    runs = []
    for chain in chains:
        *reply, draws, divergent, accept = chain.draw()
        runs.append((chain.initial_eps, tuple(reply), draws, divergent,
                     accept))
    return runs, metric


class TestReferenceBuilder:
    """The tuple builder against the recursive one in ``_oracles``: the
    same draws, acceptance statistics, divergence flags, step sizes and
    call counts, bit for bit."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make, setting, reached", [
        (_scaled_gaussian, {}, None),
        (_nan_gradient_gaussian, {}, "divergent"),
        (_walled_gaussian, {}, "divergent"),
        (_scaled_gaussian, {"max_tree_depth": 2}, "max_depth"),
        (_scaled_gaussian, {"divergence_energy_threshold": 0.3}, "divergent"),
    ], ids=["rank-k", "nan-gradient", "wall", "max-depth", "threshold"])
    def test_same_bits_as_recursive_builder(self, make, setting, reached):
        dim, logp, grad = make()
        config = replace(SamplerConfig(chains=2, warmup=150, draws=120,
                                       seed=8), **setting)
        new, metric = _drive(_Chain, FunctionTarget(dim, logp, grad), config,
                             _rank_two_metric(dim))
        old, _ = _drive(RecursiveChain, _RawTarget(dim, logp, grad), config,
                        _rank_two_metric(dim))
        assert metric.lam.size > 0
        for (eps0, reply, *rows), (old_eps0, old_reply, *old_rows) in zip(
                new, old):
            assert (eps0, *reply[:3]) == (old_eps0, *old_reply)
            for row, old_row in zip(rows, old_rows):
                assert row.tobytes() == old_row.tobytes()
        # Each case reaches the branch it is there for while sampling.
        counts = {"divergent": sum(run[3].sum() for run in new),
                  "max_depth": sum(run[1][3] for run in new)}
        assert reached is None or counts[reached] > 0

    def test_max_depth_count(self, monkeypatch):
        # Counted in the workers and summed in chain order: the same for
        # one worker or two.  At depth 1 every tree is one leaf, so every
        # sampling transition that does not diverge reaches the cap.
        dim, logp, grad = _scaled_gaussian()
        target = FunctionTarget(dim, logp, grad)
        config = SamplerConfig(chains=3, warmup=150, draws=100, seed=4,
                               max_tree_depth=3)
        counts = []
        for workers in (1, 2):
            monkeypatch.setattr(nuts, "_usable_cpus", lambda: workers)
            trace, diag = sample(target, config)
            counts.append(diag.n_max_depth)
        assert counts[0] == counts[1] > 0
        assert diag.to_dict(trace.param_names)["n_max_depth"] == counts[0]
        _, diag = sample(target, replace(config, max_tree_depth=1))
        assert diag.n_divergent == 0
        assert diag.n_max_depth == config.chains * config.draws


class TestSharedMetric:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_block_merge_matches_concatenation(self, sizes, seed):
        rng = np.random.default_rng(seed)
        dim = 4
        blocks = [rng.normal(loc=rng.normal(scale=5.0, size=dim),
                             scale=rng.uniform(0.1, 3.0, size=dim),
                             size=(m, dim)) for m in sizes]
        moments = _PooledMoments(dim)
        for block in blocks:
            moments.merge(block)
        pooled = np.concatenate(blocks)
        assert moments.n == pooled.shape[0]
        if moments.n:
            np.testing.assert_allclose(moments.mean, pooled.mean(axis=0),
                                       rtol=1e-12, atol=1e-12)
        if moments.n >= 2:
            np.testing.assert_allclose(moments.scatter / (moments.n - 1),
                                       np.cov(pooled, rowvar=False),
                                       rtol=1e-10, atol=1e-10)

    def test_products_match_dense_oracle(self):
        rng = default_rng(4)
        dim = 7
        diag = rng.uniform(0.2, 3.0, dim)
        u, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
        lam = np.array([6.0, 0.2, 3.0])
        metric = _Metric(diag, u, lam)
        sigma = dense_inverse_metric(diag, u, lam)
        for x in rng.standard_normal((5, dim)):
            np.testing.assert_allclose(metric.apply(x), sigma @ x,
                                       rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(metric.diagonal(), np.diag(sigma),
                                   rtol=1e-12)
        # Momentum is linear in the standard normal draw, r = M z, so
        # Cov(r) = M M^T, which must be the metric Sigma^-1.
        m = np.column_stack([metric.momentum(e) for e in np.eye(dim)])
        np.testing.assert_allclose(m @ m.T, np.linalg.inv(sigma),
                                   rtol=1e-10, atol=1e-10)

    def test_isotropic_gaussian_stays_diagonal(self, monkeypatch):
        windows = _record_windows(monkeypatch)
        dim, chains = 10, 4
        trace, _ = sample(gaussian_target(np.zeros(dim), np.ones(dim)),
                          SamplerConfig(chains=chains, warmup=1000, draws=100,
                                        seed=3))
        assert len(windows) == 5
        for draws, metric in windows:
            n = draws.shape[0]
            var = draws.var(axis=0, ddof=1)
            np.testing.assert_allclose(metric.diag, (n * var + 5.0) / (n + 5.0),
                                       rtol=1e-10)
        final = windows[-1][1]
        assert final.lam.size == 0
        np.testing.assert_array_equal(trace.mass_diag,
                                      np.tile(final.diag, (chains, 1)))

    def test_equicorrelated_spike_kept(self, monkeypatch):
        # One eigenvalue 1 + 9 * 0.95 = 9.55, nine of 0.05: a diagonal
        # metric needs about 11 gradient calls per transition here.
        windows = _record_windows(monkeypatch)
        target = equicorrelated_target(10, 0.95)
        config = SamplerConfig(chains=4, warmup=500, draws=500, seed=5)
        _, diag = sample(target, config)
        final = windows[-1][1]
        assert final.lam.size >= 1
        assert 7.0 < final.lam.max() < 12.0
        per_transition = diag.n_grad / (config.chains
                                        * (config.warmup + config.draws))
        assert per_transition < 8.0
        assert diag.max_rhat() < 1.02

    def test_window_smaller_than_dim_is_finite(self, monkeypatch):
        windows = _record_windows(monkeypatch)
        dim = 60
        trace, _ = sample(equicorrelated_target(dim, 0.5),
                          SamplerConfig(chains=2, warmup=200, draws=50,
                                        seed=9))
        assert windows[0][0].shape[0] < dim
        for _, metric in windows:
            for values in (metric.diag, metric.u, metric.lam,
                           metric.diagonal()):
                assert np.isfinite(values).all()
        assert np.isfinite(trace.mass_diag).all()
        # A coordinate that never moved has zero variance.
        block = default_rng(1).standard_normal((8, 20))
        block[:, 3] = 1.0
        moments = _PooledMoments(20)
        moments.merge(block)
        metric = moments.metric()
        assert np.isfinite(metric.diagonal()).all()
        assert np.isfinite(metric.momentum(np.ones(20))).all()


class TestGradientCount:
    def _counting_target(self):
        calls = [0]

        def grad(q):
            calls[0] += 1
            return -(q - 1.0)

        return FunctionTarget(3, lambda q: float(-0.5 * np.sum((q - 1.0) ** 2)),
                              grad), calls

    def test_counts_every_call(self, monkeypatch):
        # The closure counter sees only calls made in this process, so the
        # exact count is taken on one worker; two workers must report it.
        config = SamplerConfig(chains=2, warmup=150, draws=100, seed=4)
        monkeypatch.setattr(nuts, "_usable_cpus", lambda: 1)
        target, calls = self._counting_target()
        trace, diag = sample(target, config)
        assert diag.n_grad == calls[0] > 2 * 250
        assert diag.to_dict(trace.param_names)["n_grad"] == calls[0]
        monkeypatch.setattr(nuts, "_usable_cpus", lambda: 2)
        assert sample(self._counting_target()[0], config)[1].n_grad \
            == diag.n_grad

    def test_warmup_calls_split_the_count(self, monkeypatch):
        # Warmup does not depend on the number of draws, so a run that
        # keeps 8 draws makes the same warmup calls, and the sampling
        # calls of either run are the rest of its count: one at least per
        # transition, and the same for one worker or two.
        config = SamplerConfig(chains=2, warmup=150, draws=100, seed=4)
        runs = {}
        for workers, draws in ((1, 100), (2, 100), (1, 8)):
            monkeypatch.setattr(nuts, "_usable_cpus", lambda: workers)
            target, calls = self._counting_target()
            trace, diag = sample(target, replace(config, draws=draws))
            runs[workers, draws] = diag
            if workers == 1:
                assert diag.n_grad == calls[0]
            doc = diag.to_dict(trace.param_names)
            assert doc["n_grad_warmup"] == diag.n_grad_warmup
            assert diag.n_grad_warmup >= config.chains * config.warmup
            assert (diag.n_grad - diag.n_grad_warmup
                    >= config.chains * draws)
        one, two, short = runs[1, 100], runs[2, 100], runs[1, 8]
        assert (two.n_grad, two.n_grad_warmup) == (one.n_grad,
                                                   one.n_grad_warmup)
        assert short.n_grad_warmup == one.n_grad_warmup
        assert short.n_grad < one.n_grad

    @pytest.mark.parametrize("setting", [
        {"draws": 7}, {"divergence_energy_threshold": 0.0},
        {"divergence_energy_threshold": -5.0}, {"max_tree_depth": 0}],
        ids=["draws", "threshold-zero", "threshold-negative", "tree-depth"])
    def test_bad_setting_rejected_before_any_gradient_call(self, setting):
        # ess needs 8 draws per chain, and a divergence threshold of 0 or
        # less flags every step: both fail before the sampler runs.
        target, calls = self._counting_target()
        config = SamplerConfig(chains=2, warmup=150, draws=100, seed=4)
        for key, value in setting.items():
            setattr(config, key, value)
        with pytest.raises(ValidationError, match=next(iter(setting))):
            sample(target, config)
        assert calls[0] == 0


class _WorkerFailure(Exception):
    """Raised by a target only when it runs in a forked worker."""


# A sample() on a 99-dimensional equicorrelated Gaussian whose precision is
# built without BLAS, saved to argv[1].  At dim 99 OpenBLAS 0.3.31 splits
# the window scatter product and eigh across threads, and the sum order
# then follows the thread count.
_BLAS_THREADS_RUN = """
import sys
import numpy as np
from churnpool.nuts import FunctionTarget, SamplerConfig, sample
dim, rho = 99, 0.9
precision = (np.eye(dim) - rho / (1 + (dim - 1) * rho)) / (1 - rho)
target = FunctionTarget(dim, lambda q: float(-0.5 * q @ precision @ q),
                        lambda q: -precision @ q)
sample(target, SamplerConfig(chains=2, warmup=150, draws=10, seed=5)
       )[0].save(sys.argv[1])
"""


class TestWorkers:
    """Chains spread over forked workers; the CPU count is the seam."""

    def test_any_worker_count_gives_the_same_run(self, tmp_path,
                                                 monkeypatch):
        runs = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(nuts, "_usable_cpus", lambda: workers)
            trace, diag = sample(equicorrelated_target(8, 0.8),
                                 SamplerConfig(chains=4, warmup=300,
                                               draws=100, seed=21))
            trace.save(tmp_path / f"{workers}.bin")
            runs.append(((tmp_path / f"{workers}.bin").read_bytes(),
                         json.dumps(diag.to_dict(trace.param_names))))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert json.loads(runs[0][1])["n_grad"] > 4 * 400

    def test_worker_exception_keeps_its_type(self, monkeypatch):
        parent = os.getpid()

        def grad(q):
            if os.getpid() != parent:
                raise _WorkerFailure("boom")
            return -q

        monkeypatch.setattr(nuts, "_usable_cpus", lambda: 2)
        target = FunctionTarget(2, lambda q: float(-0.5 * q @ q), grad)
        with pytest.raises(_WorkerFailure, match="boom"):
            sample(target, SamplerConfig(chains=2, warmup=150, draws=10,
                                         seed=1))
        assert multiprocessing.active_children() == []

    def test_draw_phase_worker_failure_keeps_its_type(self, monkeypatch):
        # Finite only in this process: the chains start, then every
        # integrator step in a worker diverges, and each worker's draw
        # raises.
        parent = os.getpid()

        def grad(q):
            return -q if os.getpid() == parent else np.full(2, np.nan)

        monkeypatch.setattr(nuts, "_usable_cpus", lambda: 2)
        target = FunctionTarget(2, lambda q: float(-0.5 * q @ q), grad)
        with pytest.raises(DiagnosticError,
                           match="every warmup iteration diverged"):
            sample(target, SamplerConfig(chains=2, warmup=150, draws=10,
                                         seed=1))
        assert multiprocessing.active_children() == []

    @staticmethod
    def _one_chain_worker():
        """A forked worker serving one chain's group, as ``sample`` makes
        them, and the chain's warmup windows."""
        config = SamplerConfig(chains=1, warmup=150, draws=10, seed=1)
        chain = _Chain(gaussian_target([0.0], [1.0]), config, default_rng(1),
                       np.zeros(1), _Metric(np.ones(1)))
        return (nuts.served([nuts._Chains([chain])], "sampler worker", True),
                nuts._mass_windows(config.warmup))

    def test_worker_exits_when_parent_end_closes(self):
        workers, windows = self._one_chain_worker()
        with workers as (worker,):
            worker.call("block", 0, *windows[0])
            worker.result()
            # The worker now waits for the window's metric.
            worker.conn.close()
            worker.process.join(timeout=60)
            assert worker.process.exitcode == 0
        assert multiprocessing.active_children() == []

    def test_lost_worker_is_runtime_error(self):
        # A broken pipe is the sampler's failure, not an OSError that the
        # CLI would report as artifact I/O.
        workers, windows = self._one_chain_worker()
        with pytest.raises(RuntimeError, match="exited unexpectedly"):
            with workers as (worker,):
                worker.call("block", 0, *windows[0])
                worker.result()
                worker.process.terminate()
                worker.process.join(timeout=60)
                worker.call("adopt", _Metric(np.ones(1)))
                worker.result()
        assert multiprocessing.active_children() == []

    def test_failed_fork_is_runtime_error(self, monkeypatch):
        def refuse(self):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            refuse)
        monkeypatch.setattr(nuts, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="cannot start"):
            sample(gaussian_target([0.0], [1.0]),
                   SamplerConfig(chains=2, warmup=150, draws=10, seed=1))
        assert multiprocessing.active_children() == []

    def test_trace_independent_of_blas_threads(self, tmp_path):
        src = str(Path(churnpool.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        for threads in (1, 2):
            subprocess.run(
                [sys.executable, "-c", _BLAS_THREADS_RUN,
                 str(tmp_path / f"{threads}.bin")],
                env={**os.environ, "PYTHONPATH": path,
                     "OPENBLAS_NUM_THREADS": str(threads)},
                check=True, timeout=300)
        assert ((tmp_path / "1.bin").read_bytes()
                == (tmp_path / "2.bin").read_bytes())

    def test_unpinned_blas_recorded_in_header(self, monkeypatch):
        config = SamplerConfig(chains=1, warmup=150, draws=10, seed=1)
        target = gaussian_target([0.0], [1.0])
        pinned = nuts._openblas_threads() is not None
        assert ("blas_pinned" not in sample(target, config)[0].config) \
            == pinned
        monkeypatch.setattr(nuts, "_openblas_threads", lambda: None)
        assert sample(target, config)[0].config["blas_pinned"] is False


def funnel_centered():
    """Scale parameter v ~ N(0, 3^2); x | v ~ N(0, e^v)."""

    def logp(q):
        v, x = q
        return float(-0.5 * v * v / 9.0 - 0.5 * (v + x * x * math.exp(-v))
                     - 0.5 * math.log(2 * math.pi) * 2 - math.log(3.0))

    def grad(q):
        v, x = q
        ev = math.exp(-v)
        return np.array([-v / 9.0 - 0.5 + 0.5 * x * x * ev, -x * ev])

    return FunctionTarget(2, logp, grad)


def funnel_noncentered():
    """Same joint in whitened coordinates: v ~ N(0,9), x_raw ~ N(0,1)."""

    def logp(q):
        v, x_raw = q
        return float(-0.5 * v * v / 9.0 - 0.5 * x_raw * x_raw)

    def grad(q):
        v, x_raw = q
        return np.array([-v / 9.0, -x_raw])

    return FunctionTarget(2, logp, grad)


def test_noncentered_removes_funnel_divergences():
    config = SamplerConfig(chains=2, warmup=700, draws=1500,
                           target_accept=0.90, seed=17)
    trace_c, diag_c = sample(funnel_centered(), config)
    trace_n, diag_n = sample(funnel_noncentered(), config)
    total = trace_n.n_chains * trace_n.n_draws
    assert diag_n.n_divergent / total < 0.005
    assert diag_c.n_divergent > diag_n.n_divergent


class TestRhat:
    def test_identical_chains_formula_floor(self):
        # Chains identical AND half-symmetric, so split means agree and
        # the between term vanishes exactly.
        half = np.sin(np.arange(50.0))
        chain = np.concatenate([half, half])
        chains = np.tile(chain, (4, 1))
        n = 50
        assert rhat(chains) == pytest.approx(math.sqrt((n - 1) / n),
                                             abs=1e-12)

    def test_iid_chains_converge(self):
        rng = default_rng(5)
        chains = rng.standard_normal((4, 1000))
        assert rhat(chains) < 1.01

    def test_offset_chains_flagged(self):
        rng = default_rng(6)
        chains = rng.standard_normal((2, 500))
        chains[1] += 10.0
        assert rhat(chains) > 1.5

    def test_constant_chains_warn_inf(self):
        with pytest.warns(UserWarning, match="rhat"):
            assert math.isinf(rhat(np.ones((2, 100))))

    def test_needs_two_chains(self):
        with pytest.raises(ValidationError):
            rhat(np.ones((1, 100)))


class TestEss:
    def test_iid_band(self):
        rng = default_rng(7)
        chains = rng.standard_normal((4, 1000))
        bulk, tail = ess(chains)
        assert 0.8 * 4000 <= bulk <= 1.2 * 4000
        assert tail > 1000

    def test_ar1_analytic_value(self):
        rho = 0.9
        rng = default_rng(8)
        chains = np.empty((4, 5000))
        for c in range(4):
            noise = rng.standard_normal(5000)
            chains[c, 0] = noise[0]
            for t in range(1, 5000):
                chains[c, t] = rho * chains[c, t - 1] + math.sqrt(
                    1 - rho * rho) * noise[t]
        bulk, _ = ess(chains)
        expected = 4 * 5000 * (1 - rho) / (1 + rho)
        assert abs(bulk - expected) / expected < 0.25

    def test_antithetic_superefficiency_capped(self):
        chain = np.tile([1.0, -1.0], 500)
        chains = np.stack([chain, -chain])
        bulk, _ = ess(chains)
        n = 2 * 1000
        assert n <= bulk <= 10 * n

    def test_constant_draws_zero_with_warning(self):
        with pytest.warns(UserWarning, match="constant"):
            bulk, tail = ess(np.ones((2, 100)))
        assert bulk == 0.0 and tail == 0.0


class TestTracePersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        target = gaussian_target([0.0, 1.0], [1.0, 2.0])
        trace, _ = sample(target, SamplerConfig(chains=2, warmup=150,
                                                draws=80, seed=12))
        path = tmp_path / "trace.bin"
        trace.save(path)
        loaded = PosteriorTrace.load(path)
        assert np.array_equal(loaded.draws, trace.draws)
        assert np.array_equal(loaded.divergent, trace.divergent)
        assert np.array_equal(loaded.step_sizes, trace.step_sizes)
        assert np.array_equal(loaded.mass_diag, trace.mass_diag)
        assert loaded.param_names == trace.param_names
        assert loaded.seed == trace.seed
        assert loaded.config == trace.config

    def test_load_holds_the_payload_once(self, tmp_path):
        draws = np.random.default_rng(5).normal(size=(2, 2048, 160))
        assert draws.nbytes >= 4 * 2 ** 20
        PosteriorTrace(draws=draws, divergent=np.zeros((2, 2048), bool),
                       step_sizes=np.ones(2), initial_step_sizes=np.ones(2),
                       mass_diag=np.ones((2, 160)),
                       param_names=tuple(f"t{i}" for i in range(160)),
                       seed=0).save(tmp_path / "trace.bin")
        tracemalloc.start()
        try:
            loaded = PosteriorTrace.load(tmp_path / "trace.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.draws, draws)
        assert peak < 1.5 * draws.nbytes

    def test_nan_draws_rejected(self):
        with pytest.raises(ValidationError):
            PosteriorTrace(draws=np.full((1, 2, 1), np.nan),
                           divergent=np.zeros((1, 2), bool),
                           step_sizes=np.ones(1),
                           initial_step_sizes=np.ones(1),
                           mass_diag=np.ones((1, 1)),
                           param_names=("a",), seed=0)

    def test_diagnostics_json(self):
        diag = Diagnostics(np.array([1.0]), np.array([900.0]),
                           np.array([800.0]), 2, 0.91)
        doc = diag.to_dict(("a",))
        assert doc["param_names"] == ["a"] and doc["n_divergent"] == 2
        assert json.loads(json.dumps(doc)) == doc
