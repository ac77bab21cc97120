"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 exercise the flagship configuration (15 entities x 100 rows,
20 simulated features, between-entity scale 0.5, 5-fold protocol, NUTS
with 4 chains x 2,000 warmup + 4,000 draws). The remaining criteria are
oracle and property suites pinned to their stated tolerances.
"""

import math

import numpy as np
import pytest

from churnpool.conformal import CalibrationResult
from churnpool.data import generate_hierarchical_population
from churnpool.evaluate import (ExperimentConfig, auc, fit_logreg_l2,
                                run_experiment)
from churnpool.gbdt import (GradientBoostedTrees, TreeEnsemble, TreeNode,
                            feature_importance)
from churnpool.hier_model import (HierData, HierHyper, HierTarget,
                                  HierarchicalLogistic, shrinkage_report,
                                  shrinkage_weight)
from churnpool.nuts import (FunctionTarget, PosteriorTrace, SamplerConfig,
                            ess, rhat, sample)
from churnpool.rng import default_rng
from churnpool.shap_prior import PriorSpec, TreeShapExplainer

from _oracles import (brute_force_shapley, damped_newton_logreg,
                      longdouble_log_posterior)

FLAGSHIP_SEED = 20240817
FLAGSHIP = dict(p=20, J=15, n_per=100, mu_scale=0.5, sigma_true=0.5)


def report_line(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {status} {name}{suffix}")
    assert passed, f"criterion {num} {name}{suffix}"


def _weak_prior(p):
    return PriorSpec(tuple(f"x{k:02d}" for k in range(p)), np.zeros(p),
                     np.ones(p), 0.0, {"note": "weak prior for acceptance"})


@pytest.fixture(scope="module")
def flagship_experiment():
    collection, _ = generate_hierarchical_population(
        FLAGSHIP["p"], FLAGSHIP["J"], FLAGSHIP["n_per"],
        FLAGSHIP["mu_scale"], FLAGSHIP["sigma_true"], FLAGSHIP_SEED)
    model = HierarchicalLogistic(prior=_weak_prior(FLAGSHIP["p"]),
                                 chains=4, warmup=2000, draws=4000)
    config = ExperimentConfig(folds=5, alpha=0.10, protocol="fit-once")
    return run_experiment(collection, model, config, FLAGSHIP_SEED)


def test_criterion_01_pooling_gain(flagship_experiment):
    report = flagship_experiment
    agg = report.aggregates
    hier = agg["hierarchical"]["auc_mean"]
    indep = agg["independent"]["auc_mean"]
    pooled = agg["pooled"]["auc_mean"]
    t_test = report.paired_tests["hierarchical_vs_independent"]
    ok = (report.n_evaluations == 75
          and hier - indep >= 0.10
          and hier > pooled
          and t_test["p_two_sided"] < 0.01
          and t_test["cohens_d"] > 0
          and report.runtime_seconds < 3600)
    report_line(1, "pooling gain over baselines", ok,
                f"hier={hier:.3f} indep={indep:.3f} pooled={pooled:.3f} "
                f"gap={100 * (hier - indep):.1f}pp p={t_test['p_two_sided']:.2e} "
                f"d={t_test['cohens_d']:.2f} "
                f"runtime={report.runtime_seconds:.0f}s")


def test_criterion_02_conformal_coverage(flagship_experiment):
    conformal = flagship_experiment.conformal
    ok = (conformal["n"] >= 1000
          and 0.87 <= conformal["empirical_coverage"] <= 0.94
          and conformal["empty_set_rate"] < 0.01)
    report_line(2, "pooled conformal coverage", ok,
                f"coverage={conformal['empirical_coverage']:.4f} "
                f"empty={conformal['empty_set_rate']:.4f} n={conformal['n']}")


def test_criterion_03_mcmc_health(flagship_experiment):
    # The fit-once experiment's single fit is the flagship fit: the report's
    # min_ess is the smaller of the bulk and tail minima, and its runtime
    # also covers the baselines, so neither check is looser.
    diag = flagship_experiment.diagnostics
    seconds = flagship_experiment.runtime_seconds
    total = diag["total_draws"]
    ok = (diag["max_rhat"] < 1.01
          and diag["min_ess"] > 400
          and diag["n_divergent"] / total < 0.001
          and seconds < 45 * 60)
    report_line(3, "flagship MCMC health", ok,
                f"max_rhat={diag['max_rhat']:.4f} min_ess={diag['min_ess']:.0f} "
                f"divergent={diag['n_divergent']}/{total} time={seconds:.0f}s")


def _gaussian_target(mean, sd):
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    sd = np.atleast_1d(np.asarray(sd, dtype=np.float64))
    return FunctionTarget(
        mean.size,
        lambda q: float(-0.5 * np.sum(((q - mean) / sd) ** 2)),
        lambda q: -(q - mean) / sd ** 2)


def test_criterion_04_sampler_oracle():
    cases = [("1d standard", [0.0], [1.0]),
             ("2d standard", [0.0, 0.0], [1.0, 1.0]),
             ("1d mean5 sd0.1", [5.0], [0.1])]
    details = []
    ok = True
    for label, mean, sd in cases:
        trace, diag = sample(_gaussian_target(mean, sd),
                             SamplerConfig(chains=4, warmup=1000, draws=2000,
                                           seed=404))
        flat = trace.flat()
        for d in range(flat.shape[1]):
            tol = 3.0 * sd[d] / math.sqrt(diag.ess_bulk[d])
            ok &= abs(flat[:, d].mean() - mean[d]) < tol
            ok &= abs(flat[:, d].var() - sd[d] ** 2) <= 0.10 * sd[d] ** 2
        ok &= 0.90 - 0.07 <= diag.mean_accept <= min(0.999, 0.90 + 0.07)
        details.append(f"{label}: accept={diag.mean_accept:.3f}")
    report_line(4, "analytic Gaussian sampler oracle", ok,
                "; ".join(details))


def _random_hier_instance(p, J, n, seed):
    rng = np.random.default_rng(seed)
    Xs, ys = [], []
    for _ in range(J):
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p)
        probs = 1 / (1 + np.exp(-X @ beta))
        Xs.append(X)
        ys.append((rng.random(n) < probs).astype(int))
    data = HierData(np.concatenate(Xs), np.concatenate(ys), (n,) * J,
                    tuple(f"x{k}" for k in range(p)))
    hyper = HierHyper(rng.normal(size=p), rng.uniform(0.5, 2.0, size=p), 2.0)
    theta = np.concatenate([rng.normal(size=p), [float(rng.uniform(-1, 1))],
                            rng.normal(size=J * p)])
    return data, hyper, theta, Xs, ys


def test_criterion_05_gradient_correctness():
    h = 1e-5
    checked = 0
    worst_fd = 0.0
    worst_logp = 0.0
    ok = True
    for p, J in ((2, 1), (2, 5), (10, 1), (10, 5)):
        for seed in range(25):
            data, hyper, theta, Xs, ys = _random_hier_instance(
                p, J, 10, 5000 + seed)
            target = HierTarget(data, hyper)
            logp, grad = target.logp_and_grad(theta)
            mu = theta[:p]
            braw = theta[p + 1:].reshape(J, p)
            oracle = longdouble_log_posterior(mu, theta[p], braw, Xs,
                                              ys, hyper.beta0,
                                              hyper.sigma0_diag, hyper.tau)
            rel = abs(logp - oracle) / abs(oracle)
            worst_logp = max(worst_logp, rel)
            ok &= rel < 1e-10
            idx = np.random.default_rng(seed).choice(
                theta.size, size=min(4, theta.size), replace=False)
            for i in idx:
                plus, minus = theta.copy(), theta.copy()
                plus[i] += h
                minus[i] -= h
                fd = (target.logp_and_grad(plus)[0]
                      - target.logp_and_grad(minus)[0]) / (2 * h)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6)
                worst_fd = max(worst_fd, rel)
                ok &= rel < 1e-5
            checked += 1
    report_line(5, "analytic gradient and log-density", ok,
                f"{checked} points; worst fd rel={worst_fd:.2e}, "
                f"worst logp rel={worst_logp:.2e}")


def _repeated_feature_tree():
    inner = TreeNode(feature_index=0, threshold=1.5, gain=1.0, cover=6.0,
                     left=TreeNode(value=0.5, cover=4.0),
                     right=TreeNode(value=-2.0, cover=2.0))
    right = TreeNode(feature_index=1, threshold=0.0, gain=1.0, cover=10.0,
                     left=inner, right=TreeNode(value=3.0, cover=4.0))
    return TreeNode(feature_index=0, threshold=-1.0, gain=1.0, cover=16.0,
                    left=TreeNode(value=-1.0, cover=6.0), right=right)


def test_criterion_06_shapley_correctness():
    ok = True
    worst_local = 0.0
    worst_brute = 0.0
    # Local accuracy on a deeper fitted model, every row.
    rng = np.random.default_rng(60)
    X = rng.normal(size=(250, 5))
    y = (X[:, 0] - 0.6 * X[:, 1] + rng.normal(size=250) > 0).astype(int)
    model = GradientBoostedTrees(iterations=12, max_depth=4,
                                 min_samples_leaf=5, seed=6)
    model.fit(X, y, X, y)
    explainer = TreeShapExplainer(model.ensemble_)
    gap = np.abs(explainer.expected_value
                 + explainer.shap_values(X).sum(axis=1)
                 - model.ensemble_.predict_margin(X))
    worst_local = float(gap.max())
    ok &= worst_local < 1e-8

    # Exhaustive-enumeration equivalence for depth <= 3, p <= 8.
    for p, seed in ((6, 61), (8, 62)):
        Xp = rng.normal(size=(200, p))
        yp = (Xp[:, 0] + Xp[:, 1] > 0).astype(int)
        fitted = GradientBoostedTrees(iterations=6, max_depth=3,
                                      min_samples_leaf=5, row_subsample=1.0,
                                      feature_subsample=1.0, seed=seed)
        fitted.fit(Xp, yp, Xp, yp)
        explainer = TreeShapExplainer(fitted.ensemble_)
        for i in range(6):
            phi = explainer.shap_values(Xp[i][None, :])[0]
            base = explainer.expected_value
            phi_ref, base_ref = brute_force_shapley(fitted.ensemble_, Xp[i])
            worst_brute = max(worst_brute,
                              float(np.max(np.abs(phi - phi_ref))),
                              abs(base - base_ref))
    handmade = TreeEnsemble(0.1, 0.7, [_repeated_feature_tree()], ("a", "b"))
    for x in ([-2.0, -1.0], [0.0, -1.0], [2.0, -1.0], [0.0, 1.0]):
        explainer = TreeShapExplainer(handmade)
        phi = explainer.shap_values(np.array(x)[None, :])[0]
        base = explainer.expected_value
        phi_ref, base_ref = brute_force_shapley(handmade, np.array(x))
        worst_brute = max(worst_brute, float(np.max(np.abs(phi - phi_ref))),
                          abs(base - base_ref))
    ok &= worst_brute < 1e-8
    report_line(6, "tree Shapley exactness", ok,
                f"local accuracy worst={worst_local:.2e}, "
                f"enumeration worst={worst_brute:.2e}")


def test_criterion_07_conformal_guarantee_simulation():
    rng = default_rng(70)
    trials = 10_000
    n_cal = 100
    cal = rng.uniform(size=(trials, n_cal))
    k = math.ceil(0.9 * (n_cal + 1))
    thresholds = np.sort(cal, axis=1)[:, k - 1]
    fresh = rng.uniform(size=trials)
    coverage = float((fresh <= thresholds).mean())
    bound = k / (n_cal + 1)
    se = math.sqrt(bound * (1 - bound) / trials)
    ok = coverage >= bound - 3 * se
    report_line(7, "finite-sample coverage simulation", ok,
                f"coverage={coverage:.4f} >= {bound:.4f} - 3*{se:.4f}")


def _shrinkage_sim(p, J, n_per, mu_scale, sigma_true, seed):
    collection, _ = generate_hierarchical_population(
        p, J, n_per, mu_scale, sigma_true, seed)
    data = HierData(collection.X, collection.y, collection.sizes,
                    collection.feature_names)
    target = HierTarget(data, HierHyper(np.zeros(p), np.ones(p), tau=2.0))
    config = SamplerConfig(chains=4, warmup=800, draws=800, seed=seed,
                           init_point=target.init_point())
    trace, _ = sample(target, config)
    return shrinkage_report(trace, data)


def test_criterion_08_shrinkage_law():
    ok = True
    # Closed-form grid: monotone in n and in sigma_ind^2, 0.5 at balance.
    for sw in (1.0, 9.0):
        by_n = [shrinkage_weight(0.5, sw, n) for n in (1, 4, 16, 64)]
        ok &= all(b > a for a, b in zip(by_n, by_n[1:]))
        by_s = [shrinkage_weight(s, sw, 10) for s in (0.01, 0.1, 1.0, 10.0)]
        ok &= all(b > a for a, b in zip(by_s, by_s[1:]))
        ok &= shrinkage_weight(sw / 7, sw, 7) == pytest.approx(0.5, abs=1e-12)
    homogeneous = _shrinkage_sim(2, 20, 100, 0.3, 0.0, 31)
    heterogeneous = _shrinkage_sim(2, 8, 400, 0.7, 5.0, 32)
    ok &= homogeneous.lambda_bar < 0.15
    ok &= heterogeneous.lambda_bar > 0.7
    report_line(8, "shrinkage weight law and regimes", ok,
                f"lambda_bar(sigma=0)={homogeneous.lambda_bar:.3f} < 0.15; "
                f"lambda_bar(sigma=5)={heterogeneous.lambda_bar:.3f} > 0.7")


def test_criterion_09_gbdt_contract():
    rng = np.random.default_rng(90)
    x = rng.normal(size=(150, 1))
    y = (x[:, 0] > 0).astype(int)
    monotone_model = GradientBoostedTrees(
        iterations=10, learning_rate=0.3, max_depth=2, min_samples_leaf=5,
        row_subsample=1.0, feature_subsample=1.0, early_stopping_rounds=100,
        seed=0)
    monotone_model.fit(x, y, x, y)
    losses = monotone_model.train_log_loss_
    monotone_ok = all(b <= a for a, b in zip(losses, losses[1:]))

    x_train = rng.normal(size=(120, 3))
    y_train = ((x_train[:, 0] + rng.normal(scale=1.5, size=120)) > 0).astype(int)
    x_val = rng.normal(size=(40, 3))
    y_val = ((x_val[:, 0] + rng.normal(scale=0.3, size=40)) > 0).astype(int)
    stopper = GradientBoostedTrees(
        iterations=400, learning_rate=0.3, max_depth=3, min_samples_leaf=2,
        row_subsample=1.0, feature_subsample=1.0, early_stopping_rounds=20,
        seed=0)
    stopper.fit(x_train, y_train, x_val, y_val)
    best = int(np.argmin(stopper.val_log_loss_)) + 1
    early_ok = (len(stopper.val_log_loss_) < 400
                and len(stopper.ensemble_.trees) == best)

    X6 = rng.normal(size=(300, 6))
    y6 = (X6[:, 2] - X6[:, 4] + rng.normal(size=300) > 0).astype(int)
    imp_model = GradientBoostedTrees(iterations=25, seed=2)
    imp_model.fit(X6, y6, X6, y6)
    importance = feature_importance(imp_model.ensemble_)
    importance_ok = (abs(importance.sum() - 1.0) < 1e-12
                     and np.all(importance >= 0))
    ok = monotone_ok and early_ok and importance_ok
    report_line(9, "boosting contract", ok,
                f"monotone={monotone_ok} early_stop={early_ok} "
                f"importance_sum={importance.sum():.15f}")


def test_criterion_10_baseline_oracle():
    ok = True
    worst = 0.0
    for seed, n, p in ((2, 60, 2), (3, 120, 5), (4, 90, 3)):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        beta = np.linspace(1.0, -1.0, p)
        probs = 1 / (1 + np.exp(-(X @ beta - 0.3)))
        y = (rng.random(n) < probs).astype(int)
        mine = fit_logreg_l2(X, y, C=1.0)
        reference = damped_newton_logreg(X, y, C=1.0)
        worst = max(worst, float(np.max(np.abs(mine - reference))))
        ok &= np.max(np.abs(mine - reference)) < 1e-6
    auc_value = auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    ok &= auc_value == 0.75
    report_line(10, "logistic baseline oracle", ok,
                f"worst coefficient gap={worst:.2e}; 4-point auc={auc_value}")


def test_criterion_11_diagnostics_oracles(tmp_path):
    ok = True
    # Identical chains with mean-matched halves hit the formula floor.
    half = np.sin(np.arange(50.0))
    chain = np.concatenate([half, half])
    chains = np.tile(chain, (4, 1))
    expected = math.sqrt(49.0 / 50.0)
    rhat_value = rhat(chains)
    ok &= abs(rhat_value - expected) < 1e-12

    rng = default_rng(110)
    iid = rng.standard_normal((4, 1000))
    bulk, _ = ess(iid)
    iid_ok = abs(bulk - 4000) <= 0.20 * 4000
    ok &= iid_ok

    rho = 0.9
    ar1 = np.empty((4, 5000))
    for c in range(4):
        noise = rng.standard_normal(5000)
        ar1[c, 0] = noise[0]
        for t in range(1, 5000):
            ar1[c, t] = rho * ar1[c, t - 1] + math.sqrt(1 - rho * rho) * noise[t]
    ar_bulk, _ = ess(ar1)
    analytic = 4 * 5000 * (1 - rho) / (1 + rho)
    ar_ok = abs(ar_bulk - analytic) <= 0.25 * analytic
    ok &= ar_ok

    # Persistence round-trips, bit exact.
    ensemble = TreeEnsemble(-0.5, 0.03, [TreeNode(
        feature_index=0, threshold=0.25, gain=1.5, cover=10.0,
        left=TreeNode(value=-1.2345678901234567, cover=4.0),
        right=TreeNode(value=0.1, cover=6.0))], ("a",))
    gbdt_path = tmp_path / "model.json"
    ensemble.save(gbdt_path)
    reloaded = TreeEnsemble.load(gbdt_path)
    probe = rng.standard_normal((20, 1))
    ok &= bool(np.array_equal(ensemble.predict_margin(probe),
                              reloaded.predict_margin(probe)))

    prior = PriorSpec(("a", "b"), np.array([0.1, 1 / 3]),
                      np.array([2e-4, 0.7]), 1.0, {"tags": ["t"]})
    prior.save(tmp_path / "prior.json")
    loaded_prior = PriorSpec.load(tmp_path / "prior.json")
    ok &= bool(np.array_equal(loaded_prior.beta0, prior.beta0)
               and np.array_equal(loaded_prior.sigma0_diag, prior.sigma0_diag))

    trace, _ = sample(_gaussian_target([0.0], [1.0]),
                      SamplerConfig(chains=2, warmup=150, draws=60, seed=11))
    trace.save(tmp_path / "trace.bin")
    loaded_trace = PosteriorTrace.load(tmp_path / "trace.bin")
    ok &= bool(np.array_equal(loaded_trace.draws, trace.draws))

    calibration = CalibrationResult(0.4123456789012345, 0.1, 375, "pooled")
    calibration.save(tmp_path / "cal.json")
    ok &= CalibrationResult.load(tmp_path / "cal.json") == calibration

    report_line(11, "diagnostics and persistence oracles", ok,
                f"rhat={rhat_value:.12f} iid_ess={bulk:.0f} "
                f"ar1_ess={ar_bulk:.0f} (analytic {analytic:.0f})")
