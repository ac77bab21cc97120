"""Baseline solver against a damped-Newton reference, metric arithmetic,
significance statistics against library oracles, and the experiment
harness at toy scale."""

import csv
import json
import math

import numpy as np
import pytest
import scipy.stats

from churnpool.data import (Dataset, SMECollection,
                           generate_hierarchical_population)
from churnpool.errors import (ConvergenceError, DataError, DiagnosticError,
                              ValidationError)
import churnpool.evaluate as evaluate
import churnpool.hier_model as hier_model
from churnpool.evaluate import (ExperimentConfig, ExperimentReport, auc,
                                classification_metrics, cohens_d_paired,
                                fit_logreg_l2, paired_t_test, run_experiment,
                                student_t_sf)
from churnpool.hier_model import HierarchicalLogistic
from churnpool.logreg import fit_penalized_logreg
from churnpool.nuts import SamplerConfig
from churnpool.shap_prior import PriorSpec

from _oracles import damped_newton_logreg


def _toy_dataset(n=80, p=3, seed=0, beta=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if beta is None:
        beta = np.linspace(1.0, -1.0, p)
    probs = 1 / (1 + np.exp(-(X @ beta - 0.3)))
    y = (rng.random(n) < probs).astype(int)
    return Dataset(X, y, tuple(f"x{k}" for k in range(p)))


class TestLogregL2:
    def test_tiny_c_recovers_base_rate(self):
        # C small enough to crush the coefficients but large enough that
        # the intercept's loss gradient still exceeds the absolute
        # convergence tolerance.
        ds = _toy_dataset(n=200, seed=1)
        coefs = fit_logreg_l2(ds.features, ds.labels, C=1e-5)
        rate = ds.labels.mean()
        assert np.max(np.abs(coefs[:-1])) < 1e-3
        assert coefs[-1] == pytest.approx(math.log(rate / (1 - rate)),
                                          abs=5e-3)

    # The last case is the shrinkage MLE's setting: a near-zero ridge and
    # no intercept.
    @pytest.mark.parametrize("seed,n,p,l2,fit_intercept", [
        (2, 60, 2, 1.0, True), (3, 120, 5, 1.0, True), (4, 90, 3, 1.0, True),
        (8, 150, 4, 1e-6, False)],
        ids=["2-60-2", "3-120-5", "4-90-3", "shrinkage-mle"])
    def test_matches_damped_newton(self, seed, n, p, l2, fit_intercept):
        ds = _toy_dataset(n=n, p=p, seed=seed)
        mine = fit_penalized_logreg(ds.features, ds.labels, l2=l2,
                                    fit_intercept=fit_intercept)
        reference = damped_newton_logreg(ds.features, ds.labels, C=1.0, l2=l2,
                                         fit_intercept=fit_intercept)
        np.testing.assert_allclose(mine, reference, atol=1e-6)

    @pytest.mark.parametrize("seed", [176, 191])
    def test_pooled_fit_reaches_tolerance(self, seed):
        # Every row of these populations pooled: a solver whose line search
        # compares summed losses stalls here at gradient max-norm ~2e-6.
        collection, _ = generate_hierarchical_population(
            p=10, J=12, n_per=160, mu_scale=0.5, sigma_true=0.5, seed=seed)
        X, y = collection.X, collection.y
        coefs = fit_logreg_l2(X, y, C=1.0)
        X1 = np.column_stack([X, np.ones(y.size)])
        probs = 1.0 / (1.0 + np.exp(-(X1 @ coefs)))
        grad = np.append(coefs[:-1], 0.0) + X1.T @ (probs - y)
        assert np.max(np.abs(grad)) < 1e-6

    @pytest.mark.parametrize("l2", [0.0, -1.0])
    def test_nonpositive_l2_rejected(self, l2):
        ds = _toy_dataset(n=40, seed=9)
        with pytest.raises(ValidationError):
            fit_penalized_logreg(ds.features, ds.labels, l2=l2)

    def test_separable_matches_newton(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        mine = fit_logreg_l2(X, y, C=1.0)
        reference = damped_newton_logreg(X, y, C=1.0)
        np.testing.assert_allclose(mine, reference, atol=1e-6)

    def test_duplication_equals_doubled_c(self):
        ds = _toy_dataset(n=70, seed=6)
        a = fit_logreg_l2(np.vstack([ds.features, ds.features]),
                          np.concatenate([ds.labels, ds.labels]), C=1.0)
        b = fit_logreg_l2(ds.features, ds.labels, C=2.0)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="single class"):
            fit_logreg_l2(np.random.default_rng(7).normal(size=(10, 2)),
                          np.ones(10, dtype=int))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_documented_four_point_case(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(size=40)
        labels = (rng.random(40) < 0.4).astype(int)
        base = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(base,
                                                                abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc([0.1, 0.9], [1, 1])


class TestClassificationMetrics:
    def test_perfect_probabilities(self):
        report = classification_metrics([0.0, 1.0, 0.0, 1.0], [0, 1, 0, 1])
        assert (report["accuracy"], report["precision"], report["recall"],
                report["f1"]) == (1.0, 1.0, 1.0, 1.0)
        assert report["log_loss"] < 1e-10

    def test_row_keys_in_report_order(self):
        report = classification_metrics([0.2, 0.7, 0.4], [0, 1, 1])
        assert list(report) == ["auc", "accuracy", "precision", "recall",
                                "f1", "log_loss", "threshold", "n"]
        assert (report["threshold"], report["n"]) == (0.5, 3)

    def test_constant_half_balanced(self):
        report = classification_metrics([0.5] * 10, [0, 1] * 5)
        # Ties predict positive at threshold 0.5.
        assert report["accuracy"] == 0.5
        assert report["recall"] == 1.0
        assert report["log_loss"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_confusion_matrix(self):
        probs = [0.9, 0.8, 0.7, 0.6, 0.2, 0.1, 0.2, 0.3]
        labels = [1, 1, 1, 0, 1, 1, 0, 0]
        # TP=3, FP=1, FN=2, TN=2
        report = classification_metrics(probs, labels)
        assert report["precision"] == pytest.approx(0.75)
        assert report["recall"] == pytest.approx(0.6)
        assert report["f1"] == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert report["f1"] == pytest.approx(2 * (0.45) / 1.35, abs=1e-12)

    def test_threshold_zero_full_recall(self):
        report = classification_metrics([0.0, 0.4, 0.9], [1, 0, 1],
                                        threshold=0.0)
        assert report["recall"] == 1.0

    def test_no_positive_predictions_flagged(self):
        with pytest.warns(UserWarning, match="no positive predictions"):
            report = classification_metrics([0.1, 0.2], [0, 1])
        assert report["precision"] == 0.0

    def test_f1_consistency_invariant(self):
        rng = np.random.default_rng(13)
        probs = rng.uniform(size=50)
        labels = (rng.random(50) < 0.3).astype(int)
        report = classification_metrics(probs, labels)
        if report["precision"] + report["recall"] > 0:
            expected = (2 * report["precision"] * report["recall"]
                        / (report["precision"] + report["recall"]))
            assert abs(report["f1"] - expected) < 1e-12


class TestStudentT:
    def test_matches_scipy_oracle(self):
        for t in (0.0, 0.5, 1.3, 2.7, 4.0, 8.5, 20.0):
            for df in (1, 2, 5, 15, 74, 200):
                mine = student_t_sf(t, df)
                reference = scipy.stats.t.sf(t, df)
                assert mine == pytest.approx(reference, rel=1e-10)

    def test_negative_argument(self):
        assert student_t_sf(-1.5, 7) == pytest.approx(
            scipy.stats.t.sf(-1.5, 7), rel=1e-10)


class TestPairedTTest:
    def test_equal_arrays(self):
        t, df, p = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (t, df, p) == (0.0, 2, 1.0)

    def test_zero_variance_nonzero_mean(self):
        t, df, p = paired_t_test([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        assert math.isinf(t) and t > 0
        assert p == 0.0

    def test_mean_one_sd_one_n16(self):
        # Differences with exact mean 1 and sample sd 1: t = 4, df = 15.
        a = math.sqrt(15.0) / 4.0
        d = np.array([1.0 + a, 1.0 - a] * 8)
        t, df, p = paired_t_test(d, np.zeros(16))
        assert t == pytest.approx(4.0, abs=1e-12)
        assert df == 15
        assert p == pytest.approx(2 * scipy.stats.t.sf(4.0, 15), rel=1e-10)
        assert p == pytest.approx(0.00117, abs=2e-5)

    def test_antisymmetry(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        t1, _, p1 = paired_t_test(a, b)
        t2, _, p2 = paired_t_test(b, a)
        assert t1 == -t2
        assert p1 == p2

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [0.0])


class TestCohensD:
    def test_equal_arrays_zero(self):
        assert cohens_d_paired([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_case(self):
        assert cohens_d_paired([2.0, 2.0, 2.0, 0.0],
                               [0.0, 0.0, 0.0, 0.0]) == pytest.approx(1.5)

    def test_sign_flips(self):
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=12), rng.normal(size=12)
        assert cohens_d_paired(a, b) == -cohens_d_paired(b, a)


@pytest.fixture(scope="module")
def tiny_report():
    collection, _ = generate_hierarchical_population(
        p=2, J=3, n_per=40, mu_scale=1.0, sigma_true=0.4, seed=21)
    prior = PriorSpec(collection.feature_names, np.zeros(2), np.ones(2),
                      0.0, {})
    model = HierarchicalLogistic(
        prior=prior, sampler=SamplerConfig(chains=2, warmup=150, draws=200))
    config = ExperimentConfig(folds=2, alpha=0.2)
    return run_experiment(collection, model, config, seed=5)


class TestRunExperiment:
    def test_row_counts(self, tiny_report):
        assert tiny_report.n_evaluations == 6
        methods = {row["method"] for row in tiny_report.rows}
        assert methods == {"hierarchical", "pooled", "independent"}

    def test_aggregates_and_tests_present(self, tiny_report):
        assert "hierarchical" in tiny_report.aggregates
        assert "hierarchical_vs_independent" in tiny_report.paired_tests
        test = tiny_report.paired_tests["hierarchical_vs_independent"]
        assert test["n_pairs"] == 6

    def test_conformal_block(self, tiny_report):
        assert tiny_report.conformal["strategy"] == "pooled"
        assert tiny_report.conformal["conservative_recommended"] is True
        assert 0.0 <= tiny_report.conformal["empirical_coverage"] <= 1.0
        assert tiny_report.conformal["n"] == 120

    def test_per_entity_coverage(self, tiny_report):
        # Three entities of 40 rows, every row audited: the per-entity
        # coverages weighted by row count give back the pooled coverage.
        conformal = tiny_report.conformal
        per_entity = conformal["per_entity_coverage"]
        assert list(per_entity) == ["sme_00", "sme_01", "sme_02"]
        assert all(0.0 <= c <= 1.0 for c in per_entity.values())
        assert conformal["n"] == 3 * 40
        weighted = sum(40 * c for c in per_entity.values()) / conformal["n"]
        assert abs(weighted - conformal["empirical_coverage"]) <= 1e-12

    def test_diagnostics_block(self, tiny_report):
        assert tiny_report.diagnostics["total_draws"] == 2 * 200
        assert tiny_report.diagnostics["max_rhat"] > 0
        # Each chain makes at least one gradient call per transition.
        assert tiny_report.diagnostics["n_grad"] >= 2 * (150 + 200)
        warmup = tiny_report.diagnostics["n_grad_warmup"]
        assert 2 * 150 <= warmup <= tiny_report.diagnostics["n_grad"] - 2 * 200

    def test_report_serialization(self, tiny_report, tmp_path):
        path = tmp_path / "report.json"
        tiny_report.save(path)
        doc = json.loads(path.read_text())
        assert doc["protocol"] == "fit-once"
        assert "protocol_note" in doc
        rows_path = tmp_path / "rows.csv"
        tiny_report.rows_to_csv(rows_path)
        lines = rows_path.read_text().splitlines()
        assert len(lines) == 1 + len(tiny_report.rows)

    def test_determinism(self):
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=22)
        prior = PriorSpec(collection.feature_names, np.zeros(2), np.ones(2),
                          0.0, {})
        model = HierarchicalLogistic(
            prior=prior,
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        config = ExperimentConfig(folds=2, alpha=0.2)
        a = run_experiment(collection, model, config, seed=3)
        b = run_experiment(collection, model, config, seed=3)
        assert a.rows == b.rows
        assert a.aggregates == b.aggregates

    def test_refit_protocol_runs(self):
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=23)
        prior = PriorSpec(collection.feature_names, np.zeros(2), np.ones(2),
                          0.0, {})
        model = HierarchicalLogistic(
            prior=prior,
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        config = ExperimentConfig(folds=2, alpha=0.2, protocol="refit")
        report = run_experiment(collection, model, config, seed=4)
        assert report.protocol == "refit"
        assert report.n_evaluations == 4
        # Fold k's threshold comes from other models' scores: the audit
        # is cross-conformal, and the report names its 1 - 2 alpha bound.
        assert report.conformal["strategy"] == "cross-conformal"
        assert "1 - 2 alpha" in json.loads(report.to_json())["protocol_note"]

    def test_one_scoring_call_per_fold(self, monkeypatch):
        # Every entity's held-out rows of a fold are scored in one call,
        # and each entity's share has the bits a call on its rows alone
        # gives.
        collection, _ = generate_hierarchical_population(
            p=2, J=3, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=24)
        prior = PriorSpec(collection.feature_names, np.zeros(2), np.ones(2),
                          0.0, {})
        model = HierarchicalLogistic(
            prior=prior,
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        score = hier_model.posterior_predict_matrix
        calls = []

        def scored_once(trace, X, entity):
            result = score(trace, X, entity)
            for j in np.unique(entity):
                rows = entity == j
                alone = score(trace, X[rows], j)
                assert all(np.array_equal(a, b[rows])
                           for a, b in zip(alone, result))
            calls.append(np.unique(entity).size)
            return result

        monkeypatch.setattr(hier_model, "posterior_predict_matrix",
                            scored_once)
        report = run_experiment(collection, model,
                                ExperimentConfig(folds=2, alpha=0.2), seed=6)
        assert calls == [3, 3]
        assert report.n_evaluations == 6

    def test_homogeneous_entities_pooling_ordering(self):
        # Entities resampled from one source share a single generating
        # model, so complete pooling must beat per-entity fits, with the
        # hierarchical model at least matching the pooled fit.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 3))
        beta = np.array([1.2, -0.8, 0.5])
        y = (rng.random(600) < 1 / (1 + np.exp(-(X @ beta)))).astype(int)
        from churnpool.data import make_synthetic_smes
        source = Dataset(X, y, ("a", "b", "c"))
        collection = make_synthetic_smes(source, J=6, n_per=60, seed=9)
        prior = PriorSpec(("a", "b", "c"), np.zeros(3), np.ones(3), 0.0, {})
        model = HierarchicalLogistic(
            prior=prior,
            sampler=SamplerConfig(chains=2, warmup=600, draws=800))
        config = ExperimentConfig(folds=2, alpha=0.2)
        report = run_experiment(collection, model, config, seed=9)
        agg = report.aggregates
        assert agg["pooled"]["auc_mean"] > agg["independent"]["auc_mean"]
        assert agg["hierarchical"]["auc_mean"] >= agg["pooled"]["auc_mean"] - 0.01

    def test_partial_report_when_hier_stage_fails(self, monkeypatch):
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=24)
        prior = PriorSpec(collection.feature_names, np.zeros(2), np.ones(2),
                          0.0, {})

        def failing_sample(*args, **kwargs):
            raise DiagnosticError("sampler failed (forced)")

        monkeypatch.setattr(hier_model, "sample", failing_sample)
        model = HierarchicalLogistic(
            prior=prior,
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        config = ExperimentConfig(folds=2, alpha=0.2)
        report = run_experiment(collection, model, config, seed=4)
        assert any("hierarchical stage failed" in f for f in report.flags)
        assert report.n_evaluations == 0
        methods = {row["method"] for row in report.rows}
        assert methods == {"pooled", "independent"}
        assert report.diagnostics == {}

    def test_bad_sampler_setting_propagates(self):
        # Only a sampler failure makes a partial report; a setting the
        # sampler rejects is the caller's error.
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=24)
        model = HierarchicalLogistic(sampler=SamplerConfig(
            chains=2, warmup=120, draws=100, max_tree_depth=0))
        config = ExperimentConfig(folds=2, alpha=0.2)
        with pytest.raises(ValidationError, match="max_tree_depth"):
            run_experiment(collection, model, config, seed=4)

    @pytest.mark.parametrize("field, value", [
        ("folds", 1), ("l2_c", 0.0), ("alpha", 1.0), ("protocol", "twice")])
    def test_bad_config_rejected_before_any_fit(self, monkeypatch, field,
                                                value):
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=24)
        fits = []
        monkeypatch.setattr(evaluate.HierarchicalLogistic, "fit",
                            lambda self, c: fits.append(c))
        config = ExperimentConfig(folds=2, alpha=0.2)
        setattr(config, field, value)
        with pytest.raises(ValidationError, match=field):
            run_experiment(collection, HierarchicalLogistic(), config, seed=4)
        assert fits == []

    def test_prior_over_other_features_is_data_error(self):
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=24)
        wrong_prior = PriorSpec(("a", "b", "c"), np.zeros(3), np.ones(3),
                                0.0, {})
        model = HierarchicalLogistic(
            prior=wrong_prior,
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        config = ExperimentConfig(folds=2, alpha=0.2)
        with pytest.raises(DataError, match="prior is over features"):
            run_experiment(collection, model, config, seed=4)

    def test_pooled_convergence_failure_flagged(self, monkeypatch):
        collection, _ = generate_hierarchical_population(
            p=2, J=3, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=25)
        prior = PriorSpec(collection.feature_names, np.zeros(2), np.ones(2),
                          0.0, {})
        model = HierarchicalLogistic(
            prior=prior,
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        config = ExperimentConfig(folds=2, alpha=0.2)

        def fit_failing_on_pooled(X, y, C=1.0):
            # Entity training folds hold 15 rows; the pooled fold holds 45.
            if y.size > 30:
                raise ConvergenceError("no convergence (forced)")
            return fit_logreg_l2(X, y, C)

        monkeypatch.setattr(evaluate, "fit_logreg_l2", fit_failing_on_pooled)
        report = run_experiment(collection, model, config, seed=4)
        assert [f for f in report.flags if "pooled fit skipped" in f] == [
            "fold 0: pooled fit skipped: no convergence (forced)",
            "fold 1: pooled fit skipped: no convergence (forced)"]
        methods = {row["method"] for row in report.rows}
        assert methods == {"hierarchical", "independent"}
        assert "pooled" not in report.aggregates
        assert "hierarchical_vs_pooled" not in report.paired_tests
        assert report.n_evaluations == 6

    def test_no_entity_with_folds_is_data_error(self, monkeypatch):
        # Two positives per entity cannot fill 5 stratified folds, so no
        # entity has folds; that is a data error raised before any fit.
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        rng = np.random.default_rng(2)
        smes = tuple(Dataset(rng.normal(size=(10, 2)), labels, ("a", "b"))
                     for _ in range(2))
        collection = SMECollection(smes, ("s0", "s1"))
        prior = PriorSpec(("a", "b"), np.zeros(2), np.ones(2), 0.0, {})
        fits = []
        monkeypatch.setattr(evaluate.HierarchicalLogistic, "fit",
                            lambda self, c: fits.append(c))
        model = HierarchicalLogistic(
            prior=prior,
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        config = ExperimentConfig(folds=5)
        with pytest.raises(DataError, match="no entity can be split"):
            run_experiment(collection, model, config, seed=4)
        assert fits == []

    @pytest.mark.parametrize("protocol", ["fit-once", "refit"])
    def test_entity_without_folds(self, monkeypatch, protocol):
        # One positive in ten rows cannot fill 2 stratified folds.  The
        # entity sits between split ones, so entity indices are not row
        # positions among the split entities.
        population, _ = generate_hierarchical_population(
            p=2, J=3, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=26)
        rng = np.random.default_rng(3)
        lone = Dataset(rng.normal(size=(10, 2)), np.eye(10, dtype=int)[0],
                       population.feature_names)
        smes = [population.dataset(j) for j in range(population.J)]
        collection = SMECollection((smes[0], lone, *smes[1:]),
                                   ("a", "lone", "b", "c"))
        fitted = []
        fit = HierarchicalLogistic.fit

        def recording_fit(self, train):
            fitted.append(train)
            return fit(self, train)

        baseline_fits = []

        def recording_baseline(X, y, C=1.0):
            baseline_fits.append(X)
            return fit_logreg_l2(X, y, C)

        monkeypatch.setattr(evaluate.HierarchicalLogistic, "fit",
                            recording_fit)
        monkeypatch.setattr(evaluate, "fit_logreg_l2", recording_baseline)
        model = HierarchicalLogistic(
            prior=PriorSpec(collection.feature_names, np.zeros(2),
                            np.ones(2), 0.0, {}),
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        report = run_experiment(
            collection, model,
            ExperimentConfig(folds=2, alpha=0.2, protocol=protocol), seed=7)
        assert [f for f in report.flags if "lone" in f] == [
            "sme lone excluded from folds: class 1 has 1 members, need >= K=2"]
        assert {row["sme"] for row in report.rows} == {"a", "b", "c"}
        assert report.n_evaluations == 6
        assert list(report.conformal["per_entity_coverage"]) == ["a", "b", "c"]
        assert report.conformal["n"] == 90
        # Every fit, one per fold under refit, holds all of the lone rows;
        # a split entity enters a refit with the other fold's rows only.
        assert len(fitted) == (2 if protocol == "refit" else 1)
        for train in fitted:
            assert train.ids == collection.ids
            np.testing.assert_array_equal(train.dataset(1).features,
                                          lone.features)
            assert list(train.sizes) == (
                [15, 10, 15, 15] if protocol == "refit" else [30, 10, 30, 30])
        # Each fold's pooled baseline sees the rows a refit sees: the other
        # fold of every split entity and all of the lone rows.
        pooled = [X for X in baseline_fits if X.shape[0] > 15]
        assert [X.shape[0] for X in pooled] == [55, 55]
        for X in pooled:
            rows = X.tolist()
            assert all(row in rows for row in lone.features.tolist())

    def test_leave_one_out_entity(self, monkeypatch):
        # An entity of K rows has one row per test fold: every fold is
        # single-class, so it has no metric and no audited rows, yet each
        # of its training rows still enters the pooled baseline.
        population, _ = generate_hierarchical_population(
            p=2, J=3, n_per=30, mu_scale=1.0, sigma_true=0.3, seed=27)
        pair = Dataset(np.array([[0.25, -0.5], [-1.0, 0.75]]), [0, 1],
                       population.feature_names)
        smes = [population.dataset(j) for j in range(population.J)]
        collection = SMECollection((*smes, pair), (*population.ids, "pair"))
        baseline_fits = []

        def recording_fit(X, y, C=1.0):
            baseline_fits.append(X)
            return fit_logreg_l2(X, y, C)

        monkeypatch.setattr(evaluate, "fit_logreg_l2", recording_fit)
        model = HierarchicalLogistic(
            prior=PriorSpec(collection.feature_names, np.zeros(2),
                            np.ones(2), 0.0, {}),
            sampler=SamplerConfig(chains=2, warmup=120, draws=100))
        report = run_experiment(collection, model,
                                ExperimentConfig(folds=2, alpha=0.2), seed=8)
        assert [f for f in report.flags if "pair" in f] == [
            f"sme pair fold {k}: {what}" for k in range(2) for what in (
                "independent fit skipped: training data contains a single "
                "class", "single-class test fold excluded")]
        assert "pair" not in {row["sme"] for row in report.rows}
        assert report.n_evaluations == 6
        assert report.conformal["n"] == 90
        assert "pair" not in report.conformal["per_entity_coverage"]
        pooled = [X for X in baseline_fits if X.shape[0] == 46]
        assert len(pooled) == 2
        held = [[row.tolist() in X.tolist() for row in pair.features]
                for X in pooled]
        assert sorted(held) == [[False, True], [True, False]]


class TestRowsToCsv:
    def test_comma_in_entity_id_round_trips(self, tmp_path):
        rows = [{"sme": sme, "fold": 0, "method": "hierarchical", "auc": 0.75,
                 "accuracy": 0.5, "precision": 1.0, "recall": 0.25, "f1": 0.4,
                 "log_loss": 0.6931471805599453, "n": 8}
                for sme in ("sme_00", "acme, inc")]
        report = ExperimentReport(rows, {}, {}, {}, {}, [], "fit-once", 2, 0.0)
        path = tmp_path / "evaluations.csv"
        report.rows_to_csv(path)
        # A plain id is written unquoted, as a bare comma join would.
        assert path.read_bytes().split(b"\n")[:2] == [
            b"sme,fold,method,auc,accuracy,precision,recall,f1,log_loss,n",
            b"sme_00,0,hierarchical,0.75,0.5,1.0,0.25,0.4,"
            b"0.6931471805599453,8"]
        with path.open(newline="", encoding="utf-8") as fh:
            read = list(csv.DictReader(fh))
        assert [row["sme"] for row in read] == ["sme_00", "acme, inc"]
        assert all(None not in row for row in read)  # no extra columns
        assert [(row["auc"], row["n"]) for row in read] == [("0.75", "8")] * 2
