"""Staged pipeline behavior: artifacts, determinism, exit codes."""

import csv
import dataclasses
import json
import shutil

import numpy as np
import pytest

import churnpool.cli as cli
import churnpool.evaluate as evaluate
import churnpool.hier_model as hier_model
from churnpool.cli import main
from churnpool.conformal import calibrate_pooled
from churnpool.data import load_collection
from churnpool.errors import ConvergenceError
from churnpool.hier_model import param_names, posterior_predict_matrix
from churnpool.nuts import PosteriorTrace
from churnpool.shap_prior import PriorSpec

from _runs import save_fitted_trace

SIM_ARGS = ["--smes", "4", "--n-per", "50", "--features", "2",
            "--sigma-true", "0.4", "--mu-scale", "1.0"]


def run(out, *args, seed=11):
    return main(["--out", str(out), "--seed", str(seed), *args])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full simulate -> fit -> calibrate run shared by the read-only
    stage tests below (the fit is the slow part)."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run(out, "gen-data", "--mode", "simulate", *SIM_ARGS) == 0
    code = run(out, "fit", "--weak-prior", "--chains", "2",
               "--warmup", "1000", "--draws", "2000")
    assert code == 0, "fit stage failed"
    assert run(out, "calibrate") == 0
    return out


class TestGenData:
    def test_simulate_writes_manifest_and_truth(self, tmp_path):
        assert run(tmp_path, "gen-data", "--mode", "simulate", *SIM_ARGS) == 0
        manifest = json.loads((tmp_path / "smes" / "manifest.json").read_text())
        assert len(manifest["ids"]) == 4
        assert (tmp_path / "ground_truth.json").exists()
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert len(truth["mu_true"]) == 2

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        run(tmp_path, "gen-data", "--mode", "simulate", *SIM_ARGS)
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "smes").iterdir()}
        assert main(["--out", str(tmp_path), "--seed", "11", "--force",
                     "gen-data", "--mode", "simulate", *SIM_ARGS]) == 0
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "smes").iterdir()}
        assert first == second

    def test_collision_without_force(self, tmp_path):
        run(tmp_path, "gen-data", "--mode", "simulate", *SIM_ARGS)
        assert run(tmp_path, "gen-data", "--mode", "simulate", *SIM_ARGS) == 4

    def test_out_naming_a_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("")
        assert run(out, "gen-data", "--mode", "simulate", *SIM_ARGS) == 4
        assert "data error" in capsys.readouterr().err

    def test_manifest_that_is_a_directory_is_data_error(self, tmp_path,
                                                        capsys):
        (tmp_path / "smes" / "manifest.json").mkdir(parents=True)
        assert main(["--out", str(tmp_path), "--seed", "11", "--force",
                     "gen-data", "--mode", "simulate", *SIM_ARGS]) == 4
        assert "data error" in capsys.readouterr().err

    def test_resample_mode(self, tmp_path):
        source = tmp_path / "source.csv"
        rows = ["a,b,target"]
        rng = np.random.default_rng(0)
        for i in range(60):
            rows.append(f"{rng.normal():.6f},{rng.normal():.6f},{i % 4 == 0:d}")
        source.write_text("\n".join(rows) + "\n")
        code = main(["--out", str(tmp_path), "--seed", "3", "gen-data",
                     "--mode", "resample", "--source", str(source),
                     "--smes", "2", "--n-per", "20"])
        assert code == 0
        manifest = json.loads((tmp_path / "smes" / "manifest.json").read_text())
        assert len(manifest["files"]) == 2

    @pytest.mark.parametrize("header, code", [("a,b", 0), ("b,a", 4)])
    def test_resample_stats_match_columns_by_name(self, tmp_path, header,
                                                  code):
        # Stats recorded over columns a, b; a source with its columns in
        # the other order must not be standardized by position.
        stats = tmp_path / "standardization.json"
        stats.write_text(json.dumps({"means": [100.0, 0.0],
                                     "stds": [1.0, 1.0],
                                     "feature_names": ["a", "b"]}))
        source = tmp_path / "source.csv"
        rng = np.random.default_rng(1)
        source.write_text(header + ",target\n" + "".join(
            f"{rng.normal():.6f},{rng.normal():.6f},{i % 4 == 0:d}\n"
            for i in range(40)))
        assert main(["--out", str(tmp_path), "gen-data", "--mode",
                     "resample", "--source", str(source), "--stats",
                     str(stats), "--smes", "2", "--n-per", "10"]) == code
        assert (tmp_path / "smes").exists() == (code == 0)

    def test_resample_requires_source(self, tmp_path):
        assert run(tmp_path, "gen-data", "--mode", "resample") == 2


def _pretrain_corpus(path, n=400, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    margin = 2.5 * x[:, 0] - 1.5 * x[:, 1]
    y = (rng.random(n) < 1 / (1 + np.exp(-margin))).astype(int)
    tags = np.where(x[:, 2] > 0, "alpha", "beta")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tenure", "spend", "age", "target", "source"])
        for i in range(n):
            writer.writerow([f"{x[i, 0]:.6f}", f"{x[i, 1]:.6f}",
                             f"{x[i, 2]:.6f}", y[i], tags[i]])


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pretrain")
    source = out / "corpus.csv"
    _pretrain_corpus(source)
    assert run(out, "pretrain", "--source", str(source)) == 0
    return out


class TestPretrainAndPriors:
    def test_metrics_file_fields(self, trained_dir):
        doc = json.loads((trained_dir / "pretrain_metrics.json").read_text())
        assert set(doc) >= {"auc_roc", "accuracy", "precision", "recall",
                            "f1_score", "log_loss"}
        assert doc["auc_roc"] > 0.9

    def test_early_stop_within_budget(self, trained_dir):
        doc = json.loads((trained_dir / "pretrain_metrics.json").read_text())
        assert doc["best_iteration"] <= 1000

    def test_extract_priors(self, trained_dir):
        assert run(trained_dir, "extract-priors", "--prior-draws", "50") == 0
        prior = json.loads((trained_dir / "prior.json").read_text())
        assert len(prior["beta0"]) == 3
        assert prior["lambda"] == 1.0
        check = json.loads((trained_dir / "prior_check.json").read_text())
        assert 0.0 <= check["prior_only_auc"] <= 1.0

    def test_extract_priors_rerun_deterministic(self, trained_dir):
        first = (trained_dir / "prior.json").read_bytes()
        assert main(["--out", str(trained_dir), "--seed", "11", "--force",
                     "extract-priors", "--prior-draws", "50"]) == 0
        assert (trained_dir / "prior.json").read_bytes() == first

    def test_missing_model_is_data_error(self, tmp_path):
        assert run(tmp_path, "extract-priors") == 4

    @pytest.mark.parametrize("damaged", ["model.json",
                                         "standardization.json"])
    def test_truncated_artifact_is_data_error(self, trained_dir, tmp_path,
                                              damaged):
        for name in ("model.json", "standardization.json",
                     "pretrain_val.csv"):
            shutil.copy(trained_dir / name, tmp_path / name)
        raw = (tmp_path / damaged).read_bytes()
        (tmp_path / damaged).write_bytes(raw[:len(raw) // 2])
        assert run(tmp_path, "extract-priors", "--prior-draws", "10") == 4
        assert not (tmp_path / "prior.json").exists()

    def test_deeply_nested_model_is_data_error(self, trained_dir, tmp_path):
        for name in ("standardization.json", "pretrain_val.csv"):
            shutil.copy(trained_dir / name, tmp_path / name)
        (tmp_path / "model.json").write_text("[" * 100_000)
        assert run(tmp_path, "extract-priors", "--prior-draws", "10") == 4
        assert not (tmp_path / "prior.json").exists()


    @pytest.mark.parametrize("key, bad", [
        ("threshold", float("nan")), ("gain", float("inf")),
        ("value", float("nan")), ("cover", float("nan")), ("cover", -1.0)])
    def test_non_finite_tree_number_is_data_error(self, trained_dir,
                                                  tmp_path, capsys, key,
                                                  bad):
        for name in ("standardization.json", "pretrain_val.csv"):
            shutil.copy(trained_dir / name, tmp_path / name)
        doc = json.loads((trained_dir / "model.json").read_text())
        node = doc["trees"][0]
        while key not in node:
            node = node["right"]
        node[key] = bad
        (tmp_path / "model.json").write_text(json.dumps(doc))
        assert run(tmp_path, "extract-priors", "--prior-draws", "10") == 4
        assert "malformed tree ensemble" in capsys.readouterr().err
        assert not (tmp_path / "prior.json").exists()

    @pytest.mark.parametrize("tags, warned", [
        (None, True), (["alpha"], True), (["alpha", "beta"], False),
        (["alpha", "beta", "gamma"], False)],
        ids=["no-tag-column", "one-tag", "two-tags", "three-tags"])
    def test_single_tag_warning_follows_prior_fallback(
            self, trained_dir, tmp_path, capsys, tags, warned):
        for name in ("model.json", "standardization.json"):
            shutil.copy(trained_dir / name, tmp_path / name)
        with (trained_dir / "pretrain_val.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        columns = [c for c in rows[0] if c != "source"]
        with (tmp_path / "pretrain_val.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns + (["source"] if tags else []))
            for i, row in enumerate(rows):
                writer.writerow([row[c] for c in columns]
                                + ([tags[i % len(tags)]] if tags else []))
        assert run(tmp_path, "extract-priors", "--prior-draws", "10") == 0
        err = capsys.readouterr().err
        assert ("no usable source tags" in err) == warned
        prior = json.loads((tmp_path / "prior.json").read_text())
        assert prior["provenance"]["fallback"] is warned

    @pytest.mark.parametrize("auc, warned", [(0.3, True), (0.7, False)])
    def test_below_chance_prior_warns(self, trained_dir, tmp_path,
                                      monkeypatch, capsys, auc, warned):
        for name in ("model.json", "standardization.json",
                     "pretrain_val.csv"):
            shutil.copy(trained_dir / name, tmp_path / name)
        monkeypatch.setattr(cli, "prior_only_auc", lambda *a, **k: auc)
        assert run(tmp_path, "extract-priors", "--prior-draws", "10") == 0
        err = capsys.readouterr().err
        assert ("below chance" in err) == warned
        check = json.loads((tmp_path / "prior_check.json").read_text())
        assert check["prior_only_auc"] == auc


def _held_out(out):
    """The collection under ``out`` and the mask of the rows its fit held
    out, from the split that ``trace.bin`` records and the trace's seed."""
    collection = load_collection(out / "smes")
    trace = PosteriorTrace.load(out / "trace.bin")
    return collection, cli._calibration_rows(
        collection, trace.config["fit"]["calibration_split"], trace.seed)


def _calibration_rows(out):
    """Posterior-mean ``(p_hat, y)`` of the calibration rows under ``out``,
    entities in manifest order, as ``calibrate`` scores them."""
    collection, held_out = _held_out(out)
    cal = collection.take(held_out)
    trace = PosteriorTrace.load(out / "trace.bin")
    p_hat, _, _ = posterior_predict_matrix(trace, cal.X, cal.entity)
    return p_hat, cal.y


def _rows(X, entity):
    return {(int(j), *x) for x, j in zip(X.tolist(), entity)}


def _scored_by_calibrate(out, monkeypatch):
    """The ``(X, entity)`` rows that ``calibrate`` on ``out`` scores; it
    must exit 0."""
    seen = []

    def record_predict(trace, X, entity):
        seen.append((X, entity))
        return posterior_predict_matrix(trace, X, entity)

    monkeypatch.setattr(cli, "posterior_predict_matrix", record_predict)
    assert main(["--out", str(out), "calibrate"]) == 0
    (scored,) = seen
    return scored


def _assert_scores_the_held_out_rows(out, monkeypatch):
    """``calibrate`` on ``out`` scores exactly the rows that the fit of
    ``trace.bin`` held out, in table order."""
    collection, held_out = _held_out(out)
    X, entity = _scored_by_calibrate(out, monkeypatch)
    np.testing.assert_array_equal(X, collection.X[held_out])
    np.testing.assert_array_equal(entity, collection.entity[held_out])


def _run_with_prior(tmp_path, monkeypatch, names, *stage):
    """``stage`` on three entities of x00..x02 with a prior over
    ``names``; the sampler must not be reached."""
    assert run(tmp_path, "gen-data", "--smes", "3", "--n-per", "30",
               "--features", "3") == 0
    PriorSpec(names, np.zeros(len(names)), np.ones(len(names)), 0.0,
              {}).save(tmp_path / "prior.json")

    def refuse(*args, **kwargs):
        raise _Stop

    monkeypatch.setattr(hier_model, "sample", refuse)
    return run(tmp_path, *stage)


class TestFitCalibrate:
    def test_artifacts_written(self, pipeline_dir):
        trace = PosteriorTrace.load(pipeline_dir / "trace.bin")
        assert not (pipeline_dir / "diagnostics.json").exists()
        meta = json.loads((pipeline_dir / "fit_meta.json").read_text())
        assert meta["converged"] is True
        assert meta["max_rhat"] < 1.01
        assert meta["n_divergent"] >= 0
        # The per-parameter summaries, in the trace's parameter order.
        assert meta["param_names"] == list(trace.param_names)
        assert meta["max_rhat"] == max(meta["rhat"])
        assert meta["min_ess"] == min(meta["ess_bulk"] + meta["ess_tail"])
        assert len(meta["ess_bulk"]) == len(meta["ess_tail"]) == trace.dim
        # 2 chains x (1000 + 2000) transitions, one gradient call at least
        # per transition.
        assert meta["n_grad"] >= 2 * 3000
        assert meta["n_grad_warmup"] >= 2 * 1000
        assert meta["n_grad"] - meta["n_grad_warmup"] >= 2 * 2000
        assert 0 <= meta["n_max_depth"] <= 2 * 2000

    def test_fit_writes_the_two_artifacts_the_benchmark_reads(self,
                                                              tmp_path):
        # perfbench's flagship check reads max_rhat, min_ess and
        # n_divergent from fit_meta.json.
        assert run(tmp_path, "gen-data", "--smes", "3", "--n-per", "40",
                   "--features", "1", seed=5) == 0
        before = set(tmp_path.iterdir())
        assert run(tmp_path, "fit", "--weak-prior", "--chains", "2",
                   "--warmup", "1000", "--draws", "1000", seed=5) == 0
        assert {p.name for p in set(tmp_path.iterdir()) - before} == {
            "fit_meta.json", "trace.bin"}
        meta = json.loads((tmp_path / "fit_meta.json").read_text())
        for key in ("max_rhat", "min_ess", "n_divergent"):
            assert isinstance(meta[key], (int, float)), key

    def test_fit_writes_no_copy_of_the_calibration_rows(self, pipeline_dir):
        meta = json.loads((pipeline_dir / "fit_meta.json").read_text())
        assert "calibration_dir" not in meta
        assert not (pipeline_dir / "calibration_data").exists()

    def test_calibration_artifact(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "calibration.json").read_text())
        assert sorted(doc) == ["alpha", "n_cal", "q_hat", "strategy"]
        assert doc["alpha"] == 0.10
        # J=4 entities with 10-row calibration holdouts: the
        # calibration-conditional rank is 39 of the 40 pooled scores.
        assert doc["strategy"] == "pooled-conditional"
        p_hat, labels = _calibration_rows(pipeline_dir)
        scores = np.sort(np.abs(labels - p_hat))
        assert doc["n_cal"] == scores.size == 40
        assert doc["q_hat"] == scores[39 - 1]

    def test_calibrate_scores_exactly_the_rows_fit_held_out(
            self, pipeline_dir, tmp_path, monkeypatch):
        # The fit side is the pipeline's fit again (same seed and data),
        # stopped once HierarchicalLogistic.fit has its collection.
        shutil.copytree(pipeline_dir / "smes", tmp_path / "smes")
        seen = {}

        def record_fit(model, collection):
            seen["fit"] = collection
            raise _Stop

        monkeypatch.setattr(hier_model.HierarchicalLogistic, "fit",
                            record_fit)
        with pytest.raises(_Stop):
            run(tmp_path, "fit", "--weak-prior")
        shutil.copy(pipeline_dir / "trace.bin", tmp_path)
        seen["calibrate"] = _scored_by_calibrate(tmp_path, monkeypatch)

        collection, held_out = _held_out(tmp_path)
        fitted = _rows(seen["fit"].X, seen["fit"].entity)
        scored = _rows(*seen["calibrate"])
        assert len(fitted) == seen["fit"].y.size
        assert len(scored) == seen["calibrate"][0].shape[0]
        assert not fitted & scored
        assert fitted | scored == _rows(collection.X, collection.entity)
        doc = json.loads((tmp_path / "calibration.json").read_text())
        assert doc["n_cal"] == len(scored) == np.count_nonzero(held_out)

    def test_calibrate_ignores_a_stale_fit_meta(self, pipeline_dir,
                                                tmp_path, monkeypatch):
        # fit_meta.json of another split with the same seed: calibrate
        # reads the split from the trace, so it scores none of the rows
        # that the trace was fitted on.
        shutil.copy(pipeline_dir / "trace.bin", tmp_path)
        shutil.copytree(pipeline_dir / "smes", tmp_path / "smes")
        meta = json.loads((pipeline_dir / "fit_meta.json").read_text())
        assert meta["config"]["conformal"]["calibration_split"] == 0.20
        meta["config"]["conformal"]["calibration_split"] = 0.25
        (tmp_path / "fit_meta.json").write_text(json.dumps(meta))
        collection, held_out = _held_out(tmp_path)
        stale = cli._calibration_rows(collection, 0.25,
                                      meta["config"]["run"]["seed"])
        assert (stale & ~held_out).any()
        _assert_scores_the_held_out_rows(tmp_path, monkeypatch)

    def test_regenerated_collection_is_data_error(self, pipeline_dir,
                                                  tmp_path, capsys):
        # Same entity count and feature names, other rows: the trace's
        # fingerprint tells them apart.
        for name in ("trace.bin", "fit_meta.json"):
            shutil.copy(pipeline_dir / name, tmp_path)
        shutil.copytree(pipeline_dir / "smes", tmp_path / "smes")
        assert main(["--out", str(tmp_path), "--seed", "6", "--force",
                     "gen-data", "--mode", "simulate", *SIM_ARGS]) == 0
        capsys.readouterr()
        assert main(["--out", str(tmp_path), "calibrate"]) == 4
        assert "is not the collection" in capsys.readouterr().err
        assert not (tmp_path / "calibration.json").exists()

    def test_trace_is_the_commit_point(self, pipeline_dir, tmp_path,
                                       monkeypatch):
        # A fit at another split that fails on its fit_meta.json write
        # leaves the earlier trace, which still names its own rows.
        shutil.copy(pipeline_dir / "trace.bin", tmp_path)
        shutil.copytree(pipeline_dir / "smes", tmp_path / "smes")
        (tmp_path / "fit_meta.json").mkdir()
        ini = tmp_path / "run.ini"
        ini.write_text("[conformal]\ncalibration_split = 0.25\n")
        earlier = (tmp_path / "trace.bin").read_bytes()
        assert run(tmp_path, "--config", str(ini), "--force", "fit",
                   "--weak-prior", "--chains", "2", "--warmup", "1000",
                   "--draws", "1000") == 4
        assert (tmp_path / "trace.bin").read_bytes() == earlier
        _assert_scores_the_held_out_rows(tmp_path, monkeypatch)

    @pytest.mark.parametrize("config", [
        {}, 5, "fit", {"fit": "calibration_split"},
        {"fit": [["calibration_split", 0.2], ["collection_sha256", "SHA"]]},
        {"fit": {"collection_sha256": "SHA"}},
        {"fit": {"calibration_split": 0.2}},
        *({"fit": {"calibration_split": split, "collection_sha256": "SHA"}}
          for split in ("0.2", 0.0, 1.0, -0.2, True)),
    ], ids=["no-record", "config-not-object", "config-names-fit",
            "record-not-object", "record-of-pairs", "no-split",
            "no-fingerprint", "split-text", "split-zero", "split-one",
            "split-negative", "split-true"])
    def test_damaged_fit_record_is_data_error(self, pipeline_dir, tmp_path,
                                              capsys, config):
        # "SHA" stands for the collection's own fingerprint; the fit's
        # intact fit_meta.json changes nothing.
        shutil.copytree(pipeline_dir / "smes", tmp_path / "smes")
        shutil.copy(pipeline_dir / "fit_meta.json", tmp_path)
        sha = load_collection(tmp_path / "smes").fingerprint()
        config = json.loads(json.dumps(config).replace('"SHA"', f'"{sha}"'))
        trace = PosteriorTrace.load(pipeline_dir / "trace.bin")
        dataclasses.replace(trace, config=config).save(tmp_path / "trace.bin")
        assert main(["--out", str(tmp_path), "calibrate"]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        if config == {}:
            assert "refit with this version" in err
        assert not (tmp_path / "calibration.json").exists()

    def test_inflation_flag_is_gone(self, tmp_path):
        for flag in (["--inflation", "0.2"], ["--strategy", "pooled"]):
            with pytest.raises(SystemExit) as stop:
                main(["--out", str(tmp_path), "calibrate", *flag])
            assert stop.value.code == 2

    def test_single_chain_rejected(self, tmp_path):
        assert run(tmp_path, "fit", "--weak-prior", "--chains", "1") == 2

    def test_out_of_range_chains_rejected(self, tmp_path):
        assert run(tmp_path, "fit", "--weak-prior", "--chains", "99") == 2

    def test_fit_without_data_is_data_error(self, tmp_path):
        assert run(tmp_path, "fit", "--weak-prior") == 4

    def test_truncated_manifest_is_data_error(self, tmp_path):
        assert run(tmp_path, "gen-data", "--smes", "3", "--n-per", "30",
                   "--features", "3") == 0
        manifest = tmp_path / "smes" / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:15])
        assert run(tmp_path, "fit", "--weak-prior") == 4
        assert not (tmp_path / "trace.bin").exists()

    @pytest.mark.parametrize("stage", [["fit", "--weak-prior"],
                                       ["evaluate", "--weak-prior"]],
                             ids=["fit", "evaluate"])
    def test_entity_id_with_a_directory_part_is_data_error(self, tmp_path,
                                                           stage):
        # Each id names its entity's <id>.csv, so this id would name a
        # file two directories above smes/.
        out = tmp_path / "a" / "b"
        assert run(out, "gen-data", "--smes", "2", "--n-per", "30",
                   "--features", "3") == 0
        manifest = out / "smes" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["ids"][0] = "../../escaped"
        manifest.write_text(json.dumps(doc))
        assert run(out, *stage) == 4
        assert not (tmp_path / "a" / "escaped.csv").exists()
        assert not (out / "trace.bin").exists()
        assert not (out / "report.json").exists()

    def test_non_utf8_entity_csv_is_data_error(self, tmp_path):
        assert run(tmp_path, "gen-data", "--smes", "3", "--n-per", "30",
                   "--features", "3") == 0
        entity = tmp_path / "smes" / "sme_00.csv"
        raw = entity.read_bytes()
        entity.write_bytes(raw[:40] + b"\xe9" + raw[40:])
        assert run(tmp_path, "fit", "--weak-prior") == 4
        assert not (tmp_path / "trace.bin").exists()

    def test_prior_over_other_features_is_data_error(self, tmp_path,
                                                      monkeypatch):
        assert _run_with_prior(tmp_path, monkeypatch,
                               ("tenure", "spend", "age"), "fit") == 4
        assert not (tmp_path / "trace.bin").exists()

    def test_failed_fit_keeps_the_earlier_fit(self, tmp_path, monkeypatch):
        earlier = {"trace.bin": b"earlier trace",
                   "fit_meta.json": b'{"earlier": true}'}
        for name, raw in earlier.items():
            (tmp_path / name).write_bytes(raw)
        assert _run_with_prior(tmp_path, monkeypatch, ("x00", "x01"),
                               "--force", "fit") == 4
        for name, raw in earlier.items():
            assert (tmp_path / name).read_bytes() == raw


class TestPredict:
    def test_prediction_rows(self, pipeline_dir, tmp_path):
        customers = tmp_path / "customers.csv"
        sme_csv = next((pipeline_dir / "smes").glob("sme_*.csv"))
        with sme_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        with customers.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["x00", "x01", "source"])
            writer.writeheader()
            for row in rows[:5]:
                writer.writerow({"x00": row["x00"], "x01": row["x01"],
                                 "source": row["source"]})
        assert main(["--out", str(pipeline_dir), "--force", "predict",
                     "--customers", str(customers)]) == 0
        with (pipeline_dir / "predictions.csv").open() as fh:
            out_rows = list(csv.DictReader(fh))
        assert len(out_rows) == 5
        for row in out_rows:
            assert 0.0 <= float(row["probability"]) <= 1.0
            assert float(row["ci_lower"]) <= float(row["probability"])
            assert row["conformal_set"] in ("{}", "{0}", "{1}", "{0,1}")
            assert row["uncertainty"] in ("low", "high", "invalid")
            if row["conformal_set"] == "{1}":
                assert row["action"] == "high-risk churner"

    def test_calibration_with_inflation_key_still_loads(self, pipeline_dir,
                                                        tmp_path):
        # Files of the retired x1.2 wrapper carry "inflation"; their q_hat
        # already includes it, so predict applies q_hat as it stands.
        shutil.copy(pipeline_dir / "trace.bin", tmp_path)
        shutil.copytree(pipeline_dir / "smes", tmp_path / "smes")
        (tmp_path / "calibration.json").write_text(json.dumps({
            "q_hat": 0.35, "alpha": 0.1, "n_cal": 40,
            "strategy": "conservative-wrapped", "inflation": 0.2}))
        customers = tmp_path / "customers.csv"
        shutil.copy(next((pipeline_dir / "smes").glob("sme_*.csv")),
                    customers)
        assert main(["--out", str(tmp_path), "predict", "--customers",
                     str(customers)]) == 0
        with (tmp_path / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        probs = np.array([float(row["probability"]) for row in rows])
        expected = [("{}", "{0}", "{1}", "{0,1}")[a + 2 * b]
                    for a, b in zip(probs <= 0.35, probs >= 1.0 - 0.35)]
        assert [row["conformal_set"] for row in rows] == expected
        assert "{}" in expected and "{0}" in expected

    def test_rows_match_per_row_prediction_in_input_order(self, pipeline_dir,
                                                          tmp_path):
        # 40 rows per entity, interleaved: each entity spans two chunks.
        ids = json.loads((pipeline_dir / "smes" / "manifest.json")
                         .read_text())["ids"]
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40 * len(ids), 2))
        owner = rng.permutation(np.arange(X.shape[0]) % len(ids))
        customers = tmp_path / "customers.csv"
        with customers.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x00", "x01", "source"])
            for row, j in zip(X, owner):
                writer.writerow([*map(repr, row.tolist()), ids[j]])
        assert main(["--out", str(pipeline_dir), "--force", "predict",
                     "--customers", str(customers)]) == 0
        with (pipeline_dir / "predictions.csv").open() as fh:
            out_rows = list(csv.DictReader(fh))
        trace = PosteriorTrace.load(pipeline_dir / "trace.bin")
        assert [row["sme"] for row in out_rows] == [ids[j] for j in owner]
        for row, x, j in zip(out_rows, X, owner):
            mean, lo, hi = posterior_predict_matrix(trace, x[None, :],
                                                    int(j))
            assert float(row["probability"]) == pytest.approx(mean[0],
                                                              rel=1e-12)
            assert float(row["ci_lower"]) == pytest.approx(lo[0], rel=1e-12)
            assert float(row["ci_upper"]) == pytest.approx(hi[0], rel=1e-12)

    def test_header_only_customers_is_data_error(self, pipeline_dir,
                                                 tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        for name in ("trace.bin", "calibration.json"):
            shutil.copy(pipeline_dir / name, out / name)
        shutil.copytree(pipeline_dir / "smes", out / "smes")
        customers = tmp_path / "empty.csv"
        customers.write_text("x00,x01,source\n")
        assert main(["--out", str(out), "predict",
                     "--customers", str(customers)]) == 4
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("damaged", ["trace.bin", "calibration.json"])
    def test_truncated_artifact_is_data_error(self, pipeline_dir, tmp_path,
                                              damaged):
        out = tmp_path / "run"
        out.mkdir()
        for name in ("trace.bin", "calibration.json"):
            shutil.copy(pipeline_dir / name, out / name)
        shutil.copytree(pipeline_dir / "smes", out / "smes")
        raw = (out / damaged).read_bytes()
        (out / damaged).write_bytes(raw[:len(raw) - 9])
        customers = tmp_path / "customers.csv"
        customers.write_text("x00,x01,source\n0.1,0.2,sme_00\n")
        assert main(["--out", str(out), "predict",
                     "--customers", str(customers)]) == 4
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("body", [
        b"x00,x01,source\n0.1,0.2,sme_\xe900\n",
        b"x00,x01,source\n0.1,0.2,sme_00\n0.3\n",
    ], ids=["non-utf8", "ragged"])
    def test_unreadable_customers_is_data_error(self, pipeline_dir, tmp_path,
                                                body):
        out = tmp_path / "run"
        out.mkdir()
        for name in ("trace.bin", "calibration.json"):
            shutil.copy(pipeline_dir / name, out / name)
        shutil.copytree(pipeline_dir / "smes", out / "smes")
        customers = tmp_path / "customers.csv"
        customers.write_bytes(body)
        assert main(["--out", str(out), "predict",
                     "--customers", str(customers)]) == 4
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("header", ["x00,x01,x00,source",
                                        "x00,x01,source,source"],
                             ids=["feature", "tag"])
    def test_repeated_column_is_data_error(self, pipeline_dir, tmp_path,
                                           header, capsys):
        out = tmp_path / "run"
        out.mkdir()
        for name in ("trace.bin", "calibration.json"):
            shutil.copy(pipeline_dir / name, out / name)
        shutil.copytree(pipeline_dir / "smes", out / "smes")
        ids = json.loads((out / "smes" / "manifest.json").read_text())["ids"]
        customers = tmp_path / "customers.csv"
        customers.write_text(f"{header}\n0.1,0.2,0.3,{ids[0]}\n")
        assert main(["--out", str(out), "predict",
                     "--customers", str(customers)]) == 4
        assert not (out / "predictions.csv").exists()
        assert "more than once" in capsys.readouterr().err

    def test_unknown_entity_rejected(self, pipeline_dir, tmp_path):
        customers = tmp_path / "strangers.csv"
        customers.write_text("x00,x01,source\n0.1,0.2,nobody\n")
        assert main(["--out", str(pipeline_dir), "--force", "predict",
                     "--customers", str(customers)]) == 4

    def test_tags_are_stripped_and_blank_falls_back(self, pipeline_dir,
                                                     tmp_path):
        ids = json.loads((pipeline_dir / "smes" / "manifest.json")
                         .read_text())["ids"]
        customers = tmp_path / "customers.csv"
        customers.write_text(f"x00,x01,source\n0.1,0.2, {ids[-1]} \n"
                             f"0.3,0.4,  \n")
        assert main(["--out", str(pipeline_dir), "--force", "predict",
                     "--customers", str(customers), "--sme", ids[0]]) == 0
        with (pipeline_dir / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["sme"] for row in rows] == [ids[-1], ids[0]]

    def test_predict_without_artifacts(self, tmp_path):
        assert run(tmp_path, "predict", "--customers", "none.csv") == 4

    def test_missing_customers_checked_before_artifacts(self, tmp_path):
        assert run(tmp_path, "predict") == 2


def _hand_trace(feature_names, J):
    """A two-chain, four-draw trace at theta = 0 fitted on ``feature_names``
    (intercept included) and ``J`` entities."""
    names = param_names(J, feature_names)
    return PosteriorTrace(
        draws=np.zeros((2, 4, len(names))),
        divergent=np.zeros((2, 4), bool), step_sizes=np.full(2, 0.5),
        initial_step_sizes=np.ones(2), mass_diag=np.ones((2, len(names))),
        param_names=names, seed=0)


class TestTraceMatchesCollection:
    """``calibrate`` and ``predict`` refuse a collection whose features or
    entity count differ from the ones the trace was fitted on."""

    @pytest.fixture()
    def run_dir(self, tmp_path):
        # Three entities with the single feature x00, whose held-out rows
        # give a threshold below 1.
        assert run(tmp_path, "gen-data", "--smes", "3", "--n-per", "40",
                   "--features", "1") == 0
        calibrate_pooled(np.linspace(0.05, 0.95, 40), np.zeros(40, int),
                         0.1).save(tmp_path / "calibration.json")
        (tmp_path / "customers.csv").write_text(
            "x00,source\n0.1,sme_00\n-0.3,sme_02\n")
        return tmp_path

    @pytest.mark.parametrize("stage", ["calibrate", "predict"])
    @pytest.mark.parametrize("features, J", [
        (("x00", "x01", "x02", "intercept"), 3),
        (("tenure", "intercept"), 3),
        (("x00", "intercept"), 5),
    ], ids=["feature-count", "feature-names", "entity-count"])
    def test_mismatched_trace_is_data_error(self, run_dir, stage, features,
                                            J):
        args = ["--out", str(run_dir), "--force", stage]
        if stage == "predict":
            args += ["--customers", str(run_dir / "customers.csv")]
        written = run_dir / ("calibration.json" if stage == "calibrate"
                             else "predictions.csv")
        save_fitted_trace(_hand_trace(("x00", "intercept"), 3), run_dir)
        assert main(args) == 0
        before = written.read_bytes()
        # Each trace's dimension also fits the collection's p = 2 design
        # (17 = 2 + 1 + 7 * 2, 9 = 2 + 1 + 3 * 2, 13 = 2 + 1 + 5 * 2), so
        # only the names and the entity count tell them apart.
        save_fitted_trace(_hand_trace(features, J), run_dir)
        assert main(args) == 4
        assert written.read_bytes() == before

    @pytest.mark.parametrize("stage", ["calibrate", "predict"])
    def test_damaged_parameter_name_is_data_error(self, run_dir, stage,
                                                  capsys):
        # The right features, entity count and dimension, but one
        # deviation named for another feature.
        trace = _hand_trace(("x00", "intercept"), 3)
        names = list(trace.param_names)
        k = names.index("beta_raw[1,x00]")
        names[k] = "beta_raw[1,x0O]"
        save_fitted_trace(
            dataclasses.replace(trace, param_names=tuple(names)), run_dir)
        args = ["--out", str(run_dir), stage]
        written = run_dir / "calibration.json"
        if stage == "predict":
            args += ["--customers", str(run_dir / "customers.csv")]
            written = run_dir / "predictions.csv"
        else:
            written.unlink()
        assert main(args) == 4
        assert not written.exists()
        assert f"parameter {k} is 'beta_raw[1,x0O]'" in capsys.readouterr().err


class _Stop(Exception):
    """Raised by a stand-in sampler once it has seen its inputs."""


class TestHierarchicalKeysReachSampler:
    INI = ("[hierarchical]\n"
           "tau = 3.5\n"
           "prior_scaling_lambda = 1.5\n"
           "warmup_iterations = 1500\n"
           "sampling_iterations = 1200\n"
           "chains = 3\n"
           "target_accept_rate = 0.85\n"
           "max_tree_depth = 7\n"
           "divergence_threshold = 500.0\n"
           "[run]\n"
           "seed = 13\n"
           "folds = 2\n")

    def test_every_key_reaches_sample(self, tmp_path, monkeypatch):
        # prior_scaling_lambda is read by extract-priors; every other
        # [hierarchical] key, and the [run] seed, must reach the sampler
        # unchanged from both commands that fit the model.
        assert run(tmp_path, "gen-data", "--smes", "3", "--n-per", "60",
                   "--features", "2") == 0
        ini = tmp_path / "run.ini"
        ini.write_text(self.INI)
        seen = []

        def record(target, config, **kwargs):
            seen.append((config, target.hyper.tau))
            raise _Stop

        monkeypatch.setattr(hier_model, "sample", record)
        for command in ("fit", "evaluate"):
            with pytest.raises(_Stop):
                main(["--config", str(ini), "--out", str(tmp_path), command,
                      "--weak-prior"])
        assert len(seen) == 2
        for config, tau in seen:
            assert tau == 3.5
            assert (config.warmup, config.draws, config.chains) == (
                1500, 1200, 3)
            assert config.target_accept == 0.85
            assert config.max_tree_depth == 7
            assert config.divergence_energy_threshold == 500.0
            assert config.seed == 13


class TestEvaluate:
    def test_report_and_rows(self, tmp_path):
        assert run(tmp_path, "gen-data", "--mode", "simulate", "--smes", "3",
                   "--n-per", "40", "--features", "2",
                   "--sigma-true", "0.4") == 0
        code = main(["--out", str(tmp_path), "--seed", "11",
                     "--config", _config_path(tmp_path),
                     "evaluate", "--weak-prior"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_evaluations"] == 6
        assert "hierarchical" in report["aggregates"]
        lines = (tmp_path / "evaluations.csv").read_text().splitlines()
        assert len(lines) == 1 + 18  # header + 3 entities x 2 folds x 3 methods

    def test_baseline_convergence_failures_exit_ok(self, tmp_path, monkeypatch):
        def fail(X, y, C=1.0):
            raise ConvergenceError("no convergence (forced)")

        monkeypatch.setattr(evaluate, "fit_logreg_l2", fail)
        assert run(tmp_path, "gen-data", "--mode", "simulate", "--smes", "3",
                   "--n-per", "40", "--features", "2",
                   "--sigma-true", "0.4") == 0
        code = main(["--out", str(tmp_path), "--seed", "11",
                     "--config", _config_path(tmp_path),
                     "evaluate", "--weak-prior"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("pooled fit skipped" in f for f in report["flags"])
        assert set(report["aggregates"]) == {"hierarchical"}

    def test_prior_over_other_features_is_data_error(self, tmp_path,
                                                      monkeypatch):
        assert _run_with_prior(tmp_path, monkeypatch,
                               ("tenure", "spend", "age"), "evaluate") == 4
        assert not (tmp_path / "report.json").exists()

    def test_missing_prior_is_data_error(self, tmp_path, monkeypatch):
        # Like fit, evaluate uses prior.json unless --weak-prior is given.
        assert run(tmp_path, "gen-data", "--smes", "3", "--n-per", "30",
                   "--features", "2") == 0

        def refuse(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(hier_model, "sample", refuse)
        assert run(tmp_path, "evaluate") == 4
        assert not (tmp_path / "report.json").exists()

    def test_no_entity_with_folds_is_data_error(self, tmp_path):
        # Ten rows per entity leave a class too small for the default
        # folds in both entities.
        assert main(["--out", str(tmp_path), "--seed", "3", "gen-data",
                     "--mode", "simulate", "--smes", "2", "--n-per", "10",
                     "--features", "2"]) == 0
        assert main(["--out", str(tmp_path), "--seed", "3", "evaluate",
                     "--weak-prior"]) == 4
        assert not (tmp_path / "report.json").exists()


def _config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[hierarchical]\n"
        "chains = 2\n"
        "warmup_iterations = 1000\n"
        "sampling_iterations = 1000\n"
        "[run]\n"
        "folds = 2\n")
    return str(path)


class TestFullChain:
    def test_pretrain_to_predictions(self, tmp_path):
        """The complete story: public-style corpus -> base model -> prior
        -> resampled entities on the recorded scale -> fit -> calibrate
        -> predictions.  The entities are drawn from rows that pretrain
        never saw."""
        out = tmp_path
        corpus = out / "corpus.csv"
        _pretrain_corpus(corpus, n=500, seed=21)
        header, *rows = corpus.read_text().splitlines(keepends=True)
        source, entity_source = out / "pretrain.csv", out / "entities.csv"
        source.write_text(header + "".join(rows[:300]))
        entity_source.write_text(header + "".join(rows[300:]))
        assert not set(rows[:300]) & set(rows[300:])
        assert run(out, "pretrain", "--source", str(source)) == 0
        assert run(out, "extract-priors", "--prior-draws", "25") == 0
        assert run(out, "gen-data", "--mode", "resample",
                   "--source", str(entity_source),
                   "--stats", str(out / "standardization.json"),
                   "--smes", "5", "--n-per", "60") == 0
        code = run(out, "fit", "--chains", "2", "--warmup", "1000",
                   "--draws", "1000")
        assert code in (0, 3)  # transfer prior applied either way
        meta = json.loads((out / "fit_meta.json").read_text())
        assert meta["config"]["hierarchical"]["chains"] == 2
        assert run(out, "calibrate") == 0
        customers = out / "customers.csv"
        customers.write_text(
            "tenure,spend,age,source\n0.5,-0.2,0.1,sme_00\n-1.0,0.3,0.2,sme_01\n")
        assert run(out, "predict", "--customers", str(customers)) == 0
        rows = (out / "predictions.csv").read_text().splitlines()
        assert len(rows) == 3


class TestConfig:
    def test_range_violation_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[hierarchical]\ntau = 9.0\n")
        assert main(["--config", str(bad), "--out", str(tmp_path),
                     "gen-data"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[hierarchical]\nturbo = yes\n")
        assert main(["--config", str(bad), "--out", str(tmp_path),
                     "gen-data"]) == 2

    @pytest.mark.parametrize("section, key, value, command", [
        ("run", "l2_c", "0", ["evaluate", "--weak-prior"]),
        ("hierarchical", "max_tree_depth", "0", ["fit", "--weak-prior"]),
        ("run", "folds", "1", ["evaluate", "--weak-prior"]),
        ("gbdt", "learning_rate", "0", ["pretrain", "--source", "in.csv"]),
        ("hierarchical", "divergence_threshold", "-5",
         ["fit", "--weak-prior"]),
    ], ids=["l2_c", "max_tree_depth", "folds", "learning_rate",
            "divergence_threshold"])
    def test_bad_key_exits_before_reading_data(self, tmp_path, monkeypatch,
                                               section, key, value, command):
        # Each key is checked by the object that will receive it, at parse
        # time: no stage starts reading its inputs.
        def refuse(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(cli, "load_collection", refuse)
        monkeypatch.setattr(cli, "load_csv", refuse)
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["--config", str(bad), "--out", str(tmp_path),
                     *command]) == 2

    @pytest.mark.parametrize("section", ["hierarchial", "DEFAULT"])
    def test_unknown_section_rejected(self, tmp_path, capsys, section):
        # A misspelt section would otherwise drop every key under it, and
        # [DEFAULT]'s keys would reach only the sections that the file has.
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\nchains = 3\n")
        assert main(["--config", str(bad), "--out", str(tmp_path),
                     "gen-data"]) == 2
        assert f"unknown section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "smes").exists()

    @pytest.mark.parametrize("content", [
        b"chains = 3\n",
        b"[hierarchical]\nchains = 3\nchains = 4\n",
        b"[run]\nseed = 1\n[run]\nfolds = 2\n",
        b"[run]\nlabel_column = 50%\n",
        b"[run]\nlabel_column = churn\xff\n",
    ], ids=["no-section-header", "duplicate-key", "duplicate-section",
            "bare-percent", "not-utf8"])
    def test_malformed_file_is_config_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(content)
        assert main(["--config", str(bad), "--out", str(tmp_path),
                     "gen-data"]) == 2
        assert f"malformed config file {bad}" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path), "gen-data"]) == 2

    @pytest.mark.parametrize("args", [
        ["extract-priors", "--prior-draws", "0"],
        ["gen-data", "--n-per", "5"],
        ["gen-data", "--smes", "0"],
        ["gen-data", "--features", "0"],
        ["gen-data", "--sigma-true", "-1"],
        ["gen-data", "--sigma-true", "inf"],
        ["gen-data", "--mu-scale", "nan"],
        ["--seed", "-1", "gen-data"],
    ], ids=["prior-draws", "n-per", "smes", "features",
            "sigma-true", "sigma-inf", "mu-scale-nan", "seed"])
    def test_out_of_range_value_exits_before_writing(
            self, trained_dir, tmp_path, args):
        # The pretrain artifacts let extract-priors get as far as writing
        # prior.json unless the value is rejected first.
        for name in ("model.json", "standardization.json",
                     "pretrain_val.csv"):
            shutil.copy(trained_dir / name, tmp_path / name)
        assert main(["--out", str(tmp_path), *args]) == 2
        assert not (tmp_path / "prior.json").exists()
        assert not (tmp_path / "smes").exists()

    @pytest.mark.parametrize("args, key, value", [
        (["--seed", "7", "gen-data"], "seed", 7),
        (["gen-data", "--smes", "3"], "smes", 3),
        (["gen-data", "--n-per", "12"], "n_per", 12),
        (["gen-data", "--features", "3"], "features", 3),
        (["gen-data", "--sigma-true", "0.25"], "sigma_true", 0.25),
        (["gen-data", "--mu-scale", "0.5"], "mu_scale", 0.5),
        (["fit", "--chains", "3"], "chains", 3),
        (["fit", "--warmup", "1500"], "warmup_iterations", 1500),
        (["fit", "--draws", "1200"], "sampling_iterations", 1200),
        (["calibrate", "--alpha", "0.15"], "miscoverage_alpha", 0.15),
        (["extract-priors", "--lambda", "1.5"], "prior_scaling_lambda", 1.5),
    ], ids=["seed", "smes", "n-per", "features", "sigma-true", "mu-scale",
            "chains", "warmup", "draws", "alpha", "lambda"])
    def test_override_flag_reaches_its_key(self, tmp_path, monkeypatch, args,
                                           key, value):
        # main keeps only the parsed values whose dest names a RunConfig
        # field, so a flag with a mistyped dest would be dropped silently.
        seen = []

        def record(config, parsed):
            seen.append(config)
            return 0

        monkeypatch.setattr(cli, "_COMMANDS",
                            {name: record for name in cli._COMMANDS})
        assert getattr(cli.RunConfig(), key) != value
        assert main(["--out", str(tmp_path), *args]) == 0
        assert getattr(seen[0], key) == value

    def test_alpha_override(self, pipeline_dir):
        assert main(["--out", str(pipeline_dir), "--force", "calibrate",
                     "--alpha", "0.2"]) == 0
        doc = json.loads((pipeline_dir / "calibration.json").read_text())
        assert doc["alpha"] == 0.2
