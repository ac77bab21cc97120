"""Staged command-line pipeline.

Subcommands mirror the pipeline stages and persist artifacts between them
so each stage can be rerun independently:

    gen-data        synthetic entity collections (simulate or resample)
    pretrain        boosted-tree base model on a public-style corpus
    extract-priors  attribution-based Gaussian prior from the base model
    fit             hierarchical Bayesian fit (NUTS) on the collection
    calibrate       conformal threshold from held-out calibration rows
    predict         per-customer probabilities, intervals, and sets
    evaluate        cross-validated comparison against baselines

Configuration is a flat INI file with [gbdt], [hierarchical], [conformal],
and [run] sections; an unknown section or key is a configuration error.
Some keys also have a command-line flag, which overrides the file: --seed,
the gen-data sizes, --lambda, the fit chain and iteration counts, and
--alpha.  Exit codes: 0 success, 2 configuration error, 3 diagnostic
failure, 4 data error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .conformal import CalibrationResult, calibrate_pooled, predict_sets
from .data import (apply_standardization, StandardizationStats,
                   generate_hierarchical_population, _csv_rows, _write_csv,
                   _write_dataset_csv, load_collection, load_csv,
                   make_synthetic_smes, save_collection, standardize,
                   stratified_split)
from .errors import (ChurnpoolError, DataError, DiagnosticError,
                     ValidationError, atomic_write, malformed_artifact)
from .evaluate import ExperimentConfig, classification_metrics, run_experiment
from .gbdt import GradientBoostedTrees, TreeEnsemble
from .hier_model import (HierarchicalLogistic, check_trace_collection,
                         posterior_predict_matrix)
from .nuts import PosteriorTrace, SamplerConfig
from .shap_prior import PriorSpec, extract_priors, prior_only_auc

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIAGNOSTIC = 3
EXIT_DATA = 4

# Convergence gates for persisting a fit as converged.
RHAT_GATE = 1.01
ESS_GATE = 400.0

# The benchmark's tracer (perfbench/tracing.py, PATCHES) still wraps
# this name; it goes when that entry does.
conservative_adjust = calibrate_pooled

_PREDICTION_COLUMNS = ("sme", "probability", "prediction", "ci_lower",
                       "ci_upper", "conformal_set", "uncertainty", "action")

# (conformal_set, uncertainty, action) of a prediction set, indexed by
# contains-0 + 2 * contains-1.
_SET_COLUMNS = (
    ("{}", "invalid", "recalibrate"),
    ("{0}", "low", "low-risk retained"),
    ("{1}", "low", "high-risk churner"),
    ("{0,1}", "high", "uncertain: gather more data"),
)


class ConfigError(ChurnpoolError):
    """Raised for malformed configuration values."""


@dataclass
class RunConfig:
    """Flat configuration with range validation.

    Field names follow the hyperparameter table keys; bounds are enforced
    at parse time so downstream stages can trust the values: the table's
    ranges here, and the boosted-tree, sampler and experiment settings
    through the checks of the objects that will receive them.
    """

    # [gbdt]
    iterations: int = 1000
    learning_rate: float = 0.03
    tree_depth: int = 6
    min_samples_leaf: int = 20
    l2_regularization: float = 3.0
    subsample_ratio: float = 0.8
    feature_subsample_ratio: float = 0.8
    early_stopping_rounds: int = 50
    # [hierarchical]
    tau: float = 2.0
    prior_scaling_lambda: float = 1.0
    warmup_iterations: int = 2000
    sampling_iterations: int = 2000
    chains: int = 4
    target_accept_rate: float = 0.90
    max_tree_depth: int = 10
    divergence_threshold: float = 1000.0
    # [conformal]
    miscoverage_alpha: float = 0.10
    calibration_split: float = 0.20
    # [run]
    seed: int = 42
    smes: int = 15
    n_per: int = 100
    features: int = 20
    mu_scale: float = 1.0
    sigma_true: float = 0.5
    folds: int = 5
    l2_c: float = 1.0
    label_column: str = "target"
    tag_column: str = "source"

    _SECTIONS = {
        "gbdt": ("iterations", "learning_rate", "tree_depth",
                 "min_samples_leaf", "l2_regularization", "subsample_ratio",
                 "feature_subsample_ratio", "early_stopping_rounds"),
        "hierarchical": ("tau", "prior_scaling_lambda", "warmup_iterations",
                         "sampling_iterations", "chains", "target_accept_rate",
                         "max_tree_depth", "divergence_threshold"),
        "conformal": ("miscoverage_alpha", "calibration_split"),
        "run": ("seed", "smes", "n_per", "features", "mu_scale", "sigma_true",
                "folds", "l2_c", "label_column", "tag_column"),
    }

    _RANGES = {
        "tau": (1.0, 5.0),
        "prior_scaling_lambda": (0.5, 2.0),
        "warmup_iterations": (1000, 3000),
        "sampling_iterations": (1000, 5000),
        "chains": (2, 8),
        "target_accept_rate": (0.80, 0.95),
        "miscoverage_alpha": (0.05, 0.20),
        "calibration_split": (0.15, 0.30),
        "seed": (0, math.inf),
        "smes": (1, math.inf),
        "n_per": (10, math.inf),
        "features": (1, math.inf),
        "sigma_true": (0.0, math.inf),
    }

    @classmethod
    def load(cls, path: str | None, overrides: dict | None = None) -> "RunConfig":
        config = cls()
        if path is not None:
            parser = configparser.ConfigParser()
            try:
                read = parser.read(path, encoding="utf-8")
                items = {section: parser.items(section)
                         for section in parser.sections()}
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"malformed config file {path}: "
                                  f"{type(exc).__name__}: {exc}") from None
            if not read:
                raise ConfigError(f"cannot read config file {path}")
            if parser.defaults():  # merged into every section otherwise
                raise ConfigError(f"unknown section "
                                  f"[{parser.default_section}] in {path}")
            for section, pairs in items.items():
                keys = cls._SECTIONS.get(section)
                if keys is None:
                    raise ConfigError(f"unknown section [{section}] in {path}")
                for key, raw in pairs:
                    if key not in keys:
                        raise ConfigError(
                            f"unknown key {key!r} in section [{section}]")
                    config._assign(key, raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                config._assign(key, value)
        config.validate()
        return config

    def _assign(self, key: str, raw) -> None:
        current = getattr(self, key)
        try:
            if isinstance(current, int):
                value = int(str(raw))
            elif isinstance(current, float):
                value = float(str(raw))
            else:
                value = str(raw)
        except ValueError:
            raise ConfigError(f"invalid value {raw!r} for {key}") from None
        setattr(self, key, value)

    def validate(self) -> None:
        for key, (low, high) in self._RANGES.items():
            value = getattr(self, key)
            if not low <= value <= high:
                raise ConfigError(
                    f"{key}={value} outside allowed range [{low}, {high}]")
        for key in ("mu_scale", "sigma_true"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        try:
            self.gbdt().validate()
            self.sampler().validate()
            ExperimentConfig(**self.experiment_params()).validate()
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None

    def echo(self) -> dict:
        return {section: {key: getattr(self, key) for key in keys}
                for section, keys in self._SECTIONS.items()}

    def gbdt(self) -> GradientBoostedTrees:
        return GradientBoostedTrees(
            iterations=self.iterations, learning_rate=self.learning_rate,
            max_depth=self.tree_depth, min_samples_leaf=self.min_samples_leaf,
            l2_leaf=self.l2_regularization, row_subsample=self.subsample_ratio,
            feature_subsample=self.feature_subsample_ratio,
            early_stopping_rounds=self.early_stopping_rounds, seed=self.seed)

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(
            chains=self.chains, warmup=self.warmup_iterations,
            draws=self.sampling_iterations,
            target_accept=self.target_accept_rate,
            max_tree_depth=self.max_tree_depth,
            divergence_energy_threshold=self.divergence_threshold,
            seed=self.seed)

    def experiment_params(self) -> dict:
        return {"folds": self.folds, "l2_c": self.l2_c,
                "alpha": self.miscoverage_alpha}


def _load_stats(path: Path, feature_names) -> StandardizationStats:
    """The means and stds that ``pretrain`` writes, which must be over
    ``feature_names`` in that order; damage or other columns is a
    DataError."""
    with malformed_artifact(f"standardization stats {path}"):
        doc = json.loads(path.read_bytes())
        if doc["feature_names"] != list(feature_names):
            raise DataError(f"{path} standardizes columns "
                            f"{doc['feature_names']}, the data has "
                            f"{list(feature_names)}")
        return StandardizationStats(np.asarray(doc["means"], dtype=np.float64),
                                    np.asarray(doc["stds"], dtype=np.float64))


def _write_json(path: Path, doc: dict) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise DataError(f"missing {what}: {path} (run the earlier stage first)")
    return path


def _load_prior(out: Path, weak: bool) -> PriorSpec | None:
    """None, the weak prior, with ``--weak-prior``; else ``prior.json``,
    which must exist."""
    if weak:
        return None
    return PriorSpec.load(_require(out / "prior.json", "prior artifact"))


def _check_force(paths, force: bool) -> None:
    for path in paths:
        if Path(path).exists() and not force:
            raise DataError(f"{path} exists (use --force to overwrite)")


def _calibration_rows(collection, split: float, seed: int) -> np.ndarray:
    """The bool row mask of the rows ``fit`` holds out for ``calibrate``:
    entity j's stratified ``split`` of its labels under ``seed + j``."""
    y, entity = collection.y, collection.entity
    return np.concatenate([stratified_split(y[entity == j], split, seed + j)
                           for j in range(collection.J)])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(config: RunConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_dir = out / "smes"
    truth_path = out / "ground_truth.json"
    if args.mode == "simulate":
        _check_force([truth_path], args.force)
        collection, truth = generate_hierarchical_population(
            config.features, config.smes, config.n_per, config.mu_scale,
            config.sigma_true, config.seed)
        save_collection(collection, data_dir, force=args.force)
        with atomic_write(truth_path) as fh:
            fh.write(truth.to_json() + "\n")
    else:
        if args.source is None:
            raise ConfigError("--mode resample requires --source CSV")
        source = load_csv(args.source, config.label_column, config.tag_column)
        if args.stats is not None:
            stats = _load_stats(_require(Path(args.stats),
                                         "standardization stats"),
                                source.feature_names)
            source = apply_standardization(source, stats)
        collection = make_synthetic_smes(source, config.smes, config.n_per,
                                         config.seed)
        save_collection(collection, data_dir, force=args.force)
    print(f"wrote {config.smes} entity files under {data_dir}")
    return EXIT_OK


def cmd_pretrain(config: RunConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    stats_path = out / "standardization.json"
    metrics_path = out / "pretrain_metrics.json"
    val_path = out / "pretrain_val.csv"
    _check_force([model_path, stats_path, metrics_path, val_path], args.force)

    if args.source is None:
        raise ConfigError("pretrain requires --source CSV")
    corpus = load_csv(args.source, config.label_column, config.tag_column)
    val = stratified_split(corpus.labels, 0.2, config.seed)
    train_std, stats = standardize(corpus.subset(np.flatnonzero(~val)))
    val_std = apply_standardization(corpus.subset(np.flatnonzero(val)), stats)
    del corpus  # the fit reads only the standardized rows

    model = config.gbdt()
    model.fit(train_std.features, train_std.labels, val_std.features,
              val_std.labels, feature_names=train_std.feature_names)
    model.ensemble_.save(model_path)
    _write_json(stats_path, {"means": [float(v) for v in stats.means],
                             "stds": [float(v) for v in stats.stds],
                             "feature_names": list(train_std.feature_names)})

    probs = model.predict_proba(val_std.features)
    report = classification_metrics(probs, val_std.labels)
    _write_json(metrics_path, {
        "auc_roc": report["auc"], "accuracy": report["accuracy"],
        "precision": report["precision"], "recall": report["recall"],
        "f1_score": report["f1"], "log_loss": report["log_loss"],
        "best_iteration": model.best_iteration_,
        "n_validation": report["n"],
    })
    _write_dataset_csv(val_std, val_path, config.label_column,
                       config.tag_column)
    print(f"pretrained {model.best_iteration_} trees; "
          f"validation AUC {report['auc']:.4f}")
    return EXIT_OK


def cmd_extract_priors(config: RunConfig, args) -> int:
    if args.prior_draws < 1:
        raise ConfigError(f"--prior-draws must be >= 1, got {args.prior_draws}")
    out = Path(args.out)
    prior_path = out / "prior.json"
    check_path = out / "prior_check.json"
    _check_force([prior_path, check_path], args.force)

    ensemble = TreeEnsemble.load(_require(out / "model.json", "model artifact"))
    val = load_csv(_require(out / "pretrain_val.csv", "validation data"),
                   config.label_column, config.tag_column)
    stats = _load_stats(_require(out / "standardization.json",
                                 "standardization stats"),
                        val.feature_names)
    prior = extract_priors(ensemble, val, stats, config.prior_scaling_lambda)
    if prior.provenance["fallback"]:
        print("warning: no usable source tags; "
              "falling back to single-source prior widths", file=sys.stderr)
    prior.save(prior_path)

    sanity_auc = prior_only_auc(prior, val, draws=args.prior_draws,
                                seed=config.seed)
    _write_json(check_path, {"prior_only_auc": sanity_auc,
                             "draws": args.prior_draws, "seed": config.seed})
    print(f"prior-only AUC over {args.prior_draws} draws: {sanity_auc:.4f}")
    if sanity_auc < 0.5:
        print(f"warning: prior-only AUC {sanity_auc:.4f} is below chance; "
              "the prior points away from the validation labels",
              file=sys.stderr)
    return EXIT_OK


def cmd_fit(config: RunConfig, args) -> int:
    out = Path(args.out)
    trace_path = out / "trace.bin"
    meta_path = out / "fit_meta.json"
    _check_force([trace_path, meta_path], args.force)

    collection = load_collection(_require(out / "smes", "entity collection"))
    prior = _load_prior(out, args.weak_prior)

    cal = _calibration_rows(collection, config.calibration_split, config.seed)

    model = HierarchicalLogistic(prior, config.tau, config.sampler())
    try:
        model.fit(collection.take(~cal))
    except DiagnosticError as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC

    diag, trace = model.diagnostics_, model.trace_
    converged = (diag.max_rhat() < RHAT_GATE and diag.min_ess() > ESS_GATE)
    _write_json(meta_path, {"converged": converged,
                            "max_rhat": diag.max_rhat(),
                            "min_ess": diag.min_ess(),
                            **diag.to_dict(trace.param_names),
                            "config": config.echo()})
    # The record calibrate reads; trace.bin, written last, commits the fit.
    trace.config["fit"] = {"calibration_split": config.calibration_split,
                           "collection_sha256": collection.fingerprint()}
    trace.save(trace_path)
    print(f"max rhat {diag.max_rhat():.4f}, min ess {diag.min_ess():.0f}, "
          f"{diag.n_divergent} divergences")
    if not converged:
        print("diagnostics failed convergence gates "
              f"(rhat < {RHAT_GATE}, ess > {ESS_GATE:.0f}); "
              "consider target_accept_rate=0.95 or more warmup",
              file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def cmd_calibrate(config: RunConfig, args) -> int:
    out = Path(args.out)
    calib_path = out / "calibration.json"
    _check_force([calib_path], args.force)

    trace_path = _require(out / "trace.bin", "trace artifact")
    trace = PosteriorTrace.load(trace_path)
    collection = load_collection(_require(out / "smes", "entity collection"))
    check_trace_collection(trace, collection)
    with malformed_artifact(f"fit record of {trace_path}"):
        if "fit" not in trace.config:
            raise DataError(f"{trace_path} has no fit record "
                            "(refit with this version)")
        record = trace.config["fit"]
        if record["collection_sha256"] != collection.fingerprint():
            raise DataError(f"{out / 'smes'} is not the collection "
                            f"{trace_path} was fitted on")
        cal = collection.take(_calibration_rows(
            collection, record["calibration_split"], trace.seed))
    p_hat, _, _ = posterior_predict_matrix(trace, cal.X, cal.entity)
    result = calibrate_pooled(p_hat, cal.y, config.miscoverage_alpha)
    result.save(calib_path)
    print(f"q_hat {result.q_hat:.4f} from {result.n_cal} scores "
          f"({result.strategy})")
    return EXIT_OK


def _load_prediction_rows(path: Path, feature_names, tag_column: str):
    rows = _csv_rows(path)
    header = next(rows)
    missing = [name for name in feature_names if name not in header]
    if missing:
        raise DataError(f"{path} lacks feature columns {missing}")
    repeated = [name for name in (*feature_names, tag_column)
                if header.count(name) > 1]
    if repeated:
        raise DataError(f"{path} names columns {repeated} more than once")
    idx = [header.index(name) for name in feature_names]
    tag_idx = header.index(tag_column) if tag_column in header else None
    features, tags = [], []
    for i, row in enumerate(rows):
        try:
            features.append([float(row[k]) for k in idx])
        except ValueError as exc:
            raise DataError(f"{path}: data row {i + 1}: {exc}") from None
        tags.append(row[tag_idx].strip() if tag_idx is not None else None)
    if not features:
        raise DataError(f"{path} has no customer rows")
    return np.asarray(features, dtype=np.float64), tags


def cmd_predict(config: RunConfig, args) -> int:
    out = Path(args.out)
    pred_path = out / "predictions.csv"
    _check_force([pred_path], args.force)
    if args.customers is None:
        raise ConfigError("predict requires --customers CSV")

    trace = PosteriorTrace.load(_require(out / "trace.bin", "trace artifact"))
    calibration = CalibrationResult.load(
        _require(out / "calibration.json", "calibration artifact"))
    collection = load_collection(_require(out / "smes", "entity collection"))
    check_trace_collection(trace, collection)
    X, tags = _load_prediction_rows(Path(args.customers),
                                    collection.feature_names,
                                    config.tag_column)
    index = {sme: j for j, sme in enumerate(collection.ids)}

    smes = [tag if tag else args.sme for tag in tags]
    for sme in smes:
        if sme is None:
            raise ConfigError(
                "customer rows need a tag column or --sme override")
        if sme not in index:
            raise DataError(f"unknown entity id {sme!r}")
    mean, lo, hi = posterior_predict_matrix(
        trace, X, np.array([index[sme] for sme in smes]))

    sets = predict_sets(mean, calibration.q_hat)
    _write_csv(pred_path, _PREDICTION_COLUMNS, (
        [sme, float(mean[i]), int(mean[i] >= 0.5), float(lo[i]),
         float(hi[i]), *_SET_COLUMNS[code]]
        for i, (sme, code) in enumerate(zip(smes,
                                            sets[:, 0] + 2 * sets[:, 1]))))
    print(f"wrote {len(smes)} predictions to {pred_path}")
    return EXIT_OK


def cmd_evaluate(config: RunConfig, args) -> int:
    out = Path(args.out)
    report_path = out / "report.json"
    rows_path = out / "evaluations.csv"
    _check_force([report_path, rows_path], args.force)

    collection = load_collection(_require(out / "smes", "entity collection"))
    model = HierarchicalLogistic(_load_prior(out, args.weak_prior),
                                 config.tau, config.sampler())
    experiment = ExperimentConfig(**config.experiment_params(),
                                  protocol=args.protocol)
    report = run_experiment(collection, model, experiment, config.seed)
    report.save(report_path)
    report.rows_to_csv(rows_path)
    hier = report.aggregates.get("hierarchical", {})
    print(f"hierarchical AUC {hier.get('auc_mean', float('nan')):.4f} over "
          f"{report.n_evaluations} evaluations; report at {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="churnpool",
        description="hierarchical Bayesian churn pipeline with conformal sets")
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--seed", type=int, help="override [run] seed")
    parser.add_argument("--out", default="artifacts",
                        help="artifact directory (default: artifacts)")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate an entity collection")
    gen.add_argument("--mode", choices=("simulate", "resample"),
                     default="simulate")
    gen.add_argument("--source", help="source CSV for resample mode")
    gen.add_argument("--stats", help="standardization stats JSON to apply")
    gen.add_argument("--smes", type=int, help="number of entities")
    gen.add_argument("--n-per", type=int, help="rows per entity")
    gen.add_argument("--features", type=int, help="simulated feature count")
    gen.add_argument("--sigma-true", type=float,
                     help="between-entity coefficient scale")
    gen.add_argument("--mu-scale", type=float,
                     help="population coefficient scale")

    pre = sub.add_parser("pretrain", help="fit the boosted-tree base model")
    pre.add_argument("--source", help="harmonized training CSV")

    ext = sub.add_parser("extract-priors",
                         help="attribution-based prior extraction")
    ext.add_argument("--prior-draws", type=int, default=200,
                     help="draws for the prior-only AUC check")
    ext.add_argument("--lambda", dest="prior_scaling_lambda", type=float,
                     help="override prior_scaling_lambda")

    fit = sub.add_parser("fit", help="hierarchical Bayesian fit")
    fit.add_argument("--chains", type=int, help="override chain count")
    fit.add_argument("--warmup", dest="warmup_iterations", type=int,
                     help="override warmup iterations")
    fit.add_argument("--draws", dest="sampling_iterations", type=int,
                     help="override sampling iterations")
    fit.add_argument("--weak-prior", action="store_true",
                     help="use a standard-normal prior instead of prior.json")

    cal = sub.add_parser("calibrate", help="conformal calibration")
    cal.add_argument("--alpha", dest="miscoverage_alpha", type=float,
                     help="override miscoverage rate")

    prd = sub.add_parser("predict", help="per-customer prediction rows")
    prd.add_argument("--customers", help="CSV of customers to score")
    prd.add_argument("--sme", help="entity id when rows carry no tag")

    ev = sub.add_parser("evaluate", help="cross-validated comparison")
    ev.add_argument("--protocol", choices=("fit-once", "refit"),
                     default="fit-once")
    ev.add_argument("--weak-prior", action="store_true")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "extract-priors": cmd_extract_priors,
    "fit": cmd_fit,
    "calibrate": cmd_calibrate,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # An override flag's dest is the RunConfig field it sets.
    keys = {f.name for f in fields(RunConfig)}
    overrides = {key: value for key, value in vars(args).items()
                 if key in keys}
    try:
        config = RunConfig.load(args.config, overrides)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DiagnosticError as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except (DataError, ValidationError, OSError) as exc:
        # OSError: artifact I/O (a lost sampler worker is a RuntimeError)
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
