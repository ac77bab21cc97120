"""The three benchmark workloads: seeded inputs, pinned CLI stages, checks.

Every setting the roadmap plans to change (chains, warmup, draws, boosted
tree iterations and learning rate, seeds, the evaluation protocol) is
written here explicitly, so a later change of a program default does not
silently change what the benchmark measures.  No worker or thread option of
the program is set.

The benchmark seed only shapes the generated inputs.  Sampler, boosting and
fold seeds are pinned per workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from churnpool.data import Dataset, SMECollection, load_csv, save_collection
from churnpool.gbdt import TreeEnsemble
from churnpool.shap_prior import TreeShapExplainer

# Acceptance band of criterion 02 (tests/test_acceptance.py).
COVERAGE_BAND = (0.87, 0.94)
# Convergence gates of the CLI fit stage.
RHAT_GATE, ESS_GATE, DIVERGENT_GATE = 1.01, 400.0, 0.001
SHAP_TOLERANCE = 1e-8

Check = tuple[str, bool, str]


def write_config(path: Path, sections: dict) -> None:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_rows(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _entity_ids(J: int) -> tuple[str, ...]:
    """The ids ``gen-data`` gives J entities."""
    width = max(2, len(str(J - 1)))
    return tuple(f"sme_{j:0{width}d}" for j in range(J))


def _cli_prefix(work: Path) -> list[str]:
    return ["--config", str(work / "run.ini"), "--out", str(work), "--force"]


@dataclass(frozen=True)
class Transfer:
    """Corpus CSV -> ``pretrain`` -> ``extract-priors``; no MCMC runs."""

    rows: int = 20_000
    features: int = 20
    tags: int = 4
    iterations: int = 60
    learning_rate: float = 0.1
    fit_seed: int = 11
    prior_draws: int = 200
    shap_check_rows: int = 64

    def prepare(self, work: Path, seed: int) -> dict:
        """Write a corpus with a nonlinear logistic signal whose linear part
        differs by source tag, so the prior gets between-source spread."""
        rng = _rng(seed, 1)
        p, n = self.features, self.rows
        tag = rng.integers(0, self.tags, n)
        X = rng.standard_normal((n, p)) + rng.normal(0.0, 0.3,
                                                     (self.tags, p))[tag]
        w = rng.normal(0.0, 0.8, p) * (np.arange(p) < (3 * p) // 5)
        w_tag = w + rng.normal(0.0, 0.25, (self.tags, p)) * (w != 0)
        z = (np.einsum("ij,ij->i", X, w_tag[tag]) + np.sin(1.5 * X[:, 0])
             + 0.8 * X[:, 1] * X[:, 2] - 0.6 * (X[:, 3] ** 2 - 1.0)
             + 0.5 * (X[:, 4] > 0.5) - 0.3)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        _write_rows(work / "corpus.csv",
                    [f"f{k:02d}" for k in range(p)] + ["target", "source"],
                    ([*map(repr, row), label, f"src_{t}"] for row, label, t
                     in zip(X.tolist(), y.tolist(), tag.tolist())))
        write_config(work / "run.ini", {
            "gbdt": {"iterations": self.iterations,
                     "learning_rate": self.learning_rate},
            "run": {"seed": self.fit_seed},
        })
        return {"corpus_rows": n, "corpus_features": p,
                "source_tags": self.tags, "positive_rate": float(y.mean())}

    def stages(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        cli = _cli_prefix(work)
        return [
            ("pretrain", cli + ["pretrain", "--source",
                                str(work / "corpus.csv")]),
            ("extract-priors", cli + ["extract-priors", "--prior-draws",
                                      str(self.prior_draws)]),
        ]

    def check(self, work: Path, seed: int) -> list[Check]:
        ensemble = TreeEnsemble.load(work / "model.json")
        val = load_csv(work / "pretrain_val.csv")
        rows = _rng(seed, 2).choice(val.n, min(self.shap_check_rows, val.n),
                                    replace=False)
        X = val.features[np.sort(rows)]
        explainer = TreeShapExplainer(ensemble)
        recon = explainer.expected_value + explainer.shap_values(X).sum(axis=1)
        err = float(np.max(np.abs(recon - ensemble.predict_margin(X))))
        return [("shap_local_accuracy", err <= SHAP_TOLERANCE,
                 f"max |E[f] + sum(phi) - margin| = {err:.3e} over "
                 f"{X.shape[0]} validation rows")]

    def facts(self, work: Path) -> dict:
        return {"sha256": {"prior.json": sha256(work / "prior.json")}}

    def min_ess(self, work: Path) -> float | None:
        return None


@dataclass(frozen=True)
class Flagship:
    """``gen-data`` -> ``fit --weak-prior`` -> ``calibrate`` -> ``predict``
    on equal-size entities, the batched-matmul gradient path."""

    J: int = 15
    n_per: int = 100
    features: int = 10
    mu_scale: float = 0.5
    sigma_true: float = 0.5
    chains: int = 4
    warmup: int = 1000
    draws: int = 1000
    customers: int = 4000
    fit_seed: int = 7

    def prepare(self, work: Path, seed: int) -> dict:
        rng = _rng(seed, 1)
        X = rng.standard_normal((self.customers, self.features))
        ids = _entity_ids(self.J)
        owner = rng.permutation(np.arange(self.customers) % self.J)
        _write_rows(work / "customers.csv",
                    [f"x{k:02d}" for k in range(self.features)] + ["source"],
                    ([*map(repr, row), ids[j]]
                     for row, j in zip(X.tolist(), owner.tolist())))
        write_config(work / "run.ini", {
            "hierarchical": {"chains": self.chains,
                             "warmup_iterations": self.warmup,
                             "sampling_iterations": self.draws},
            "run": {"seed": self.fit_seed, "smes": self.J,
                    "n_per": self.n_per, "features": self.features,
                    "mu_scale": self.mu_scale,
                    "sigma_true": self.sigma_true},
        })
        return {"entity_sizes": [self.n_per] * self.J,
                "customers": self.customers}

    def stages(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        cli = _cli_prefix(work)
        return [
            # The benchmark seed is the data seed; later stages use the
            # pinned [run] seed from run.ini.
            ("gen-data", cli + ["--seed", str(seed), "gen-data",
                                "--mode", "simulate"]),
            ("fit", cli + ["fit", "--weak-prior"]),
            ("calibrate", cli + ["calibrate"]),
            ("predict", cli + ["predict", "--customers",
                               str(work / "customers.csv")]),
        ]

    def check(self, work: Path, seed: int) -> list[Check]:
        meta = json.loads((work / "fit_meta.json").read_text("utf-8"))
        total = self.chains * self.draws
        gates = ("fit_gates",
                 meta["max_rhat"] < RHAT_GATE and meta["min_ess"] > ESS_GATE
                 and meta["n_divergent"] / total < DIVERGENT_GATE,
                 f"max_rhat={meta['max_rhat']:.4f} "
                 f"min_ess={meta['min_ess']:.1f} "
                 f"divergent={meta['n_divergent']}/{total}")
        owners = [row["source"] for row in _read_rows(work / "customers.csv")]
        rows = _read_rows(work / "predictions.csv")
        bad = sum(1 for row in rows if not (
            0.0 <= float(row["ci_lower"]) <= float(row["probability"])
            <= float(row["ci_upper"]) <= 1.0))
        same = [row["sme"] for row in rows] == owners
        predictions = ("predictions",
                       len(rows) == self.customers and same and bad == 0,
                       f"{len(rows)} rows for {self.customers} customers, "
                       f"entities match: {same}, {bad} rows break "
                       "0 <= ci_lower <= probability <= ci_upper <= 1")
        return [gates, predictions]

    def facts(self, work: Path) -> dict:
        return {"sha256": {name: sha256(work / name)
                           for name in ("trace.bin", "predictions.csv")}}

    def min_ess(self, work: Path) -> float | None:
        return json.loads((work / "fit_meta.json").read_text("utf-8"))[
            "min_ess"]


@dataclass(frozen=True)
class MixedCV:
    """Unequal entity sizes -> ``evaluate --protocol fit-once``: the
    ``reduceat`` gradient path, baselines, AUC, t-tests, conformal audit."""

    J: int = 12
    min_size: int = 50
    max_size: int = 500
    features: int = 10
    mu_scale: float = 0.5
    sigma_true: float = 0.5
    chains: int = 2
    warmup: int = 1000
    draws: int = 1000
    folds: int = 5
    fit_seed: int = 11

    def sizes(self, rng: np.random.Generator) -> np.ndarray:
        """Log-uniform sizes in [min_size, max_size], one draw per 1/J slice
        of the log range, so the total row count barely moves with the
        seed while each size keeps its log-uniform spread."""
        u = (rng.permutation(self.J) + rng.random(self.J)) / self.J
        lo, hi = np.log(self.min_size), np.log(self.max_size + 1)
        return np.floor(np.exp(lo + u * (hi - lo))).astype(int)

    def prepare(self, work: Path, seed: int) -> dict:
        rng = _rng(seed, 1)
        sizes = self.sizes(rng)
        p = self.features
        mu = self.mu_scale * rng.standard_normal(p)
        betas = mu + self.sigma_true * rng.standard_normal((self.J, p))
        names = tuple(f"x{k:02d}" for k in range(p))
        ids = _entity_ids(self.J)
        smes = []
        for j, n in enumerate(sizes.tolist()):
            X = rng.standard_normal((n, p))
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ betas[j]))
                 ).astype(np.int8)
            smes.append(Dataset(X, y, names, (ids[j],) * n))
        save_collection(SMECollection(tuple(smes), ids), work / "smes",
                        force=True)
        write_config(work / "run.ini", {
            "hierarchical": {"chains": self.chains,
                             "warmup_iterations": self.warmup,
                             "sampling_iterations": self.draws},
            "run": {"seed": self.fit_seed, "folds": self.folds},
        })
        return {"entity_sizes": sizes.tolist(), "rows": int(sizes.sum())}

    def stages(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        return [("evaluate", _cli_prefix(work) + [
            "evaluate", "--weak-prior", "--protocol", "fit-once"])]

    def check(self, work: Path, seed: int) -> list[Check]:
        report = json.loads((work / "report.json").read_text("utf-8"))
        expected = self.J * self.folds
        evaluations = ("evaluations", report["n_evaluations"] == expected,
                       f"{report['n_evaluations']} hierarchical evaluations, "
                       f"expected {expected}")
        coverage = report["conformal"].get("empirical_coverage", float("nan"))
        lo, hi = COVERAGE_BAND
        band = ("conformal_coverage", lo <= coverage <= hi,
                f"coverage={coverage:.4f}, band [{lo}, {hi}]")
        realized = self.realized_sizes(work)
        unequal = ("unequal_sizes", len(set(realized.values())) > 1,
                   f"realized sizes {sorted(realized.values())}")
        return [evaluations, band, unequal]

    def realized_sizes(self, work: Path) -> dict[str, int]:
        """Rows each entity contributed to the hierarchical evaluations."""
        sizes: dict[str, int] = {}
        for row in _read_rows(work / "evaluations.csv"):
            if row["method"] == "hierarchical":
                sizes[row["sme"]] = sizes.get(row["sme"], 0) + int(row["n"])
        return sizes

    def facts(self, work: Path) -> dict:
        return {"realized_entity_sizes": self.realized_sizes(work),
                "sha256": {"evaluations.csv": sha256(work /
                                                     "evaluations.csv")}}

    def min_ess(self, work: Path) -> float | None:
        report = json.loads((work / "report.json").read_text("utf-8"))
        return report["diagnostics"]["min_ess"]


WORKLOADS = {"transfer": Transfer, "flagship": Flagship, "mixed_cv": MixedCV}
