"""Self-test of the benchmark on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench``.  Every
span the tracer installs must record at least one call on the workload
that exercises it, and the exact counts must repeat across two traced runs
of the same seed.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Flagship, MixedCV, Transfer  # noqa: E402

TINY = {
    "transfer": Transfer(rows=600, iterations=4, prior_draws=5,
                         shap_check_rows=16),
    "flagship": Flagship(J=3, n_per=40, features=3, customers=30),
    "mixed_cv": MixedCV(J=3, min_size=50, max_size=120, features=3),
}

EXPECTED_SPANS = {
    "transfer": {"data.load_csv", "gbdt.fit", "shap_prior.build",
                 "shap_prior.shap_values", "shap_prior.prior_only_auc",
                 "evaluate.auc", "cli.pretrain", "cli.extract-priors"},
    "flagship": {"data.load_csv", "hier_model.fit", "nuts.sample",
                 "hier_model.logp_and_grad", "nuts.compute_diagnostics",
                 "nuts.trace_save", "nuts.trace_load",
                 "hier_model.posterior_predict_matrix", "conformal.calibrate",
                 "cli.gen-data", "cli.fit", "cli.calibrate", "cli.predict"},
    "mixed_cv": {"data.load_csv", "hier_model.fit", "nuts.sample",
                 "hier_model.logp_and_grad", "nuts.compute_diagnostics",
                 "hier_model.posterior_predict_matrix", "conformal.calibrate",
                 "evaluate.baseline_fit", "evaluate.auc", "cli.evaluate"},
}

EXACT_COUNTS = ("hier_model.grad_calls", "nuts.transitions", "gbdt.trees")
SEED = 3


def _traced_run(name, work):
    workload = TINY[name]
    work.mkdir()
    workload.prepare(work, SEED)
    traced = run.run_pass(workload, work, SEED, f"{name}/0", traced=True)
    assert traced.ok(), traced.exit_codes
    metrics = run.layer_metrics(traced, 1e-6)
    metrics.update(run.workload_rates(traced, workload, work, True))
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    return traced, metrics


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_twice(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    first = _traced_run(request.param, root / "a")
    second = _traced_run(request.param, root / "b")
    return request.param, first, second


def test_every_expected_span_records_calls(traced_twice):
    name, (traced, _), _ = traced_twice
    totals = traced.tracer.totals()
    missing = {span for span in EXPECTED_SPANS[name]
               if totals.get(span, (0,))[0] < 1}
    assert not missing


def test_exact_counts_repeat(traced_twice):
    name, (_, first), (_, second) = traced_twice
    for metric in EXACT_COUNTS:
        assert first[metric] == second[metric], metric
    if name != "transfer":
        assert first["hier_model.grad_calls"] > 0
        assert first["nuts.transitions"] > 0
    else:
        assert first["gbdt.trees"] > 0


def test_every_patch_is_expected_somewhere():
    patched = {entry[2] for entry in tracing.PATCHES}
    assert patched <= set().union(*EXPECTED_SPANS.values())


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_mixed_sizes_are_unequal_and_in_range():
    import numpy as np

    sizes = MixedCV().sizes(np.random.default_rng(0))
    assert sizes.min() >= 50 and sizes.max() <= 500
    assert len(set(sizes.tolist())) > 1
