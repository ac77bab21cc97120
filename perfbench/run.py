"""churnpool benchmark: one seeded workload through the CLI stages.

Usage (from the repository root):

  python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced runs
(``--trace 1``) wrap every layer and report the per-layer metrics and the
estimated tracing overhead.  Each metric is printed as ``name value unit``
and the last line of standard output is the JSON result.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("transfer", "flagship", "mixed_cv")

# (name, unit) of the end-to-end metrics, reported by untraced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("fit_s", "s"),
    ("peak_rss_mb", "MiB"),
)

STAGES = ("gen-data", "pretrain", "extract-priors", "fit", "calibrate",
          "predict", "evaluate")

# (name, unit) of the per-layer metrics, reported by traced runs.  A layer
# that a workload does not run reports 0.
PER_LAYER = (
    ("data.load_csv_s", "s"),
    ("data.csv_rows_per_s", "1/s"),
    ("gbdt.fit_s", "s"),
    ("gbdt.trees", "count"),
    ("gbdt.ms_per_tree", "ms"),
    ("shap_prior.build_s", "s"),
    ("shap_prior.us_per_tree_row", "us"),
    ("shap_prior.prior_only_auc_s", "s"),
    ("shap_prior.table_mib", "MiB"),
    ("hier_model.grad_calls", "count"),
    ("hier_model.grad_us_per_call", "us"),
    ("hier_model.grad_share", "fraction"),
    ("hier_model.predict_calls", "count"),
    ("hier_model.predict_us_per_row", "us"),
    ("nuts.transitions", "count"),
    ("nuts.leapfrog_per_transition", "count"),
    ("nuts.ess_per_1k_grad", "ess/1k_grad"),
    ("nuts.sampler_self_s", "s"),
    ("nuts.diagnostics_s", "s"),
    ("nuts.trace_mib", "MiB"),
    ("nuts.trace_load_s", "s"),
    ("conformal.calibrate_s", "s"),
    ("evaluate.baseline_fits", "count"),
    ("evaluate.baselines_s", "s"),
    ("evaluate.auc_calls", "count"),
    ("evaluate.auc_s", "s"),
    *((f"cli.{stage}_s", "s") for stage in STAGES),
    ("min_ess_per_s", "1/s"),
    ("predict_rows_per_s", "1/s"),
    ("trace_overhead_s", "s"),
)

# Model-fit spans; fit_s is their total.
FIT_SPANS = ("gbdt.fit", "hier_model.fit")

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _cap_blas_threads(nproc: int) -> None:
    """Keep BLAS threads at most nproc; must run before numpy is imported."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or int(value) > nproc:
            os.environ[var] = str(nproc)


def _blas_facts(np) -> dict:
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"),
             "env": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        facts["threads"] = getter()
    return facts


class Pass:
    """One execution of a workload's stages, traced or not."""

    def __init__(self, tracer, exit_codes):
        self.tracer = tracer
        self.exit_codes = exit_codes
        self.totals = tracer.totals()

    def stage_seconds(self) -> dict[str, float]:
        return {name[4:]: total for name, (_, total, _) in self.totals.items()
                if name.startswith("cli.")}

    def ok(self) -> bool:
        return all(code == 0 for _, code in self.exit_codes)

    def wall_s(self) -> float:
        return sum(self.stage_seconds().values())

    def fit_s(self) -> float:
        return sum(self.totals[name][1] for name in FIT_SPANS
                   if name in self.totals)


def run_pass(workload, work: Path, seed: int, run_id: str,
             traced: bool) -> Pass:
    """Run every CLI stage of ``workload`` once.  Untraced passes wrap only
    the model-fit calls (two spans per pass)."""
    import churnpool.cli as cli
    import tracing

    tracer = tracing.Tracer(run_id)
    patches = tracing.PATCHES if traced else tracing.FIT_PATCHES
    exit_codes = []
    with tracing.instrumented(tracer, patches):
        for stage, argv in workload.stages(work, seed):
            with tracer.span(f"cli.{stage}"), \
                    contextlib.redirect_stdout(sys.stderr):
                try:
                    code = cli.main(argv)
                except Exception:  # a crashed stage is a failed operation
                    traceback.print_exc()
                    code = -1
            exit_codes.append((stage, code))
    return Pass(tracer, exit_codes)


def workload_rates(run: Pass, workload, work: Path, ok: bool) -> dict:
    """End-to-end numbers that only some workloads have; 0 elsewhere and
    when a stage or check failed."""
    min_ess = workload.min_ess(work) if ok else None
    predict_s = run.stage_seconds().get("predict", 0.0) if ok else 0.0
    return {
        "min_ess_per_s": min_ess / run.fit_s() if min_ess else 0.0,
        "predict_rows_per_s": (workload.customers / predict_s
                               if predict_s else 0.0),
    }


def layer_metrics(run: Pass, span_cost: float) -> dict:
    """Every per-layer metric except the workload rates."""
    totals, counts = run.totals, run.tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    grads = calls("hier_model.logp_and_grad")
    grad_s = seconds("hier_model.logp_and_grad")
    transitions = counts.get("nuts.transitions", 0.0)
    values = {
        "data.load_csv_s": seconds("data.load_csv"),
        "data.csv_rows_per_s": ratio(counts.get("data.rows", 0.0),
                                     seconds("data.load_csv")),
        "gbdt.fit_s": seconds("gbdt.fit"),
        "gbdt.trees": counts.get("gbdt.trees", 0.0),
        "gbdt.ms_per_tree": ratio(seconds("gbdt.fit"),
                                  counts.get("gbdt.trees", 0.0), 1e3),
        "shap_prior.build_s": seconds("shap_prior.build"),
        "shap_prior.us_per_tree_row": ratio(
            seconds("shap_prior.shap_values"),
            counts.get("shap_prior.tree_rows", 0.0), 1e6),
        "shap_prior.prior_only_auc_s": seconds("shap_prior.prior_only_auc"),
        "shap_prior.table_mib": counts.get("shap_prior.table_bytes", 0.0)
        / 2 ** 20,
        "hier_model.grad_calls": grads,
        "hier_model.grad_us_per_call": ratio(grad_s, grads, 1e6),
        "hier_model.grad_share": ratio(grad_s, seconds("nuts.sample")),
        "hier_model.predict_calls": calls(
            "hier_model.posterior_predict_matrix"),
        "hier_model.predict_us_per_row": ratio(
            seconds("hier_model.posterior_predict_matrix"),
            counts.get("hier_model.predict_rows", 0.0), 1e6),
        "nuts.transitions": transitions,
        "nuts.leapfrog_per_transition": ratio(grads, transitions),
        "nuts.ess_per_1k_grad": ratio(counts.get("nuts.min_ess", 0.0),
                                      grads, 1e3),
        "nuts.sampler_self_s": totals.get("nuts.sample", (0, 0.0, 0.0))[2],
        "nuts.diagnostics_s": seconds("nuts.compute_diagnostics"),
        "nuts.trace_mib": counts.get("nuts.trace_bytes", 0.0) / 2 ** 20,
        "nuts.trace_load_s": seconds("nuts.trace_load"),
        "conformal.calibrate_s": seconds("conformal.calibrate"),
        "evaluate.baseline_fits": calls("evaluate.baseline_fit"),
        "evaluate.baselines_s": seconds("evaluate.baseline_fit"),
        "evaluate.auc_calls": calls("evaluate.auc"),
        "evaluate.auc_s": seconds("evaluate.auc"),
        "trace_overhead_s": len(run.tracer.start) * span_cost,
    }
    stages = run.stage_seconds()
    for stage in STAGES:
        values[f"cli.{stage}_s"] = stages.get(stage, 0.0)
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "churnpool" / "cli.py").is_file():
        print(f"error: churnpool sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import churnpool.cli  # noqa: F401  (imported for the setup timing)
    import tracing
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    workload = WORKLOADS[args.workload]()
    work = HERE / "_work" / args.workload
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t = time.perf_counter()
        inputs = workload.prepare(work, args.seed)
        setup_times.append(time.perf_counter() - t)

    run_label = f"{args.workload}/seed{args.seed}"
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started < args.seconds
                         and passes[-1].ok()):
        passes.append(run_pass(workload, work, args.seed,
                               f"{run_label}/pass{len(passes)}",
                               traced=bool(args.trace)))
    if args.trace:
        passes[-1].tracer.save(work / "spans.npz")

    codes: dict[str, list[int]] = {}
    for run in passes:
        for stage, code in run.exit_codes:
            codes.setdefault(stage, []).append(code)
    checks = [(f"exit_{stage}", not any(stage_codes),
               f"exit codes {stage_codes}")
              for stage, stage_codes in codes.items()]
    if all(ok for _, ok, _ in checks):
        try:
            checks += workload.check(work, args.seed)
        except Exception as exc:  # unreadable outputs fail the checks
            traceback.print_exc()
            checks.append(("outputs_readable", False, repr(exc)))
    failed = sum(1 for _, ok, _ in checks if not ok)

    if args.trace:
        metrics = layer_metrics(passes[-1], tracing.span_cost())
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.median(run.wall_s() for run in passes),
            "fit_s": statistics.median(run.fit_s() for run in passes),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics.update({f"cli.{stage}_s": value for stage, value
                        in passes[-1].stage_seconds().items()})
    metrics.update(workload_rates(passes[-1], workload, work, failed == 0))

    facts = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas_facts(np),
        "setup_repeats_s": setup_times, "import_s": import_s,
        "inputs": inputs, "ops_failed_frac": failed / len(checks),
    }
    if failed == 0:
        facts.update(workload.facts(work))

    units = dict(END_TO_END + PER_LAYER)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"ops_failed_frac {failed / len(checks):.6g} fraction")
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    print("facts " + json.dumps(facts, sort_keys=True))

    reported = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in reported},
    }
    (work / f"BENCH_{args.workload}.json").write_text(json.dumps(
        {"result": result, "all_metrics": metrics, "facts": facts,
         "checks": checks}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
