"""Span recorder that instruments churnpool from outside the package.

A traced pass replaces selected functions with wrappers that record one
span per call: name, start, end, parent span and the id of the workload
run.  Spans live in compact in-memory arrays and are written out once,
when the run ends.  Each function is patched at the place it is looked up
(``churnpool.cli`` imports most library functions by name, so patching
only the defining module would record nothing for CLI stages).
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import churnpool.cli as cli
import churnpool.data as data
import churnpool.evaluate as evaluate
import churnpool.gbdt as gbdt
import churnpool.hier_model as hier_model
import churnpool.nuts as nuts
import churnpool.shap_prior as shap_prior

_clock = time.perf_counter


class Tracer:
    """In-memory spans and per-call counters of one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, func, name: str, after=None):
        """Return ``func`` wrapped to record a span; ``after(tracer, args,
        result)`` may add counters once the call has returned."""
        name_id = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx, t0, _clock())
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(self._intern(name))
        t0 = _clock()
        try:
            yield
        finally:
            self._close(idx, t0, _clock())

    # -- derived quantities -------------------------------------------------

    def arrays(self):
        """(name ids, parents, durations, self times) as numpy arrays."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return names, parents, dur, dur - child

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, total self seconds)."""
        names, _, dur, self_time = self.arrays()
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        own = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        names, parents, dur, self_time = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=names,
            parent=parents, start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64), self_s=self_time,
            run_id=np.full(names.size, self.run_id))


def span_cost(calls: int = 200_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function.

    The tracing overhead of a run is estimated as spans x this cost: on a
    shared machine the difference between a traced and an untraced pass
    is dominated by run-to-run noise, not by the wrappers.
    """
    def noop():
        return None

    wrapped = Tracer("span-cost").wrap(noop, "noop")
    t0 = _clock()
    for _ in range(calls):
        noop()
    bare = _clock() - t0
    t0 = _clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (_clock() - t0 - bare) / calls)


# -- counters taken after a call returns -------------------------------------

def _rows_loaded(tracer, args, dataset):
    tracer.add("data.rows", dataset.n)


def _trees_grown(tracer, args, model):
    tracer.add("gbdt.trees", len(model.train_log_loss_))


def _table_bytes(tracer, args, result):
    explainer = args[0]
    tables = sum(game.tables.nbytes for games in explainer._games
                 for game in games)
    tracer.counts["shap_prior.table_bytes"] = max(
        tracer.counts.get("shap_prior.table_bytes", 0.0), tables)


def _tree_rows(tracer, args, result):
    explainer, X = args[0], np.asarray(args[1])
    rows = 1 if X.ndim == 1 else X.shape[0]
    tracer.add("shap_prior.tree_rows", rows * len(explainer.ensemble.trees))


def _predict_rows(tracer, args, result):
    tracer.add("hier_model.predict_rows", result[0].shape[0])


def _sampled(tracer, args, result):
    config = args[1]
    tracer.add("nuts.transitions",
               config.chains * (config.warmup + config.draws))
    tracer.add("nuts.min_ess", result[1].min_ess())


def _trace_bytes(tracer, args, result):
    tracer.add("nuts.trace_bytes", os.path.getsize(args[1]))


# (owner, attribute, span name, counter hook).  Each entry is a lookup
# site: the namespace the calling code reads the name from at call time.
PATCHES = (
    (cli, "load_csv", "data.load_csv", _rows_loaded),
    (data, "load_csv", "data.load_csv", _rows_loaded),
    (gbdt.GradientBoostedTrees, "fit", "gbdt.fit", _trees_grown),
    (shap_prior.TreeShapExplainer, "__init__", "shap_prior.build",
     _table_bytes),
    (shap_prior.TreeShapExplainer, "shap_values", "shap_prior.shap_values",
     _tree_rows),
    (cli, "prior_only_auc", "shap_prior.prior_only_auc", None),
    (hier_model.HierTarget, "logp_and_grad", "hier_model.logp_and_grad",
     None),
    (cli, "posterior_predict_matrix", "hier_model.posterior_predict_matrix",
     _predict_rows),
    (hier_model, "posterior_predict_matrix",
     "hier_model.posterior_predict_matrix", _predict_rows),
    (hier_model.HierarchicalLogistic, "fit", "hier_model.fit", None),
    (hier_model, "sample", "nuts.sample", _sampled),
    (nuts, "compute_diagnostics", "nuts.compute_diagnostics", None),
    (nuts.PosteriorTrace, "save", "nuts.trace_save", _trace_bytes),
    (nuts.PosteriorTrace, "load", "nuts.trace_load", None),
    (cli, "calibrate_pooled", "conformal.calibrate", None),
    (cli, "conservative_adjust", "conformal.calibrate", None),
    (evaluate, "calibrate_pooled", "conformal.calibrate", None),
    (evaluate, "fit_logreg_l2", "evaluate.baseline_fit", None),
    (evaluate, "auc", "evaluate.auc", None),
)


# The model-fit calls alone: untraced passes wrap only these, for fit_s.
FIT_PATCHES = tuple(entry for entry in PATCHES
                    if entry[2] in ("gbdt.fit", "hier_model.fit"))


@contextmanager
def instrumented(tracer: Tracer, patches=PATCHES):
    """Install the wrappers in ``patches``; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, after in patches:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, name, after))
            else:
                wrapped = tracer.wrap(raw, name, after)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
