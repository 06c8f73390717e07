"""Layer spans for a traced benchmark round, recorded from outside src/.

install() replaces the public functions of each ekbf layer with timing
wrappers, patched under the name their callers look up (a function
imported with ``from x import f`` is patched in the importer's namespace,
a method on its class).  Each call records one span: name, start, end,
parent span, thread id and up to two work counts.  Spans stay in memory
and are written once, by Recorder.dump, when the round ends.

aggregate() turns a dumped span file into the per-layer metrics listed in
BENCHMARK.json.  It needs only the standard library, so run.py can
call it without importing the program.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time


LAYER_UNITS = {
    "models.drift.s": "s",
    "models.drift.calls": "count",
    "models.drift_jacobian.s": "s",
    "linalg.psd_project.s": "s",
    "linalg.psd_project.rows": "count",
    "linalg.psd_project.rows_clipped": "count",
    "dynamics.filter_step.s": "s",
    "dynamics.filter_step.ns_per_trial_step": "ns",
    "dynamics.signal_step.s": "s",
    "dynamics.obs_increment.s": "s",
    "dynamics.flow.s": "s",
    "dynamics.flow.steps": "count",
    "dynamics.noise.s": "s",
    "dynamics.noise.normals": "count",
    "estimators.run_ensemble.s": "s",
    "estimators.run_ensemble.self_s": "s",
    "estimators.trial_steps": "count",
    "estimators.trial_steps_per_s": "1/s",
    "estimators.threads_busy": "count",
    "estimators.diverged_trials": "count",
    "stats.bootstrap.s": "s",
    "stats.bootstrap.calls": "count",
    "stats.bootstrap.index_mb": "MB",
    "estimators.events.s": "s",
    "estimators.moments.s": "s",
    "estimators.laplace.s": "s",
    "estimators.gronwall.s": "s",
    "estimators.forgetting.s": "s",
    "stats.fit_trend.s": "s",
    "bounds.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "bytes",
    "config.load_s": "s",
}
"""Units of the metrics aggregate() returns, in BENCHMARK.json's order."""


def _size(shape) -> int:
    return math.prod(shape) if shape else 1


class _TimedGenerator:
    """Stands in for a numpy Generator and times its standard_normal draws."""

    def __init__(self, gen, recorder):
        self._gen = gen
        self._recorder = recorder

    def standard_normal(self, size=None, *args, **kwargs):
        n = 1 if size is None else _size(size if isinstance(size, tuple) else (size,))
        return self._recorder.call(
            "dynamics.noise", self._gen.standard_normal, (size,) + args, kwargs,
            lambda a, k, out: (n, 0),
        )

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Recorder:
    """In-memory span store shared by every wrapped function."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        # Worker threads of the ensemble engine start with an empty stack;
        # their spans belong to the span the main thread has open.
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else -1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        n1, n2 = count(args, kwargs, out) if count is not None else (0, 0)
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), n1, n2))
        return out

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install() -> Recorder:
    """Patch every traced ekbf function and return the recorder."""
    import numpy as np

    from ekbf import bounds, dynamics, linalg, models
    from ekbf.harness import cli, estimators, stats

    rec = Recorder()

    for cls in (models.LinearModel, models.QuadraticCubicModel,
                models.InteractingModel, models.TransformedModel):
        rec.wrap(cls, "drift", "models.drift")
        rec.wrap(cls, "drift_jacobian", "models.drift_jacobian")

    def psd_counts(args, kwargs, out):
        P = args[0]
        rows = _size(np.shape(P)[:-2])
        if out is P:  # nothing clipped: the input is handed back unchanged
            return rows, 0
        changed = (out != P) & ~(np.isnan(out) & np.isnan(P))
        return rows, int(np.count_nonzero(changed.reshape(rows, -1).any(axis=1)))

    rec.wrap(linalg, "psd_project_stack", "linalg.psd_project", psd_counts)

    def filter_rows(args, kwargs, out):
        return _size(np.shape(_arg(args, kwargs, 1, "xhat"))[:-1]), 0

    rec.wrap(dynamics.Stepper, "filter_step", "dynamics.filter_step", filter_rows)
    rec.wrap(dynamics.Stepper, "signal_step", "dynamics.signal_step")
    rec.wrap(dynamics.Stepper, "obs_increment", "dynamics.obs_increment")
    rec.wrap(estimators, "deterministic_flow", "dynamics.flow",
             lambda a, k, out: (int(_arg(a, k, 3, "steps")), 0))

    trial_rng = estimators.trial_rng
    estimators.trial_rng = lambda seed, trial: _TimedGenerator(trial_rng(seed, trial), rec)

    def ensemble_counts(args, kwargs, out):
        steps = int(_arg(args, kwargs, 5, "steps"))
        n_trials = int(_arg(args, kwargs, 6, "n_trials"))
        return steps * n_trials, int(np.count_nonzero(out.diverged))

    rec.wrap(cli, "run_ensemble", "estimators.run_ensemble", ensemble_counts)
    rec.wrap(cli, "estimate_event_probability", "estimators.events")
    rec.wrap(cli, "estimate_moments", "estimators.moments")
    rec.wrap(cli, "estimate_chi2_laplace", "estimators.laplace")
    rec.wrap(cli, "estimate_ekf_laplace", "estimators.laplace")
    rec.wrap(cli, "estimate_forgetting_rate", "estimators.forgetting")
    rec.wrap(cli, "gronwall_test_process", "estimators.gronwall")

    def index_bytes(args, kwargs, out):
        resamples = kwargs.get("n_resamples", args[2] if len(args) > 2 else stats.BOOTSTRAP_RESAMPLES)
        return int(np.size(args[0])) * int(resamples) * 8, 0

    rec.wrap(estimators, "bootstrap_mean_ci", "stats.bootstrap", index_bytes)
    rec.wrap(estimators, "fit_decay_rate", "stats.fit_trend")
    rec.wrap(estimators, "increasing_trend_pvalue", "stats.fit_trend")

    rec.wrap(bounds, "problem_constants", "bounds")
    rec.wrap(bounds, "tau_t", "bounds")
    rec.wrap(cli, "_write_csv", "cli.write",
             lambda a, k, out: (os.path.getsize(_arg(a, k, 0, "path")), 0))
    rec.wrap(cli, "load_config", "config.load")
    return rec


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def aggregate(path: str) -> dict:
    """Per-layer metrics, as {name: value}, from one dumped span file."""
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[4], []).append(span)

    def seconds(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def count(name, field=6):
        return sum(s[field] for s in by_name.get(name, ()))

    ensembles = by_name.get("estimators.run_ensemble", [])
    ensemble_s = seconds("estimators.run_ensemble")
    self_s = 0.0
    for span in ensembles:
        inner = [(max(c[2], span[2]), min(c[3], span[3])) for c in children.get(span[0], ())]
        self_s += (span[3] - span[2]) - _union_length([iv for iv in inner if iv[1] > iv[0]])
    trial_steps = count("estimators.run_ensemble")
    bootstraps = by_name.get("stats.bootstrap", [])

    return {
        "models.drift.s": seconds("models.drift"),
        "models.drift.calls": len(by_name.get("models.drift", ())),
        "models.drift_jacobian.s": seconds("models.drift_jacobian"),
        "linalg.psd_project.s": seconds("linalg.psd_project"),
        "linalg.psd_project.rows": count("linalg.psd_project"),
        "linalg.psd_project.rows_clipped": count("linalg.psd_project", 7),
        "dynamics.filter_step.s": seconds("dynamics.filter_step"),
        "dynamics.filter_step.ns_per_trial_step": (
            1e9 * seconds("dynamics.filter_step") / trial_steps if trial_steps else 0.0
        ),
        "dynamics.signal_step.s": seconds("dynamics.signal_step"),
        "dynamics.obs_increment.s": seconds("dynamics.obs_increment"),
        "dynamics.flow.s": seconds("dynamics.flow"),
        "dynamics.flow.steps": count("dynamics.flow"),
        "dynamics.noise.s": seconds("dynamics.noise"),
        "dynamics.noise.normals": count("dynamics.noise"),
        "estimators.run_ensemble.s": ensemble_s,
        "estimators.run_ensemble.self_s": self_s,
        "estimators.trial_steps": trial_steps,
        "estimators.trial_steps_per_s": trial_steps / ensemble_s if ensemble_s else 0.0,
        "estimators.threads_busy": len({s[5] for s in by_name.get("dynamics.filter_step", ())}),
        "estimators.diverged_trials": count("estimators.run_ensemble", 7),
        "stats.bootstrap.s": seconds("stats.bootstrap"),
        "stats.bootstrap.calls": len(bootstraps),
        "stats.bootstrap.index_mb": max((s[6] for s in bootstraps), default=0) / 1e6,
        "estimators.events.s": seconds("estimators.events"),
        "estimators.moments.s": seconds("estimators.moments"),
        "estimators.laplace.s": seconds("estimators.laplace"),
        "estimators.gronwall.s": seconds("estimators.gronwall"),
        "estimators.forgetting.s": seconds("estimators.forgetting"),
        "stats.fit_trend.s": seconds("stats.fit_trend"),
        "bounds.s": seconds("bounds"),
        "cli.write.s": seconds("cli.write"),
        "cli.write.bytes": count("cli.write"),
        "config.load_s": seconds("config.load"),
    }
