"""Command line: simulate, check, verify, forgetting, gronwall, report.

verify, forgetting and gronwall each run the slice of one check battery
(_run_checks) that config.SCENARIOS names; report runs every check that
applies, so its rows and files are the union of its commands'.  _emit
writes every checking command's summary JSON and, by one rule, its check
CSVs: _CSV_STEMS names the file of each row's paper_ref, and a file's
columns are the estimators.ROW_FIELDS its rows carry, in that order, a
cell left empty where a row lacks the field.  _summary takes `pass` over
every row and `oracle_pass` over the rows that carry one.

Exit codes: 0 when every check passes (check and simulate, which make no
check, exit 0), 1 when any check fails, 2 on a configuration problem,
including a value the command cannot use (moment orders above 4, fewer
than two chi-square samples, a prior that is not symmetric PSD, one with
no positive eigenvalue under the chi-square row, or a record grid with
fewer than 3 times past the forgetting burn-in), 3 when the run itself
fails (any other EkbfError, e.g. a Laplace row whose every sample
overflowed or diverged; a diverged filter freezes and is counted, not
raised); 2 and 3 print a one-line message to stderr.  check prints
bounds.bounds_report's plain data as JSON, the text it also writes to
bounds.json; simulate prints one line of trial and diverged counts, with
no verdict; every other command prints one verdict line and nothing else.
The code reads `pass` alone: an oracle miss is printed, not failed, since
the oracles are continuous-time values that ignore the Euler scheme's
bias.  All file output is deterministic for a fixed (config, seed): CSV
cells use 17 significant digits and JSON is emitted with sorted keys, so
reruns are byte-identical.  No command starts a thread: every ensemble
chunk runs on the calling thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .. import bounds, linalg
from ..dynamics import make_path_bundle, simulate_coupled, FilterState
from ..errors import ConfigError, EkbfError
from .config import SCENARIOS, ExperimentConfig, load_config
from .estimators import (
    MAX_MOMENT_ORDER,
    ROW_FIELDS,
    estimate_chi2_laplace,
    estimate_ekf_laplace,
    estimate_event_probability,
    estimate_forgetting_rate,
    estimate_moments,
    fit_window,
    forgetting_curves,
    gronwall_test_process,
    run_ensemble,
    verify_trace_bound,
)

# The check CSV of each paper_ref; rows of any other ref (the forgetting
# row) go to the JSON summary only.
_CSV_STEMS = {
    "event-radius-signal": "events", "event-radius-filter": "events",
    "moment-envelope-signal": "moments", "moment-envelope-filter-mean": "moments",
    "initial-error-laplace": "laplace", "filter-error-laplace": "laplace",
    "trace-envelope": "trace",
    "gronwall-envelope": "gronwall", "gronwall-sourced-envelope": "gronwall",
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: str, fieldnames: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name, "")) for name in fieldnames])


def _tally(details: list, key: str) -> tuple:
    """(passed, total) of the verdict `key` over the rows that carry it."""
    verdicts = [bool(d[key]) for d in details if key in d]
    return sum(verdicts), len(verdicts)


def _summary(scenario: str, details: list) -> dict:
    (k, n), (j, m) = _tally(details, "pass"), _tally(details, "oracle_pass")
    return {
        "scenario": scenario,
        "pass": k == n,
        "oracle_pass": j == m,
        "details": details,
        "paper_refs": sorted({d["paper_ref"] for d in details if "paper_ref" in d}),
    }


def _emit(summary: dict, out: str | None, stem: str) -> int:
    """Write the summary JSON and its check CSVs, print the verdict line, return the exit code."""
    details = summary["details"]
    if out is not None:
        with open(os.path.join(out, f"{stem}.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        files: dict = {}
        for row in details:
            if row.get("paper_ref") in _CSV_STEMS:
                files.setdefault(_CSV_STEMS[row["paper_ref"]], []).append(row)
        for name, rows in files.items():
            columns = [f for f in ROW_FIELDS if any(f in row for row in rows)]
            _write_csv(os.path.join(out, f"{name}.csv"), columns, rows)
    word = {True: "PASS", False: "FAIL"}
    (k, n), (j, m) = _tally(details, "pass"), _tally(details, "oracle_pass")
    oracle = f"; oracle {word[summary['oracle_pass']]} ({j}/{m})" if m else ""
    print(f"{summary['scenario']}: {word[summary['pass']]} ({k}/{n} checks){oracle}")
    return 0 if summary["pass"] else 1


def _ensemble(cfg: ExperimentConfig):
    return run_ensemble(
        cfg.model,
        cfg.obs,
        cfg.x0,
        cfg.filters,
        cfg.dt,
        cfg.steps,
        cfg.n_trials,
        cfg.seed,
        cfg.checkpoint_steps(),
        record_steps=cfg.record_steps(),
    )


def _init_sq(cfg: ExperimentConfig) -> float:
    e = cfg.x0 - cfg.filters[0][0]
    return float(e @ e)


def _write_bounds(cfg: ExperimentConfig, out: str | None) -> str:
    """The envelope report as JSON text, also written to bounds.json under out."""
    c = bounds.problem_constants(cfg.model, cfg.obs, cfg.filters[0][1])
    report = bounds.bounds_report(
        c, cfg.checkpoints, cfg.delta_grid, alpha=cfg.alpha, init_sq=_init_sq(cfg)
    )
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is not None:
        with open(os.path.join(out, "bounds.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _cmd_simulate(cfg: ExperimentConfig, out: str | None) -> int:
    """Run the ensemble, write its summary and one trajectory under out; print a count."""
    result = _ensemble(cfg)
    n_diverged = int(result.diverged.sum())
    if out is not None:
        rows = [
            {
                "t": float(t),
                "mean_signal_err_sq": float(result.signal_err_sq[:, i].mean()),
                "mean_filter_err_sq": float(result.filter_err_sq[:, i].mean()),
                "mean_dev_sq": float(result.mean_dev_sq[:, i].mean()),
                "n_diverged": n_diverged,
            }
            for i, t in enumerate(result.checkpoint_times)
        ]
        _write_csv(os.path.join(out, "ensemble.csv"), list(rows[0]), rows)
        _write_trajectory(cfg, os.path.join(out, "trajectory.csv"))
    print(f"simulate: {cfg.n_trials} trials, {n_diverged} diverged")
    return 0


def _write_trajectory(cfg: ExperimentConfig, path: str) -> None:
    """One fully recorded trial (index 0) for plotting."""
    bundle = make_path_bundle(cfg.seed, 0, cfg.steps, cfg.dt, cfg.model.dim, cfg.obs.obs_dim)
    states = [FilterState(mean=m, cov=P) for m, P in cfg.filters]
    rec = simulate_coupled(cfg.model, cfg.obs, cfg.x0, states, bundle, cfg.record_every)
    c = bounds.problem_constants(cfg.model, cfg.obs, cfg.filters[0][1])
    tau = np.asarray(bounds.tau_t(c, rec.times))
    d = cfg.model.dim
    cols = (
        ["t"]
        + [f"x_{i}" for i in range(d)]
        + [f"xhat_{i}" for i in range(d)]
        + ["trace_P", "trace_envelope"]
    )
    full_pos = [int(round(t / cfg.dt)) for t in rec.times]
    rows = []
    for i, t in enumerate(rec.times):
        row = {"t": float(t)}
        for k in range(d):
            row[f"x_{k}"] = float(rec.signal[i, k])
            row[f"xhat_{k}"] = float(rec.means[0, i, k])
        row["trace_P"] = float(rec.traces[0, full_pos[i]])
        row["trace_envelope"] = float(tau[i])
        rows.append(row)
    _write_csv(path, cols, rows)


# The preconditions of each check, (check, broken(cfg), message); those of
# every selected check are tested before anything runs.
_PRECONDITIONS = (
    ("moments", lambda cfg: any(n > MAX_MOMENT_ORDER for n in cfg.n_orders),
     f"test.n_orders entries above {MAX_MOMENT_ORDER} are too tail-sensitive"),
    ("chi2", lambda cfg: cfg.n_trials < 2, "sim.n_trials must be >= 2 for the chi-square Laplace row"),
    ("chi2", lambda cfg: linalg.max_eigenvalue(cfg.filters[0][1]) <= 0,
     "init.P0 (or init.filters[0].cov) must have a positive top eigenvalue for the chi-square Laplace row"),
    ("forgetting", lambda cfg: len(cfg.filters) < 2,
     "forgetting needs init.filters with at least two entries"),
    ("forgetting", lambda cfg: fit_window(np.asarray(cfg.record_steps()) * cfg.dt).sum() < 3,
     "sim.record_every leaves fewer than 3 record times past the forgetting burn-in"),
)


def _forgetting(cfg: ExperimentConfig, result, out: str | None) -> dict:
    """The forgetting row; its curves also go to forgetting.csv under out."""
    report = estimate_forgetting_rate(result, cfg.eps, cfg.alpha)
    if out is not None:
        curves = forgetting_curves(result, report.get("exponent"))
        rows = [
            dict({name: float(curve[i]) for name, curve in curves.items()}, t=float(t))
            for i, t in enumerate(result.record_times)
        ]
        _write_csv(
            os.path.join(out, "forgetting.csv"),
            ["t", "mean_delta_pow", "mean_delta_n1", "mean_delta_n2"],
            rows,
        )
    return report


def _run_checks(cfg: ExperimentConfig, out: str | None, command: str, scenario: str) -> int:
    """Run a scenario's slice of the battery, or under report every check that applies."""
    init_sq, deltas = _init_sq(cfg), cfg.delta_grid
    # The rows of every check, in report's row order.  Each lambda looks its
    # estimator up when called, so a name patched on this module is seen.
    battery = {
        "events-signal": lambda r: estimate_event_probability(r, deltas, "signal", init_sq=init_sq),
        "events-ekf": lambda r: estimate_event_probability(r, deltas, "ekf", init_sq=init_sq),
        "moments": lambda r: estimate_moments(r, cfg.n_orders),
        "trace": lambda r: [verify_trace_bound(r)],
        "chi2": lambda r: [estimate_chi2_laplace(cfg.filters[0][1], cfg.n_trials, cfg.seed)],
        "ekf-laplace": lambda r: [estimate_ekf_laplace(r, cfg.eps)],
        "forgetting": lambda r: [_forgetting(cfg, r, out)],
        "gronwall": lambda r: gronwall_test_process(**cfg.gronwall_kwargs()),
    }
    skip = {"forgetting": len(cfg.filters) < 2, "gronwall": cfg.gronwall is None}
    names = [n for n in battery if not skip.get(n)] if command == "report" else SCENARIOS[scenario][1]
    for name, broken, message in _PRECONDITIONS:
        if name in names and broken(cfg):
            raise ConfigError(message)
    if command == "report":
        _write_bounds(cfg, out)
    # chi2 and gronwall draw their own samples; every other check reads the ensemble
    result = _ensemble(cfg) if set(names) - {"chi2", "gronwall"} else None
    details = [row for n in battery if n in names for row in battery[n](result)]
    return _emit(_summary(scenario, details), out, command)


def _scenario(cfg: ExperimentConfig, command: str, override: str | None) -> str:
    """The scenario a checking command runs: verify's is chosen, the others' are fixed."""
    if command != "verify":
        return next((s for s, (cmd, _) in SCENARIOS.items() if cmd == command), "report")
    scenario = override or cfg.scenario
    verified = ", ".join(s for s, (cmd, _) in SCENARIOS.items() if cmd == "verify")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; verify handles {verified}")
    if SCENARIOS[scenario][0] != "verify":
        raise ConfigError(f"scenario {scenario!r} has its own subcommand; verify handles {verified}")
    return scenario


def run_cli(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="ekbf",
        description="Simulate extended Kalman-Bucy filters and verify their error envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run an ensemble and write trajectory and summary CSV"),
        ("check", "print the closed-form envelope report as JSON"),
        ("verify", "estimate event frequencies and moments against the envelopes"),
        ("forgetting", "fit the coupled-filter forgetting rate"),
        ("gronwall", "run the synthetic moment-envelope test process"),
        ("report", "run the whole battery and write a combined summary"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="directory for CSV/JSON output")
        if name == "verify":
            p.add_argument("--scenario", default=None, help="override test.scenario")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
        if args.command == "check":
            sys.stdout.write(_write_bounds(cfg, args.out))
            return 0
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.out)
        scenario = _scenario(cfg, args.command, getattr(args, "scenario", None))
        return _run_checks(cfg, args.out, args.command, scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EkbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
