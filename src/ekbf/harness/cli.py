"""Command line: simulate, check, verify, forgetting, gronwall, report.

verify, forgetting and gronwall each run the slice of one check battery
(_run_checks) that config.SCENARIOS names; report runs every check that
applies, so its rows and files are the union of its commands'.  Each
battery entry declares its check once: the CSV its rows go to (None for
the forgetting row, which goes to the JSON summary alone), whether it
reads the ensemble, and its rows.  _emit writes every checking command's
summary JSON and, by one rule, its check CSVs: a file's columns are the
estimators.ROW_FIELDS its rows carry, in that order, a cell left empty
where a row lacks the field.  The summary takes `pass` over every row and
`oracle_pass` over the rows that carry one.

Exit codes: 0 when every check passes (check and simulate, which make no
check, exit 0), 1 when any check fails, 2 on a configuration problem,
including a value the command cannot use (moment orders above 4, fewer
than two chi-square samples, a prior that is not symmetric PSD, one with
no positive eigenvalue under the chi-square row, a record grid with fewer
than 3 times past the forgetting burn-in, a zero-gain sensor under the
forgetting row, or an --out that cannot be made a directory), 3 when the
run itself fails (any other EkbfError, e.g. a Laplace row whose every
trial diverged or has a non-finite exponent, an OSError while writing a
result file, or a MemoryError when an array cannot be allocated; a
Laplace mean past the float range is a FAIL, and a diverged filter
freezes and is counted, not raised); 2 and 3
print a one-line message to stderr.  check prints bounds.bounds_report's
plain data as JSON, the text it also writes to bounds.json; simulate
prints one line of trial and diverged counts, with no verdict; every
other command prints one verdict line and nothing else.
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
from ..dynamics import make_path_bundle, simulate_coupled
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


def _write_json(data, out: str | None, stem: str) -> str:
    """data as JSON text with sorted keys, also written to stem.json under out."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out is not None:
        with open(os.path.join(out, f"{stem}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _emit(scenario: str, checks: list, out: str | None, stem: str) -> int:
    """Write the summary JSON and the check CSVs, print the verdict line, return the exit code.

    checks holds one (csv, rows) pair per check run, in row order; a check
    whose csv is None has its rows in the summary alone.
    """
    details = [row for _, rows in checks for row in rows]
    (k, n), (j, m) = _tally(details, "pass"), _tally(details, "oracle_pass")
    summary = {
        "scenario": scenario,
        "pass": k == n,
        "oracle_pass": j == m,
        "details": details,
        "paper_refs": sorted({d["paper_ref"] for d in details if "paper_ref" in d}),
    }
    _write_json(summary, out, stem)
    if out is not None:
        files: dict = {}
        for name, rows in checks:
            if name is not None and rows:
                files.setdefault(name, []).extend(rows)
        for name, rows in files.items():
            columns = [f for f in ROW_FIELDS if any(f in row for row in rows)]
            _write_csv(os.path.join(out, f"{name}.csv"), columns, rows)
    word = {True: "PASS", False: "FAIL"}
    oracle = f"; oracle {word[j == m]} ({j}/{m})" if m else ""
    print(f"{scenario}: {word[k == n]} ({k}/{n} checks){oracle}")
    return 0 if k == n else 1


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


def _write_bounds(cfg: ExperimentConfig, out: str | None) -> str:
    """The envelope report as JSON text, also written to bounds.json under out."""
    c = bounds.problem_constants(cfg.model, cfg.obs, cfg.filters[0][1])
    init_sq = float(linalg.sumsq(cfg.x0 - cfg.filters[0][0]))
    report = bounds.bounds_report(c, cfg.checkpoints, cfg.delta_grid, alpha=cfg.alpha, init_sq=init_sq)
    return _write_json(report, out, "bounds")


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
    rec = simulate_coupled(cfg.model, cfg.obs, cfg.x0, cfg.filters, bundle, cfg.record_every)
    c = bounds.problem_constants(cfg.model, cfg.obs, cfg.filters[0][1])
    d = cfg.model.dim
    cols = ["t", *(f"{v}_{i}" for v in ("x", "xhat") for i in range(d)), "trace_P", "trace_envelope"]
    # the trace at cfg.record_steps(), the grid simulate_coupled recorded on
    table = np.column_stack(
        [rec.times, rec.signal, rec.means[0], rec.traces[0, cfg.record_steps()], bounds.tau_t(c, rec.times)]
    )
    _write_csv(path, cols, [dict(zip(cols, line)) for line in table.tolist()])


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
    ("forgetting", lambda cfg: cfg.obs.sensor_gain <= 0,
     "obs.B must give a positive sensor gain (B^T R2^-1 B nonzero) for the forgetting rate"),
)


def _forgetting(cfg: ExperimentConfig, result, out: str | None) -> dict:
    """The forgetting row; its curves also go to forgetting.csv under out."""
    report = estimate_forgetting_rate(result, cfg.eps, cfg.alpha)
    if out is not None:
        curves = forgetting_curves(result)
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
    # Every check, in report's row order: (its CSV, whether it reads the
    # ensemble, its rows).  Each lambda looks its estimator up when called,
    # so a name patched on this module is seen.
    battery = {
        "events-signal": ("events", True, lambda r: estimate_event_probability(r, cfg.delta_grid, "signal")),
        "events-ekf": ("events", True, lambda r: estimate_event_probability(r, cfg.delta_grid, "ekf")),
        "moments": ("moments", True, lambda r: estimate_moments(r, cfg.n_orders)),
        "trace": ("trace", True, lambda r: [verify_trace_bound(r)]),
        "chi2": ("laplace", False,
                 lambda r: [estimate_chi2_laplace(cfg.filters[0][1], cfg.n_trials, cfg.seed)]),
        "ekf-laplace": ("laplace", True, lambda r: [estimate_ekf_laplace(r, cfg.eps)]),
        "forgetting": (None, True, lambda r: [_forgetting(cfg, r, out)]),
        "gronwall": ("gronwall", False, lambda r: gronwall_test_process(**cfg.gronwall_kwargs())),
    }
    skip = {"forgetting": len(cfg.filters) < 2, "gronwall": cfg.gronwall is None}
    names = [n for n in battery if not skip.get(n)] if command == "report" else SCENARIOS[scenario][1]
    for name, broken, message in _PRECONDITIONS:
        if name in names and broken(cfg):
            raise ConfigError(message)
    if command == "report":
        _write_bounds(cfg, out)
    result = _ensemble(cfg) if any(battery[n][1] for n in names) else None
    checks = [(csv_name, rows(result)) for n, (csv_name, _, rows) in battery.items() if n in names]
    return _emit(scenario, checks, out, command)


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
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {args.out} cannot be made a directory: {exc.strerror}") from exc
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
    except (EkbfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array; a bare MemoryError has none
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
