"""Coverage of the closed-form mean intervals and the bootstrap against exact oracles.

    python tools/coverage.py [--reps 400] [--sizes 2000 20000] [--seed 23] [--json FILE]

Run it from the root of a checkout.  For each family of interval rows it
draws --reps independent sample tables per sample size, scores the
family's closed form (stats.normal_mean_ci, or stats.log_mean_exp_ci for
the Laplace rows) and stats.bootstrap_mean_ci on every row of each table
against the row's exact value, and prints one line per (row, size): each
method's miss rate and its binomial standard error sqrt(p (1 - p) / reps) on
each side.  A low miss is an oracle below ci_low, the side a row's `pass`
(ci_low <= bound) reads: on a correct simulator it is a false FAIL.  A high
miss is an oracle above ci_high.

The families and their oracles:

- moments: the rows of estimators.estimate_moments are means of e^{2n} with
  e a Gaussian error; the OU Euler errors are exactly Gaussian and both
  intervals are scale-equivariant, so the samples are Z^{2n}, n = 1 to 4,
  from one draw of standard normals per table, with E Z^{2n} = (2n - 1)!!.
- gronwall: the rows of estimators.gronwall_test_process on the benchmark's
  Gronwall process (bench/workloads.py GRONWALL, dt 0.01, T 5), simulated
  here by the same Euler step.  The homogeneous rows are E Y_s^{n/2} at
  s = T/2 and T for n = 1 to 4, whose oracle is _euler_power_moment.  The
  sourced rows are E Y_T and E Y_T^2 (n = 2 and 4), whose oracle is
  _euler_sourced_moments.  That recursion leaves out the scheme's clip at
  0, which adds about 1e-6 to E Y_T here (measured on 4e5 paths), under a
  thousandth of the standard error of the mean of 2e4 paths.
- laplace: the rows of estimators.estimate_chi2_laplace and
  estimate_ekf_laplace on the benchmark's OU run (bench/workloads.py
  ou_config).  The chi-square row averages exp(Z^2 / 4), whose exact mean
  is sqrt(2).  The filter row averages exp(c e^2) over the filter errors e
  at T = 5, with c the run's estimators.filter_laplace_coefficient; the
  Euler error is exactly Gaussian with mean 0 and the variance v of the
  joint (x, xhat) covariance recursion of _euler_filter_mean_var, so the
  samples are c v Z^2 and the exact mean is (1 - 2 c v)^(-1/2).  A table
  holds the exponents, which the log-scale interval takes; the bootstrap
  resamples their exponentials, the samples the row averages.

The moment and Gronwall oracles are imported read-only from
bench/workloads.py.

The switch rule: a family takes the closed form when, in every one of its
cells and on each side, the closed form's miss rate is at most two
standard errors of the difference, sqrt(se_closed^2 + se_bootstrap^2),
above the bootstrap's.  Otherwise it keeps the bootstrap.  Every table is
drawn from a generator keyed by (--seed, family, size), and each bootstrap
from one keyed by its replication too, so reruns print the same numbers.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ekbf.bounds import problem_constants  # noqa: E402
from ekbf.harness.config import config_from_dict  # noqa: E402
from ekbf.harness.estimators import filter_laplace_coefficient  # noqa: E402
from ekbf.harness.stats import bootstrap_mean_ci, log_mean_exp_ci, normal_mean_ci  # noqa: E402

FAMILIES = ("moments", "gronwall", "laplace")
# each family's closed form, by name, and the map from its table to the
# samples the bootstrap resamples: a Laplace table holds exponents
CLOSED_FORMS = {
    "moments": ("normal", normal_mean_ci, np.asarray),
    "gronwall": ("normal", normal_mean_ci, np.asarray),
    "laplace": ("log-scale", log_mean_exp_ci, np.exp),
}
ORDERS = (1, 2, 3, 4)
# replications simulated at once, so a batch holds at most this many samples
BATCH_SAMPLES = 400_000


def _workloads():
    """bench/workloads.py of this checkout, loaded without running anything."""
    spec = importlib.util.spec_from_file_location("coverage_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _euler_filter_error_var(wl, steps: int) -> float:
    """Exact Var(x_k - xhat_k) of the benchmark's Euler OU signal and filter.

    The joint (x, xhat) covariance recursion of _euler_filter_mean_var in
    bench/workloads.py, read at the error x - xhat instead of at xhat.
    """
    dt, A, R1, B, R2 = wl.OU_DT, wl.OU_A, wl.OU_R1, wl.OU_B, wl.OU_R2
    S = np.zeros((2, 2))
    P = wl.OU_P0
    for _ in range(steps):
        gain = P * B / R2
        M = np.array([[1.0 + A * dt, 0.0], [gain * B * dt, 1.0 + A * dt - gain * B * dt]])
        S = M @ S @ M.T + np.diag([R1 * dt, gain * gain * R2 * dt])
        P = P + dt * (2.0 * A * P + R1 - P * P * B * B / R2)
    return float(S[0, 0] - 2.0 * S[0, 1] + S[1, 1])


def _filter_laplace_scale(wl) -> tuple:
    """(c, v): the benchmark's filter Laplace coefficient and its Euler error variance at T."""
    cfg = config_from_dict(wl.ou_config(1))
    c = filter_laplace_coefficient(problem_constants(cfg.model, cfg.obs, cfg.filters[0][1]), cfg.eps)
    return c, _euler_filter_error_var(wl, int(round(wl.OU_T / wl.OU_DT)))


def _rows(family: str, wl) -> tuple:
    """(labels, oracles) of a family's rows, in the order its tables stack them."""
    if family == "moments":
        return [f"Z^{2 * n}" for n in ORDERS], [float(math.prod(range(1, 2 * n, 2))) for n in ORDERS]
    if family == "laplace":
        c, v = _filter_laplace_scale(wl)
        return ["chi-square exp(Z^2/4)", "filter exp(c e^2)"], [math.sqrt(2.0), (1.0 - 2.0 * c * v) ** -0.5]
    steps = int(round(wl.OU_T / wl.OU_DT))
    labels, oracles = [], []
    for s in (steps // 2, steps):
        for n in ORDERS:
            labels.append(f"homogeneous n={n} t={s * wl.OU_DT:g}")
            oracles.append(wl._euler_power_moment(n / 2.0, s))
    labels += ["sourced n=2 t=5", "sourced n=4 t=5"]
    oracles += list(wl._euler_sourced_moments(steps))
    return labels, oracles


def _tables(family: str, wl, reps: int, size: int, rng: np.random.Generator):
    """Yield one (rows, size) sample table per replication."""
    if family == "moments":
        for _ in range(reps):
            z2 = rng.standard_normal(size) ** 2
            yield np.stack([z2**n for n in ORDERS])
        return
    if family == "laplace":
        cv = math.prod(_filter_laplace_scale(wl))
        for _ in range(reps):
            z2 = rng.standard_normal(size) ** 2
            yield np.stack([z2 / 4.0, cv * z2])
        return
    g, dt = wl.GRONWALL, wl.OU_DT
    steps = int(round(wl.OU_T / dt))
    batch = max(1, BATCH_SAMPLES // size)
    for lo in range(0, reps, batch):
        m = min(batch, reps - lo)
        hom = np.full((m, size), float(g["y0"]))
        src = np.zeros((m, size))
        half = None
        for k in range(1, steps + 1):
            for y, u, v in ((hom, 0.0, 0.0), (src, g["u"], g["v"])):
                bracket = np.sqrt(np.maximum(v * y + g["w"] * y * y, 0.0))
                y += (u - g["a"] * y) * dt + bracket * rng.standard_normal(y.shape) * math.sqrt(dt)
                np.maximum(y, 0.0, out=y)
            if k == steps // 2:
                half = hom.copy()
        for r in range(m):
            yield np.stack([y[r] ** (n / 2.0) for y in (half, hom) for n in ORDERS]
                           + [src[r], src[r] ** 2])


def _rate(misses: int, reps: int) -> dict:
    p = misses / reps
    return {"miss": p, "se": math.sqrt(p * (1.0 - p) / reps)}


def sweep(family: str, reps: int, size: int, seed: int, wl) -> list:
    """One cell per row of the family at this sample size."""
    labels, oracles = _rows(family, wl)
    oracles = np.asarray(oracles)
    fi = FAMILIES.index(family)
    closed, interval, samples = CLOSED_FORMS[family]
    misses = {m: np.zeros((2, len(labels)), dtype=int) for m in (closed, "bootstrap")}
    tables = _tables(family, wl, reps, size, np.random.default_rng([seed, fi, size]))
    for r, table in enumerate(tables):
        boot = np.random.default_rng([seed, fi, size, r])
        for method, ests in ((closed, interval(table)), ("bootstrap", bootstrap_mean_ci(samples(table), boot))):
            low = np.array([e.ci_low for e in ests])
            high = np.array([e.ci_high for e in ests])
            misses[method] += np.stack([oracles < low, oracles > high])
    cells = []
    for j, label in enumerate(labels):
        cell = {"family": family, "row": label, "size": size, "reps": reps, "oracle": float(oracles[j]),
                "closed_form": closed}
        for method, count in misses.items():
            cell[method] = {side: _rate(int(count[i, j]), reps) for i, side in enumerate(("low", "high"))}
        cell["rule_holds"] = all(
            cell[closed][side]["miss"] - cell["bootstrap"][side]["miss"]
            <= 2.0 * math.hypot(cell[closed][side]["se"], cell["bootstrap"][side]["se"])
            for side in ("low", "high"))
        cells.append(cell)
    return cells


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=400)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2000, 20000])
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--json", help="also write the cells and each family's outcome here")
    args = parser.parse_args(argv)
    wl = _workloads()
    print("| family | row | samples | closed form | closed low | bootstrap low | closed high | bootstrap high"
          " | rule |")
    print("|---|---|---|---|---|---|---|---|---|")
    cells = []
    for family in FAMILIES:
        for size in args.sizes:
            for cell in sweep(family, args.reps, size, args.seed, wl):
                cells.append(cell)
                closed = cell["closed_form"]
                rates = [f"{cell[m][side]['miss']:.4f} ± {cell[m][side]['se']:.4f}"
                         for side in ("low", "high") for m in (closed, "bootstrap")]
                print(f"| {family} | {cell['row']} | {size} | {closed} | " + " | ".join(rates)
                      + f" | {'holds' if cell['rule_holds'] else 'fails'} |", flush=True)
    outcome = {f: "closed form" if all(c["rule_holds"] for c in cells if c["family"] == f) else "bootstrap"
               for f in FAMILIES}
    for family, method in outcome.items():
        print(f"{family}: {method}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"reps": args.reps, "sizes": args.sizes, "seed": args.seed,
                       "cells": cells, "outcome": outcome}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
