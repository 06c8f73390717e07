"""Coverage of the two mean intervals against exact Euler oracles.

    python tools/coverage.py [--reps 400] [--sizes 2000 20000] [--seed 23] [--json FILE]

Run it from the root of a checkout.  For each family of interval rows it
draws --reps independent sample tables per sample size, scores
stats.normal_mean_ci and stats.bootstrap_mean_ci on every row of each table
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

Both oracles are imported read-only from bench/workloads.py.

The switch rule: a family takes the closed form when, in every one of its
cells and on each side, the normal interval's miss rate is at most two
standard errors of the difference, sqrt(se_normal^2 + se_bootstrap^2),
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

from ekbf.harness.stats import bootstrap_mean_ci, normal_mean_ci  # noqa: E402

FAMILIES = ("moments", "gronwall")
ORDERS = (1, 2, 3, 4)
# replications simulated at once, so a batch holds at most this many samples
BATCH_SAMPLES = 400_000


def _workloads():
    """bench/workloads.py of this checkout, loaded without running anything."""
    spec = importlib.util.spec_from_file_location("coverage_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _rows(family: str, wl) -> tuple:
    """(labels, oracles) of a family's rows, in the order its tables stack them."""
    if family == "moments":
        return [f"Z^{2 * n}" for n in ORDERS], [float(math.prod(range(1, 2 * n, 2))) for n in ORDERS]
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
    misses = {m: np.zeros((2, len(labels)), dtype=int) for m in ("normal", "bootstrap")}
    tables = _tables(family, wl, reps, size, np.random.default_rng([seed, fi, size]))
    for r, table in enumerate(tables):
        boot = np.random.default_rng([seed, fi, size, r])
        for method, ests in (("normal", normal_mean_ci(table)), ("bootstrap", bootstrap_mean_ci(table, boot))):
            low = np.array([e.ci_low for e in ests])
            high = np.array([e.ci_high for e in ests])
            misses[method] += np.stack([oracles < low, oracles > high])
    cells = []
    for j, label in enumerate(labels):
        cell = {"family": family, "row": label, "size": size, "reps": reps, "oracle": float(oracles[j])}
        for method, count in misses.items():
            cell[method] = {side: _rate(int(count[i, j]), reps) for i, side in enumerate(("low", "high"))}
        cell["rule_holds"] = all(
            cell["normal"][side]["miss"] - cell["bootstrap"][side]["miss"]
            <= 2.0 * math.hypot(cell["normal"][side]["se"], cell["bootstrap"][side]["se"])
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
    print("| family | row | samples | normal low | bootstrap low | normal high | bootstrap high | rule |")
    print("|---|---|---|---|---|---|---|---|")
    cells = []
    for family in FAMILIES:
        for size in args.sizes:
            for cell in sweep(family, args.reps, size, args.seed, wl):
                cells.append(cell)
                rates = [f"{cell[m][side]['miss']:.4f} ± {cell[m][side]['se']:.4f}"
                         for side in ("low", "high") for m in ("normal", "bootstrap")]
                print(f"| {family} | {cell['row']} | {size} | " + " | ".join(rates)
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
