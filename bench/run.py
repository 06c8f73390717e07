#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ekbf command line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it needs the sources under src/ and
nothing installed.  Each round starts a fresh interpreter (child.py) that
calls the CLI the way `ekbf <subcommand>` does, on a config generated from
--seed, with EKBF_THREADS=2 (at most the usable cores) and BLAS threads
pinned to 1.  Rounds repeat until --seconds have passed.  Every round's
outputs are checked (workloads.py) and its PASS/FAIL rows and checks are
counted as operations.

With --trace 0 the result carries the end-to-end metrics, medians over the
rounds.  With --trace 1 the rounds alternate untraced and traced calls;
the result carries the per-layer metrics (medians over traced rounds) and
trace.overhead_s, the traced minus the untraced median wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Work files go to .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
ROUND_TIMEOUT_S = 120

# The checks import numpy and, for one of them, the program itself; both
# run single-threaded like the rounds.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The program could not be run or left no outputs to check."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["EKBF_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached as for an installed package, but inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def _preflight(env: dict) -> None:
    """Fail fast without the program; also compiles and caches its bytecode."""
    if not (SRC / "ekbf" / "harness" / "cli.py").is_file():
        raise BenchError(f"no ekbf sources under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import ekbf.harness.cli"],
        env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import ekbf.harness.cli:\n{proc.stderr.strip()}")


def _call(workload, config: Path, out: Path, env: dict, spans: Path | None) -> dict:
    if out.exists():
        shutil.rmtree(out)
    result = out.parent / f"{out.name}.result.json"
    log = out.parent / f"{out.name}.log"
    argv = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    cli_args = list(workload.command) + ["--config", str(config), "--out", str(out)]
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.monotonic()
        proc = subprocess.run(
            argv + ["--t0", repr(t0), "--"] + cli_args,
            env=env, stdout=fh, stderr=subprocess.STDOUT, timeout=ROUND_TIMEOUT_S,
        )
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"ekbf {' '.join(workload.command)} ended with {proc.returncode}:\n{tail}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _counted(row: dict) -> bool:
    # The order-1 signal envelope equals the stationary moment exactly and
    # the Euler scheme sits 0.5% above it, so that row's verdict turns on
    # the seed; it is not counted as an operation.
    return not (row.get("paper_ref") == "moment-envelope-signal" and row.get("n") == 1)


def _score(workload, config: dict, out: Path, rc: int, cache: dict) -> tuple:
    """(attempted, failed, correct) for one call's outputs."""
    with open(out / workload.summary, encoding="utf-8") as fh:
        rows = [d for d in json.load(fh)["details"] if "pass" in d]
    counted = [d for d in rows if _counted(d)]
    failed = sum(1 for d in counted if not d["pass"])
    checks = workload.check(config, str(out), cache)
    correct = rc == (0 if all(d["pass"] for d in rows) else 1)
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        correct &= bool(ok)
    return len(counted) + len(checks), failed, correct


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(SRC))
    from tracer import LAYER_UNITS, aggregate
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    env = _child_env()
    _preflight(env)
    work = WORK / workload.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = workload.make_config(seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")

    cache: dict = {}
    plain: list = []
    traced: list = []
    attempted = failed = 0
    correct = True
    deadline = time.monotonic() + seconds
    while True:
        for spans in ([None, work / "spans.json"] if trace else [None]):
            out = work / ("traced" if spans else "out")
            stats = _call(workload, config_path, out, env, spans)
            a, f, ok = _score(workload, config, out, stats["rc"], cache)
            attempted, failed, correct = attempted + a, failed + f, correct and ok
            print(f"bench: {out.name} wall_s {stats['wall_s']:.3f} cpu_s {stats['cpu_s']:.3f} "
                  f"setup_s {stats['setup_s']:.3f} rc {stats['rc']}", file=sys.stderr)
            if spans is None:
                plain.append(stats)
            else:
                traced.append(dict(aggregate(str(spans)), wall_s=stats["wall_s"]))
        if time.monotonic() >= deadline:
            break

    if trace:
        metrics = {
            name: {"value": statistics.median(r[name] for r in traced), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    print(f"bench: {workload.name} seed {seed}: {len(plain) + len(traced)} calls", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError, IndexError, ValueError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
