"""Diff every output of two ekbf checkouts, run for run.

    python tools/golden.py OLD NEW

OLD and NEW are the roots of two checkouts, say a parent commit and its
change.  Each checkout runs its own program on its own inputs:

- every subcommand (check, simulate, verify with its default scenario and
  with trace-bound, signal-vs-flow and chi2-laplace, forgetting, gronwall,
  report) on every demos/configs/*.json and on the seed-1 configs of the
  two benchmark workloads, ou_config(1) and fg_config(1) from
  bench/workloads.py;
- every demos/*.py script.

For each run it compares stdout, stderr, the exit code and every file
written under --out, and prints each difference; the exit code is 1 when
any run differs.  Both checkouts run from the same relative paths in a
temporary directory, and the checkout's own path is masked in stdout and
stderr, so the two sides can only differ by what their code does.  Nothing
is written into either checkout: bytecode is not cached and every output
goes to the temporary directory.  The two sides of a run go at once, one
process each.

numpy's SIMD transcendental functions may differ by an ulp across CPUs, so
only compare checkouts on one machine; no digest is stored.
"""

from __future__ import annotations

import difflib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("check",),
    ("simulate",),
    ("verify",),
    ("verify", "--scenario", "trace-bound"),
    ("verify", "--scenario", "signal-vs-flow"),
    ("verify", "--scenario", "chi2-laplace"),
    ("forgetting",),
    ("gronwall",),
    ("report",),
)
MAX_DIFF_LINES = 20


def _workload_configs(root: Path, side: str) -> dict:
    """ou_config(1) and fg_config(1) from the checkout's bench/workloads.py."""
    path = root / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(f"workloads_{side}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return {"ou_config-1.json": module.ou_config(1), "fg_config-1.json": module.fg_config(1)}


def _prepare(root: Path, work: Path) -> dict:
    """Write the checkout's configs under work/configs; return its runs, {label: (argv, out)}."""
    configs = work / "configs"
    configs.mkdir(parents=True)
    for cfg in sorted((root / "demos" / "configs").glob("*.json")):
        (configs / cfg.name).write_bytes(cfg.read_bytes())
    for name, cfg in _workload_configs(root, work.name).items():
        (configs / name).write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    runs = {}
    for cfg in sorted(configs.iterdir()):
        for command in COMMANDS:
            label = f"{cfg.name} {' '.join(command)}"
            out = Path("out") / cfg.stem / "_".join(command).replace("--scenario_", "")
            argv = ["-m", "ekbf.harness.cli", *command,
                    "--config", f"configs/{cfg.name}", "--out", str(out)]
            runs[label] = argv, out
    for demo in sorted((root / "demos").glob("*.py")):
        runs[f"demos/{demo.name}"] = [str(demo)], None
    return runs


def _start(root: Path, work: Path, argv: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, *argv], cwd=work, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(proc: subprocess.Popen, root: Path, work: Path, out: Path | None) -> dict:
    """The run's exit code, its output with the checkout's path masked, and its --out files."""
    stdout, stderr = proc.communicate()
    files = {}
    if out is not None and (work / out).is_dir():
        files = {p.relative_to(work / out).as_posix(): p.read_bytes()
                 for p in sorted((work / out).rglob("*")) if p.is_file()}
    return {"code": proc.returncode, "stdout": stdout.replace(str(root), "<checkout>"),
            "stderr": stderr.replace(str(root), "<checkout>"), "files": files}


def _text_diff(old: str, new: str) -> list:
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                      "old", "new", lineterm="", n=0))[2:]
    if len(lines) > MAX_DIFF_LINES:
        lines = lines[:MAX_DIFF_LINES] + [f"... {len(lines) - MAX_DIFF_LINES} more lines"]
    return lines


def _differences(old: dict, new: dict) -> list:
    """Each difference between two runs' results, as lines to print."""
    found = []
    if old["code"] != new["code"]:
        found.append(f"exit code {old['code']} -> {new['code']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            found += [f"{stream} differs:"] + ["    " + s for s in _text_diff(old[stream], new[stream])]
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            found.append(f"{name} only in {'old' if b is None else 'new'}")
        elif a != b:
            found += [f"{name} differs:"]
            found += ["    " + s for s in _text_diff(a.decode(errors="replace"), b.decode(errors="replace"))]
    return found


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/golden.py OLD NEW", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="ekbf-golden-") as tmp:
        works = [Path(tmp) / side for side in ("old", "new")]
        plans = [_prepare(root, work) for root, work in zip(roots, works)]
        labels = list(plans[0]) + [label for label in plans[1] if label not in plans[0]]
        sides = list(zip(roots, works, plans))
        differing = 0
        for label in labels:
            procs = [_start(root, work, plan[label][0]) if label in plan else None
                     for root, work, plan in sides]
            results = [None if proc is None else _finish(proc, root, work, plan[label][1])
                       for proc, (root, work, plan) in zip(procs, sides)]
            if None in results:
                found = [f"runs only in {'old' if results[1] is None else 'new'}"]
            else:
                found = _differences(*results)
            if found:
                differing += 1
                print(f"== {label}")
                print("\n".join("  " + line for line in found))
            sys.stdout.flush()
        print(f"{differing} of {len(labels)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
