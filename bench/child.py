"""One ekbf command-line call in a fresh interpreter, timed from the inside.

    python3 bench/child.py --t0 <monotonic> --result <file> [--spans <file>] -- <ekbf args>

setup_s runs from --t0, run.py's clock reading just before it started
this interpreter, to ekbf.harness.cli imported and the config loaded.
wall_s and cpu_s cover run_cli from entry to return; cpu_s is user plus
system time of every thread in the process.  peak_rss_mb is the process's
maximum resident set.  With --spans the layers are traced (tracer.py) and
the spans are written to that file after run_cli returns.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import ekbf.harness.cli as cli

    cli.load_config(argv[argv.index("--config") + 1])
    setup_s = time.monotonic() - args.t0

    recorder = None
    if args.spans is not None:
        import tracer

        recorder = tracer.install()

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    rc = cli.run_cli(argv)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        recorder.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(
            {"rc": rc, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
             "peak_rss_mb": peak_rss_mb},
            fh,
        )


if __name__ == "__main__":
    main()
