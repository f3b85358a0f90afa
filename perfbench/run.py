#!/usr/bin/env python3
"""Run one IDLOG benchmark workload, or all of them, and check the answers.

Usage::

    python3 perfbench/run.py --workload sample-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run of the same workload for the per-layer metrics and
the tracing overheads.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (each with
its value and unit).  The exit code is non-zero when any answer is wrong.

``--workload all`` runs every workload in its own process, prints each
end-to-end metric by name with its unit, and exits non-zero on any wrong
answer.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: A child run that sets up once and reports its set-up seconds.
SETUP_ONLY = "--setup-only"
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(SETUP_ONLY, action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set the workload up in a fresh process; its set-up seconds."""
    from common import clean_env
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), SETUP_ONLY],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env=clean_env())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_one(args) -> int:
    from common import END_TO_END, PER_LAYER, WORKLOADS, Outcome, out_path
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload == "serve-mixed":
        import serve as module
    else:
        import inproc as module
    if args.setup_only:
        print(json.dumps({"setup_s": module.setup_only(args.workload,
                                                       args.seed)}))
        return 0
    outcome = Outcome()
    if args.trace:
        spans = out_path(f"spans-{args.workload}-{args.seed}.jsonl")
        module.trace(args.workload, args.seed, args.seconds, outcome, spans)
        return outcome.emit(PER_LAYER)
    # ``setup_s`` is the median of ``module.SETUP_REPEATS`` set-ups, the
    # last one the measured run's own.  Each starts the program afresh:
    # the in-process workloads in a child process (the constant pool and
    # the resident-set peak are process-wide, so a second set-up in the
    # same process would start warm), serve-mixed with a new server.
    if module.SETUP_STARTS_SERVER:
        setups = [module.setup_only(args.workload, args.seed)
                  for _ in range(module.SETUP_REPEATS - 1)]
    else:
        setups = [child_setup_seconds(args.workload, args.seed)
                  for _ in range(module.SETUP_REPEATS - 1)]
    module.measure(args.workload, args.seed, args.seconds, setups, outcome)
    return outcome.emit(END_TO_END)


def run_all(args) -> int:
    """Every workload in its own process; a table of end-to-end metrics."""
    from common import END_TO_END, WORKLOADS, clean_env
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, env=clean_env())
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{workload}: failed (exit {proc.returncode})")
            worst = max(worst, proc.returncode)
            continue
        result = json.loads(lines[-1])
        verdict = "correct" if result["correct"] else "WRONG"
        print(f"{workload}: {verdict}, {result['attempted']} attempted, "
              f"{result['failed']} failed")
        for name, metric in result["metrics"].items():
            if args.trace or name in END_TO_END:
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}); run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
