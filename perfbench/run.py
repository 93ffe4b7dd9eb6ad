"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload run_live --seed 1 --seconds 15 \
        --trace 0

Run from the repository root (or any checkout of it): the program is
imported from ``src/`` next to this directory.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end ones (tracing off), with ``--trace 1`` the per-layer
ones from a separate traced pass.  Every workload reports the same
metric names (``common.END_TO_END`` and ``common.PER_LAYER``), each for
its own unit of work.  Lines before it list every metric with its unit
and sample count, extra detail in parentheses, each correctness gate,
and the run's provenance.  ``--workload all`` runs every workload in
turn, each in its own process so that its peak memory is its own.

Each workload repeats one fixed unit of work (fixed inputs) until
``--seconds`` have passed, at least a workload-set number of times, and
reports medians and percentiles over them; set-up is not counted.

Exit status: 0 when every correctness gate passed, 1 when one failed,
2 when the program could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("run_live", "sweep_320", "dse_fig2", "serve_open")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def workload_runners() -> dict:
    """Workload name -> ``run(seed, trace, seconds)``."""
    from perfbench import dse, live, serve, sweep

    return {"run_live": live.run, "sweep_320": sweep.run,
            "dse_fig2": dse.run, "serve_open": serve.run}


def main(argv=None) -> int:
    args = _parse(argv)
    # The git SHA in the provenance comes from `git rev-parse`; keep its
    # search for a repository inside this checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        runners = workload_runners()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = runners[args.workload](args.seed, bool(args.trace),
                                        args.seconds)
        result.provenance["seconds"] = args.seconds
        print("\n".join(result.report_lines()), flush=True)
        summary = result.summary()
    else:
        summary = run_all(args)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def run_all(args) -> dict:
    """Every workload in a process of its own; one combined summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited "
                             f"{proc.returncode} without a result")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{name}.{metric}": value
             for metric, value in result["metrics"].items()})
    return summary


if __name__ == "__main__":
    sys.exit(main())
