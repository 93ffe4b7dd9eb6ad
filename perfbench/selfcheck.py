"""Fast self-check of the benchmark itself, at small sizes (~2 minutes).

    python3 perfbench/selfcheck.py

Checks that

* every workload emits exactly the metrics ``BENCHMARK.json`` names, each
  with its unit (end-to-end ones untraced, per-layer ones traced), in a
  result line of the contract's shape;
* every correctness gate passes on the real program;
* a broken output is reported as a failure: a status sequence that
  differs between kernel backends, a serve frame that is neither
  processed nor dropped, and an exploration whose best configuration
  differs from the committed one;
* ``run.py`` fails without printing a result when the program is absent.

Exit status 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.datasets import icl_nuim  # noqa: E402

from perfbench import dse, live, serve, sweep  # noqa: E402
from perfbench.common import Result, render  # noqa: E402

TINY = {
    # Tracking needs the full 320x240 input at csr=8, so the SLAM
    # workloads shrink in frames, not pixels.
    "run_live": (live.run, {"frames": 3, "sequences": 1}),
    "sweep_320": (sweep.run, {"frames": 3}),
    "dse_fig2": (dse.run, {"size": dse.WARMUP}),
    "serve_open": (serve.run, {"clients": 2, "frames_per_client": 6}),
}


def _failures_found(check) -> list[str]:
    """Names of the gates ``check(result)`` reports as failed."""
    result = Result("selfcheck", 0, False)
    check(result)
    return [name for name, passed, _ in result.gates if not passed]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for name, (run, tiny) in TINY.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            # At 0 seconds every workload runs its fewest units.
            result = run(7, trace, 0.0, **tiny)
            print("\n".join(result.report_lines()), flush=True)
            if not result.correct:
                problems.append(f"{name} trace={int(trace)}: gate failed")
            summary = json.loads(json.dumps(result.summary()))
            if sorted(summary) != ["attempted", "correct", "failed",
                                   "metrics"] or summary["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: bad result "
                                f"line {summary}")
            named = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {metric: value["unit"] for metric, value
                       in summary["metrics"].items()}
            if emitted != named:
                problems.append(f"{name} trace={int(trace)}: emitted "
                                f"{emitted}, BENCHMARK.json {key} names "
                                f"{named}")

    # A status mismatch between backends must fail the sweep.
    frames = TINY["sweep_320"][1]["frames"]
    base = icl_nuim.load("lr_kt0", n_frames=frames, width=sweep.WIDTH,
                         height=sweep.HEIGHT, seed=0)
    sequence = render(base.scene, base.trajectory, sweep.WIDTH, sweep.HEIGHT,
                      7)
    runs = sweep._batch([sequence], False)[False]
    if _failures_found(lambda r: sweep._gates(r, runs)):
        problems.append("sweep gates fail on untampered runs")
    broken = copy.deepcopy(runs)
    broken[("csr4_ir1", "sparse")][0].statuses[-1] = "lost"
    if not _failures_found(lambda r: sweep._gates(r, broken)):
        problems.append("a fast/sparse status mismatch passed the gates")

    # A frame neither processed nor dropped must fail serve.
    tiny = TINY["serve_open"][1]
    base = icl_nuim.load("lr_kt0", n_frames=tiny["frames_per_client"],
                         width=serve.WIDTH, height=serve.HEIGHT, seed=0)
    sequences = [render(base.scene, base.trajectory, serve.WIDTH,
                        serve.HEIGHT, 7)]
    replay = serve._replay(
        sequences, serve._schedule(tiny["clients"],
                                   tiny["frames_per_client"], 7),
        serve._assign(tiny["clients"], len(sequences), 7), traced=False)
    if _failures_found(lambda r: serve._gates(r, replay, tiny["clients"],
                                              "replay")):
        problems.append("serve gates fail on an untampered replay")
    next(iter(replay.sessions.values())).frames_received += 1
    if not _failures_found(lambda r: serve._gates(r, replay, tiny["clients"],
                                                  "replay")):
        problems.append("an unaccounted serve frame passed the gates")

    # A best configuration other than the committed one must fail the DSE.
    figure, _ = dse._explore(dse.WARMUP, None)
    expected_hash, expected_speedup = dse.EXPECTED[dse.WARMUP]
    for expected, what in (((expected_hash[::-1], expected_speedup),
                            "a changed best configuration"),
                           ((expected_hash, expected_speedup * 1.01),
                            "a changed speed-up")):
        if not _failures_found(lambda r: dse._check(
                r, figure, dse.WARMUP, "exploration", expected)):
            problems.append(f"{what} passed the DSE gates")

    # Without the program next to it, run.py fails and prints no result.
    bare = ROOT / ".bench_selfcheck"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "run_live",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without the program: exit "
                            f"{proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"selfcheck FAIL: {problem}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
