"""S17/S22 — kernel backends on the frame pipeline, three operating points.

Runs the full KinectFusion pipeline under every registered kernel
backend (reference, fast, sparse, and jit when numba is installed) at
three operating points:

* **64x48** — the paper's low-power resolution (the mobile campaign
  sweeps it), full-frame compute, ``integration_rate=1``.
* **320x240** — the real-time headline: ``compute_size_ratio=8`` and
  ``integration_rate=3``, both knobs of the paper's design space, at
  which the sparse voxel-block backend clears the 30 fps budget on a
  single core.
* **320x240_csr4_ir1** — the denser middle point of the measured sweep
  (``compute_size_ratio=4``, every frame integrated), where the sparse
  backend must stay ahead of ``fast`` per reimplemented kernel too.

Per-backend numbers are written to ``BENCH_frame_pipeline.json`` at the
repo root so the speed-ups are tracked in-tree.  ``wall_s_per_frame``
is the *median* per-frame wall time (the mean is reported alongside):
the first frame pays one-off allocation and the CI box's scheduler
adds heavy-tailed noise, and the median is the honest summary of both.

The bench *asserts* the perf contract rather than just reporting it:
identical status sequences across backends at both operating points,
``fast <= reference`` at 64x48, and ``sparse <= fast <= reference``
plus ``sparse`` under the 33 ms real-time budget at 320x240, and
``sparse <= fast`` for integrate and raycast at 320x240_csr4_ir1 — a
perf regression fails the suite rather than silently shipping.

Correctness is asserted here too (identical status sequences), but the
authoritative equivalence suites are ``tests/test_perf.py`` and
``tests/test_sparse_volume.py``.
"""

import json
import os
import statistics
from pathlib import Path

from repro.core import format_table, run_benchmark
from repro.datasets import icl_nuim
from repro.kfusion import KinectFusion
from repro.perf import kernel_backend_names
from repro.telemetry import Tracer, aggregate_tracer, summary_rows

VOLUME_RESOLUTION = 128
SEED = 0

#: Real-time frame budget the 320x240 sparse backend must clear.
REALTIME_BUDGET_S = 1.0 / 30.0

#: The operating points; ``config`` keys are paper DSE dimensions.
SECTIONS = {
    "64x48": {
        "width": 64,
        "height": 48,
        "n_frames": 10,
        "config": {
            "volume_resolution": VOLUME_RESOLUTION,
            "volume_size": 5.0,
            "integration_rate": 1,
        },
    },
    "320x240": {
        "width": 320,
        "height": 240,
        "n_frames": 12,
        "config": {
            "volume_resolution": VOLUME_RESOLUTION,
            "volume_size": 5.0,
            "compute_size_ratio": 8,
            "integration_rate": 3,
        },
    },
    "320x240_csr4_ir1": {
        "width": 320,
        "height": 240,
        "n_frames": 12,
        "config": {
            "volume_resolution": VOLUME_RESOLUTION,
            "volume_size": 5.0,
            "compute_size_ratio": 4,
            "integration_rate": 1,
        },
    },
}

#: The four wall-time kernel stages the pipeline traces per frame.
KERNEL_STAGES = ("preprocess", "track", "integrate", "raycast")

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_frame_pipeline.json"


def _run_backend(backend: str, section: dict):
    sequence = icl_nuim.load("lr_kt0", n_frames=section["n_frames"],
                             width=section["width"],
                             height=section["height"], seed=SEED)
    sequence.materialize()
    tracer = Tracer(enabled=True)
    result = run_benchmark(
        KinectFusion(kernel_backend=backend),
        sequence,
        configuration=section["config"],
        tracer=tracer,
    )
    stats = aggregate_tracer(tracer)
    kernels = {
        name: {
            "p50_ms": round(stats[name].p50_s * 1e3, 3),
            "p95_ms": round(stats[name].p95_s * 1e3, 3),
            "total_s": round(stats[name].total_s, 4),
        }
        for name in KERNEL_STAGES if name in stats
    }
    frame_walls = [r.wall_time_s for r in result.collector.records]
    statuses = [r.status.value for r in result.collector.records]
    return {
        "kernels": kernels,
        "wall_s_per_frame": round(statistics.median(frame_walls), 4),
        "wall_s_per_frame_mean": round(statistics.fmean(frame_walls), 4),
        "statuses": statuses,
        "summary": summary_rows(stats),
    }


def _section_table(section_name: str, section: dict, runs: dict, show):
    reference = runs["reference"]
    rows = []
    for stage in KERNEL_STAGES:
        row = {"kernel": stage}
        for name, run in runs.items():
            row[f"{name}_p50_ms"] = run["kernels"][stage]["p50_ms"]
        row["speedup_vs_ref"] = round(
            reference["kernels"][stage]["p50_ms"]
            / max(min(run["kernels"][stage]["p50_ms"]
                      for name, run in runs.items()
                      if name != "reference"), 1e-9), 2)
        rows.append(row)
    total_row = {"kernel": "frame total"}
    for name, run in runs.items():
        total_row[f"{name}_p50_ms"] = round(run["wall_s_per_frame"] * 1e3, 1)
    total_row["speedup_vs_ref"] = round(
        reference["wall_s_per_frame"]
        / min(run["wall_s_per_frame"] for name, run in runs.items()
              if name != "reference"), 2)
    rows.append(total_row)
    show(format_table(
        rows,
        title=(f"frame pipeline {section_name} "
               f"vol={section['config']['volume_resolution']} "
               f"({os.cpu_count()} CPUs)"),
    ))


def test_frame_pipeline_backends(benchmark, show):
    def run_all():
        return {
            section_name: {
                backend: _run_backend(backend, section)
                for backend in kernel_backend_names()
            }
            for section_name, section in SECTIONS.items()
        }

    sections = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for section_name, runs in sections.items():
        reference = runs["reference"]
        # Correctness first: backends must agree on what happened.
        for name, run in runs.items():
            assert run["statuses"] == reference["statuses"], \
                (section_name, name)

    # The fast path must earn its default status at the paper's
    # low-power operating point.
    small = sections["64x48"]
    assert small["fast"]["wall_s_per_frame"] \
        <= small["reference"]["wall_s_per_frame"]

    # The real-time headline: sparse <= fast <= reference, end-to-end
    # and per kernel (cumulative wall, robust to integration_rate skip
    # frames), and sparse under the 30 fps budget.  Only the kernels
    # the sparse backend reimplements are ordered per kernel:
    # preprocess/track are the same code in fast and sparse, so an
    # ordering there would assert on scheduler noise.
    large = sections["320x240"]
    assert large["sparse"]["wall_s_per_frame"] \
        <= large["fast"]["wall_s_per_frame"]
    assert large["fast"]["wall_s_per_frame"] \
        <= large["reference"]["wall_s_per_frame"]
    for stage in ("integrate", "raycast"):
        chain = [large[name]["kernels"][stage]["total_s"]
                 for name in ("sparse", "fast", "reference")]
        assert chain == sorted(chain), (stage, chain)
    assert large["sparse"]["wall_s_per_frame"] < REALTIME_BUDGET_S, \
        large["sparse"]["wall_s_per_frame"]

    # The denser point: sparse ahead of fast on both kernels it
    # reimplements (cumulative wall, as above).
    dense = sections["320x240_csr4_ir1"]
    for stage in ("integrate", "raycast"):
        pair = [dense[name]["kernels"][stage]["total_s"]
                for name in ("sparse", "fast")]
        assert pair == sorted(pair), (stage, pair)

    for section_name, runs in sections.items():
        _section_table(section_name, SECTIONS[section_name], runs, show)

    payload = {
        "benchmark": "frame_pipeline",
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "realtime_budget_s": round(REALTIME_BUDGET_S, 4),
        "sections": {
            section_name: {
                "width": SECTIONS[section_name]["width"],
                "height": SECTIONS[section_name]["height"],
                "n_frames": SECTIONS[section_name]["n_frames"],
                "config": SECTIONS[section_name]["config"],
                "backends": {
                    name: {
                        "kernels": run["kernels"],
                        "wall_s_per_frame": run["wall_s_per_frame"],
                        "wall_s_per_frame_mean":
                            run["wall_s_per_frame_mean"],
                    }
                    for name, run in runs.items()
                },
                "speedup": round(
                    runs["reference"]["wall_s_per_frame"]
                    / min(run["wall_s_per_frame"]
                          for name, run in runs.items()
                          if name != "reference"), 3),
            }
            for section_name, runs in sections.items()
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    show(f"wrote {OUT_PATH.name}")
