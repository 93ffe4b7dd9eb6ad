"""Shared pieces of the benchmark: the metric sets, clock, statistics, the
result record and the wrappers that time the program's public calls from
outside."""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.harness import run_benchmark
from repro.datasets.base import InMemorySequence, Sequence
from repro.datasets.synthetic import SyntheticSequence
from repro.geometry import PinholeCamera
from repro.kfusion.pipeline import KinectFusion
from repro.telemetry import RunManifest, Tracer

#: End-to-end metrics (tracing off).  Every workload reports every one,
#: each for its own unit of work (a frame, or an exploration for
#: ``dse_fig2``); ``BENCHMARK.json`` names the same set.
END_TO_END = {
    "throughput_per_s": "1/s",  #: units of work completed per second
    "latency_ms_p50": "ms",  #: time one unit takes, median
    "latency_ms_p95": "ms",  #: and its 95th percentile
    "ate_max_mm": "mm",  #: the paper's accuracy objective, Max ATE
    "goodput_frac": "fraction",  #: units that gave a usable result
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Per-layer metrics (traced pass).  Busy shares are the time inside a
#: layer's public calls over the traced pass's wall time; a workload that
#: never calls a layer reports 0 for it.
PER_LAYER = {
    "source.busy_frac": "fraction",  #: Sequence.frame
    "source.frames": "count",
    "kfusion.busy_frac": "fraction",  #: KinectFusion.process_once
    "kfusion.preprocess_frac": "fraction",  #: stage spans
    "kfusion.track_frac": "fraction",
    "kfusion.integrate_frac": "fraction",
    "kfusion.raycast_frac": "fraction",
    "kfusion.frames": "count",
    "kfusion.gflop_per_frame": "GFLOP",  #: work count, last_workload()
    "ml.fit_frac": "fraction",  #: dse.fit_models spans
    "hypermapper.acquire_frac": "fraction",  #: dse.acquire spans
    "platforms.simulate_frac": "fraction",  #: simulate spans
    "hypermapper.evaluations": "count",
    "hypermapper.feasible_frac": "fraction",  #: useful per attempt
    "serve.step_frac": "fraction",  #: ServeEngine.step
    "serve.send_frac": "fraction",  #: Transport.send
    # Shares of the summed due-to-completion latency of served frames.
    "serve.generator_late_frac": "fraction",
    "serve.queue_wait_frac": "fraction",
    "serve.compute_frac": "fraction",
    "serve.backlog_max": "count",  #: pending_frames() after a step
    "serve.frames_offered": "count",
    "serve.frames_processed": "count",
    "serve.frames_dropped": "count",
    "serve.sessions_crashed": "count",
    "telemetry.overhead_frac": "fraction",  #: traced over untraced time
}

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Share of tracking attempts (frames neither bootstrap nor skipped) that
#: must come back ``ok``; below it a configuration is measuring the LOST
#: path, not tracking.
OK_FLOOR = 0.8
#: The four KinectFusion stages, as the pipeline names their spans.
STAGES = ("preprocess", "track", "integrate", "raycast")


def now() -> float:
    return time.perf_counter()


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(seconds: float, minimum: int, unit) -> list:
    """``unit(i)`` for i = 0, 1, ... while another unit, at the mean time
    of those so far, still ends within ``seconds``, and at least
    ``minimum`` times; their results in order.

    Every unit is the same fixed work, so a longer run measures more
    samples of the same thing, not a different workload.
    """
    out, start = [], now()
    while len(out) < minimum or (now() - start) * (len(out) + 1) / len(
            out) <= seconds:
        out.append(unit(len(out)))
    return out


@dataclass
class Result:
    """Everything one benchmark run reports."""

    workload: str
    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)  #: name -> (value, unit)
    details: dict = field(default_factory=dict)  #: printed, not in JSON
    samples: dict = field(default_factory=dict)  #: name -> sample count
    gates: list = field(default_factory=list)  #: (name, passed, detail)
    attempted: int = 0
    failed: int = 0
    provenance: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, samples: int | None = None,
               ) -> None:
        """Record one metric of ``END_TO_END`` or ``PER_LAYER``."""
        expected = PER_LAYER if self.trace else END_TO_END
        if name not in expected:
            raise KeyError(f"{name} is not a "
                           f"{'per-layer' if self.trace else 'end-to-end'} "
                           f"metric")
        self.metrics[name] = (float(value), expected[name])
        if samples is not None:
            self.samples[name] = int(samples)

    def layers(self, values: dict, samples: dict | None = None) -> None:
        """Every per-layer metric: ``values`` for the layers this workload
        calls, 0 for the ones it never calls."""
        for name in PER_LAYER:
            self.metric(name, values.get(name, 0.0),
                        (samples or {}).get(name))
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"not per-layer metrics: {sorted(unknown)}")

    def detail(self, name: str, value: float, unit: str,
               samples: int | None = None) -> None:
        """A number printed with the report but not in the result line."""
        self.details[name] = (float(value), unit, samples)

    def gate(self, name: str, passed: bool, detail: str = "") -> None:
        self.gates.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(passed for _, passed, _ in self.gates)

    def report_lines(self) -> list[str]:
        """Human-readable lines: metrics with units, gates, provenance."""
        lines = [f"# {self.workload} seed={self.seed} "
                 f"trace={int(self.trace)}"]
        rows = [(name, value, unit, self.samples.get(name))
                for name, (value, unit) in self.metrics.items()]
        rows += [(f"({name})", value, unit, n)
                 for name, (value, unit, n) in self.details.items()]
        for name, value, unit, n in rows:
            count = f"  (n={n})" if n is not None else ""
            lines.append(f"  {name:<44} {value:>14.6g} {unit}{count}")
        for name, passed, detail in self.gates:
            lines.append(f"  gate {'PASS' if passed else 'FAIL'} "
                         f"{name}: {detail}")
        provenance = dict(self.provenance, samples=self.samples)
        lines.append("provenance " + json.dumps(provenance, sort_keys=True,
                                                default=str))
        return lines

    def summary(self) -> dict:
        expected = PER_LAYER if self.trace else END_TO_END
        missing = set(expected) - set(self.metrics)
        if missing:
            raise KeyError(f"{self.workload}: metrics not measured: "
                           f"{sorted(missing)}")
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def provenance(workload: str, seed: int, configuration: dict,
               **extra) -> dict:
    """Seed, CPU count, git SHA and platform via the program's manifest."""
    manifest = RunManifest.capture(algorithm=workload, dataset="lr_kt0",
                                   configuration=configuration, seed=seed)
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "git_sha": manifest.git_sha,
        "platform": manifest.platform,
        "configuration": configuration,
        **extra,
    }


def synthetic(scene, trajectory, width: int, height: int,
              noise_seed: int) -> SyntheticSequence:
    """The ``lr_kt0`` path through ``scene``, rendered on demand."""
    camera = PinholeCamera.kinect_like(width=width, height=height)
    return SyntheticSequence("lr_kt0", scene, trajectory, camera,
                             seed=noise_seed)


def render(scene, trajectory, width: int, height: int,
           noise_seed: int) -> InMemorySequence:
    """The same sequence with every frame rendered now."""
    source = synthetic(scene, trajectory, width, height, noise_seed)
    return InMemorySequence("lr_kt0", source.sensors,
                            [source.frame(i) for i in range(len(source))])


class TimedSequence(Sequence):
    """A sequence whose ``frame(i)`` calls are timed.

    The first call per index renders (or loads) the frame; later calls
    hit the inner sequence's cache, so only the first one is source-layer
    work.  ``busy_s`` sums every call.
    """

    def __init__(self, inner: Sequence):
        self.inner = inner
        self.name = inner.name
        self.source_s: dict[int, float] = {}
        self.busy_s = 0.0

    @property
    def sensors(self):
        return self.inner.sensors

    @property
    def scene(self):
        return self.inner.scene

    def __len__(self) -> int:
        return len(self.inner)

    def frame(self, index: int):
        start = now()
        frame = self.inner.frame(index)
        took = now() - start
        self.source_s.setdefault(index, took)
        self.busy_s += took
        return frame


class TimedKinectFusion(KinectFusion):
    """KinectFusion with each ``process_once`` call timed from outside,
    and the work count of each frame kept."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.process_s: list[float] = []
        self.gflop: list[float] = []

    def process_once(self):
        start = now()
        status = super().process_once()
        self.process_s.append(now() - start)
        self.gflop.append(self.last_workload().total_flops / 1e9)
        return status


@dataclass
class SlamRun:
    """One ``run_benchmark`` call, seen from outside."""

    wall_s: float
    frame_indices: list
    statuses: list
    frame_s: list  #: the harness's per-frame wall time (process + publish)
    process_s: list
    workloads: list
    ate_max_m: float
    spans: list

    @property
    def gflop(self) -> list[float]:
        """Work count per frame (GFLOP), from ``last_workload()``."""
        return [w.total_flops / 1e9 for w in self.workloads]

    def stage_ms(self) -> dict[str, list[float]]:
        """Per-stage span durations (ms), only for invocations that ran.

        The pipeline opens every stage span on every frame; a frame that
        skips tracking or integration still leaves a near-empty span,
        which would drag the percentiles towards zero.
        """
        by_frame = {index: (status, workload) for index, status, workload
                    in zip(self.frame_indices, self.statuses,
                           self.workloads)}
        out: dict[str, list[float]] = {stage: [] for stage in STAGES}
        for span in self.spans:
            if span.name not in out:
                continue
            status, workload = by_frame[span.attrs["frame"]]
            if stage_ran(span.name, status, workload):
                out[span.name].append(span.duration_s * 1e3)
        return out


def stage_ran(stage: str, status: str, workload) -> bool:
    if stage == "track":
        return status in ("ok", "lost")
    if stage == "integrate":
        return any(k.name == "integrate" for k in workload.kernels)
    return True


def run_slam(sequence: Sequence, configuration: dict, traced: bool,
             kernel_backend: str | None = None) -> SlamRun:
    """Run a fresh KinectFusion over ``sequence`` through the harness."""
    system = TimedKinectFusion(kernel_backend=kernel_backend)
    tracer = Tracer() if traced else None
    start = now()
    result = run_benchmark(system, sequence,
                           configuration=dict(configuration), tracer=tracer)
    wall_s = now() - start
    records = result.collector.records
    return SlamRun(
        wall_s=wall_s,
        frame_indices=[r.index for r in records],
        statuses=[r.status.value for r in records],
        frame_s=[r.wall_time_s for r in records],
        process_s=list(system.process_s),
        workloads=[r.workload for r in records],
        ate_max_m=float(result.ate.max),
        spans=list(tracer.spans) if tracer is not None else [],
    )


def kfusion_layers(process_s, gflop, spans, wall_s: float) -> dict:
    """The kernel layer's per-layer metrics: ``process_once`` times, work
    counts per frame and stage spans of a traced pass ``wall_s`` long."""
    values = {"kfusion.busy_frac": sum(process_s) / wall_s,
              "kfusion.frames": len(process_s),
              "kfusion.gflop_per_frame": sum(gflop) / len(gflop)}
    for stage in STAGES:
        values[f"kfusion.{stage}_frac"] = sum(
            s.duration_s for s in spans if s.name == stage) / wall_s
    return values


def slam_layers(runs, wall_s: float) -> dict:
    """``kfusion_layers`` over traced ``SlamRun``s."""
    return kfusion_layers([s for r in runs for s in r.process_s],
                          [g for r in runs for g in r.gflop],
                          [s for r in runs for s in r.spans], wall_s)


def ok_fraction(statuses) -> float:
    """``ok`` share of the frames on which tracking was attempted."""
    attempts = [s for s in statuses if s not in ("bootstrap", "skipped")]
    if not attempts:
        return 0.0
    return sum(s == "ok" for s in attempts) / len(attempts)


def usable(status: str) -> bool:
    """Whether a frame's status is a result: every status but ``lost``."""
    return status != "lost"


def status_mix(statuses) -> dict:
    return dict(sorted(Counter(statuses).items()))


def overhead_frac(traced_s: float, untraced_s: float) -> float:
    """Traced time against untraced time for the same work."""
    return traced_s / untraced_s - 1.0
