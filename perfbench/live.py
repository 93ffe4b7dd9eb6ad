"""``run_live``: the ``repro run`` path, source to published pose.

Fresh ``lr_kt0`` sequences at 320x240 are rendered on demand inside the
timed loop and tracked by KinectFusion on the default kernel backend at
the real-time operating point.  Rendering is ~95% of the wall time here,
so this is the workload where the source layer shows and kernel work
barely does.  The unit of work is a frame, from request to published
pose.

The inputs are canonical: the fixed ``lr_kt0`` camera path with sensor
noise seeds 0, 1, 2, one per sequence, like the real dataset's one noisy
recording; a run tracks them in turn, again from a fresh render, until
its time is up.  Max ATE over a few frames at csr=8 moves by ~30% from
one noise draw to the next, more than any usable bound, so the workload
seed does not draw the noise; it is recorded with the result.
"""

from __future__ import annotations

from repro.datasets import icl_nuim
from repro.kfusion.pipeline import KinectFusion

from .common import (
    OK_FLOOR,
    SETUP_REPEATS,
    Result,
    TimedSequence,
    median,
    now,
    ok_fraction,
    overhead_frac,
    pct,
    peak_rss_mb,
    provenance,
    repeat,
    run_slam,
    slam_layers,
    status_mix,
    synthetic,
    usable,
)

#: The real-time point: SLAMBench's default volume at csr=8, ir=3.
CONFIGURATION = {
    "compute_size_ratio": 8,
    "integration_rate": 3,
    "volume_resolution": 128,
    "volume_size": 5.0,
}


WIDTH, HEIGHT = 320, 240
FRAMES = 5  #: frames per sequence
NOISE_SEEDS = (0, 1, 2)  #: one canonical sequence each, tracked in turn


def _setup(frames: int):
    """The scene and fixed camera path, then one warm-up frame.

    The warm-up renders and tracks one frame through the SLAM lifecycle,
    so first-call costs (lazy imports, first-touch allocation) stay out of
    the timed loop.
    """
    base = icl_nuim.load("lr_kt0", n_frames=frames, width=WIDTH,
                         height=HEIGHT, seed=0)
    system = KinectFusion()
    system.new_configuration().update(CONFIGURATION)
    system.init(base.sensors)
    system.update_frame(base.frame(0).without_ground_truth())
    system.process_once()
    system.update_outputs()
    system.clean()
    return base.scene, base.trajectory


def _track(inputs, noise_seed: int, traced: bool):
    """Render and track one fresh sequence; ``(SlamRun, TimedSequence)``."""
    scene, trajectory = inputs
    sequence = TimedSequence(synthetic(scene, trajectory, WIDTH, HEIGHT,
                                       noise_seed))
    return run_slam(sequence, CONFIGURATION, traced), sequence


def _measure(inputs, seconds: float, minimum: int, trace: bool):
    """Sequences in turn until time is up: ``(untraced, traced)`` lists.

    With ``trace`` every sequence runs both ways, first one then the
    other going first, so both see the same machine and the same warm
    heap, and their ratio is the tracing overhead.
    """
    def unit(i):
        seed = NOISE_SEEDS[i % len(NOISE_SEEDS)]
        if not trace:
            return _track(inputs, seed, False), None
        first, second = (False, True) if i % 2 == 0 else (True, False)
        runs = {first: _track(inputs, seed, first),
                second: _track(inputs, seed, second)}
        return runs[False], runs[True]

    pairs = repeat(seconds, minimum, unit)
    return [p[0] for p in pairs], [p[1] for p in pairs if p[1] is not None]


def run(seed: int, trace: bool, seconds: float, frames: int = FRAMES,
        sequences: int = len(NOISE_SEEDS)) -> Result:
    result = Result("run_live", seed, trace)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = now()
        inputs = _setup(frames)
        setup_times.append(now() - start)

    untraced, traced = _measure(inputs, seconds, sequences, trace)
    runs = [r for r, _ in untraced]
    statuses = [s for r in runs for s in r.statuses]
    result.attempted = len(statuses)
    result.failed = statuses.count("lost")
    for i, r in enumerate(runs):
        ok = ok_fraction(r.statuses)
        result.gate(f"sequence{i}.ok_floor", ok >= OK_FLOOR,
                    f"ok {ok:.2f} >= {OK_FLOOR}")
    result.gate("frames_processed", len(statuses) == len(runs) * frames,
                f"{len(statuses)} of {len(runs) * frames}")
    # A sequence tracked again from a fresh render gives the same result.
    first = {}
    for i, r in enumerate(runs):
        first.setdefault(i % len(NOISE_SEEDS), r)
    result.gate("repeats_agree",
                all(r.statuses == first[i % len(NOISE_SEEDS)].statuses
                    and r.ate_max_m == first[i % len(NOISE_SEEDS)].ate_max_m
                    for i, r in enumerate(runs)),
                f"{len(runs)} sequences over {len(first)} noise seeds")
    result.provenance = provenance(
        "run_live", seed, CONFIGURATION, width=WIDTH, height=HEIGHT,
        frames_per_sequence=frames, noise_seeds=NOISE_SEEDS,
        sequences=len(runs), status_mix=status_mix(statuses),
        ate_max_mm_per_noise_seed=[r.ate_max_m * 1e3
                                   for r in first.values()])

    if trace:
        _layers(result, untraced, traced)
        return result

    # Source to published pose, per frame: the render plus the harness's
    # frame (process and publish).
    source_to_pose_ms = [(seq.source_s[i] + s) * 1e3
                         for r, seq in untraced
                         for i, s in zip(r.frame_indices, r.frame_s)]
    n = len(source_to_pose_ms)
    result.metric("throughput_per_s", median(
        [len(r.statuses) / r.wall_s for r in runs]), samples=len(runs))
    result.metric("latency_ms_p50", pct(source_to_pose_ms, 50), samples=n)
    result.metric("latency_ms_p95", pct(source_to_pose_ms, 95), samples=n)
    result.metric("ate_max_mm",
                  median([r.ate_max_m for r in first.values()]) * 1e3,
                  samples=len(first))
    result.metric("goodput_frac",
                  sum(map(usable, statuses)) / len(statuses), samples=n)
    result.metric("peak_rss_mb", peak_rss_mb())
    result.metric("setup_s", median(setup_times), samples=len(setup_times))
    return result


def _layers(result: Result, untraced, traced) -> None:
    runs = [r for r, _ in traced]
    result.gate("tracing_does_not_perturb",
                [r.statuses for r in runs]
                == [r.statuses for r, _ in untraced]
                and [r.ate_max_m for r in runs]
                == [r.ate_max_m for r, _ in untraced],
                "traced statuses and ATE equal the untraced ones")
    wall_s = sum(r.wall_s for r in runs)
    render_ms = [s * 1e3 for _, seq in traced for s in seq.source_s.values()]
    result.layers({
        "source.busy_frac": sum(seq.busy_s for _, seq in traced) / wall_s,
        "source.frames": len(render_ms),
        **slam_layers(runs, wall_s),
        "telemetry.overhead_frac": overhead_frac(
            wall_s, sum(r.wall_s for r, _ in untraced)),
    })
    result.detail("scene.render_ms_p50", pct(render_ms, 50), "ms",
                  len(render_ms))
    frame_ms = [s * 1e3 for r in runs for s in r.process_s]
    result.detail("kfusion.frame_ms_p50", pct(frame_ms, 50), "ms",
                  len(frame_ms))
