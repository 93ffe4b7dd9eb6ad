"""``sweep_320``: a measured-DSE batch over pre-rendered 320x240 frames.

Each set-up renders one canonical ``lr_kt0`` sequence (the fixed camera
path with sensor noise seed 0, 1 or 2; see ``live`` for why the workload
seed does not draw the noise); the batch then runs every sequence
through six configurations, three operating points times the ``fast``
and ``sparse`` kernel backends, each on a fresh KinectFusion as
``MeasuredEvaluator`` does.  The kernels are ~100% of the timed work and
the three points move the cost between stages, so a change that helps
one point and hurts another shows.  The unit of work is a frame through
one configuration's pipeline; a run repeats the whole batch until its
time is up.
"""

from __future__ import annotations

from repro.datasets import icl_nuim

from .common import (
    OK_FLOOR,
    SETUP_REPEATS,
    STAGES,
    Result,
    median,
    now,
    ok_fraction,
    overhead_frac,
    pct,
    peak_rss_mb,
    provenance,
    render,
    repeat,
    run_slam,
    slam_layers,
    status_mix,
    usable,
)

VOLUME = {"volume_resolution": 128, "volume_size": 5.0}
POINTS = {
    "csr8_ir3": {"compute_size_ratio": 8, "integration_rate": 3},
    "csr4_ir1": {"compute_size_ratio": 4, "integration_rate": 1},
    "csr2_ir2": {"compute_size_ratio": 2, "integration_rate": 2},
}
BACKENDS = ("fast", "sparse")
#: The repository's documented fast-vs-sparse ATE tolerance (the golden
#: equivalence suite's bound); statuses must match exactly.
ATE_REL_TOL = 0.02


WIDTH, HEIGHT = 320, 240
FRAMES = 4  #: frames per rendered sequence


def _batch(sequences, trace: bool, flip: int = 1):
    """One batch: every sequence through every configuration, each on a
    fresh KinectFusion; ``{traced: {(point, backend): [SlamRun]}}``.

    With ``trace`` every configuration runs both ways, first one then
    the other going first, so both see the same machine and the same
    warm heap, and their ratio is the tracing overhead.
    """
    passes = (False, True) if trace else (False,)
    out = {traced: {(p, b): [] for p in POINTS for b in BACKENDS}
           for traced in passes}
    for sequence in sequences:
        for point in POINTS:
            for backend in BACKENDS:
                flip = -flip
                for traced in passes[::flip]:
                    out[traced][(point, backend)].append(run_slam(
                        sequence, {**VOLUME, **POINTS[point]}, traced,
                        kernel_backend=backend))
    return out


def _gates(result: Result, runs) -> None:
    for point in POINTS:
        fast, sparse = runs[(point, "fast")], runs[(point, "sparse")]
        for i, (f, s) in enumerate(zip(fast, sparse)):
            rel = (abs(f.ate_max_m - s.ate_max_m)
                   / max(f.ate_max_m, 1e-12))
            result.gate(f"{point}.pass{i}.backends_agree",
                        f.statuses == s.statuses and rel <= ATE_REL_TOL,
                        f"statuses equal: {f.statuses == s.statuses}, "
                        f"ATE rel diff {rel:.2e} <= {ATE_REL_TOL}")
        for backend in BACKENDS:
            worst = min(ok_fraction(r.statuses)
                        for r in runs[(point, backend)])
            result.gate(f"{backend}.{point}.ok_floor", worst >= OK_FLOOR,
                        f"worst ok {worst:.2f} >= {OK_FLOOR}")


def _merge(batches, traced: bool) -> dict:
    """``{(point, backend): [SlamRun]}`` over every batch."""
    return {key: [r for b in batches for r in b[traced][key]]
            for key in batches[0][traced]}


def run(seed: int, trace: bool, seconds: float,
        frames: int = FRAMES) -> Result:
    result = Result("sweep_320", seed, trace)
    base = icl_nuim.load("lr_kt0", n_frames=frames, width=WIDTH,
                         height=HEIGHT, seed=0)
    noise_seeds = list(range(SETUP_REPEATS))
    sequences, setup_times = [], []
    for noise_seed in noise_seeds:
        start = now()
        sequences.append(render(base.scene, base.trajectory, WIDTH, HEIGHT,
                                noise_seed))
        setup_times.append(now() - start)

    batches = repeat(seconds, 1, lambda i: _batch(sequences, trace,
                                                  1 if i % 2 else -1))
    runs = _merge(batches, False)
    _gates(result, runs)
    # Every batch repeats the first one's statuses and ATE exactly.
    outcome = [{k: [(r.statuses, r.ate_max_m) for r in rs]
                for k, rs in b[False].items()} for b in batches]
    result.gate("batches_agree", all(o == outcome[0] for o in outcome),
                f"{len(batches)} batches")
    all_runs = [r for rs in runs.values() for r in rs]
    statuses = [s for r in all_runs for s in r.statuses]
    frames = len(statuses)
    result.attempted = frames
    result.failed = statuses.count("lost")
    # Worst configuration by its median-over-sequences Max ATE.
    ate_mm = {f"{b}.{p}": median([r.ate_max_m for r in rs]) * 1e3
              for (p, b), rs in runs.items()}
    result.provenance = provenance(
        "sweep_320", seed, VOLUME, points=POINTS,
        backends=BACKENDS, width=WIDTH, height=HEIGHT,
        frames_per_sequence=len(base), noise_seeds=noise_seeds,
        batches=len(batches), status_mix=status_mix(statuses),
        ate_max_mm_by_config=ate_mm)

    if trace:
        _layers(result, runs, _merge(batches, True))
        return result

    # Pipeline seconds per configuration: its frames times its median
    # frame, so a transient stall of the machine does not count.
    pipeline_s = 0.0
    for rs in runs.values():
        process_s = [t for r in rs for t in r.process_s]
        pipeline_s += len(process_s) * median(process_s)
    frame_ms = [t * 1e3 for r in all_runs for t in r.process_s]
    result.metric("throughput_per_s", frames / pipeline_s, samples=frames)
    result.metric("latency_ms_p50", pct(frame_ms, 50), samples=frames)
    result.metric("latency_ms_p95", pct(frame_ms, 95), samples=frames)
    result.metric("ate_max_mm", max(ate_mm.values()),
                  samples=len(sequences))
    result.metric("goodput_frac", sum(map(usable, statuses)) / frames,
                  samples=frames)
    result.metric("peak_rss_mb", peak_rss_mb())
    result.metric("setup_s", median(setup_times), samples=len(setup_times))
    return result


def _layers(result: Result, runs, traced) -> None:
    result.gate("tracing_does_not_perturb",
                all([r.statuses for r in traced[k]]
                    == [r.statuses for r in runs[k]]
                    and [r.ate_max_m for r in traced[k]]
                    == [r.ate_max_m for r in runs[k]] for k in runs),
                "traced statuses and ATE equal the untraced ones")
    traced_runs = [r for rs in traced.values() for r in rs]
    wall_s = sum(r.wall_s for r in traced_runs)
    result.layers({
        **slam_layers(traced_runs, wall_s),
        "telemetry.overhead_frac": overhead_frac(
            wall_s, sum(r.wall_s for rs in runs.values() for r in rs)),
    })
    # Per configuration and stage, over the invocations that ran.
    for (point, backend), rs in traced.items():
        prefix = f"sweep.{backend}.{point}"
        stage_ms = {stage: [] for stage in STAGES}
        for r in rs:
            for stage, values in r.stage_ms().items():
                stage_ms[stage] += values
        for stage, values in stage_ms.items():
            if values:
                result.detail(f"{prefix}.{stage}_ms", pct(values, 50), "ms",
                              len(values))
        frame_ms = [s * 1e3 for r in rs for s in r.process_s]
        result.detail(f"{prefix}.frame_ms_p50", pct(frame_ms, 50), "ms",
                      len(frame_ms))
        gflop = [g for r in rs for g in r.gflop]
        result.detail(f"{prefix}.gflops_per_frame", sum(gflop) / len(gflop),
                      "GFLOP", len(gflop))
