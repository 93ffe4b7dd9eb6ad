"""``serve_open``: open-loop, heavy-tailed SLAM serving.

KinectFusion clients at 64x48 stream distinct consecutive frames (never
cycling their stream) on a schedule from the public ``build_schedule``:
Pareto client arrivals and log-normal per-client frame rates.  The
schedule is stretched so its mean offered rate is a fixed share of one
core's service capacity, and it is replayed against a synchronously
stepped ``ServeEngine`` whether or not the engine keeps up.  This is the
only workload with queueing (session queues, drop policy, round-robin
scheduler).  The trace is fixed and the three rendered streams the
clients share are canonical (sensor noise seeds 0, 1, 2; see ``live``
for why); the workload seed draws which client streams which sequence.

The unit of work is a frame.  Each frame's latency runs from its due
time to its completion.  The completion time is the start of the
``step`` that took the frame off the transport plus the engine's own
ingress-to-completion latency.  A run replays the trace until its time
is up, at least twice.  The traced replay opens its sessions on a
KinectFusion that times ``process_once`` from outside.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.registry import algorithm_names, register_algorithm
from repro.datasets import icl_nuim
from repro.metrics.ate import absolute_trajectory_error
from repro.scene.trajectory import Trajectory
from repro.serve import InProcessTransport, LoadSpec, ServeEngine
from repro.serve.loadgen import build_schedule
from repro.serve.transport import SessionClose, SessionFrame, SessionOpen
from repro.telemetry import Tracer

from .common import (
    OK_FLOOR,
    SETUP_REPEATS,
    Result,
    TimedKinectFusion,
    TimedSequence,
    kfusion_layers,
    median,
    now,
    ok_fraction,
    overhead_frac,
    pct,
    peak_rss_mb,
    provenance,
    render,
    repeat,
    status_mix,
)

CONFIGURATION = {"volume_resolution": 96, "volume_size": 5.0,
                 "integration_rate": 1}
#: Frames that complete within this limit (and track) count as goodput.
LATENCY_LIMIT_MS = 500.0
_OPEN, _FRAME = 0, 1  # LoadEvent kinds (anything else closes)
#: One fixed trace: its bursts, not the workload seed, set the queueing,
#: so runs compare on the same load.
SCHEDULE_SEED = 0
#: Fewest untraced replays of the trace per run; the metrics pool them.
REPLAYS = 2
#: The traced replay's algorithm: KinectFusion timed from outside.
TIMED_KFUSION = "perfbench.kfusion"
#: Pareto tail index of client arrivals and log-normal dispersion of
#: client frame rates: heavy-tailed, but milder than the load generator's
#: defaults (1.5, 0.75), whose bursts saturate the core on their own.
ARRIVAL_SHAPE = 2.5
FPS_SIGMA = 0.4


WIDTH, HEIGHT = 64, 48
CLIENTS = 6
FRAMES_PER_CLIENT = 8
#: Mean offered rate: ~40% of one core at ~100 ms of service per frame
#: (2-CPU x86 box, 2026).  Fixed, so a slower program queues more.  At
#: 50-70% the trace's bursts saturate the core, and the latency
#: percentiles of one trace moved 40-300% between identical runs.
OFFERED_FPS = 4.0


@dataclass
class SessionView:
    """A finished session's counts and per-frame results.

    Copied out of the engine so a replay does not keep the sessions' SLAM
    systems, and their memory, alive after the engine closes.
    """

    frames_received: int
    frames_processed: int
    frames_dropped: int
    results: list
    process_s: list  #: per ``process_once``, on the timed KinectFusion
    gflop: list  #: work count per frame, on the timed KinectFusion

    @classmethod
    def of(cls, session) -> "SessionView":
        system = session.system
        return cls(session.frames_received, session.frames_processed,
                   session.frames_dropped, list(session.results),
                   list(getattr(system, "process_s", [])),
                   list(getattr(system, "gflop", [])))


@dataclass
class Replay:
    """What one replay of the schedule observed from outside the engine."""

    stats: dict
    sessions: dict  #: client id -> SessionView
    streams: dict  #: client id -> the sequence it streams
    due: dict = field(default_factory=dict)  #: (client, frame) -> due s
    sent: dict = field(default_factory=dict)  #: (client, frame) -> sent s
    ingress: dict = field(default_factory=dict)  #: -> step start s
    step_ms: list = field(default_factory=list)  #: steps that ran frames
    busy_s: float = 0.0  #: total time inside ServeEngine.step
    send_s: float = 0.0  #: total time inside Transport.send
    source_s: float = 0.0  #: total time inside Sequence.frame
    wall_s: float = 0.0  #: first event to the engine going idle
    spans: list = field(default_factory=list)  #: traced replay only
    backlog_max: int = 0  #: most frames queued in the engine after a step

    def results(self):
        """``(key, FrameResult)`` for every processed frame."""
        for cid, session in self.sessions.items():
            for r in session.results:
                yield (cid, r.frame_index), r

    def latency_ms(self) -> dict:
        """Due-time-to-completion latency per processed frame."""
        return {key: (self.ingress[key] + r.latency_s - self.due[key]) * 1e3
                for key, r in self.results()}

    def ate_max_m(self) -> list[float]:
        """Max ATE of each session's poses against its stream's truth."""
        out = []
        for cid, session in self.sessions.items():
            frames = [self.streams[cid].inner.frame(r.frame_index)
                      for r in session.results]
            estimated = Trajectory(
                poses=np.stack([np.frombuffer(r.pose, dtype=np.float64)
                                .reshape(4, 4) for r in session.results]),
                timestamps=np.array([f.timestamp for f in frames]))
            reference = Trajectory(
                poses=np.stack([f.ground_truth_pose for f in frames]),
                timestamps=np.array([f.timestamp for f in frames]))
            out.append(absolute_trajectory_error(
                estimated.relative(0), reference.relative(0)).max)
        return out


def _schedule(clients: int, frames_per_client: int, seed: int):
    """Events with due times stretched to the fixed mean offered rate."""
    # Virtual units: arrivals over the first half of a unit timeline and
    # a median client lasting half of it; only the shape matters here.
    spec = LoadSpec(clients=clients, frames_per_client=frames_per_client,
                    mean_interarrival_s=0.5 / clients,
                    arrival_shape=ARRIVAL_SHAPE,
                    fps_median=2.0 * frames_per_client,
                    fps_sigma=FPS_SIGMA, seed=seed)
    plans, events = build_schedule(spec)
    last = max(e.time_s for e in events if e.kind == _FRAME)
    span_s = clients * frames_per_client / OFFERED_FPS
    return plans, events, span_s / last


def _timed_kfusion() -> str:
    """Register the timed KinectFusion with the program (once)."""
    if TIMED_KFUSION not in algorithm_names():
        register_algorithm(TIMED_KFUSION, TimedKinectFusion)
    return TIMED_KFUSION


def _assign(clients: int, streams: int, seed: int) -> list[int]:
    """Stream index per client: each stream equally often, in an order
    drawn from ``seed``."""
    return [int(i) for i in np.random.default_rng(seed).permutation(
        [i % streams for i in range(clients)])]


def _replay(sequences, schedule, assignment, traced: bool) -> Replay:
    plans, events, scale = schedule
    tracer = Tracer() if traced else None
    algorithm = _timed_kfusion() if traced else "kfusion"
    engine = ServeEngine(InProcessTransport(), tracer=tracer)
    transport = engine.transport
    sources = [TimedSequence(sequence) for sequence in sequences]
    stream = {p.client_id: sources[assignment[i]]
              for i, p in enumerate(plans)}
    replay = Replay(stats={}, sessions={}, streams=stream)
    pacer = threading.Event()  # never set: its wait() is the idle sleep
    waiting: list = []  # frames sent since the last step

    def send(message) -> None:
        start = now()
        transport.send(message)
        replay.send_s += now() - start

    i = 0
    t0 = now()
    try:
        while i < len(events) or transport.pending or engine.pending_frames():
            elapsed = now() - t0
            while i < len(events) and events[i].time_s * scale <= elapsed:
                event = events[i]
                i += 1
                cid = event.client.client_id
                if event.kind == _OPEN:
                    send(SessionOpen(
                        client_id=cid, sensors=stream[cid].sensors,
                        algorithm=algorithm,
                        configuration=dict(CONFIGURATION)))
                elif event.kind == _FRAME:
                    key = (cid, event.frame_number)
                    frame = stream[cid].frame(event.frame_number)
                    send(SessionFrame(client_id=cid,
                                      frame=frame.without_ground_truth()))
                    replay.sent[key] = now() - t0
                    replay.due[key] = event.time_s * scale
                    waiting.append(key)
                else:
                    send(SessionClose(cid))
            if transport.pending or engine.pending_frames():
                start = now()
                for key in waiting:
                    replay.ingress[key] = start - t0
                waiting.clear()
                processed = engine.step()
                took = now() - start
                replay.busy_s += took
                if processed:
                    replay.step_ms.append(took * 1e3)
                replay.backlog_max = max(replay.backlog_max,
                                         engine.pending_frames())
            elif i < len(events):
                pacer.wait(max(0.0, events[i].time_s * scale
                               - (now() - t0)))
        replay.wall_s = now() - t0
        replay.source_s = sum(source.busy_s for source in sources)
        replay.stats = engine.stats()
        replay.sessions = {cid: SessionView.of(session)
                           for cid, session in engine.sessions.items()}
        replay.spans = list(tracer.spans) if tracer is not None else []
    finally:
        engine.close()
    return replay


def _gates(result: Result, replay: Replay, clients: int, label: str) -> None:
    stats = replay.stats
    result.gate(f"{label}.no_crashed_sessions",
                stats["sessions"]["crashed"] == 0,
                f"{stats['sessions']['crashed']} crashed")
    result.gate(f"{label}.sessions_closed",
                stats["sessions"]["by_state"] == {"closed": clients},
                f"by state {stats['sessions']['by_state']}")
    unaccounted = [cid for cid, s in replay.sessions.items()
                   if s.frames_received
                   != s.frames_processed + s.frames_dropped]
    result.gate(f"{label}.frames_accounted",
                not unaccounted
                and stats["frames"]["received"] == len(replay.sent),
                f"received {stats['frames']['received']} of "
                f"{len(replay.sent)} offered; unaccounted sessions "
                f"{unaccounted}")
    worst = min((ok_fraction([r.status for r in s.results])
                 for s in replay.sessions.values()), default=0.0)
    result.gate(f"{label}.ok_floor", worst >= OK_FLOOR,
                f"worst session ok {worst:.2f} >= {OK_FLOOR}")
    result.gate(f"{label}.no_protocol_errors",
                stats["protocol_errors"] == 0,
                f"{stats['protocol_errors']} protocol errors")


def run(seed: int, trace: bool, seconds: float, clients: int = CLIENTS,
        frames_per_client: int = FRAMES_PER_CLIENT) -> Result:
    result = Result("serve_open", seed, trace)
    base = icl_nuim.load("lr_kt0", n_frames=frames_per_client, width=WIDTH,
                         height=HEIGHT, seed=0)
    noise_seeds = list(range(SETUP_REPEATS))
    sequences, setup_times = [], []
    for noise_seed in noise_seeds:
        start = now()
        sequences.append(render(base.scene, base.trajectory, WIDTH, HEIGHT,
                                noise_seed))
        setup_times.append(now() - start)

    schedule = _schedule(clients, frames_per_client, SCHEDULE_SEED)
    assignment = _assign(clients, len(sequences), seed)
    if trace:
        replays = [_replay(sequences, schedule, assignment, traced=False)]
    else:
        replays = repeat(seconds, REPLAYS, lambda i: _replay(
            sequences, schedule, assignment, traced=False))
    for i, replay in enumerate(replays):
        _gates(result, replay, clients, f"replay{i}")

    offered = sum(len(r.sent) for r in replays)
    latency, good = [], 0
    for r in replays:
        latency_ms = r.latency_ms()
        for key, res in r.results():
            latency.append(latency_ms[key])
            good += (res.status in ("ok", "bootstrap")
                     and latency_ms[key] <= LATENCY_LIMIT_MS)
    statuses = [res.status for r in replays for _, res in r.results()]
    result.attempted = offered
    result.failed = (offered - len(statuses)) + statuses.count("lost")
    result.provenance = provenance(
        "serve_open", seed, CONFIGURATION, width=WIDTH, height=HEIGHT,
        clients=clients, frames_per_client=frames_per_client,
        offered_fps=OFFERED_FPS, schedule_seed=SCHEDULE_SEED,
        replays=len(replays), noise_seeds=noise_seeds,
        stream_per_client=assignment,
        latency_limit_ms=LATENCY_LIMIT_MS, status_mix=status_mix(statuses),
        frames=[r.stats["frames"] for r in replays])

    if trace:
        _layers(result, replays[0],
                _replay(sequences, schedule, assignment, traced=True),
                clients)
        return result

    ate_m = [a for r in replays for a in r.ate_max_m()]
    # Service capacity: frames processed per second the engine was busy.
    result.metric("throughput_per_s", len(statuses) / sum(
        r.busy_s for r in replays), samples=len(statuses))
    result.metric("latency_ms_p50", pct(latency, 50), samples=len(latency))
    result.metric("latency_ms_p95", pct(latency, 95), samples=len(latency))
    result.metric("ate_max_mm", median(ate_m) * 1e3, samples=len(ate_m))
    # Offered frames completed usable within the latency limit; dropped,
    # crashed and unaccounted frames count as misses.
    result.metric("goodput_frac", good / offered, samples=offered)
    result.metric("peak_rss_mb", peak_rss_mb())
    result.metric("setup_s", median(setup_times), samples=len(setup_times))
    return result


def _layers(result: Result, untraced: Replay, traced: Replay,
            clients: int) -> None:
    _gates(result, traced, clients, "traced")
    result.gate("tracing_does_not_perturb",
                [(k, r.status) for k, r in traced.results()]
                == [(k, r.status) for k, r in untraced.results()],
                "traced statuses equal the untraced ones")
    results = [r for _, r in traced.results()]
    latency_ms = traced.latency_ms()
    late_s = sum(traced.sent[k] - traced.due[k] for k in latency_ms)
    latency_s = sum(latency_ms.values()) / 1e3
    frames = traced.stats["frames"]
    wall_s = traced.wall_s
    sessions = traced.sessions.values()
    result.layers({
        "source.busy_frac": traced.source_s / wall_s,
        "source.frames": len(traced.sent),
        **kfusion_layers([t for s in sessions for t in s.process_s],
                         [g for s in sessions for g in s.gflop],
                         traced.spans, wall_s),
        "serve.step_frac": traced.busy_s / wall_s,
        "serve.send_frac": traced.send_s / wall_s,
        "serve.generator_late_frac": late_s / latency_s,
        "serve.queue_wait_frac": sum(r.latency_s - r.duration_s
                                     for r in results) / latency_s,
        "serve.compute_frac": sum(r.duration_s for r in results) / latency_s,
        "serve.backlog_max": traced.backlog_max,
        "serve.frames_offered": len(traced.sent),
        "serve.frames_processed": frames["processed"],
        "serve.frames_dropped": frames["dropped"],
        "serve.sessions_crashed": traced.stats["sessions"]["crashed"],
        "telemetry.overhead_frac": overhead_frac(traced.busy_s,
                                                 untraced.busy_s),
    })
    for name, values in (
            ("serve.queue_wait_ms", [(r.latency_s - r.duration_s) * 1e3
                                     for r in results]),
            ("serve.compute_ms", [r.duration_s * 1e3 for r in results]),
            ("serve.generator_late_ms", [(traced.sent[k] - traced.due[k])
                                         * 1e3 for k in traced.sent])):
        result.detail(f"{name}_p50", pct(values, 50), "ms", len(values))
        result.detail(f"{name}_p95", pct(values, 95), "ms", len(values))
    result.detail("serve.step_ms_p50", pct(traced.step_ms, 50), "ms",
                  len(traced.step_ms))
