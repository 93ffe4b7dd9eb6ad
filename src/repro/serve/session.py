"""One client's SLAM session: bounded ingress, budgets, result log.

A :class:`Session` owns everything single-client: the SLAM system (whose
``do_init`` compiled the per-session graph ``PipelineInstance`` and
allocated the per-session ``FrameWorkspace`` arena), the *bounded*
ingress queue client frames wait in, the drop/latency accounting, and
the per-frame pose/status log the determinism tests compare against
serial runs.

Backpressure is the session's one job under overload: the ingress queue
holds at most ``policy.queue_capacity`` frames, and when a frame arrives
at a full queue the configured :data:`DROP_POLICIES` member decides
which frame dies — ``"oldest"`` (the default: latest-wins, a real-time
localisation client wants fresh frames, not a growing backlog) or
``"newest"`` (reject the arrival, first-committed wins).  Either way the
drop is *counted*, never silent.

The scheduler-facing budget is ``policy.frames_per_round``: the most
frames one session may process per scheduling round, so a client
flooding its queue cannot starve the other sessions of the shared
engine thread.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ServeError

#: Recognised full-queue drop policies.
DROP_POLICIES = ("oldest", "newest")


@dataclass(frozen=True)
class ServePolicy:
    """Per-session backpressure and scheduling budgets.

    Attributes:
        queue_capacity: bounded ingress queue length; arrivals beyond it
            trigger the drop policy.
        frames_per_round: scheduling budget — max frames processed per
            engine round for one session.
        drop_policy: ``"oldest"`` evicts the stalest queued frame to
            admit the arrival; ``"newest"`` rejects the arrival.
        max_latency_samples: ring size of retained per-frame latency
            samples (p50/p95 windows stay O(1) memory under load).
    """

    queue_capacity: int = 8
    frames_per_round: int = 4
    drop_policy: str = "oldest"
    max_latency_samples: int = 2048

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.frames_per_round < 1:
            raise ServeError(
                f"frames_per_round must be >= 1, got {self.frames_per_round}"
            )
        if self.drop_policy not in DROP_POLICIES:
            raise ServeError(
                f"unknown drop_policy {self.drop_policy!r}; "
                f"choices: {DROP_POLICIES}"
            )
        if self.max_latency_samples < 1:
            raise ServeError(
                f"max_latency_samples must be >= 1, "
                f"got {self.max_latency_samples}"
            )


class SessionState(enum.Enum):
    """Lifecycle of one serving session."""

    ACTIVE = "active"        #: accepting and processing frames
    DRAINING = "draining"    #: close received; queued frames still run
    CLOSED = "closed"        #: cleanly finished, system released
    CRASHED = "crashed"      #: algorithm raised; quarantined, error kept


@dataclass(frozen=True)
class FrameResult:
    """Per-processed-frame record (the serial-equivalence unit)."""

    frame_index: int
    status: str          #: TrackingStatus.value
    pose: bytes          #: 4x4 float64 pose, raw bytes (bit-comparable)
    latency_s: float     #: ingress-to-completion, engine clock
    duration_s: float    #: processing wall time


class Session:
    """State and accounting for one client's stream.

    Created by the engine on :class:`~repro.serve.transport.SessionOpen`
    with an initialised SLAM system; driven exclusively from the engine's
    scheduler thread (enqueue and process never race — the engine drains
    the transport and schedules rounds on one thread).
    """

    def __init__(self, client_id: str, system, policy: ServePolicy):
        self.client_id = client_id
        self.system = system
        self.policy = policy
        self.state = SessionState.ACTIVE
        self.error: str | None = None
        #: queued (frame, ingress_time_s) pairs, bounded by the policy.
        self._queue: deque = deque()
        self.frames_received = 0
        self.frames_processed = 0
        self.frames_dropped = 0
        #: frames taken for processing whose step raised (at most one:
        #: the first failure quarantines the session).
        self.frames_failed = 0
        self.results: list[FrameResult] = []
        self._latencies: deque = deque(maxlen=policy.max_latency_samples)

    # -- ingress ------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def accepting(self) -> bool:
        return self.state is SessionState.ACTIVE

    def enqueue(self, frame, now_s: float) -> bool:
        """Admit ``frame`` under the bounded-queue drop policy.

        Returns ``True`` if the frame was queued, ``False`` if it (or an
        older frame, under ``"oldest"``) was dropped.  Frames sent to a
        draining/closed/crashed session are dropped and counted too —
        the client is racing the close, and losing that race must not
        grow state.
        """
        self.frames_received += 1
        if self.state is not SessionState.ACTIVE:
            self.frames_dropped += 1
            return False
        if len(self._queue) >= self.policy.queue_capacity:
            self.frames_dropped += 1
            if self.policy.drop_policy == "newest":
                return False
            self._queue.popleft()  # "oldest": evict, then admit below
        self._queue.append((frame, now_s))
        return True

    def begin_drain(self) -> None:
        """Close received: stop admitting, keep processing the backlog."""
        if self.state is SessionState.ACTIVE:
            self.state = SessionState.DRAINING

    # -- processing --------------------------------------------------------
    def take(self):
        """Pop the next queued ``(frame, ingress_time_s)`` pair."""
        if not self._queue:
            raise ServeError(
                f"session {self.client_id!r}: take() on an empty queue"
            )
        return self._queue.popleft()

    def record_result(self, frame_index: int, status: str, pose,
                      latency_s: float, duration_s: float) -> None:
        self.frames_processed += 1
        self._latencies.append(latency_s)
        self.results.append(FrameResult(
            frame_index=frame_index,
            status=status,
            pose=np.asarray(pose, dtype=np.float64).tobytes(),
            latency_s=latency_s,
            duration_s=duration_s,
        ))

    def record_failure(self, error: str) -> None:
        """The frame just taken crashed the algorithm: count it as
        failed, then quarantine the session."""
        self.frames_failed += 1
        self.mark_crashed(error)

    def mark_crashed(self, error: str) -> None:
        """Quarantine: record the failure, drop the backlog (counted)."""
        self.state = SessionState.CRASHED
        self.error = error
        self.frames_dropped += len(self._queue)
        self._queue.clear()

    def mark_closed(self) -> None:
        self.state = SessionState.CLOSED

    # -- stats --------------------------------------------------------------
    @property
    def latency_samples(self) -> tuple:
        """Retained per-frame latency samples (seconds, oldest first)."""
        return tuple(self._latencies)

    def latency_percentiles(self) -> tuple[float, float]:
        """(p50, p95) seconds over the retained latency samples."""
        if not self._latencies:
            return (0.0, 0.0)
        arr = np.fromiter(self._latencies, dtype=np.float64)
        return (float(np.percentile(arr, 50)), float(np.percentile(arr, 95)))

    def stats(self) -> dict:
        """JSON-safe per-session health snapshot."""
        p50, p95 = self.latency_percentiles()
        last = self.results[-1] if self.results else None
        return {
            "state": self.state.value,
            "queue_depth": self.queue_depth,
            "frames_received": self.frames_received,
            "frames_processed": self.frames_processed,
            "frames_dropped": self.frames_dropped,
            "frames_failed": self.frames_failed,
            "latency_p50_s": p50,
            "latency_p95_s": p95,
            "last_status": last.status if last else None,
            "error": self.error,
        }

    def status_sequence(self) -> list[str]:
        return [r.status for r in self.results]

    def pose_sequence(self) -> list[bytes]:
        return [r.pose for r in self.results]


__all__ = [
    "DROP_POLICIES",
    "FrameResult",
    "ServePolicy",
    "Session",
    "SessionState",
]
