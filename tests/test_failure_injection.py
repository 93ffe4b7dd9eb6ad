"""Failure injection: the pipeline must degrade gracefully, not crash.

SLAMBench's robustness requirement: whatever the sensor does (dropout
storms, harsh noise, empty frames), the framework reports tracking status
and keeps going.
"""

import numpy as np
import pytest

from repro.core import Frame, TrackingStatus, run_benchmark
from repro.datasets import InMemorySequence, icl_nuim
from repro.kfusion import KinectFusion
from repro.scene import KinectNoiseModel


class TestHarshNoise:
    def test_harsh_noise_does_not_crash(self):
        seq = icl_nuim.load("lr_kt0", n_frames=8, width=80, height=60,
                            noise=KinectNoiseModel.harsh(), seed=2)
        result = run_benchmark(
            KinectFusion(), seq,
            configuration={"volume_resolution": 64, "volume_size": 5.0,
                           "integration_rate": 1},
        )
        # Every frame processed, statuses recorded, ATE computable.
        assert len(result.collector.records) == 8
        assert result.ate is not None

    def test_harsh_noise_hurts_accuracy(self):
        clean = run_benchmark(
            KinectFusion(),
            icl_nuim.load("lr_kt0", n_frames=8, width=80, height=60,
                          noise=KinectNoiseModel.noiseless(), seed=2),
            configuration={"volume_resolution": 128, "volume_size": 5.0,
                           "integration_rate": 1},
        )
        noisy = run_benchmark(
            KinectFusion(),
            icl_nuim.load("lr_kt0", n_frames=8, width=80, height=60,
                          noise=KinectNoiseModel.harsh(), seed=2),
            configuration={"volume_resolution": 128, "volume_size": 5.0,
                           "integration_rate": 1},
        )
        assert noisy.ate.rmse >= clean.ate.rmse


class TestDegenerateFrames:
    def _sequence_with_blackout(self, tiny_sequence, blackout_at=3):
        """Copy of the tiny sequence with one all-invalid frame."""
        frames = []
        for f in tiny_sequence:
            if f.index == blackout_at:
                frames.append(
                    Frame(index=f.index, timestamp=f.timestamp,
                          depth=np.zeros_like(f.depth),
                          ground_truth_pose=f.ground_truth_pose)
                )
            else:
                frames.append(f)
        return InMemorySequence("blackout", tiny_sequence.sensors, frames)

    def test_blackout_frame_reports_lost_and_recovers(self, tiny_sequence):
        seq = self._sequence_with_blackout(tiny_sequence)
        result = run_benchmark(
            KinectFusion(), seq,
            configuration={"volume_resolution": 128, "volume_size": 5.0,
                           "integration_rate": 1},
        )
        statuses = [r.status for r in result.collector.records]
        assert statuses[3] is TrackingStatus.LOST
        # Recovery: later frames track again.
        assert TrackingStatus.OK in statuses[4:]

    def test_all_invalid_sequence_never_tracks_but_runs(self, tiny_sequence):
        frames = [
            Frame(index=i, timestamp=i / 30.0,
                  depth=np.zeros((60, 80)),
                  ground_truth_pose=np.eye(4))
            for i in range(4)
        ]
        seq = InMemorySequence("void", tiny_sequence.sensors, frames)
        result = run_benchmark(
            KinectFusion(), seq,
            configuration={"volume_resolution": 32, "volume_size": 5.0},
            evaluate_accuracy=False,
        )
        statuses = [r.status for r in result.collector.records]
        assert statuses[0] is TrackingStatus.BOOTSTRAP
        assert all(s is TrackingStatus.LOST for s in statuses[1:])


@pytest.fixture(scope="module")
def sequence_64x48():
    seq = icl_nuim.load("lr_kt0", n_frames=8, width=64, height=48, seed=0)
    seq.materialize()
    return seq


class TestLostThenRecover:
    """One all-NaN or negated depth frame costs exactly one LOST frame;
    tracking is back to OK on the next frame, on every always-on
    backend, and the raycasters' may-cross mask stays exact through it."""

    BAD_AT = 4

    @pytest.mark.parametrize("backend", ["reference", "fast", "sparse"])
    @pytest.mark.parametrize("corrupt", ["nan", "negated"])
    def test_one_lost_frame_then_ok(self, backend, corrupt, sequence_64x48,
                                    crossing_from_scratch):
        system = KinectFusion(kernel_backend=backend)
        system.new_configuration().update({
            "volume_resolution": 128, "volume_size": 5.0,
            "integration_rate": 1,
        })
        system.init(sequence_64x48.sensors)
        statuses = []
        for f in sequence_64x48:
            if f.index == self.BAD_AT:
                depth = (np.full_like(f.depth, np.nan) if corrupt == "nan"
                         else -f.depth)
                f = Frame(index=f.index, timestamp=f.timestamp, depth=depth)
            system.update_frame(f.without_ground_truth())
            statuses.append(system.process_once())
        assert statuses == ([TrackingStatus.BOOTSTRAP]
                            + [TrackingStatus.OK] * (self.BAD_AT - 1)
                            + [TrackingStatus.LOST]
                            + [TrackingStatus.OK] * (7 - self.BAD_AT))
        if backend != "reference":
            mask = (system.volume.crossing_blocks if backend == "sparse"
                    else system.volume.crossing)
            np.testing.assert_array_equal(
                mask, crossing_from_scratch(system.volume))
