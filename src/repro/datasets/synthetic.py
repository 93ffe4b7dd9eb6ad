"""Synthetic RGB-D sequence generation.

:class:`SyntheticSequence` renders frames on demand from a scene SDF, a
trajectory and a noise model — the Python stand-in for ICL-NUIM's raytraced
sequences (see DESIGN.md substitutions).  Rendering is deterministic given
the seed, and frames are memoised so the harness can iterate repeatedly
(e.g. once for the SLAM run, once for evaluation) without re-rendering.
"""

from __future__ import annotations

import numpy as np

from ..core.frame import Frame
from ..core.sensors import DepthSensor, GroundTruthSensor, RGBSensor, SensorSuite
from ..errors import DatasetError
from ..geometry import PinholeCamera
from ..scene.living_room import SceneDescription
from ..scene.noise import KinectNoiseModel
from ..scene.renderer import RenderSettings, render_depth, shade_rgb
from ..scene.trajectory import Trajectory
from .base import Sequence


class SyntheticSequence(Sequence):
    """Frames rendered lazily from ``(scene, trajectory, camera, noise)``.

    Args:
        name: sequence identifier (e.g. ``"lr_kt0"``).
        scene: the ground-truth scene SDF.
        trajectory: camera-to-world poses, one per frame.
        camera: depth/RGB intrinsics.
        noise: sensor noise model; defaults to mild Kinect noise.
        with_rgb: render the RGB stream too (slower; tracking ignores it).
        seed: RNG seed for the noise model.
        render_settings: sphere-tracer quality knobs.
    """

    def __init__(
        self,
        name: str,
        scene: SceneDescription,
        trajectory: Trajectory,
        camera: PinholeCamera,
        noise: KinectNoiseModel | None = None,
        with_rgb: bool = False,
        seed: int = 0,
        render_settings: RenderSettings | None = None,
    ):
        if len(trajectory) == 0:
            raise DatasetError("trajectory is empty")
        self.name = name
        self._scene = scene
        self._trajectory = trajectory
        self._camera = camera
        self._noise = noise if noise is not None else KinectNoiseModel.mild()
        self._with_rgb = with_rgb
        self._seed = seed
        self._settings = render_settings or RenderSettings()
        self._cache: dict[int, Frame] = {}
        self._sensors = SensorSuite(
            depth=DepthSensor(
                camera=camera,
                min_range=self._settings.min_range,
                max_range=self._settings.max_range,
            ),
            rgb=RGBSensor(camera=camera) if with_rgb else None,
            ground_truth=GroundTruthSensor(),
        )

    @property
    def seed(self) -> int:
        """Reproducibility seed (recorded in run manifests)."""
        return self._seed

    @property
    def sensors(self) -> SensorSuite:
        return self._sensors

    @property
    def scene(self) -> SceneDescription:
        return self._scene

    @property
    def trajectory(self) -> Trajectory:
        return self._trajectory

    def __len__(self) -> int:
        return len(self._trajectory)

    def frame(self, index: int) -> Frame:
        if not 0 <= index < len(self):
            raise DatasetError(
                f"{self.name}: frame index {index} out of range [0, {len(self)})"
            )
        cached = self._cache.get(index)
        if cached is not None:
            return cached

        pose = self._trajectory[index]
        clean = render_depth(self._scene, self._camera, pose, self._settings)
        # One independent, reproducible RNG stream per frame so rendering
        # order never changes the data.
        rng = np.random.default_rng((self._seed, index))
        depth = self._noise.apply(clean, rng)
        rgb = (
            shade_rgb(self._scene, self._camera, pose, clean)
            if self._with_rgb
            else None
        )
        frame = Frame(
            index=index,
            timestamp=float(self._trajectory.timestamps[index]),
            depth=depth,
            rgb=rgb,
            ground_truth_pose=pose,
        )
        self._cache[index] = frame
        return frame

    def clean_depth(self, index: int) -> np.ndarray:
        """Noiseless ground-truth depth for frame ``index`` (evaluation)."""
        pose = self._trajectory[index]
        return render_depth(self._scene, self._camera, pose, self._settings)

    def materialize(self) -> None:
        """Render every frame now (useful before timing-sensitive runs)."""
        for i in range(len(self)):
            self.frame(i)
