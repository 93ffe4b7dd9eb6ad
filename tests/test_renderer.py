"""Tests for the sphere-tracing renderer against analytic ground truth."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import PinholeCamera, se3
from repro.scene import (
    RenderSettings,
    Sphere,
    Union,
    render_depth,
    render_rgb,
    render_vertex_normal,
)
from repro.scene.living_room import SceneDescription


@pytest.fixture(scope="module")
def sphere_scene():
    sdf = Union([Sphere(center=(0.0, 0.0, 2.0), radius=0.5,
                        albedo=(0.8, 0.2, 0.2))])
    return SceneDescription(sdf=sdf, name="sphere", extent=3.0,
                            center=(0, 0, 0))


@pytest.fixture(scope="module")
def small_camera():
    return PinholeCamera.kinect_like(64, 48)


class TestDepth:
    def test_center_depth_matches_analytic(self, sphere_scene, small_camera):
        pose = np.eye(4)  # camera at origin looking along +z
        depth = render_depth(sphere_scene, small_camera, pose)
        cy, cx = small_camera.height // 2, small_camera.width // 2
        # Nearest sphere point on the axis is at z = 2 - 0.5 = 1.5.
        assert depth[cy, cx] == pytest.approx(1.5, abs=0.01)

    def test_background_is_invalid(self, sphere_scene, small_camera):
        depth = render_depth(sphere_scene, small_camera, np.eye(4))
        assert depth[0, 0] == 0.0

    def test_range_limits_respected(self, sphere_scene, small_camera):
        settings = RenderSettings(min_range=1.6, max_range=6.0)
        depth = render_depth(sphere_scene, small_camera, np.eye(4), settings)
        # The sphere front (1.5 m) is closer than min_range -> dropped.
        cy, cx = small_camera.height // 2, small_camera.width // 2
        assert depth[cy, cx] == 0.0

    def test_invalid_pose_rejected(self, sphere_scene, small_camera):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(GeometryError):
            render_depth(sphere_scene, small_camera, bad)

    def test_translation_shifts_depth(self, sphere_scene, small_camera):
        pose = se3.make_pose(np.eye(3), [0, 0, 0.5])
        depth = render_depth(sphere_scene, small_camera, pose)
        cy, cx = small_camera.height // 2, small_camera.width // 2
        assert depth[cy, cx] == pytest.approx(1.0, abs=0.01)


class TestRGBAndMaps:
    def test_rgb_shape_and_range(self, sphere_scene, small_camera):
        rgb = render_rgb(sphere_scene, small_camera, np.eye(4))
        assert rgb.shape == (48, 64, 3)
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0

    def test_rgb_background_black(self, sphere_scene, small_camera):
        rgb = render_rgb(sphere_scene, small_camera, np.eye(4))
        assert np.all(rgb[0, 0] == 0.0)

    def test_rgb_sphere_red_dominant(self, sphere_scene, small_camera):
        rgb = render_rgb(sphere_scene, small_camera, np.eye(4))
        cy, cx = 24, 32
        assert rgb[cy, cx, 0] > rgb[cy, cx, 1]

    def test_vertex_normal_consistency(self, sphere_scene, small_camera):
        vmap, nmap = render_vertex_normal(sphere_scene, small_camera, np.eye(4))
        cy, cx = 24, 32
        v = vmap[cy, cx]
        n = nmap[cy, cx]
        # Vertex lies on the sphere; normal points from centre to vertex.
        center = np.array([0.0, 0.0, 2.0])
        assert np.linalg.norm(v - center) == pytest.approx(0.5, abs=0.02)
        expected_n = (v - center) / np.linalg.norm(v - center)
        assert np.allclose(n, expected_n, atol=0.05)


class TestRoomRendering:
    def test_living_room_mostly_valid(self, scene, camera):
        pose = se3.look_at((1.5, 1.2, 1.5), scene.center, up=(0, 1, 0))
        depth = render_depth(scene, camera, pose)
        assert (depth > 0).mean() > 0.8

    def test_depth_within_range(self, scene, camera):
        pose = se3.look_at((1.5, 1.2, 1.5), scene.center, up=(0, 1, 0))
        settings = RenderSettings()
        depth = render_depth(scene, camera, pose, settings)
        valid = depth[depth > 0]
        assert valid.min() >= settings.min_range
        assert valid.max() <= settings.max_range

    def test_rendered_points_lie_on_surface(self, scene, camera):
        pose = se3.look_at((1.5, 1.2, 1.5), scene.center, up=(0, 1, 0))
        depth = render_depth(scene, camera, pose)
        pts_cam = camera.backproject(depth).reshape(-1, 3)
        mask = depth.reshape(-1) > 0
        pts_world = se3.transform_points(pose, pts_cam[mask])
        d = np.abs(scene.distance(pts_world))
        assert np.median(d) < 0.01
        assert np.percentile(d, 90) < 0.05


class TestSequenceRGB:
    def test_one_depth_render_per_frame(self, monkeypatch):
        """``with_rgb`` shades the frame's clean depth, not a second trace."""
        import repro.datasets.synthetic as synthetic
        import repro.scene.renderer as renderer
        from repro.datasets import icl_nuim

        calls = []
        real = renderer.render_depth

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        seq = icl_nuim.load("lr_kt0", n_frames=3, width=32, height=24,
                            with_rgb=True)
        monkeypatch.setattr(synthetic, "render_depth", counting)
        monkeypatch.setattr(renderer, "render_depth", counting)
        frames = [seq.frame(i) for i in range(len(seq))]
        assert len(calls) == len(seq)
        monkeypatch.undo()

        camera = seq.sensors.depth.camera
        for i, frame in enumerate(frames):
            expected = render_rgb(seq.scene, camera, seq.trajectory[i])
            assert frame.rgb.tobytes() == expected.tobytes()
