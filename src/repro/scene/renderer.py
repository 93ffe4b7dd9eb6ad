"""Sphere-tracing depth/RGB renderer for SDF scenes.

This plays the role of ICL-NUIM's POV-Ray raytracer: given a scene SDF, a
camera and a pose, it produces a noiseless ground-truth depth map (and a
simple Lambertian RGB image).

Rendering is vectorised over tiles of :data:`TILE_RAYS` rays.  Within a
tile the marcher keeps compacted arrays of the live rays (index, ``t`` and
the three direction components) and evaluates the scene SDF component-wise
(:meth:`SDFNode.distance_xyz`) on separate ``x``, ``y``, ``z`` arrays, so
each step is a handful of elementwise ufuncs over contiguous, cache-sized
arrays.  Every ray runs the same float64 operations in the same order as
a plain per-ray sphere tracer, so the output does not depend on the tile
size and is bit-identical to the original all-rays, masked renderer;
``tests/test_render_digests.py`` pins that contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from ..geometry import PinholeCamera, se3
from .living_room import SceneDescription

#: Rays marched together.  A tile's per-step temporaries (~64 KB each)
#: stay in cache; the tile size changes speed, never the result.
TILE_RAYS = 8192


@dataclass(frozen=True)
class RenderSettings:
    """Quality knobs for the sphere tracer.

    Attributes:
        max_steps: maximum sphere-tracing iterations per ray.
        hit_epsilon: distance below which a ray counts as a surface hit.
        max_range: rays are killed past this depth (metres) — mirrors the
            Kinect's maximum sensing range.
        min_range: hits closer than this are discarded (Kinect near limit).
    """

    max_steps: int = 96
    hit_epsilon: float = 2e-3
    max_range: float = 6.0
    min_range: float = 0.3


def render_depth(
    scene: SceneDescription,
    camera: PinholeCamera,
    pose: np.ndarray,
    settings: RenderSettings = RenderSettings(),
) -> np.ndarray:
    """Render a ground-truth depth map ``(H, W)`` in metres.

    ``pose`` is camera-to-world.  Pixels with no hit within range get 0,
    the "invalid depth" convention used across the library.
    """
    if not se3.is_pose(pose, tol=1e-4):
        raise GeometryError("render_depth: pose is not a valid rigid transform")
    dirs_cam = camera.pixel_rays().reshape(-1, 3)
    dirs_cam = dirs_cam / np.linalg.norm(dirs_cam, axis=-1, keepdims=True)
    dirs_x, dirs_y, dirs_z = np.ascontiguousarray((dirs_cam @ pose[:3, :3].T).T)

    # Hit distance along each ray; rays that never converge keep t = 0.
    t_hit = np.zeros(dirs_cam.shape[0])
    for start in range(0, t_hit.size, TILE_RAYS):
        tile = slice(start, start + TILE_RAYS)
        _march(scene.sdf, pose[:3, 3], dirs_x[tile], dirs_y[tile],
               dirs_z[tile], t_hit[tile], settings)

    # Depth is the z-component in the camera frame: t * dir_z.
    depth = t_hit * dirs_cam[:, 2]
    depth[(depth < settings.min_range) | (depth > settings.max_range)] = 0.0
    return depth.reshape(camera.shape)


def _march(sdf, origin, dx, dy, dz, t_hit, settings: RenderSettings) -> None:
    """Sphere-trace one tile of rays, writing hit distances into ``t_hit``.

    ``idx``, ``t`` and the direction components hold only the live rays
    and are compacted whenever a ray converges or leaves the range.
    """
    ox, oy, oz = origin
    eps = settings.hit_epsilon
    idx = np.arange(dx.size)
    t = np.full(dx.size, settings.min_range * 0.5)
    for _ in range(settings.max_steps):
        d = sdf.distance_xyz(ox + t * dx, oy + t * dy, oz + t * dz)
        converged = d < eps
        t_hit[idx[converged]] = t[converged]
        # Advance the survivors; conservative step of |d| keeps us from
        # tunnelling through thin structures when inside negative regions.
        t = t + np.maximum(np.abs(d), eps)
        live = ~(converged | (t > settings.max_range))
        if not live.all():
            idx, t, dx, dy, dz = idx[live], t[live], dx[live], dy[live], dz[live]
            if not idx.size:
                break


def shade_rgb(
    scene: SceneDescription,
    camera: PinholeCamera,
    pose: np.ndarray,
    depth: np.ndarray,
    light_dir=(0.4, 1.0, 0.3),
) -> np.ndarray:
    """Lambertian-shade a rendered depth map into RGB ``(H, W, 3)`` in [0, 1].

    Pixels with depth 0 stay black.  Callers that already hold the clean
    depth (``SyntheticSequence``) shade it directly instead of re-tracing.
    """
    rays = camera.pixel_rays()
    pts_cam = rays * depth[..., None]
    valid = depth > 0.0
    pts_world = se3.transform_points(pose, pts_cam.reshape(-1, 3))

    rgb = np.zeros((camera.height * camera.width, 3))
    vmask = valid.reshape(-1)
    if vmask.any():
        surf = pts_world[vmask]
        normals = scene.normal(surf)
        light = np.asarray(light_dir, dtype=float)
        light = light / np.linalg.norm(light)
        lambert = np.clip(normals @ light, 0.0, 1.0)
        shade = 0.25 + 0.75 * lambert
        rgb[vmask] = scene.albedo(surf) * shade[:, None]
    return np.clip(rgb.reshape(camera.height, camera.width, 3), 0.0, 1.0)


def render_rgb(
    scene: SceneDescription,
    camera: PinholeCamera,
    pose: np.ndarray,
    settings: RenderSettings = RenderSettings(),
    light_dir=(0.4, 1.0, 0.3),
) -> np.ndarray:
    """Render a Lambertian-shaded RGB image ``(H, W, 3)`` in [0, 1].

    The RGB stream is carried through the pipeline for API fidelity (the
    SLAMBench GUI displays it) but KinectFusion's tracking only uses depth.
    """
    depth = render_depth(scene, camera, pose, settings)
    return shade_rgb(scene, camera, pose, depth, light_dir)


def render_vertex_normal(
    scene: SceneDescription,
    camera: PinholeCamera,
    pose: np.ndarray,
    settings: RenderSettings = RenderSettings(),
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth world-frame vertex and normal maps for evaluation."""
    depth = render_depth(scene, camera, pose, settings)
    pts_cam = camera.pixel_rays() * depth[..., None]
    valid = depth > 0.0
    flat = pts_cam.reshape(-1, 3)
    world = se3.transform_points(pose, flat)
    normals = np.zeros_like(world)
    vmask = valid.reshape(-1)
    if vmask.any():
        normals[vmask] = scene.normal(world[vmask])
    world[~vmask] = 0.0
    shape = (camera.height, camera.width, 3)
    return world.reshape(shape), normals.reshape(shape)
