"""Compacted-ray TSDF raycasting with exact empty-space skipping.

The reference raycaster keeps full-size per-ray state alive for the
whole march and re-derives the active set with ``flatnonzero`` plus
full-array fancy indexing at *every* step — cost stays O(total rays)
per step even when a handful of rays are still marching.  Here the
working set is physically compacted when rays hit, so step cost tracks
the number of *live* rays, and points are kept as contiguous x/y/z
arrays.  Sampling and gradients go through the fused float32 trilinear
gathers of :mod:`repro.perf.trilinear`.

Most samples lie in free space, so the march gathers only where a zero
crossing can form.  The volume keeps a may-cross cell mask
(:attr:`TSDFVolume.crossing`, maintained incrementally by the fast
integrate kernel): cell ``c`` is set when some corner of trilinear cell
``c`` has ``~(tsdf > tau)``, ``tau`` a small positive normal float32
(:data:`repro.kfusion.volume.CROSSING_TAU`).  A sample is gathered only
when its own cell or its t-successor's cell is set; every other sample
is treated as invalid.  This is exact, not approximate:

* if all 8 corners exceed ``tau``, every float32 corner term is
  non-negative and the largest (weight >= ~1/8) is a positive normal
  number, so the sample is ``> 0`` (or NaN, for an infinite corner with
  a zero weight) and can never be the ``v <= 0`` half of a crossing;
* it can only be the ``v > 0`` half when its successor may cross, and
  then it is gathered;
* so crossing pairs, first hits, refinement, retirement and the
  t-sequence are those of the unskipped march.

A ``tsdf <= 0`` predicate would be wrong: a subnormal positive corner
can underflow to a sample of exactly 0.

The march itself (step size, zero-crossing detection, linear crossing
refinement, termination) is the reference algorithm, so both backends
see the same surface.

Output is the tracker's :class:`ReferenceModel` directly (volume-frame
maps); the reference pipeline raycasts in the camera frame and then
transforms the valid pixels back to the volume frame, which the fast
path skips entirely — the march already works in volume coordinates.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import contract
from ..geometry import PinholeCamera
from ..kfusion.tracking import ReferenceModel
from ..kfusion.volume import TSDFVolume
from .common import translation_f32, unit_rays_f32
from .trilinear import gradient_f32, sample_f32
from .workspace import FrameWorkspace


def _may_cross(volume: TSDFVolume, xyz: list[np.ndarray]) -> np.ndarray:
    """Whether the trilinear cell of each float32 point (given as its
    x/y/z component arrays) is set in the volume's may-cross mask: the
    cell :func:`sample_f32` would gather, by the same arithmetic."""
    r = volume.resolution
    inv_voxel = np.float32(1.0 / volume.voxel_size)
    flat = None
    for comp in xyz:
        b = comp * inv_voxel
        b -= np.float32(0.5)
        b = np.floor(b).astype(np.int64)
        np.minimum(np.maximum(b, 0, out=b), r - 2, out=b)
        if flat is None:
            flat = b
        else:
            flat *= r
            flat += b
    return volume.crossing.reshape(-1).take(flat)


@contract(pose_volume_from_camera="4,4:f64")
def raycast_model(
    volume: TSDFVolume,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    ws: FrameWorkspace,
    near: float = 0.1,
    far: float | None = None,
    sample_fn=sample_f32,
    gradient_fn=gradient_f32,
) -> ReferenceModel:
    """March all pixel rays; return the volume-frame surface prediction.

    ``sample_fn``/``gradient_fn`` let a backend swap the trilinear inner
    loops (the jit backend injects numba-compiled ones) while keeping
    this march — step size, empty-space skip, crossing detection,
    refinement, compaction — as the single implementation.
    """
    if far is None:
        far = float(np.sqrt(3.0)) * volume.size + near
    near = np.float32(near)
    far = np.float32(far)

    R = np.asarray(pose_volume_from_camera[:3, :3], dtype=np.float32)
    origin = translation_f32(pose_volume_from_camera)
    dirs_all = ws.buffer("rc_dirs", (camera.pixel_count, 3))
    np.matmul(unit_rays_f32(camera), R.T, out=dirs_all)

    n_rays = camera.pixel_count
    step = np.float32(max(0.75 * mu, volume.voxel_size))

    hit_t = ws.zeros("rc_hit_t", (n_rays,))
    hit = ws.zeros("rc_hit", (n_rays,), dtype=bool)

    # Every ray starts at ``near`` and advances by the same float32
    # ``t += step``, so the march position is one scalar shared by all
    # live rays.  The working set (ray ids, per-component directions,
    # the previous sample) is compacted when rays hit, so later steps
    # cost O(live rays); points are kept as contiguous x/y/z arrays.
    active_idx = np.arange(n_rays, dtype=np.int64)
    dirs = np.ascontiguousarray(dirs_all.T)  # effect-ok: per-frame rays
    t = near
    prev_val = ws.buffer("rc_prev_val", (n_rays,))
    prev_val.fill(1.0)
    prev_valid = ws.zeros("rc_prev_valid", (n_rays,), dtype=bool)

    # Empty-space skip: a sample is gathered only when its own cell or
    # its t-successor's cell is set in the volume's may-cross mask.  Any
    # other sample reads a positive value (or is invalid), so it can be
    # neither half of a crossing pair and is treated as invalid.
    pts = [origin[c] + t * dirs[c] for c in range(3)]
    may_cross = _may_cross(volume, pts)

    max_steps = int(np.ceil((far - near) / step)) + 1
    for _ in range(max_steps):
        if active_idx.size == 0:
            break
        t_next = t + step
        pts_next = [origin[c] + t_next * dirs[c] for c in range(3)]
        may_cross_next = _may_cross(volume, pts_next)
        sampled = np.flatnonzero(may_cross | may_cross_next)
        live = active_idx.size
        val = np.ones(live, dtype=np.float32)  # effect-ok: live-ray sized
        valid = np.zeros(live, dtype=bool)  # effect-ok: live-ray sized
        if sampled.size:
            points = np.stack([c[sampled] for c in pts],  # effect-ok: subset
                              axis=-1)
            val[sampled], valid[sampled] = sample_fn(volume, points)
            # Zero crossing: previous sample positive, current negative.
            crossing = sampled[prev_valid[sampled] & valid[sampled]
                               & (prev_val[sampled] > 0.0)
                               & (val[sampled] <= 0.0)]
            if crossing.size:
                c = active_idx[crossing]
                f0 = prev_val[crossing]
                f1 = val[crossing]
                denom = np.where(np.abs(f0 - f1) > 1e-12, f0 - f1,
                                 np.float32(1e-12))
                hit_t[c] = (t - step) + (f0 / denom) * step
                hit[c] = True
                # Compact: drop the rays that hit.
                keep = np.ones(live, dtype=bool)  # effect-ok: live-ray sized
                keep[crossing] = False
                active_idx = active_idx[keep]
                dirs = dirs[:, keep]
                pts_next = [comp[keep] for comp in pts_next]
                may_cross_next = may_cross_next[keep]
                val = val[keep]
                valid = valid[keep]
        # Stop where the next sample would lie past the far plane.
        if not t_next <= far:
            break
        t = t_next
        pts = pts_next
        may_cross = may_cross_next
        prev_val = val
        prev_valid = valid

    h, w = camera.shape
    v_map = ws.zeros("rc_vertices", (n_rays, 3))
    n_map = ws.zeros("rc_normals", (n_rays, 3))
    if hit.any():
        hit_idx = np.flatnonzero(hit)
        pts_vol = origin + hit_t[hit_idx, None] * dirs_all[hit_idx]
        grad = gradient_fn(volume, pts_vol)
        norm = np.linalg.norm(grad, axis=-1)
        good = norm > 1e-12
        keep = hit_idx[good]
        v_map[keep] = pts_vol[good]
        n_map[keep] = grad[good] / norm[good, None]

    return ReferenceModel(
        vertices=v_map.reshape(h, w, 3),
        normals=n_map.reshape(h, w, 3),
        camera=camera,
        pose_volume_from_camera=np.asarray(
            pose_volume_from_camera, dtype=float  # f64-ok: pose, 16 values
        ).copy(),
    )
