"""Exactness of the raycasters' empty-space skip (DESIGN.md S17/S22).

The oracle below is the fast dense march as it was before the may-cross
cell mask existed, copied verbatim with its float32 trilinear sampler
and gradient: it samples every step of every ray.  On random small
volumes, both the dense ``fast`` march and the sparse march must return
exactly its vertex and normal bytes.  The volumes mix smooth surfaces
and noise with the values the skip predicate ``~(tsdf > tau)`` has to
get right: tsdf exactly at ``tau`` and one ulp either side, 0.0, -0.0,
subnormals, NaN, infinities, and weight-0 corners.  For the sparse
march the oracle runs on the densified volume, where unallocated blocks
read the empty state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import PinholeCamera, se3
from repro.kfusion.params import KFusionParams
from repro.kfusion.sparse import BLOCK, SparseTSDFVolume
from repro.kfusion.volume import CROSSING_TAU, TSDFVolume
from repro.perf import raycast as fast_raycast
from repro.perf import sparse_raycast
from repro.perf.common import translation_f32, unit_rays_f32
from repro.perf.workspace import FrameWorkspace

# NaN and infinite corners make NaN samples and gradients, in the
# oracle as in the code under test.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

CAM = PinholeCamera.kinect_like(width=12, height=9)
MU = 0.1
TAU = CROSSING_TAU
SPECIALS = np.array([
    TAU, np.nextafter(TAU, np.float32(0)), np.nextafter(TAU, np.float32(1)),
    0.0, -0.0, 1e-45, 1e-40, -1e-40, np.nan, np.inf, -np.inf,
], dtype=np.float32)

# -- oracle: the march before empty-space skipping, verbatim -----------------
_CORNERS = [(c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)]


def sample_f32(
    volume: TSDFVolume,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    r = volume.resolution
    inv_voxel = np.float32(1.0 / volume.voxel_size)
    p = points * inv_voxel
    p -= np.float32(0.5)

    base = np.floor(p)
    frac = p - base
    base = base.astype(np.int32)

    inside = ((base >= 0) & (base <= r - 2)).all(axis=-1)
    np.clip(base, 0, r - 2, out=base)

    flat000 = (base[:, 0].astype(np.int64) * r + base[:, 1]) * r + base[:, 2]
    tsdf_flat = volume.tsdf.reshape(-1)
    weight_flat = volume.weight.reshape(-1)

    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    wx = (np.float32(1.0) - fx, fx)
    wy = (np.float32(1.0) - fy, fy)
    wz = (np.float32(1.0) - fz, fz)

    values = np.zeros(len(p), dtype=np.float32)
    observed = np.ones(len(p), dtype=bool)
    for ox, oy, oz in _CORNERS:
        idx = flat000 + ((ox * r + oy) * r + oz)
        values += (wx[ox] * wy[oy] * wz[oz]) * tsdf_flat[idx]
        observed &= weight_flat[idx] > 0.0

    valid = inside & observed
    values[~valid] = np.float32(1.0)
    return values, valid


def gradient_f32(volume: TSDFVolume, points: np.ndarray) -> np.ndarray:
    eps = np.float32(volume.voxel_size)
    n = len(points)
    queries = np.empty((6, n, 3), dtype=np.float32)
    for axis in range(3):
        queries[2 * axis] = points
        queries[2 * axis][:, axis] += eps
        queries[2 * axis + 1] = points
        queries[2 * axis + 1][:, axis] -= eps
    vals, _ = sample_f32(volume, queries.reshape(-1, 3))
    vals = vals.reshape(6, n)
    g = np.empty((n, 3), dtype=np.float32)
    inv = np.float32(1.0) / (np.float32(2.0) * eps)
    for axis in range(3):
        np.subtract(vals[2 * axis], vals[2 * axis + 1], out=g[:, axis])
        g[:, axis] *= inv
    return g


def oracle_raycast(volume, camera, pose_volume_from_camera, mu, ws,
                   near=0.1, far=None, sample_fn=sample_f32,
                   gradient_fn=gradient_f32):
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

    active_idx = np.arange(n_rays, dtype=np.int64)
    dirs = dirs_all
    t = ws.buffer("rc_t", (n_rays,))
    t.fill(near)
    prev_val = ws.buffer("rc_prev_val", (n_rays,))
    prev_val.fill(1.0)
    prev_valid = ws.zeros("rc_prev_valid", (n_rays,), dtype=bool)

    max_steps = int(np.ceil((far - near) / step)) + 1
    for _ in range(max_steps):
        if active_idx.size == 0:
            break
        pts = origin + t[:, None] * dirs
        val, valid = sample_fn(volume, pts)

        # Zero crossing: previous sample positive, current negative.
        crossing = prev_valid & valid & (prev_val > 0.0) & (val <= 0.0)
        if crossing.any():
            c = active_idx[crossing]
            f0 = prev_val[crossing]
            f1 = val[crossing]
            denom = np.where(np.abs(f0 - f1) > 1e-12, f0 - f1,
                             np.float32(1e-12))
            hit_t[c] = (t[crossing] - step) + (f0 / denom) * step
            hit[c] = True

        # Compact: drop rays that hit or would march past the far plane.
        keep = ~crossing & (t + step <= far)
        active_idx = active_idx[keep]
        dirs = dirs[keep]
        t = t[keep]
        t += step
        prev_val = val[keep]
        prev_valid = valid[keep]

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
    return v_map.reshape(h, w, 3), n_map.reshape(h, w, 3)


# -- random volumes ----------------------------------------------------------
@st.composite
def scenes(draw):
    """``(resolution, size, tsdf, weight, pose)`` for a small volume."""
    r = draw(st.integers(min_value=8, max_value=20))
    size = draw(st.floats(min_value=0.8, max_value=2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    voxel = size / r
    centres = (np.arange(r) + 0.5) * voxel
    if draw(st.booleans()):
        # A tilted plane, truncated at mu, plus a little noise.
        z0 = draw(st.floats(min_value=0.3, max_value=0.9)) * size
        slope = rng.uniform(-0.5, 0.5, 2)
        x, y, z = np.meshgrid(centres, centres, centres, indexing="ij")
        sdf = z0 + slope[0] * (x - size / 2) + slope[1] * (y - size / 2) - z
        tsdf = np.clip(sdf / MU, -1.0, 1.0) + rng.normal(0, 0.05, sdf.shape)
    else:
        tsdf = rng.uniform(-1.0, 1.0, (r, r, r))
    tsdf = tsdf.astype(np.float32)
    special = rng.random(tsdf.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    tsdf[special] = rng.choice(SPECIALS, int(special.sum()))
    weight = rng.uniform(0.5, 10.0, tsdf.shape).astype(np.float32)
    weight[rng.random(tsdf.shape) < draw(st.sampled_from([0.0, 0.1]))] = 0.0

    origin = np.array([rng.uniform(0.2, 0.8) * size,
                       rng.uniform(0.2, 0.8) * size,
                       rng.uniform(-0.3, 0.4) * size])
    rotation = se3.se3_exp(np.concatenate([np.zeros(3),
                                           rng.normal(0, 0.3, 3)]))[:3, :3]
    return r, size, tsdf, weight, se3.make_pose(rotation, origin)


def _workspace(r, size, backend="fast"):
    params = KFusionParams(volume_resolution=r, volume_size=size,
                           compute_size_ratio=1, mu_distance=MU)
    return FrameWorkspace(CAM, params, levels=3, backend=backend)


def _dense(r, size, tsdf, weight):
    volume = TSDFVolume(r, size)
    volume.tsdf[...] = tsdf
    volume.weight[...] = weight
    # Written directly, so bring the may-cross mask up to date.
    volume.update_crossing(*np.indices((r,) * 3).reshape(3, -1))
    return volume


def _assert_same_maps(model, expected):
    vertices, normals = expected
    assert model.vertices.tobytes() == vertices.tobytes()
    assert model.normals.tobytes() == normals.tobytes()


@given(scene=scenes())
@settings(max_examples=60, deadline=None)
def test_fast_march_equals_unskipped_march(scene):
    r, size, tsdf, weight, pose = scene
    volume = _dense(r, size, tsdf, weight)
    got = fast_raycast.raycast_model(volume, CAM, pose, MU,
                                     _workspace(r, size))
    _assert_same_maps(got, oracle_raycast(volume, CAM, pose, MU,
                                          _workspace(r, size)))


@given(scene=scenes(), keep=st.floats(min_value=0.3, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_sparse_march_equals_unskipped_march(scene, keep):
    r, size, tsdf, weight, pose = scene
    volume = SparseTSDFVolume(r, size)
    nb = volume.blocks_per_side
    blocks = np.indices((nb,) * 3).reshape(3, -1).T
    rng = np.random.default_rng(int(r * 1000 + keep * 100))
    blocks = blocks[rng.random(len(blocks)) < keep]
    slots = volume.ensure_blocks(blocks)
    pad = nb * BLOCK
    dense_t = np.ones((pad,) * 3, dtype=np.float32)
    dense_w = np.zeros((pad,) * 3, dtype=np.float32)
    dense_t[:r, :r, :r] = tsdf
    dense_w[:r, :r, :r] = weight
    for slot, (bx, by, bz) in zip(slots, blocks * BLOCK):
        region = (slice(bx, bx + BLOCK), slice(by, by + BLOCK),
                  slice(bz, bz + BLOCK))
        volume.tsdf_blocks[slot] = dense_t[region].reshape(-1)
        volume.weight_blocks[slot] = dense_w[region].reshape(-1)
    volume.update_crossing(*np.indices((r,) * 3).reshape(3, -1))

    got = sparse_raycast.raycast_model(volume, CAM, pose, MU,
                                       _workspace(r, size, "sparse"))
    densified = _dense(r, size, *volume.densify())
    _assert_same_maps(got, oracle_raycast(densified, CAM, pose, MU,
                                          _workspace(r, size)))


def test_subnormal_surface_is_hit():
    """Corners of the smallest subnormal make samples that round to
    exactly 0, a valid ``v <= 0`` half.  A ``tsdf <= 0`` predicate would
    skip those cells and lose every hit; ``~(tsdf > tau)`` keeps them."""
    r, size = 16, 1.6
    tsdf = np.ones((r,) * 3, dtype=np.float32)
    tsdf[:, :, r // 2:] = np.float32(1e-45)
    weight = np.ones((r,) * 3, dtype=np.float32)
    pose = se3.make_pose(np.eye(3), np.array([0.8, 0.8, 0.05]))
    expected = oracle_raycast(_dense(r, size, tsdf, weight), CAM, pose, MU,
                              _workspace(r, size))
    assert np.any(expected[1] != 0)

    dense = _dense(r, size, tsdf, weight)
    _assert_same_maps(fast_raycast.raycast_model(
        dense, CAM, pose, MU, _workspace(r, size)), expected)

    sparse = SparseTSDFVolume(r, size)
    blocks = np.indices((sparse.blocks_per_side,) * 3).reshape(3, -1).T
    for slot, (bx, by, bz) in zip(sparse.ensure_blocks(blocks),
                                  blocks * BLOCK):
        region = (slice(bx, bx + BLOCK), slice(by, by + BLOCK),
                  slice(bz, bz + BLOCK))
        sparse.tsdf_blocks[slot] = tsdf[region].reshape(-1)
        sparse.weight_blocks[slot] = weight[region].reshape(-1)
    sparse.update_crossing(*np.indices((r,) * 3).reshape(3, -1))
    _assert_same_maps(sparse_raycast.raycast_model(
        sparse, CAM, pose, MU, _workspace(r, size, "sparse")), expected)
