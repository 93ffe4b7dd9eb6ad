"""Space-skipping raycast over the sparse voxel-block TSDF.

Same march as the fast dense raycaster — uniform step grid, zero
crossing where a valid positive sample is followed by a non-positive
one, linear refinement between them — restructured as a segmented
(ray x step) grid with two accelerations:

* **Volume clipping** — per-ray entry/exit distances against the volume
  AABB (one slab test up front) bound each ray's emission range; rays
  retire between segments once past their exit.
* **Exact empty-space skipping** — the volume keeps a may-cross cell
  mask in its ``(capacity, 512)`` block layout
  (:attr:`SparseTSDFVolume.crossing_blocks`): a cell is set when some
  corner has ``~(tsdf > tau)`` for a small positive normal float32
  ``tau`` (:data:`repro.kfusion.volume.CROSSING_TAU`).  One flat gather
  over a whole segment tile keeps only the samples whose own cell or
  t-successor's cell is set; only those are sampled, every other one is
  treated as invalid.

The skip is exact.  If all 8 corners exceed ``tau``, every float32
corner term is non-negative and the largest (weight >= ~1/8) is a
positive normal number, so the sample is ``> 0`` (or NaN, for an
infinite corner with a zero weight) and cannot be the ``v <= 0`` half of
a crossing; it can only be the ``v > 0`` half when its t-successor may
cross, and then it is sampled.  So crossing pairs, first hits,
refinement and retirement are those of the unskipped march.  Cells
based in unallocated blocks are never set: such a sample has a
weight-0 corner and is invalid anyway.  ``tsdf <= 0`` would not do as
the predicate: a subnormal positive corner can underflow to a sample of
exactly 0.

Sampling goes through a trilinear gather that is bit-identical to
:func:`repro.perf.trilinear.sample_f32` over the block data (same op
order, same corner order), so hits land where the dense fast raycaster
puts them wherever the truncation band was allocated.  A ray arriving
from unobserved (never-carved) space produces no crossing in either
backend.  Residual divergence against the dense raycaster is limited to
free space the dense integrate carved but the band allocator skips, and
is bounded end-to-end by the golden-equivalence suite (identical status
sequences, ATE within 2%).
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import contract
from ..geometry import PinholeCamera
from ..kfusion.sparse import BLOCK, BLOCK_VOXELS, SparseTSDFVolume
from ..kfusion.tracking import ReferenceModel
from .common import translation_f32, unit_rays_f32
from .trilinear import _CORNERS, axis_cells
from .workspace import FrameWorkspace


def sample_sparse_f32(
    volume: SparseTSDFVolume,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear TSDF at float32 volume-frame points, block-table gather.

    Bit-identical to :func:`repro.perf.trilinear.sample_f32` wherever the
    touched blocks are allocated; unallocated corners read the empty
    state (tsdf 1.0, weight 0.0), which is what the dense volume holds
    at any voxel integration never updated.
    """
    p = points * np.float32(1.0 / volume.voxel_size)
    p -= np.float32(0.5)
    return _sample_voxel_coords(volume, p[:, 0], p[:, 1], p[:, 2])


def _sample_voxel_coords(
    volume: SparseTSDFVolume,
    px: np.ndarray,
    py: np.ndarray,
    pz: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_sparse_f32` at continuous voxel coordinates
    (``points / voxel_size - 0.5``, float32, one array per axis).

    Each corner is looked up through the volume's dense coord->slot
    table (no hashing on this path), with the dense kernel's
    weight-product grouping and corner accumulation order so the
    float32 results round identically.  Index arithmetic stays int32:
    the largest flat voxel index is blocks * BLOCK_VOXELS < 2^31 up to
    resolution 1024.
    """
    r = volume.resolution
    nb = np.int32(volume.blocks_per_side)
    one = np.float32(1.0)
    (bx, wx, ix), (by, wy, iy), (bz, wz, iz) = (
        axis_cells(c, r) for c in (px, py, pz))
    valid = ix & iy & iz

    tsdf = volume.tsdf_blocks.reshape(-1)
    weight = volume.weight_blocks.reshape(-1)
    values = np.zeros(len(px), dtype=np.float32)  # effect-ok: batch-sized
    # (live-ray batches vary per call, as in trilinear.sample_f32)
    for ox, oy, oz in _CORNERS:
        x, y, z = bx + ox, by + oy, bz + oz
        slots = volume.block_slot_table.take(((x >> 3) * nb + (y >> 3)) * nb
                                             + (z >> 3))
        found = slots >= 0
        flat = np.maximum(slots, 0) * np.int32(BLOCK_VOXELS) \
            + ((x & 7) * BLOCK + (y & 7)) * BLOCK + (z & 7)
        tv = tsdf.take(flat)
        tv[~found] = one
        values += (wx[ox] * wy[oy] * wz[oz]) * tv
        valid &= found
        valid &= weight.take(flat) > 0.0

    values[~valid] = one
    return values, valid


def gradient_sparse_f32(volume: SparseTSDFVolume,
                        points: np.ndarray) -> np.ndarray:
    """Central-difference gradient via the sparse sampler (cf.
    :func:`repro.perf.trilinear.gradient_f32`)."""
    eps = np.float32(volume.voxel_size)
    n = len(points)
    queries = np.empty((6, n, 3), dtype=np.float32)  # effect-ok: batch-sized
    for axis in range(3):
        queries[2 * axis] = points
        queries[2 * axis][:, axis] += eps
        queries[2 * axis + 1] = points
        queries[2 * axis + 1][:, axis] -= eps
    vals, _ = sample_sparse_f32(volume, queries.reshape(-1, 3))
    vals = vals.reshape(6, n)
    g = np.empty((n, 3), dtype=np.float32)  # effect-ok: batch-sized
    inv = np.float32(1.0) / (np.float32(2.0) * eps)
    for axis in range(3):
        np.subtract(vals[2 * axis], vals[2 * axis + 1], out=g[:, axis])
        g[:, axis] *= inv
    return g


def _volume_slab(origin: np.ndarray, dirs: np.ndarray, size: float,
                 near: np.float32, t_enter: np.ndarray,
                 t_exit: np.ndarray) -> None:
    """Per-ray entry/exit distances against the volume AABB, into
    ``t_enter``/``t_exit`` (float32)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (np.float32(0.0) - origin) / dirs  # effect-ok: per-frame rays
        t1 = (np.float32(size) - origin) / dirs  # effect-ok: per-frame rays
    lo = np.minimum(t0, t1)
    hi = np.maximum(t0, t1)
    # Axis-parallel rays: 0/0 -> nan; the axis imposes no bound.
    np.nan_to_num(lo, copy=False, nan=-np.inf)
    np.nan_to_num(hi, copy=False, nan=np.inf)
    np.max(lo, axis=-1, out=t_enter)
    np.min(hi, axis=-1, out=t_exit)
    np.maximum(t_enter, near, out=t_enter)


#: March-grid indices covered per segment of the segmented-grid march.
#: Short enough that rays hitting a surface retire before scheduling
#: much of the band behind it, long enough that a frame needs only a
#: handful of segments.
SEGMENT_STEPS = 16


@contract(pose_volume_from_camera="4,4:f64")
def raycast_model(
    volume: SparseTSDFVolume,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    ws: FrameWorkspace,
    near: float = 0.1,
    far: float | None = None,
) -> ReferenceModel:
    """March all pixel rays as a segmented (ray x step) grid.

    The march grid is the dense raycaster's t-sequence crossed with the
    live rays.  Instead of stepping rays one sample at a time, each
    iteration takes a *segment* of ``SEGMENT_STEPS`` consecutive grid
    indices and tests every (ray, index) pair at once: one flat gather
    of the may-cross mask keeps the in-bounds samples whose cell or
    t-successor's cell may cross, and only those are evaluated.
    ``np.flatnonzero`` over the C-ordered tile yields them ray-major and
    t-ascending for free, so each ray's first zero crossing is selected
    vectorised: a crossing is two *t-adjacent* samples, both valid,
    spanning the sign change — exactly the step-by-step march's
    ``prev``/current test, because a sample skipped between them could
    not have been half of a crossing.  Rays whose first crossing is
    found retire between segments (the dense march would have stopped
    there); segments share their boundary index, so a crossing pair
    straddling the cut reforms in the next segment.
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

    te = ws.buffer("rc_t_enter", (n_rays,))
    tx = ws.buffer("rc_t_exit", (n_rays,))
    _volume_slab(origin, dirs_all, volume.size, near, te, tx)

    nb = np.int32(volume.blocks_per_side)
    slot_flat = volume.block_slot_table
    cross_flat = volume.crossing_blocks.reshape(-1)

    # The dense raycaster advances every live ray by the same float32
    # ``t += step`` accumulation, so all its rays share one t-sequence.
    # Precompute that exact sequence (sequential f32 adds — NOT k*step,
    # whose different rounding would shift hit_t at the last ulp and
    # let the two backends drift apart frames later) and let each ray
    # carry an integer index into it: a skip of k whole steps lands on
    # the bit-identical t the dense march would have reached.
    max_steps = int(np.ceil((far - near) / step)) + 1
    ts = np.empty(max_steps + 2, dtype=np.float32)  # effect-ok: per-frame
    ts[0] = near
    for i in range(max_steps + 1):
        ts[i + 1] = ts[i] + step
    last = max_steps + 1

    # -- segmented grid march -------------------------------------------
    # Per-ray emission bounds.  The far bound is the dense march's exact
    # loop condition (``t <= far``); the AABB entry/exit bounds are
    # padded by one step — a sample outside the volume is invalid in
    # the trilinear sampler regardless, so the pad only costs a few
    # extra evaluated-and-discarded samples and can never change which
    # crossing pairs form.
    alive = np.arange(n_rays, dtype=np.int64)
    dirs = np.ascontiguousarray(dirs_all.T)  # effect-ok: per-frame rays
    lb = te - step
    ub = np.minimum(tx + step, far)

    inv_vox = np.float32(1.0 / volume.voxel_size)
    r = volume.resolution
    s = 0
    while alive.size:
        e = min(s + SEGMENT_STEPS, last)
        t_seg = ts[s:e + 1, None]
        k = t_seg.size
        n = alive.size
        # (k, rays) tile of in-bounds samples, one array per axis (long
        # contiguous rows), kept where the sample's trilinear cell or
        # its t-successor's may cross.
        cand = t_seg >= lb  # effect-ok: tile-sized
        cand &= t_seg <= ub
        p, base = [], []
        for c in range(3):
            pc = origin[c] + t_seg * dirs[c]  # effect-ok: tile-sized
            pc *= inv_vox
            pc -= np.float32(0.5)
            b = np.floor(pc).astype(np.int32)
            np.minimum(np.maximum(b, 0, out=b), r - 2, out=b)
            p.append(pc)
            base.append(b)
        bx, by, bz = base
        bslot = slot_flat.take(((bx >> 3) * nb + (by >> 3)) * nb + (bz >> 3))
        need = cross_flat.take(
            np.maximum(bslot, 0) * np.int32(BLOCK_VOXELS)
            + ((bx & 7) * BLOCK + (by & 7)) * BLOCK + (bz & 7))
        need &= bslot >= 0
        need[:-1] |= need[1:]
        need &= cand
        # Flattening the transposed tile enumerates it ray-major and
        # t-ascending — exactly the order the crossing scan needs.
        rows = np.flatnonzero(need.T)  # effect-ok: tile-sized
        if rows.size:
            ray_l = rows // k
            col = rows % k
            at = col * n + ray_l
            v, valid = _sample_voxel_coords(
                volume, *(pc.reshape(-1).take(at) for pc in p))
            tidx_o = s + col
            same = ray_l[1:] == ray_l[:-1]
            same &= tidx_o[1:] == tidx_o[:-1] + 1
            same &= valid[:-1] & valid[1:]
            same &= v[:-1] > 0.0
            same &= v[1:] <= 0.0
            j = np.flatnonzero(same)  # effect-ok: hit-sized
            if j.size:
                uniq, first = np.unique(ray_l[j], return_index=True)
                jj = j[first]
                f0 = v[jj]
                f1 = v[jj + 1]
                denom = np.where(np.abs(f0 - f1) > 1e-12, f0 - f1,
                                 np.float32(1e-12))
                g = alive[uniq]
                hit_t[g] = (ts[tidx_o[jj] + 1] - step) \
                    + (f0 / denom) * step
                hit[g] = True
        if e >= last:
            break
        # Retire rays that found their crossing or left their bounds;
        # the next segment starts at this one's end index, so the
        # shared boundary sample re-forms any pair split by the cut.
        keep = ~hit[alive]
        keep &= ts[e + 1] <= ub
        if not keep.all():
            alive = alive[keep]
            dirs = dirs[:, keep]
            lb = lb[keep]
            ub = ub[keep]
        s = e

    h, w = camera.shape
    v_map = ws.zeros("rc_vertices", (n_rays, 3))
    n_map = ws.zeros("rc_normals", (n_rays, 3))
    if hit.any():
        hit_idx = np.flatnonzero(hit)
        pts_vol = origin + hit_t[hit_idx, None] * dirs_all[hit_idx]
        grad = gradient_sparse_f32(volume, pts_vol)
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
