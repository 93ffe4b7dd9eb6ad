"""The may-cross cell mask is maintained incrementally and stays exact.

The integrate kernels update the mask only around voxels whose
``~(tsdf > tau)`` predicate flipped (DESIGN.md S17/S22).  After every
integrated frame, a reset, block-array growth and hash rehash, the mask
must equal one recomputed from the whole TSDF (the
``crossing_from_scratch`` fixture).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import icl_nuim
from repro.geometry import se3
from repro.kfusion.params import KFusionParams
from repro.kfusion.sparse import BLOCK, BLOCK_VOXELS, SparseTSDFVolume
from repro.kfusion.volume import CROSSING_TAU, TSDFVolume
from repro.perf import integrate as fast_integrate
from repro.perf import sparse_integrate
from repro.perf.workspace import FrameWorkspace

WIDTH, HEIGHT = 64, 48


@pytest.fixture(scope="module")
def moving_sequence():
    """``(camera, [(depth, pose)])`` from far apart on an orbit, so later
    frames carve free space earlier ones filled (predicates flip both
    ways).  Poses are ground truth relative to the first frame, placed
    at the pipeline's initial camera pose."""
    sequence = icl_nuim.load("lr_kt0", n_frames=40, width=WIDTH,
                             height=HEIGHT, seed=0)
    start = se3.make_pose(np.eye(3), np.array([2.5, 2.5, 0.0]))
    first = se3.inverse(sequence.frame(0).ground_truth_pose)
    frames = [(frame.depth.astype(np.float32),
               start @ first @ frame.ground_truth_pose)
              for frame in map(sequence.frame, (0, 8, 16, 24, 32))]
    return sequence.sensors.require_depth().camera, frames


def _integrate_frames(volume, sequence, backend, count=None):
    camera, frames = sequence
    kernel = sparse_integrate if backend == "sparse" else fast_integrate
    params = KFusionParams(volume_resolution=volume.resolution,
                           volume_size=volume.size)
    ws = FrameWorkspace(camera, params, levels=3, backend=backend)
    for depth, pose in frames[:count]:
        yield kernel.integrate(volume, depth, camera, pose,
                               params.mu_distance, ws)


def _mask(volume):
    if isinstance(volume, SparseTSDFVolume):
        return volume.crossing_blocks
    return volume.crossing


@pytest.mark.parametrize("backend", ["fast", "sparse"])
def test_incremental_mask_equals_scratch(backend, moving_sequence,
                                         crossing_from_scratch):
    if backend == "sparse":
        # A small first block array and a volume large enough to push
        # the hash past its load factor: both grow during the run.
        volume = SparseTSDFVolume(128, 5.0, initial_blocks=64)
        hash_capacity = volume.hash.capacity
    else:
        volume = TSDFVolume(64, 5.0)
    for updated in _integrate_frames(volume, moving_sequence, backend):
        assert updated > 0
        np.testing.assert_array_equal(_mask(volume),
                                      crossing_from_scratch(volume))
    assert _mask(volume).any()
    if backend == "sparse":
        # Allocate every remaining block: the block arrays grow and the
        # hash rehashes with the mask already populated, and each new
        # block next to integrated data seeds its face cells.
        capacity = volume.tsdf_blocks.shape[0]
        nb = volume.blocks_per_side
        volume.ensure_blocks(np.indices((nb,) * 3).reshape(3, -1).T)
        assert volume.tsdf_blocks.shape[0] > capacity > 64
        assert volume.hash.capacity > hash_capacity
        np.testing.assert_array_equal(_mask(volume),
                                      crossing_from_scratch(volume))

    volume.reset()
    assert not _mask(volume).any()
    np.testing.assert_array_equal(_mask(volume),
                                  crossing_from_scratch(volume))
    for _ in _integrate_frames(volume, moving_sequence, backend, 2):
        np.testing.assert_array_equal(_mask(volume),
                                      crossing_from_scratch(volume))


def test_frames_clear_cells_as_well_as_set_them(moving_sequence):
    """The recompute path (a voxel stops may-crossing) is exercised:
    some cell set after one frame is clear after a later one."""
    volume = TSDFVolume(64, 5.0)
    cleared = 0
    previous = volume.crossing.copy()
    for _ in _integrate_frames(volume, moving_sequence, "fast"):
        cleared += int(np.count_nonzero(previous & ~volume.crossing))
        previous = volume.crossing.copy()
    assert cleared > 0


def test_new_block_seeds_face_cells_from_old_neighbours(
        crossing_from_scratch):
    """A block allocated next to an old one whose boundary voxels may
    cross gets its +x face cells set at allocation time."""
    volume = SparseTSDFVolume(32, 3.2)
    slot = int(volume.ensure_blocks(np.array([[1, 0, 0]]))[0])
    volume.tsdf_blocks[slot, :BLOCK * BLOCK] = np.float32(-0.5)  # lx == 0
    volume.update_crossing(np.full(BLOCK * BLOCK, BLOCK),
                           np.repeat(np.arange(BLOCK), BLOCK),
                           np.tile(np.arange(BLOCK), BLOCK))
    new = int(volume.ensure_blocks(np.array([[0, 0, 0]]))[0])
    face = volume.crossing_blocks[new].reshape(BLOCK, BLOCK, BLOCK)[-1]
    assert face.all()
    np.testing.assert_array_equal(volume.crossing_blocks,
                                  crossing_from_scratch(volume))


def test_update_crossing_on_direct_writes(crossing_from_scratch):
    """Writers of ``tsdf`` keep the mask exact by naming what they wrote,
    including values at and around tau, signed zeros and NaN."""
    rng = np.random.default_rng(0)
    volume = TSDFVolume(12, 1.2)
    specials = np.array([CROSSING_TAU, 0.0, -0.0, 1e-45, np.nan, 2.0],
                        dtype=np.float32)
    for _ in range(5):
        idx = rng.integers(0, 12, (40, 3))
        volume.tsdf[tuple(idx.T)] = rng.choice(specials, 40)
        volume.update_crossing(*idx.T)
        np.testing.assert_array_equal(volume.crossing,
                                      crossing_from_scratch(volume))


def test_allocated_bytes_include_the_mask():
    dense = TSDFVolume(16, 1.0)
    assert dense.allocated_bytes == 16**3 * (4 + 4 + 1)
    sparse = SparseTSDFVolume(32, 1.0)
    before = sparse.allocated_bytes
    sparse.ensure_blocks(np.array([[0, 0, 0]]))
    assert sparse.allocated_bytes - before == (
        BLOCK_VOXELS * (4 + 4 + 1) + 3 * 4)
