"""Shared fixtures: tiny synthetic sequences, cameras, devices.

Everything here is deliberately small (80x60 frames, short sequences) so
the whole suite runs in minutes; sizes are chosen so KinectFusion still
tracks reliably at them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import icl_nuim
from repro.geometry import PinholeCamera
from repro.kfusion.sparse import BLOCK, SparseTSDFVolume
from repro.kfusion.volume import CROSSING_TAU
from repro.platforms import odroid_xu3
from repro.scene import KinectNoiseModel, living_room


@pytest.fixture(scope="session")
def camera() -> PinholeCamera:
    return PinholeCamera.kinect_like(width=80, height=60)


@pytest.fixture(scope="session")
def scene():
    return living_room()


@pytest.fixture(scope="session")
def tiny_sequence():
    """8 frames, 80x60, mild noise — rendered once per session."""
    seq = icl_nuim.load("lr_kt0", n_frames=8, width=80, height=60, seed=0)
    seq.materialize()
    return seq


@pytest.fixture(scope="session")
def clean_sequence():
    """6 noiseless frames for deterministic geometric checks."""
    seq = icl_nuim.load(
        "lr_kt0", n_frames=6, width=80, height=60,
        noise=KinectNoiseModel.noiseless(), seed=0,
    )
    seq.materialize()
    return seq


@pytest.fixture(scope="session")
def odroid():
    return odroid_xu3()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _crossing_from_scratch(volume):
    """A volume's may-cross cell mask recomputed from its whole TSDF.

    Dense volumes: the ``(r, r, r)`` mask.  Sparse volumes: the
    ``(capacity, 512)`` block-layout mask, where cells based in
    unallocated blocks have no row and unallocated corners read the
    empty state.
    """
    sparse = isinstance(volume, SparseTSDFVolume)
    tsdf = volume.densify()[0] if sparse else volume.tsdf
    r = volume.resolution
    corner = ~(tsdf > CROSSING_TAU)
    cells = np.zeros((r, r, r), dtype=bool)
    for ox in (0, 1):
        for oy in (0, 1):
            for oz in (0, 1):
                cells[:-1, :-1, :-1] |= corner[ox:r - 1 + ox, oy:r - 1 + oy,
                                               oz:r - 1 + oz]
    if not sparse:
        return cells
    pad = volume.blocks_per_side * BLOCK
    padded = np.zeros((pad,) * 3, dtype=bool)
    padded[:r, :r, :r] = cells
    rows = np.zeros_like(volume.crossing_blocks)
    for slot in range(volume.allocated_blocks):
        bx, by, bz = volume.block_coords[slot] * BLOCK
        rows[slot] = padded[bx:bx + BLOCK, by:by + BLOCK,
                            bz:bz + BLOCK].reshape(-1)
    return rows


@pytest.fixture(scope="session")
def crossing_from_scratch():
    """``volume -> mask``: the may-cross mask rebuilt from scratch."""
    return _crossing_from_scratch
