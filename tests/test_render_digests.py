"""Bit-identity of the sphere tracer, pinned by sha256 digests.

The digests below were taken from the original (mask-gathering,
``np.linalg.norm``) renderer before it was rewritten to evaluate SDFs
component-wise over compacted ray tiles.  Every optimisation of the
renderer must reproduce them exactly: if one bit of one depth map moves,
the change does not land, and these pins are never regenerated to make a
change pass.  (Digests are of float64 output on x86-64 with NumPy's
bundled BLAS.)

Coverage: the three scenes, at 32x24 and 64x48 over four ``lr_kt0``
poses, at 320x240 over two, plus a capped :class:`RenderSettings` whose
small ``max_steps`` and ``max_range`` make both the step-cap and the
overshoot exits fire, plus RGB and vertex/normal maps, which go through
``normal()`` and ``albedo_at()``.

Run this file as a script to print the digests of the current renderer.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from repro.datasets import icl_nuim
from repro.geometry import PinholeCamera
from repro.scene import (RenderSettings, Union, corridor, living_room, office,
                         render_depth, render_rgb, render_vertex_normal)

SCENES = {"living_room": living_room, "office": office, "corridor": corridor}
#: Frames of a 300-frame ``lr_kt0`` orbit (200 to 305 degrees).  In the
#: narrow corridor frames 150 and 299 sit outside the walls, which pins
#: the immediate-hit, below-min-range path.
POSES = (0, 30, 150, 299)
FULL_POSES = (0, 150)
CAPPED = RenderSettings(max_steps=12, max_range=2.5)


@functools.lru_cache(maxsize=None)
def _trajectory():
    return icl_nuim.load("lr_kt0", n_frames=300, width=32, height=24).trajectory


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cases() -> dict[str, tuple]:
    """``case id -> (renderer, scene name, width, height, frame, settings)``."""
    cases = {}
    for name in SCENES:
        for w, h in ((32, 24), (64, 48)):
            for i in POSES:
                cases[f"depth-{name}-{w}x{h}-f{i}"] = (
                    render_depth, name, w, h, i, RenderSettings())
                cases[f"capped-{name}-{w}x{h}-f{i}"] = (
                    render_depth, name, w, h, i, CAPPED)
        for i in FULL_POSES:
            cases[f"depth-{name}-320x240-f{i}"] = (
                render_depth, name, 320, 240, i, RenderSettings())
        cases[f"rgb-{name}-64x48-f0"] = (
            render_rgb, name, 64, 48, 0, RenderSettings())
        cases[f"vn-{name}-64x48-f0"] = (
            render_vertex_normal, name, 64, 48, 0, RenderSettings())
    return cases


def _render(renderer, scene, width, height, frame, settings):
    camera = PinholeCamera.kinect_like(width, height)
    out = renderer(scene, camera, _trajectory()[frame], settings)
    return _digest(*out) if isinstance(out, tuple) else _digest(out)


CASES = _cases()

PINNED = {
    "capped-corridor-32x24-f0":
        "ed8d1e6b50790eeca4434181777d97bed75f8e7656507a51d68e3cf15328462b",
    "capped-corridor-32x24-f150":
        "1cb473af379c6c9d38f9b73efe488760b843cc3caac7113ac8d3186727d5ba63",
    "capped-corridor-32x24-f299":
        "1cb473af379c6c9d38f9b73efe488760b843cc3caac7113ac8d3186727d5ba63",
    "capped-corridor-32x24-f30":
        "ef8200c9bb99fd65026ea37f5d5e201b707dd948e4ed9de33981f7f045215913",
    "capped-corridor-64x48-f0":
        "ff8381d28db4b290ed1101a488ce9baf6a39c319a7ee91cecd462e3a831f52d3",
    "capped-corridor-64x48-f150":
        "5cc5c1b7d9a6d12e8b4b011153aa5402cfbc87503b9c490f9cb83d53e52129a4",
    "capped-corridor-64x48-f299":
        "5cc5c1b7d9a6d12e8b4b011153aa5402cfbc87503b9c490f9cb83d53e52129a4",
    "capped-corridor-64x48-f30":
        "ac4eab6a1f0b2e6ada3d8cf37b6036f143be432bc53a2c0c123b9168c41d6086",
    "capped-living_room-32x24-f0":
        "40946bfac0f250396eeab6ad574178987f55fb33e20e9f8e27c164feab455f5c",
    "capped-living_room-32x24-f150":
        "e917daae0817007c0ed5acf2eb6751e17205c9f7f83fb44ce2289f25a821a2f5",
    "capped-living_room-32x24-f299":
        "e760779485bbffec3365ef6f34fb000c12f64c44eb5691400726c8b8e317949b",
    "capped-living_room-32x24-f30":
        "f873dcbded30cf6a268aca9bff7a54408335e52cbb3a31ee48e8f05bc30cc7bb",
    "capped-living_room-64x48-f0":
        "d37a024b10da6dbb53043758e433f6af108b3fbf7cf2322b326aaae08bd335da",
    "capped-living_room-64x48-f150":
        "922ebc1178d6b753311ec1021ae02737cc8a65d0279c298587e7c4e3474e007f",
    "capped-living_room-64x48-f299":
        "02e5a9f93f952225a2dd5e82bc5dfdee09ae40d716e14a1d505d07f17e025af7",
    "capped-living_room-64x48-f30":
        "3b0ecb2c27581dea84215aab8ca463455fe24f89e35a5a0d6353de14f91847ec",
    "capped-office-32x24-f0":
        "eb53046d7503c38e34f7f64b2669611e7ac7ec6e6a4291dc72de9df90676e200",
    "capped-office-32x24-f150":
        "1cb473af379c6c9d38f9b73efe488760b843cc3caac7113ac8d3186727d5ba63",
    "capped-office-32x24-f299":
        "b137232bc1e54678b801fd54d112139eb351f8e0d02d203d224ee3c6a6d42b77",
    "capped-office-32x24-f30":
        "1cb473af379c6c9d38f9b73efe488760b843cc3caac7113ac8d3186727d5ba63",
    "capped-office-64x48-f0":
        "47ef48d548bce6af955d8218adf37b376cfab0394b07cfc0f77aaac166939b95",
    "capped-office-64x48-f150":
        "5cc5c1b7d9a6d12e8b4b011153aa5402cfbc87503b9c490f9cb83d53e52129a4",
    "capped-office-64x48-f299":
        "590c3a36e587bee5769cdcec8b83563df2b4481493061241e8ed2c93a28a3750",
    "capped-office-64x48-f30":
        "0df61cc1569d5edec535ff1705c5c7c86e201c521b229cea60fa09d8f552c0bf",
    "depth-corridor-320x240-f0":
        "30804fd87393cef4dc88e2d08100c33790c6ce0d117c9d16458789b489a3f954",
    "depth-corridor-320x240-f150":
        "58ba49b79ec48456135e73426bc6ea8b9584488d627a4b72b05643528c12e044",
    "depth-corridor-32x24-f0":
        "d6a6b4d8494a2b958ded37c50fe85c2eb4d3bf409cc62e2020dd42df9bcedf2a",
    "depth-corridor-32x24-f150":
        "1cb473af379c6c9d38f9b73efe488760b843cc3caac7113ac8d3186727d5ba63",
    "depth-corridor-32x24-f299":
        "1cb473af379c6c9d38f9b73efe488760b843cc3caac7113ac8d3186727d5ba63",
    "depth-corridor-32x24-f30":
        "925b3ef8983d91f306ff8eaa82857bd4df64c6c18212b22d3fdabfabaa854d94",
    "depth-corridor-64x48-f0":
        "4258525bc804e9905e92e7931034ab5ec138a9c6c44be55ba347c84fef849cb3",
    "depth-corridor-64x48-f150":
        "5cc5c1b7d9a6d12e8b4b011153aa5402cfbc87503b9c490f9cb83d53e52129a4",
    "depth-corridor-64x48-f299":
        "5cc5c1b7d9a6d12e8b4b011153aa5402cfbc87503b9c490f9cb83d53e52129a4",
    "depth-corridor-64x48-f30":
        "cd642e8ed5c07f3f138f68b66ee8134c0ba3cb86bd7007433355e4021ccf4858",
    "depth-living_room-320x240-f0":
        "349e49b65a19985d271a49c1c702747adfead99245bec15849530851f6422985",
    "depth-living_room-320x240-f150":
        "30fe99028af461cbaaf5a0b8d29625f9cacd2d8cab74f72d426027f2b3d882af",
    "depth-living_room-32x24-f0":
        "c1f12fe77e316531a9070735a75bcee0c0d9d03b96e4c51102cb12e38ccdb6aa",
    "depth-living_room-32x24-f150":
        "ce9a82aabeffcfc72e46ff66b76da4d308094046299b4bd8f8267b8e5e8ce8a2",
    "depth-living_room-32x24-f299":
        "48e1cdd25c8d60a81ea21db2da64d67d981c444674e419fef014bdc401ed1f3f",
    "depth-living_room-32x24-f30":
        "47534306753b0c684b6ba3ef28c28e2fb0059cb7920fff4cfdd90050dcdb789b",
    "depth-living_room-64x48-f0":
        "158c3e723a8e64eecb52dbcf7d67093825dbba1f30c6fd52b7720a72e6af49bb",
    "depth-living_room-64x48-f150":
        "5d4c0f8a84f32ac8ab717d20c935fe87889577ae5848adcab3f5a75eeb95e288",
    "depth-living_room-64x48-f299":
        "8a52530c84c8bd8746cf01c92f71830031fa97365d4e2ec4ccb54a36e9dc9414",
    "depth-living_room-64x48-f30":
        "a78d8f57920fb8672a58949609791ea8b34164ab7019d6000dd4a8fffc30352a",
    "depth-office-320x240-f0":
        "5033380996dc63c364f4878eb64103887eec3940305b2567169c75c331fa3146",
    "depth-office-320x240-f150":
        "4ca17fbd1a69889772d4911acfc90c3ef82c444d06097bf4e928496ac4fc68a8",
    "depth-office-32x24-f0":
        "4c68a51374888652c8632a018f7e4a3ff6ffbfdf8db188d016221571d1a2876f",
    "depth-office-32x24-f150":
        "c7480f27c76151f98fd0da8da70463cfe5abb6f5d5092a9ffc0c69cd70eb001d",
    "depth-office-32x24-f299":
        "ac27fe2d51d198ce6509b941551edfe90f81389fe587c2ec99fe7b3b52fc0e08",
    "depth-office-32x24-f30":
        "e4d54240e5aaa5140b2b85bcf618a1a21cd7d70f9bc24ab047eca4383ce6f3ff",
    "depth-office-64x48-f0":
        "106e0fa383e4131ddcce3cc7878b725fae6bd08e32e4cc20fdf79e9e1f18587f",
    "depth-office-64x48-f150":
        "acc6fadafc5de9bcae3f268e8768dc255d981fd60ccc3b5e29e1a2c900afa984",
    "depth-office-64x48-f299":
        "ef9206d662461820726f336f8b7f431a01c4827138d6d438ed2367e9cd3b65ad",
    "depth-office-64x48-f30":
        "a4b3a2b6776ab72f48b9cc5708fb6e319397c1d802f95671ecee213b5ac29660",
    "rgb-corridor-64x48-f0":
        "d8a5a712bcb0590100ca8ae6d6f7d423b1a001631ad82c62b6d6a8de0dbae832",
    "rgb-living_room-64x48-f0":
        "e7024d854f6547a7cb583ece516e24302fd32e0f7f9c14096c8406e29f712678",
    "rgb-office-64x48-f0":
        "d552d42a7546b64906c49a6e5f6ddfffa8dac5127448744589d1625c5da8014f",
    "vn-corridor-64x48-f0":
        "3b62cd7b1c39caeba60172e1d1787843966c5985c280be3ad3a732c138ebb9aa",
    "vn-living_room-64x48-f0":
        "32ef2c27ea1b7de0e5ab9a6e7d48f3b0073931a96a21809b2272d6bf7dc90c65",
    "vn-office-64x48-f0":
        "c580ad37fcbf11fbbf1dbf50093b211c57c058c995f1ecf5f8a674fb10d2d3a3",
}


@pytest.fixture(scope="module")
def scenes():
    return {name: build() for name, build in SCENES.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_digest_matches_reference(case, scenes):
    renderer, name, w, h, frame, settings = CASES[case]
    assert _render(renderer, scenes[name], w, h, frame, settings) == PINNED[case]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("tile", [97, 1000])
def test_tile_size_does_not_change_the_result(tile, scenes, monkeypatch):
    import repro.scene.renderer as renderer

    monkeypatch.setattr(renderer, "TILE_RAYS", tile)
    for case in ("depth-office-64x48-f0", "capped-living_room-32x24-f0"):
        _, name, w, h, frame, settings = CASES[case]
        assert _render(render_depth, scenes[name], w, h, frame,
                       settings) == PINNED[case]


def test_moving_a_box_by_a_micrometre_changes_the_digest(scenes):
    """The fixture can fail: a 1e-6 m shift of the table top shows."""
    room = scenes["living_room"]
    children = list(room.sdf.children)
    table = children[3]
    children[3] = dataclasses.replace(table, center=table.center + [1e-6, 0, 0])
    moved = dataclasses.replace(room, sdf=Union(children))
    case = "depth-living_room-64x48-f0"
    _, _, w, h, frame, settings = CASES[case]
    assert _render(render_depth, moved, w, h, frame, settings) != PINNED[case]


if __name__ == "__main__":
    built = {name: build() for name, build in SCENES.items()}
    for case in sorted(CASES):
        renderer, name, w, h, frame, settings = CASES[case]
        digest = _render(renderer, built[name], w, h, frame, settings)
        print(f'    "{case}":\n        "{digest}",')
