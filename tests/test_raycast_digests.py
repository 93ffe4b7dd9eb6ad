"""Bit-identity of the ``fast`` and ``sparse`` raycasters, pinned by digests.

Each digest is the sha256 of one frame's :class:`ReferenceModel`
(volume-frame vertex and normal maps) as the pipeline's raycast stage
left it, for a 6-frame ``lr_kt0`` run.  The digests were taken from the
raycasters as they were before empty-space skipping (the may-cross cell
mask of DESIGN.md S17/S22) was added: the skip is exact, so every
optimisation of either march must reproduce them, and they are never
regenerated to make a change pass.  On these runs the two backends
produce the same bytes on every frame, so one list per case pins both.
(Digests are of float32 output on x86-64 with NumPy's bundled BLAS.)

Coverage: the three ``sweep_320`` operating points at 320x240 (vol=128,
5 m), where tracking, integration skips and raycasting all run, plus
64x48 at vol=96 with full-frame compute; every frame tracks ``ok``
after the bootstrap.  The ``jit`` backend shares the fast march; when
numba is installed its raycaster is checked against the same pins.

Run this file as a script to print the digests of the current code.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from repro.datasets import icl_nuim
from repro.kfusion import KinectFusion
from repro.kfusion.params import PYRAMID_LEVELS
from repro.perf import get_kernel_backend, kernel_backend_names

FRAMES = 6
VOLUME = {"volume_resolution": 128, "volume_size": 5.0}
#: ``case -> (width, height, configuration)``.
CASES = {
    "320x240-csr8_ir3": (320, 240, {**VOLUME, "compute_size_ratio": 8,
                                     "integration_rate": 3}),
    "320x240-csr4_ir1": (320, 240, {**VOLUME, "compute_size_ratio": 4,
                                     "integration_rate": 1}),
    "320x240-csr2_ir2": (320, 240, {**VOLUME, "compute_size_ratio": 2,
                                     "integration_rate": 2}),
    "64x48-vol96-csr1": (64, 48, {"volume_resolution": 96,
                                  "volume_size": 5.0,
                                  "compute_size_ratio": 1,
                                  "integration_rate": 1}),
}


@functools.lru_cache(maxsize=None)
def _sequence(width: int, height: int):
    sequence = icl_nuim.load("lr_kt0", n_frames=FRAMES, width=width,
                             height=height, seed=0)
    sequence.materialize()
    return sequence


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def raycast_digests(case: str, backend: str, depth_offset: float = 0.0,
                    replay=None) -> list[str]:
    """Per-frame digests of the raycast prediction for one run.

    ``depth_offset`` (metres) is added to every valid depth pixel before
    the frame reaches the pipeline; the perturbation test uses it.
    ``replay(system)``, when given, raycasts the pipeline's volume and
    pose again after each frame and is hashed instead.
    """
    width, height, config = CASES[case]
    sequence = _sequence(width, height)
    system = KinectFusion(kernel_backend=backend)
    system.new_configuration().update(config)
    system.init(sequence.sensors)
    digests = []
    for frame in sequence:
        frame = frame.without_ground_truth()
        if depth_offset:
            depth = np.where(frame.depth > 0, frame.depth + depth_offset,
                             frame.depth)
            frame = dataclasses.replace(frame, depth=depth)
        system.update_frame(frame)
        system.process_once()
        # The maps live in the backend's reused workspace buffers, so
        # each frame is hashed before the next one overwrites it.
        model = system.reference if replay is None else replay(system)
        digests.append(_digest(model.vertices, model.normals))
    system.clean()
    return digests


EXPECTED = {
    '320x240-csr8_ir3': [
        '2f77ff12870d968c82a984bd0cb042294d78205374c6f0f004de38de6af538b0',
        '27d81f6601a9d47bd372d4a0674b0c063a05f35cfcafa0473352061f6651e6d4',
        '62e019ffcc9fb8f7f6add0629460aab0bb8f3bfac2dc393ed4a2418033a3f1c0',
        '0a33b7b2da095c21aca1e74d36aee991ea3cf7a955802dcf8d43df92413ee340',
        'c9d35ed861880e814cffea214247ee152bde752d0bbc3721757bd293686bb6f4',
        '8d29a3826c4cc6299e64972f33840da669627af6733fbacbd27a428538cf92a3',
    ],
    '320x240-csr4_ir1': [
        'f28662609c01d35a78c00f0ea77f32637afe2df9ad834be1a5eea93db0ab96c5',
        '5a5686df80beebe841722f5a91b6c04a129b25fa26d4e4a3aee0c6485afb41e3',
        '3991224011b84329c9440a49b607f10205ac7f2d7a063a2b1e70661d710dbbd6',
        '84fddee373306663eb79278b2585fb244eb4e4f29480c8866d143e92d778812b',
        'a09775ae7ca74d0aed95d6b72d1fcd5beb54fe5896d926633f4377efcd2201da',
        '1b2f91d2d0655212deffa2a31a1c4c415bddaf7acc9e0ad8640ddbf0e25d0966',
    ],
    '320x240-csr2_ir2': [
        'f5115186718c8db2c98d80f058d889c2cbcfd4677cc4d88623571b03c4e1a6a3',
        '18f67951257a96b27a6989ba15831c7dbfea794ba4ca23173eee0f136d059fdf',
        'ab7af3f35d01e434455e24f681bcc62f7d88746a8c4c94cc7238aae40a2bac2c',
        'e991ba7d20ab5db1b3d0273e4c8c32d2440247aec81dabafe41df6c50f9a0f41',
        '291c2b7293d033d808063dd2c9bc90fd120000dbfe2d39dbdc42d8568d00a267',
        '0443073b741730ee9b3fbff2964f8756b11f7f22f54620fa8ff89bbc822fd204',
    ],
    '64x48-vol96-csr1': [
        '8c57bd17a58012be6186b8e3edec415ff069f76ed231edbb8d5aebb86ac81ddb',
        '75b18fd7f849429efd34b4a1b440498119f047269725c03c33dd6a35d77333e4',
        '675c52c9a8dae2d1ceddb21110d942c999a207db60d04d1c505d0b1d30ba04a6',
        '1464aa801bb5d17ef9e1519ab4592ec58431fb8375f18b572865ffbd78e33fcc',
        'aa872375e396c5d0e056243a0f26a0682bdda421833b34dbb36b68a29edbd2e3',
        '967699eafc1c0e4d44204a9fe43734b16905a116602fb99429ca6fc4653fffe0',
    ],
}


@pytest.mark.parametrize("backend", ["fast", "sparse"])
@pytest.mark.parametrize("case", list(CASES))
def test_raycast_digests(case, backend):
    assert raycast_digests(case, backend) == EXPECTED[case]


@pytest.mark.skipif("jit" not in kernel_backend_names(),
                    reason="the jit backend needs numba")
@pytest.mark.parametrize("case", list(CASES))
def test_jit_raycast_digests(case):
    """``jit`` runs the fast march with numba-compiled sampling.  Its
    ICP front end is its own, held only to the golden tolerance, so its
    raycaster replays the fast run's volume and pose after each frame."""
    jit = get_kernel_backend("jit")

    def replay(system):
        ws = jit.make_workspace(system.input_camera, system.params,
                                PYRAMID_LEVELS)
        return jit.raycast_model(system.volume, system.compute_camera,
                                 system.pose, system.params.mu_distance, ws)

    assert raycast_digests(case, "fast", replay=replay) == EXPECTED[case]


def test_perturbation_changes_a_digest():
    """A 1e-6 m depth shift must move the pins: they can fail."""
    case = "64x48-vol96-csr1"
    got = raycast_digests(case, "fast", depth_offset=1e-6)
    assert got != EXPECTED[case]


if __name__ == "__main__":  # pragma: no cover - digest regeneration aid
    for case in CASES:
        for march in ("fast", "sparse"):
            print(f"{case} {march}:")
            for d in raycast_digests(case, march):
                print(f"    {d!r},")
