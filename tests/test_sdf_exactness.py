"""Component-wise SDF evaluation is bit-identical to the (N, 3) formulas.

The reference functions below are the original per-primitive formulas,
written over ``(N, 3)`` arrays with ``np.linalg.norm`` and axis
reductions.  They live only here: the library keeps one distance
implementation per primitive (``distance_xyz``), and every probe point
must give the same float64 bits as the reference, checked with
``tobytes()`` rather than a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scene import (Box, Cylinder, Negation, Plane, Sphere, Union,
                         corridor, living_room, office)


def reference(node, p: np.ndarray) -> np.ndarray:
    if isinstance(node, Sphere):
        return np.linalg.norm(p - node.center, axis=-1) - node.radius
    if isinstance(node, Box):
        q = np.abs(p - node.center) - node.half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside
    if isinstance(node, Plane):
        return p @ node.direction - node.offset
    if isinstance(node, Cylinder):
        q = p - node.center
        radial = np.linalg.norm(q[..., [0, 2]], axis=-1) - node.radius
        axial = np.abs(q[..., 1]) - node.half_height
        outside = np.linalg.norm(
            np.stack([np.maximum(radial, 0.0), np.maximum(axial, 0.0)], axis=-1),
            axis=-1,
        )
        inside = np.minimum(np.maximum(radial, axial), 0.0)
        return outside + inside
    if isinstance(node, Union):
        d = reference(node.children[0], p)
        for child in node.children[1:]:
            d = np.minimum(d, reference(child, p))
        return d
    if isinstance(node, Negation):
        return -reference(node.child, p)
    raise TypeError(node)


def probe_points(node, center, scale: float, rng) -> np.ndarray:
    """Points inside, outside, on and within 1 nm-1 mm of the surface."""
    center = np.asarray(center, dtype=float)
    spread = center + rng.uniform(-2.0, 2.0, size=(3000, 3)) * scale
    d = reference(node, spread)
    eps = 1e-5
    grad = np.stack(
        [reference(node, spread + e) - reference(node, spread - e)
         for e in np.eye(3) * eps], axis=-1)
    grad /= np.maximum(np.linalg.norm(grad, axis=-1, keepdims=True), 1e-12)
    surface = spread - d[:, None] * grad
    near = surface + rng.normal(size=surface.shape) * 10.0 ** rng.uniform(
        -9.0, -3.0, size=(len(surface), 1))
    return np.concatenate([spread, surface, near, center[None]])


def _nodes():
    box = Box(center=(0.3, -0.2, 1.0), half=(0.5, 0.25, 0.8))
    sphere = Sphere(center=(-0.4, 0.5, 0.2), radius=0.7)
    cylinder = Cylinder(center=(0.1, 0.3, -0.5), radius=0.35, half_height=0.9)
    plane = Plane(direction=(0.3, 1.0, -0.2), offset=0.4)
    nested = Union([Negation(Box(center=(0, 1, 0), half=(2.0, 1.0, 2.0))),
                    Union([sphere, Union([cylinder, box])]), plane])
    return {
        "sphere": (sphere, sphere.center, 0.7),
        "box": (box, box.center, 0.8),
        "cylinder": (cylinder, cylinder.center, 0.9),
        "plane": (plane, (0.0, 0.4, 0.0), 1.0),
        "negation": (Negation(box), box.center, 0.8),
        "nested_union": (nested, (0.0, 0.5, 0.0), 2.0),
        "living_room": (living_room().sdf, (0.0, 1.2, 0.0), 2.4),
        "office": (office().sdf, (0.2, 1.1, 0.2), 2.0),
        "corridor": (corridor().sdf, (0.0, 1.2, 0.0), 3.0),
    }


NODES = _nodes()


@pytest.mark.parametrize("name", sorted(NODES))
def test_distance_is_bit_identical_to_reference(name):
    node, center, scale = NODES[name]
    points = probe_points(node, center, scale, np.random.default_rng(7))
    expected = reference(node, points)
    assert node.distance(points).tobytes() == expected.tobytes()
    x, y, z = np.ascontiguousarray(points.T)
    assert node.distance_xyz(x, y, z).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["box", "cylinder", "nested_union"])
def test_distance_keeps_leading_dimensions(name):
    node, center, scale = NODES[name]
    grid = probe_points(node, center, scale, np.random.default_rng(3))[:1200]
    grid = grid.reshape(30, 40, 3)
    out = node.distance(grid)
    assert out.shape == (30, 40)
    assert out.tobytes() == reference(node, grid).tobytes()


def test_probe_points_straddle_every_surface():
    for node, center, scale in NODES.values():
        d = reference(node, probe_points(node, center, scale,
                                         np.random.default_rng(7)))
        assert (d < 0).any() and (d > 0).any() and (np.abs(d) < 1e-6).any()
