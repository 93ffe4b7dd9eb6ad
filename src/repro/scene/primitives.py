"""Signed-distance-function primitives and CSG combinators.

The synthetic datasets are built from analytic signed distance functions
(SDFs): each primitive maps an ``(N, 3)`` array of world points to ``(N,)``
signed distances (negative inside).  The renderer sphere-traces these fields
to produce depth images, and the reconstruction metric compares the SLAM
system's TSDF against the same field — so scene geometry, rendering and
evaluation all share one ground truth.

Each node has one distance implementation, :meth:`SDFNode.distance_xyz`,
which works on separate ``x``, ``y``, ``z`` coordinate arrays: elementwise
ufuncs over contiguous arrays instead of NumPy reductions over a length-3
axis, which dominate the cost of the ``(N, 3)`` form.  Norms are written
out as ``sqrt(x*x + y*y + z*z)``, bit-identical to ``np.linalg.norm`` along
the last axis, and axis maxima as nested ``np.maximum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import GeometryError


class SDFNode:
    """Base class for signed distance fields.

    Subclasses implement :meth:`distance_xyz`.  Colour support is optional:
    the default albedo is mid-grey, used by the RGB renderer for shading.
    """

    albedo: tuple[float, float, float] = (0.5, 0.5, 0.5)

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from each of ``(N, 3)`` points to the surface."""
        x, y, z = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        return self.distance_xyz(x, y, z)

    def distance_xyz(self, x: np.ndarray, y: np.ndarray,
                     z: np.ndarray) -> np.ndarray:
        """Signed distance for points given as separate coordinate arrays."""
        raise NotImplementedError

    def normal(self, points: np.ndarray, eps: float = 1e-4) -> np.ndarray:
        """Outward surface normal by central finite differences, ``(N, 3)``."""
        points = np.asarray(points, dtype=float)
        n = np.empty_like(points)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = eps
            n[:, axis] = self.distance(points + offset) - self.distance(points - offset)
        norms = np.linalg.norm(n, axis=-1, keepdims=True)
        norms = np.where(norms > 1e-12, norms, 1.0)
        return n / norms

    # CSG sugar -----------------------------------------------------------
    def union(self, other: "SDFNode") -> "Union":
        return Union([self, other])

    def __or__(self, other: "SDFNode") -> "Union":
        return self.union(other)


@dataclass
class Sphere(SDFNode):
    """Sphere of radius ``radius`` centred at ``center``."""

    center: Sequence[float]
    radius: float
    albedo: tuple[float, float, float] = (0.5, 0.5, 0.5)

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError(f"sphere radius must be positive, got {self.radius}")
        self.center = np.asarray(self.center, dtype=float).reshape(3)

    def distance_xyz(self, x, y, z):
        cx, cy, cz = self.center
        dx, dy, dz = x - cx, y - cy, z - cz
        return np.sqrt(dx * dx + dy * dy + dz * dz) - self.radius


@dataclass
class Box(SDFNode):
    """Axis-aligned box centred at ``center`` with half extents ``half``."""

    center: Sequence[float]
    half: Sequence[float]
    albedo: tuple[float, float, float] = (0.5, 0.5, 0.5)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.half = np.asarray(self.half, dtype=float).reshape(3)
        if np.any(self.half <= 0):
            raise GeometryError(f"box half extents must be positive, got {self.half}")

    def distance_xyz(self, x, y, z):
        cx, cy, cz = self.center
        hx, hy, hz = self.half
        qx = np.abs(x - cx) - hx
        qy = np.abs(y - cy) - hy
        qz = np.abs(z - cz) - hz
        ox, oy, oz = np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0)
        outside = np.sqrt(ox * ox + oy * oy + oz * oz)
        inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        return outside + inside


@dataclass
class Plane(SDFNode):
    """Half-space: the surface is the plane ``direction . x = offset``.

    Points on the side the direction vector points to have positive
    distance.  (The field is called ``direction`` rather than ``normal`` to
    avoid shadowing :meth:`SDFNode.normal`.)
    """

    direction: Sequence[float]
    offset: float
    albedo: tuple[float, float, float] = (0.5, 0.5, 0.5)

    def __post_init__(self):
        n = np.asarray(self.direction, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise GeometryError("plane direction must be non-zero")
        self.direction = n / norm
        self.offset = float(self.offset) / norm

    def distance_xyz(self, x, y, z):
        # Keep the matrix product: an explicit three-term dot rounds
        # differently in the last bit on ~30% of points.
        return np.stack((x, y, z), axis=-1) @ self.direction - self.offset


@dataclass
class Cylinder(SDFNode):
    """Vertical (y-axis) capped cylinder."""

    center: Sequence[float]
    radius: float
    half_height: float
    albedo: tuple[float, float, float] = (0.5, 0.5, 0.5)

    def __post_init__(self):
        if self.radius <= 0 or self.half_height <= 0:
            raise GeometryError("cylinder radius and half_height must be positive")
        self.center = np.asarray(self.center, dtype=float).reshape(3)

    def distance_xyz(self, x, y, z):
        cx, cy, cz = self.center
        px, pz = x - cx, z - cz
        radial = np.sqrt(px * px + pz * pz) - self.radius
        axial = np.abs(y - cy) - self.half_height
        orad, oax = np.maximum(radial, 0.0), np.maximum(axial, 0.0)
        outside = np.sqrt(orad * orad + oax * oax)
        inside = np.minimum(np.maximum(radial, axial), 0.0)
        return outside + inside


@dataclass
class Union(SDFNode):
    """CSG union of child fields (pointwise minimum of distances)."""

    children: list[SDFNode] = field(default_factory=list)

    def __post_init__(self):
        if not self.children:
            raise GeometryError("union needs at least one child")

    def distance_xyz(self, x, y, z):
        d = self.children[0].distance_xyz(x, y, z)
        for child in self.children[1:]:
            d = np.minimum(d, child.distance_xyz(x, y, z))
        return d

    def nearest_child(self, points: np.ndarray) -> np.ndarray:
        """Index of the child nearest to each point (for per-object albedo)."""
        dists = np.stack([c.distance(points) for c in self.children], axis=0)
        return np.argmin(dists, axis=0)

    def albedo_at(self, points: np.ndarray) -> np.ndarray:
        """Per-point albedo ``(N, 3)`` taken from the nearest child."""
        idx = self.nearest_child(points)
        albedos = np.array([c.albedo for c in self.children])
        return albedos[idx]


@dataclass
class Negation(SDFNode):
    """Flip inside/outside — turns a box into a room interior."""

    child: SDFNode

    def distance_xyz(self, x, y, z):
        return -self.child.distance_xyz(x, y, z)

    @property
    def albedo(self):  # type: ignore[override]
        return self.child.albedo
