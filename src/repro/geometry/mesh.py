"""Mesh container: vertex arrays + an index stream + a primitive topology."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.geometry.primitives import PrimitiveType, assemble_triangles, primitive_count


@dataclass(frozen=True)
class VertexLayout:
    """Byte layout of one vertex in the GPU-resident vertex buffer.

    The paper's Table XVII "bytes per vertex" depends on how fat each
    engine's vertex format is (position/normal/uv/color/tangent/uv1); the
    flags here mirror the arrays a :class:`Mesh` actually carries.
    """

    has_normal: bool = True
    has_uv: bool = True
    has_color: bool = False
    has_tangent: bool = False
    has_uv1: bool = False

    @property
    def stride_bytes(self) -> int:
        """Size of one vertex: float3 position plus the enabled attributes."""
        stride = 12
        if self.has_normal:
            stride += 12
        if self.has_uv:
            stride += 8
        if self.has_color:
            stride += 4
        if self.has_tangent:
            stride += 12
        if self.has_uv1:
            stride += 8
        return stride


class Mesh:
    """Indexed triangle geometry, the unit the engines upload at startup.

    ``index_size_bytes`` is 2 or 4 and, per the paper, is constant per
    middleware (Unreal/Source/Lithtech use 16-bit indices, idTech4 32-bit).

    Normals a caller supplies are validated here and pickled with the
    mesh.  Without them, :attr:`normals` derives area-weighted vertex
    normals on first read and memoizes them; derived normals stay out of
    pickles.  Only lit vertex shading reads normals, so API and
    geometry-only runs never compute them.
    """

    def __init__(
        self,
        name: str,
        positions: np.ndarray,
        indices: np.ndarray,
        primitive: PrimitiveType = PrimitiveType.TRIANGLE_LIST,
        normals: np.ndarray | None = None,
        uvs: np.ndarray | None = None,
        colors: np.ndarray | None = None,
        index_size_bytes: int = 2,
        extra_attributes: int = 0,  # tangent/uv1-style padding attributes
    ) -> None:
        self.name = name
        self.positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        self.indices = np.asarray(indices, dtype=np.int32).reshape(-1)
        self.primitive = primitive
        self.index_size_bytes = index_size_bytes
        self.extra_attributes = extra_attributes
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        if index_size_bytes not in (2, 4):
            raise ValueError("index_size_bytes must be 2 or 4")
        n = self.vertex_count
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError(f"{self.name}: indices out of range [0, {n})")
        self._normals_given = normals is not None
        if normals is not None:
            self.normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
        if uvs is None:
            self.uvs = self._planar_uvs()
        else:
            self.uvs = np.asarray(uvs, dtype=np.float64).reshape(-1, 2)
        self.colors = colors
        if colors is not None:
            self.colors = np.asarray(colors, dtype=np.float64).reshape(-1, 4)
        for attr_name in ("normals", "uvs", "colors"):
            arr = self.__dict__.get(attr_name)
            if arr is not None and arr.shape[0] != n:
                raise ValueError(f"{self.name}: {attr_name} count != vertex count")

    @functools.cached_property
    def normals(self) -> np.ndarray:
        """Area-weighted vertex normals from the triangle faces."""
        normals = np.zeros_like(self.positions)
        tris = self.triangles()
        if tris.shape[0] == 0:
            normals[:, 1] = 1.0
            return normals
        p0 = self.positions[tris[:, 0]]
        e1 = self.positions[tris[:, 1]] - p0
        e2 = self.positions[tris[:, 2]] - p0
        face = np.cross(e1, e2)
        for c in range(3):
            np.add.at(normals, tris[:, c], face)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        lengths[lengths == 0.0] = 1.0
        return normals / lengths

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if not self._normals_given:
            state.pop("normals", None)  # derived: recomputed on first read
        return state

    @property
    def vertex_count(self) -> int:
        return self.positions.shape[0]

    @property
    def index_count(self) -> int:
        return int(self.indices.size)

    @property
    def triangle_count(self) -> int:
        return primitive_count(self.index_count, self.primitive)

    @property
    def layout(self) -> VertexLayout:
        return VertexLayout(
            has_normal=True,
            has_uv=True,
            has_color=self.colors is not None,
            has_tangent=self.extra_attributes >= 1,
            has_uv1=self.extra_attributes >= 2,
        )

    @property
    def vertex_size_bytes(self) -> int:
        return self.layout.stride_bytes

    def triangles(self) -> np.ndarray:
        """Assembled ``(T, 3)`` triangle index array."""
        return assemble_triangles(self.indices, self.primitive)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min, max) corners of the mesh."""
        if self._bounds is None:
            if self.vertex_count == 0:
                zero = np.zeros(3)
                self._bounds = (zero, zero)
            else:
                self._bounds = (self.positions.min(axis=0), self.positions.max(axis=0))
        return self._bounds

    def bounding_sphere(self) -> tuple[np.ndarray, float]:
        """Center and radius of a bounding sphere (from the AABB)."""
        lo, hi = self.bounds()
        center = (lo + hi) / 2.0
        radius = float(np.linalg.norm(hi - center))
        return center, radius

    def _planar_uvs(self) -> np.ndarray:
        """Fallback planar UVs over the dominant extent (tiled ~4x)."""
        lo, hi = self.bounds()
        span = np.maximum(hi - lo, 1e-9)
        axes = np.argsort(span)[-2:]
        uv = (self.positions[:, sorted(axes)] - lo[sorted(axes)]) / span[
            sorted(axes)
        ]
        return uv * 4.0
