"""Procedural mesh generators.

These stand in for the game art assets we cannot ship: terrain and room
shells for level geometry, cylinders and lumpy capsules for props and
characters, and Doom3-style shadow-volume extrusion for the stencil-shadow
workloads.  All generators are deterministic in their arguments (and seed).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.mesh import Mesh
from repro.geometry.primitives import PrimitiveType


def grid_mesh(
    name: str,
    nx: int,
    nz: int,
    size_x: float,
    size_z: float,
    height_fn=None,
    primitive: PrimitiveType = PrimitiveType.TRIANGLE_LIST,
    uv_tiles: float = 4.0,
    index_size_bytes: int = 2,
) -> Mesh:
    """A regular grid of ``nx`` x ``nz`` cells in the XZ plane.

    Triangle lists are emitted in strip order (each triangle shares an edge
    with its predecessor) so the post-transform vertex cache sees the ~66%
    hit rate the paper measures.  With ``primitive=TRIANGLE_STRIP`` the rows
    are stitched into one strip using degenerate triangles, as the
    Oblivion-era terrain renderers did.
    """
    if nx < 1 or nz < 1:
        raise ValueError("grid needs at least 1x1 cells")
    xs = np.linspace(-size_x / 2.0, size_x / 2.0, nx + 1)
    zs = np.linspace(-size_z / 2.0, size_z / 2.0, nz + 1)
    gx, gz = np.meshgrid(xs, zs, indexing="xy")
    heights = (
        height_fn(gx, gz) if height_fn is not None else np.zeros_like(gx)
    )
    positions = np.stack([gx, heights, gz], axis=-1).reshape(-1, 3)
    u = np.tile((xs - xs[0]) / (xs[-1] - xs[0]), nz + 1) * uv_tiles
    v = np.repeat((zs - zs[0]) / (zs[-1] - zs[0]), nx + 1) * uv_tiles
    uvs = np.stack([u, v], axis=-1)

    def vid(ix: int, iz: int) -> int:
        return iz * (nx + 1) + ix

    if primitive is PrimitiveType.TRIANGLE_LIST:
        indices: list[int] = []
        for iz in range(nz):
            xrange = range(nx) if iz % 2 == 0 else range(nx - 1, -1, -1)
            for ix in xrange:
                a, b = vid(ix, iz), vid(ix + 1, iz)
                c, d = vid(ix, iz + 1), vid(ix + 1, iz + 1)
                # +Y-facing winding; consecutive triangles share an edge so
                # the post-transform cache sees the ~66% adjacent-triangle
                # hit rate (Fig. 5).
                indices.extend((a, c, b, b, c, d))
    elif primitive is PrimitiveType.TRIANGLE_STRIP:
        indices = []
        for iz in range(nz):
            row = []
            for ix in range(nx + 1):
                row.extend((vid(ix, iz), vid(ix, iz + 1)))
            if indices:
                # Stitch with two degenerate triangles.
                indices.extend((indices[-1], row[0]))
            indices.extend(row)
    else:
        raise ValueError("grid_mesh supports TRIANGLE_LIST and TRIANGLE_STRIP")
    return Mesh(
        name=name,
        positions=positions,
        indices=np.asarray(indices, dtype=np.int32),
        uvs=uvs,
        primitive=primitive,
        index_size_bytes=index_size_bytes,
    )


def value_noise_height(seed: int, amplitude: float, feature_size: float):
    """A deterministic value-noise height function for terrain grids."""
    rng = np.random.default_rng(seed)
    lattice = rng.random((64, 64))

    def height(x: np.ndarray, z: np.ndarray) -> np.ndarray:
        fx = np.asarray(x) / feature_size
        fz = np.asarray(z) / feature_size
        ix = np.floor(fx).astype(int) % 63
        iz = np.floor(fz).astype(int) % 63
        tx = fx - np.floor(fx)
        tz = fz - np.floor(fz)
        tx = tx * tx * (3 - 2 * tx)
        tz = tz * tz * (3 - 2 * tz)
        v00 = lattice[ix, iz]
        v10 = lattice[ix + 1, iz]
        v01 = lattice[ix, iz + 1]
        v11 = lattice[ix + 1, iz + 1]
        return amplitude * (
            v00 * (1 - tx) * (1 - tz)
            + v10 * tx * (1 - tz)
            + v01 * (1 - tx) * tz
            + v11 * tx * tz
        )

    return height


def terrain_mesh(
    name: str,
    seed: int,
    size: float,
    cells: int,
    amplitude: float | None = None,
    primitive: PrimitiveType = PrimitiveType.TRIANGLE_LIST,
    index_size_bytes: int = 2,
) -> Mesh:
    """Noise-displaced terrain patch (the Oblivion-style open countryside)."""
    amplitude = size * 0.08 if amplitude is None else amplitude
    return grid_mesh(
        name,
        cells,
        cells,
        size,
        size,
        height_fn=value_noise_height(seed, amplitude, size / 6.0),
        primitive=primitive,
        uv_tiles=size / 4.0,
        index_size_bytes=index_size_bytes,
    )


def box_mesh(
    name: str,
    size,
    subdivisions: int = 1,
    inward: bool = False,
    index_size_bytes: int = 2,
    uv_tiles: float = 2.0,
) -> Mesh:
    """An axis-aligned box made of 6 subdivided faces.

    ``inward=True`` flips the winding so faces point into the box — the shell
    of a room, which is how the indoor engines (Doom3/Quake4/Riddick) see
    most of their level geometry.
    """
    sx, sy, sz = (float(s) for s in np.broadcast_to(np.asarray(size, float), (3,)))
    n = max(1, subdivisions)
    positions: list[np.ndarray] = []
    uvs: list[np.ndarray] = []
    indices: list[int] = []
    # axis = constant axis; sign = face side; (ua, va) = in-face axes.
    faces = [
        (0, +1, 2, 1), (0, -1, 2, 1),
        (1, +1, 0, 2), (1, -1, 0, 2),
        (2, +1, 0, 1), (2, -1, 0, 1),
    ]
    half = np.array([sx, sy, sz]) / 2.0
    for axis, sign, ua, va in faces:
        base = sum(p.shape[0] for p in positions)
        t = np.linspace(-1.0, 1.0, n + 1)
        gu, gv = np.meshgrid(t, t, indexing="xy")
        pts = np.zeros((n + 1, n + 1, 3))
        pts[..., axis] = sign * half[axis]
        pts[..., ua] = gu * half[ua]
        pts[..., va] = gv * half[va]
        positions.append(pts.reshape(-1, 3))
        uvs.append(
            np.stack(
                [(gu + 1) / 2 * uv_tiles, (gv + 1) / 2 * uv_tiles], axis=-1
            ).reshape(-1, 2)
        )
        # Orient triangles so cross(b - a, c - a) points along the desired
        # normal: outward for a solid box, inward for a room shell.
        e_u = np.zeros(3)
        e_u[ua] = 1.0
        e_v = np.zeros(3)
        e_v[va] = 1.0
        desired = np.zeros(3)
        desired[axis] = -sign if inward else sign
        keep_order = float(np.cross(e_u, e_v) @ desired) > 0.0
        for iz in range(n):
            for ix in range(n):
                a = base + iz * (n + 1) + ix
                b, c, d = a + 1, a + (n + 1), a + (n + 2)
                if keep_order:
                    indices.extend((a, b, c, b, d, c))
                else:
                    indices.extend((a, c, b, b, c, d))
    return Mesh(
        name=name,
        positions=np.concatenate(positions),
        indices=np.asarray(indices, dtype=np.int32),
        uvs=np.concatenate(uvs),
        index_size_bytes=index_size_bytes,
    )


def room_mesh(
    name: str,
    size,
    subdivisions: int = 4,
    index_size_bytes: int = 4,
) -> Mesh:
    """Inward-facing box shell: the canonical indoor-scene backdrop."""
    return box_mesh(
        name,
        size,
        subdivisions=subdivisions,
        inward=True,
        index_size_bytes=index_size_bytes,
        uv_tiles=float(subdivisions),
    )


def cylinder_mesh(
    name: str,
    radius: float,
    height: float,
    segments: int = 12,
    rings: int = 2,
    index_size_bytes: int = 2,
) -> Mesh:
    """A closed cylinder (capped) — props, pillars, barrels.

    Closed 2-manifold, so it is a valid stencil-shadow caster.
    """
    segments = max(3, segments)
    rings = max(1, rings)
    positions: list[tuple[float, float, float]] = []
    uvs: list[tuple[float, float]] = []
    angles = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    ys = np.linspace(-height / 2.0, height / 2.0, rings + 1)
    for y in ys:
        for k, a in enumerate(angles):
            positions.append((radius * np.cos(a), y, radius * np.sin(a)))
            uvs.append((k / segments * 3.0, (y / height + 0.5) * 2.0))
    indices: list[int] = []
    for r in range(rings):
        for s in range(segments):
            a = r * segments + s
            b = r * segments + (s + 1) % segments
            c = a + segments
            d = b + segments
            indices.extend((a, c, b, b, c, d))
    bottom_center = len(positions)
    positions.append((0.0, -height / 2.0, 0.0))
    uvs.append((0.5, 0.0))
    top_center = len(positions)
    positions.append((0.0, height / 2.0, 0.0))
    uvs.append((0.5, 1.0))
    top_row = rings * segments
    for s in range(segments):
        s2 = (s + 1) % segments
        indices.extend((bottom_center, s, s2))
        indices.extend((top_center, top_row + s2, top_row + s))
    return Mesh(
        name=name,
        positions=np.asarray(positions),
        indices=np.asarray(indices, dtype=np.int32),
        uvs=np.asarray(uvs),
        index_size_bytes=index_size_bytes,
    )


def character_mesh(
    name: str,
    seed: int,
    radius: float = 0.45,
    height: float = 1.8,
    segments: int = 10,
    rings: int = 8,
    index_size_bytes: int = 4,
) -> Mesh:
    """A lumpy capsule standing in for a skinned character model.

    Closed 2-manifold (valid shadow caster); the per-vertex radial noise
    gives it a non-trivial silhouette like a real character.
    """
    rng = np.random.default_rng(seed)
    segments = max(4, segments)
    rings = max(4, rings)
    positions: list[tuple[float, float, float]] = []
    uvs: list[tuple[float, float]] = []
    positions.append((0.0, 0.0, 0.0))  # bottom pole
    uvs.append((0.5, 0.0))
    for r in range(1, rings):
        phi = np.pi * r / rings
        y = height / 2.0 * (1.0 - np.cos(phi)) + 0.0
        ring_radius = radius * np.sin(phi)
        for s in range(segments):
            theta = 2 * np.pi * s / segments
            bump = 1.0 + 0.25 * (rng.random() - 0.5)
            positions.append(
                (
                    ring_radius * bump * np.cos(theta),
                    y,
                    ring_radius * bump * np.sin(theta),
                )
            )
            uvs.append((s / segments * 2.0, r / rings * 2.0))
    positions.append((0.0, height, 0.0))  # top pole
    uvs.append((0.5, 1.0))
    top = len(positions) - 1
    indices: list[int] = []
    for s in range(segments):
        s2 = (s + 1) % segments
        indices.extend((0, 1 + s, 1 + s2))
    for r in range(rings - 2):
        row0 = 1 + r * segments
        row1 = row0 + segments
        for s in range(segments):
            s2 = (s + 1) % segments
            indices.extend((row0 + s, row1 + s, row0 + s2))
            indices.extend((row0 + s2, row1 + s, row1 + s2))
    last_row = 1 + (rings - 2) * segments
    for s in range(segments):
        s2 = (s + 1) % segments
        indices.extend((top, last_row + s2, last_row + s))
    return Mesh(
        name=name,
        positions=np.asarray(positions),
        indices=np.asarray(indices, dtype=np.int32),
        uvs=np.asarray(uvs),
        index_size_bytes=index_size_bytes,
    )


#: A side quad's two triangles over its corners ``v, u, u', v'`` (the
#: primed corners pushed along the light): ``(v, u, u')`` and ``(v, u', v')``.
_SIDE_QUAD = np.array([0, 1, 2, 0, 2, 3], dtype=np.int64)


def _weld_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence index and inverse of each distinct ``(n, 3)`` row.

    Equals ``np.unique(keys, axis=0, return_index=True,
    return_inverse=True)[1:]`` — distinct rows numbered in lexicographic
    order, each represented by its first occurrence — from one stable
    lexsort, without ``np.unique``'s per-call structured-dtype cost.
    """
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    ordered = keys[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


class ShadowCaster:
    """The light-independent half of shadow-volume extrusion for one mesh.

    Welds vertices by position, assembles triangles and computes face
    normals and undirected edge ids once; :meth:`extrude` then builds one
    volume per light with array operations, all lights of a call at once.
    A scene extrudes each caster mesh for every placed instance's room
    lights, so it builds one caster per mesh and calls it once per
    instance.
    """

    def __init__(self, mesh: Mesh):
        tris = mesh.triangles()
        if tris.shape[0] == 0:
            raise ValueError("mesh has no triangles")
        self.name = mesh.name
        self.index_size_bytes = mesh.index_size_bytes
        # Weld vertices by quantized position so edge adjacency is watertight.
        keys = np.round(mesh.positions * 4096.0).astype(np.int64)
        weld = _weld_rows(keys)[1]
        self.tris = weld[tris]
        # Representative position per weld id.
        self.rep = np.zeros((weld.max() + 1, 3))
        self.rep[weld] = mesh.positions

        p0 = mesh.positions[tris[:, 0]]
        e1 = mesh.positions[tris[:, 1]] - p0
        e2 = mesh.positions[tris[:, 2]] - p0
        self.face_normals = np.cross(e1, e2)

        a, b, c = self.tris.T
        # Degenerate stitching triangles take no part in edge adjacency;
        # the caps leave out only those whose first two corners weld.
        self.solid = (a != b) & (b != c) & (a != c)
        self.capped = a != b
        # Directed edges (a, b), (b, c), (c, a) of every triangle and the
        # undirected edge each one lies on.
        self.heads = self.tris[:, [1, 2, 0]]
        lo = np.minimum(self.tris, self.heads)
        hi = np.maximum(self.tris, self.heads)
        _, edge_ids = np.unique(lo * self.rep.shape[0] + hi, return_inverse=True)
        self.edge_ids = edge_ids.reshape(-1, 3)
        self.edge_count = int(self.edge_ids.max()) + 1

    def extrude(self, light_dirs, extrusions, names) -> list[Mesh]:
        """The closed z-fail shadow volume of this caster for each light.

        ``light_dirs``, ``extrusions`` and ``names`` hold one entry per
        light (a ``None`` name means ``<mesh>.shadow``); one volume is
        returned per light, in order.  Lights are stacked on a leading
        axis for edge classification and vertex emission; each light is
        normalized and welded on its own, so every volume is the same as
        a one-light call's.  Vertices are emitted side quads first, in the
        order their edge first appears among lit triangles, then each lit
        triangle's front and back cap; the weld keeps each position's
        first occurrence.
        """
        lights = []
        for light_dir in light_dirs:
            light = np.asarray(light_dir, dtype=np.float64)
            norm = np.linalg.norm(light)
            if norm == 0.0:
                raise ValueError("light_dir must be non-zero")
            lights.append(light / norm)
        count = len(lights)
        if count == 0:
            return []
        # A face "faces the light" when the light arrives against its normal.
        lit = np.stack([(self.face_normals @ light) < 0.0 for light in lights])

        # A silhouette edge separates a light-facing triangle from a
        # back-facing one (or is an open boundary of a light-facing triangle).
        # Edge ids are offset per light so one bincount serves every light.
        edges = self.edge_ids + (self.edge_count * np.arange(count))[:, None, None]
        front = lit & self.solid
        lit_edges = edges[front].ravel()
        lit_count = np.bincount(lit_edges, minlength=count * self.edge_count)
        unlit_count = np.bincount(
            edges[~lit & self.solid].ravel(), minlength=count * self.edge_count
        )
        silhouette = (lit_count == 1) & (unlit_count != 2)
        on_silhouette = silhouette[lit_edges]
        side_light = lit_edges[on_silhouette] // self.edge_count
        tris = np.broadcast_to(self.tris, edges.shape)
        tails = tris[front].ravel()[on_silhouette]
        heads = np.broadcast_to(self.heads, edges.shape)[front].ravel()[on_silhouette]

        offsets = np.stack(lights) * np.asarray(extrusions, dtype=np.float64)[:, None]
        # The directed edge (u -> v) belongs to a lit (front cap) face; the
        # side quad must traverse it the opposite way (v -> u) so the volume
        # closes with consistent outward winding.
        pu, pv = self.rep[tails], self.rep[heads]
        offset = offsets[side_light]
        sides = np.stack((pv, pu, pu + offset, pv + offset), axis=1)
        cap_mask = lit & self.capped
        cap_light = np.nonzero(cap_mask)[0]
        pa, pb, pc = (self.rep[corner] for corner in tris[cap_mask].T)
        offset = offsets[cap_light]
        # Front cap, then the back cap: extruded, winding flipped.
        caps = np.stack((pa, pb, pc, pc + offset, pb + offset, pa + offset), axis=1)
        side_bounds = np.searchsorted(side_light, np.arange(count + 1))
        cap_bounds = np.searchsorted(cap_light, np.arange(count + 1))

        volumes = []
        for index, name in enumerate(names):
            light_sides = sides[side_bounds[index] : side_bounds[index + 1]]
            light_caps = caps[cap_bounds[index] : cap_bounds[index + 1]]
            positions = np.concatenate(
                (light_sides.reshape(-1, 3), light_caps.reshape(-1, 3))
            )
            side_count = light_sides.shape[0]
            indices = np.concatenate(
                (
                    (4 * np.arange(side_count)[:, None] + _SIDE_QUAD).ravel(),
                    np.arange(4 * side_count, positions.shape[0]),
                )
            )
            # Weld duplicate vertices so the volume is indexed like real
            # engine volumes are — silhouette/cap vertices are shared, which
            # matters for the post-transform vertex cache statistics.
            first_ids, inverse = _weld_rows(
                np.round(positions * 1024.0).astype(np.int64)
            )
            welded_positions = positions[first_ids]
            volumes.append(
                Mesh(
                    name=name or f"{self.name}.shadow",
                    positions=welded_positions,
                    indices=inverse[indices].astype(np.int32),
                    uvs=np.zeros((welded_positions.shape[0], 2)),
                    index_size_bytes=self.index_size_bytes,
                )
            )
        return volumes


def extrude_shadow_volume(
    mesh: Mesh,
    light_dir,
    extrusion: float = 200.0,
    name: str | None = None,
) -> Mesh:
    """Extrude a Doom3-style z-fail stencil shadow volume from ``mesh``.

    The volume is closed: front cap (light-facing faces), back cap (the same
    faces pushed along the light and flipped) and side quads along the
    silhouette (edges between a light-facing and a back-facing triangle).
    Duplicate vertices are welded by position so non-indexed-shared meshes
    still produce watertight silhouettes.  To extrude one mesh for several
    lights, build its :class:`ShadowCaster` once and pass them all to one
    :meth:`ShadowCaster.extrude` call.
    """
    return ShadowCaster(mesh).extrude([light_dir], [extrusion], [name])[0]
