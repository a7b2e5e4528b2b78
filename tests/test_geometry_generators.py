"""Tests for procedural mesh generators and shadow-volume extrusion."""

import numpy as np
import pytest

from repro.geometry.generators import (
    ShadowCaster,
    _weld_rows,
    box_mesh,
    character_mesh,
    cylinder_mesh,
    extrude_shadow_volume,
    grid_mesh,
    room_mesh,
    terrain_mesh,
    value_noise_height,
)
from repro.geometry.mesh import Mesh
from repro.geometry.primitives import PrimitiveType


def signed_volume(mesh) -> float:
    t = mesh.triangles()
    a = mesh.positions[t[:, 0]]
    b = mesh.positions[t[:, 1]]
    c = mesh.positions[t[:, 2]]
    return float(np.sum(np.einsum("ij,ij->i", a, np.cross(b, c))) / 6.0)


def edge_balance(mesh) -> bool:
    """True when every edge is shared by exactly two opposed triangles.

    Vertices are welded by position first — several generators (box faces)
    emit per-face vertices, which is still geometrically watertight.
    """
    keys = np.round(mesh.positions * 4096.0).astype(np.int64)
    _, weld = np.unique(keys, axis=0, return_inverse=True)
    counts = {}
    for tri in weld[mesh.triangles()]:
        a, b, c = (int(v) for v in tri)
        if a == b or b == c or a == c:
            continue
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + (1 if u < v else -1)
    return all(v == 0 for v in counts.values())


class TestGrid:
    def test_counts(self):
        mesh = grid_mesh("g", 4, 3, 8, 6)
        assert mesh.vertex_count == 5 * 4
        assert mesh.triangle_count == 4 * 3 * 2

    def test_normals_up(self):
        mesh = grid_mesh("g", 4, 4, 8, 8)
        tris = mesh.triangles()
        n = np.cross(
            mesh.positions[tris[:, 1]] - mesh.positions[tris[:, 0]],
            mesh.positions[tris[:, 2]] - mesh.positions[tris[:, 0]],
        )
        assert (n[:, 1] > 0).all()

    def test_strip_variant_counts_degenerates(self):
        mesh = grid_mesh("g", 4, 3, 8, 6, primitive=PrimitiveType.TRIANGLE_STRIP)
        # Real triangles plus the degenerate stitches between rows.
        assert mesh.triangle_count >= 4 * 3 * 2

    def test_height_function_applied(self):
        mesh = grid_mesh("g", 4, 4, 8, 8, height_fn=lambda x, z: x * 0.0 + 2.0)
        assert np.allclose(mesh.positions[:, 1], 2.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            grid_mesh("g", 0, 3, 1, 1)


class TestSolids:
    def test_box_closed_and_outward(self):
        mesh = box_mesh("b", (2, 2, 2), subdivisions=2)
        assert signed_volume(mesh) == pytest.approx(8.0)
        assert edge_balance(mesh)

    def test_room_inward(self):
        mesh = room_mesh("r", (2, 2, 2), subdivisions=1)
        assert signed_volume(mesh) == pytest.approx(-8.0)

    def test_cylinder_closed(self):
        mesh = cylinder_mesh("c", 1.0, 2.0, segments=16, rings=3)
        # Closed solid with positive volume close to pi*r^2*h.
        assert signed_volume(mesh) == pytest.approx(np.pi * 2.0, rel=0.1)
        assert edge_balance(mesh)

    def test_character_closed(self):
        mesh = character_mesh("ch", seed=7)
        assert signed_volume(mesh) > 0
        assert edge_balance(mesh)

    def test_character_deterministic(self):
        a = character_mesh("a", seed=5)
        b = character_mesh("b", seed=5)
        assert np.allclose(a.positions, b.positions)

    def test_terrain_within_amplitude(self):
        mesh = terrain_mesh("t", seed=1, size=100.0, cells=16)
        assert mesh.positions[:, 1].max() <= 100.0 * 0.08 + 1e-9
        assert mesh.positions[:, 1].min() >= 0.0

    def test_value_noise_deterministic_and_bounded(self):
        h = value_noise_height(3, amplitude=2.0, feature_size=10.0)
        xs = np.linspace(0, 50, 100)
        ys = h(xs, xs)
        assert (ys >= 0).all() and (ys <= 2.0).all()
        assert np.allclose(ys, value_noise_height(3, 2.0, 10.0)(xs, xs))


class TestShadowVolume:
    def test_volume_closed(self):
        caster = cylinder_mesh("c", 0.5, 1.5, segments=10, rings=2)
        volume = extrude_shadow_volume(caster, (0.4, -1.0, 0.2), extrusion=10.0)
        assert volume.triangle_count > caster.triangle_count
        # z-fail correctness requires a closed volume.
        assert edge_balance(volume)

    def test_volume_extends_along_light(self):
        caster = character_mesh("ch", seed=2)
        direction = np.array([1.0, 0.0, 0.0])
        volume = extrude_shadow_volume(caster, direction, extrusion=25.0)
        span = volume.positions[:, 0].max() - caster.positions[:, 0].max()
        assert span == pytest.approx(25.0, abs=1.0)

    def test_vertices_welded(self):
        caster = cylinder_mesh("c", 0.5, 1.5, segments=8, rings=2)
        volume = extrude_shadow_volume(caster, (0, -1, 0), extrusion=5.0)
        keys = {tuple(np.round(p, 4)) for p in volume.positions}
        assert len(keys) == volume.vertex_count  # no duplicate positions

    def test_zero_direction_rejected(self):
        caster = cylinder_mesh("c", 0.5, 1.5)
        with pytest.raises(ValueError, match="non-zero"):
            extrude_shadow_volume(caster, (0, 0, 0))
        with pytest.raises(ValueError, match="non-zero"):
            ShadowCaster(caster).extrude((0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="non-zero"):
            loop_extrude_shadow_volume(caster, (0, 0, 0))

    def test_empty_mesh_rejected(self):
        empty = Mesh("e", np.zeros((3, 3)) + np.arange(3)[:, None], [])
        with pytest.raises(ValueError, match="no triangles"):
            extrude_shadow_volume(empty, (0, -1, 0))
        with pytest.raises(ValueError, match="no triangles"):
            ShadowCaster(empty)
        with pytest.raises(ValueError, match="no triangles"):
            loop_extrude_shadow_volume(empty, (0, -1, 0))


def loop_extrude_shadow_volume(
    mesh: Mesh,
    light_dir,
    extrusion: float = 200.0,
    name: str | None = None,
) -> Mesh:
    """Reference extrusion: one triangle and one emitted vertex at a time.

    The original per-triangle construction, kept here as the definition
    :class:`ShadowCaster` must reproduce byte for byte.
    """
    light = np.asarray(light_dir, dtype=np.float64)
    norm = np.linalg.norm(light)
    if norm == 0.0:
        raise ValueError("light_dir must be non-zero")
    light = light / norm

    tris = mesh.triangles()
    if tris.shape[0] == 0:
        raise ValueError("mesh has no triangles")
    keys = np.round(mesh.positions * 4096.0).astype(np.int64)
    _, weld = np.unique(keys, axis=0, return_inverse=True)
    wtris = weld[tris]

    p0 = mesh.positions[tris[:, 0]]
    e1 = mesh.positions[tris[:, 1]] - p0
    e2 = mesh.positions[tris[:, 2]] - p0
    face_normals = np.cross(e1, e2)
    lit = (face_normals @ light) < 0.0

    lit_count: dict[tuple[int, int], int] = {}
    unlit_count: dict[tuple[int, int], int] = {}
    directed_lit: dict[tuple[int, int], tuple[int, int]] = {}
    for t in range(wtris.shape[0]):
        a, b, c = (int(v) for v in wtris[t])
        if a == b or b == c or a == c:
            continue
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            if lit[t]:
                lit_count[key] = lit_count.get(key, 0) + 1
                directed_lit[key] = (u, v)
            else:
                unlit_count[key] = unlit_count.get(key, 0) + 1
    sil_edges = [
        directed
        for key, directed in directed_lit.items()
        if lit_count[key] == 1 and unlit_count.get(key, 0) != 2
    ]

    rep = np.zeros((weld.max() + 1, 3))
    rep[weld] = mesh.positions
    offset = light * extrusion

    positions: list[np.ndarray] = []
    indices: list[int] = []

    def emit(p: np.ndarray) -> int:
        positions.append(p)
        return len(positions) - 1

    for u, v in sil_edges:
        pu, pv = rep[u], rep[v]
        i0 = emit(pv)
        i1 = emit(pu)
        i2 = emit(pu + offset)
        i3 = emit(pv + offset)
        indices.extend((i0, i1, i2, i0, i2, i3))
    lit_tris = wtris[lit & (wtris[:, 0] != wtris[:, 1])]
    for a, b, c in lit_tris:
        pa, pb, pc = rep[int(a)], rep[int(b)], rep[int(c)]
        indices.extend((emit(pa), emit(pb), emit(pc)))
        indices.extend((emit(pc + offset), emit(pb + offset), emit(pa + offset)))

    pos_arr = np.asarray(positions)
    keys2 = np.round(pos_arr * 1024.0).astype(np.int64)
    _, first_ids, inverse = np.unique(
        keys2, axis=0, return_index=True, return_inverse=True
    )
    welded_positions = pos_arr[first_ids]
    welded_indices = inverse[np.asarray(indices, dtype=np.int64)]
    return Mesh(
        name=name or f"{mesh.name}.shadow",
        positions=welded_positions,
        indices=welded_indices.astype(np.int32),
        uvs=np.zeros((welded_positions.shape[0], 2)),
        index_size_bytes=mesh.index_size_bytes,
    )


VOLUME_ARRAYS = ("positions", "indices", "normals", "uvs")


def volume_bytes(volume: Mesh) -> tuple:
    """Everything that identifies a volume, as comparable bytes."""
    arrays = tuple(
        (arr.dtype.str, arr.shape, arr.tobytes())
        for arr in (getattr(volume, attr) for attr in VOLUME_ARRAYS)
    )
    return (volume.name, volume.index_size_bytes) + arrays


def assert_matches_loop(mesh: Mesh, light_dir, extrusion=200.0, name=None):
    want = loop_extrude_shadow_volume(mesh, light_dir, extrusion, name)
    got = extrude_shadow_volume(mesh, light_dir, extrusion, name)
    assert volume_bytes(got) == volume_bytes(want)
    return got


@pytest.fixture(scope="module")
def doom3_extrusions():
    """Every extrusion the Doom3/trdemo2 sim-profile scene build makes.

    Each entry is the (mesh, light direction, extrusion, name) arguments
    and the bytes of the volume the scene got back.
    """
    from repro.workloads.generator import GameWorkload
    from repro.workloads.registry import workload

    sources: dict[int, Mesh] = {}
    calls: list[tuple] = []
    init, extrude = ShadowCaster.__init__, ShadowCaster.extrude

    def recording_init(self, mesh):
        sources[id(self)] = mesh
        init(self, mesh)

    def recording_extrude(self, light_dir, extrusion=200.0, name=None):
        volume = extrude(self, light_dir, extrusion, name)
        args = (sources[id(self)], np.array(light_dir), extrusion, name)
        calls.append((args, volume_bytes(volume)))
        return volume

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShadowCaster, "__init__", recording_init)
        patch.setattr(ShadowCaster, "extrude", recording_extrude)
        GameWorkload(workload("Doom3/trdemo2"), sim=True)
    return calls


class TestArrayExtrusionMatchesLoop:
    def test_every_doom3_scene_extrusion(self, doom3_extrusions):
        # One caster per source mesh serves every instance and light.
        assert len(doom3_extrusions) > 500
        assert len({id(args[0]) for args, _ in doom3_extrusions}) < 20
        for args, got in doom3_extrusions:
            assert got == volume_bytes(loop_extrude_shadow_volume(*args)), args[3]

    @pytest.mark.parametrize("light", [(0.3, -1.0, 0.2), (1.0, -0.2, 0.0)])
    def test_open_grid_boundary_edges(self, light):
        grid = grid_mesh(
            "g", 5, 4, 8.0, 6.0, height_fn=lambda x, z: 0.4 * np.sin(x) * z
        )
        volume = assert_matches_loop(grid, light, extrusion=12.0)
        assert volume.triangle_count > 0

    def test_strip_with_degenerate_stitches(self):
        strip = terrain_mesh(
            "s", seed=4, size=20.0, cells=6,
            primitive=PrimitiveType.TRIANGLE_STRIP, index_size_bytes=4,
        )
        tris = strip.triangles()
        assert (tris[:, 0] == tris[:, 1]).any() or (tris[:, 1] == tris[:, 2]).any()
        volume = assert_matches_loop(strip, (0.5, -1.0, -0.3), 30.0, "s.vol")
        assert volume.index_size_bytes == 4

    def test_fan(self):
        angles = np.linspace(0.0, 2 * np.pi, 13)
        rim = np.stack([np.cos(angles), 0.1 * np.sin(3 * angles), np.sin(angles)], 1)
        fan = Mesh(
            "fan",
            np.vstack([[0.0, 0.3, 0.0], rim]),
            np.arange(14),
            primitive=PrimitiveType.TRIANGLE_FAN,
        )
        for light in ((0.0, -1.0, 0.0), (0.7, -0.4, 0.1), (0.0, 1.0, 0.0)):
            assert_matches_loop(fan, light, extrusion=5.0)

    def test_non_manifold_edge(self):
        # Three triangles share the edge 0-1: one faces the light, two face
        # away, so the edge is no silhouette; the lit face's two open
        # edges are.
        book = Mesh(
            "book",
            [[0, 0, 0], [1, 0, 0], [0.5, 0, 1], [0.5, 1, -0.2], [0.5, -1, -0.2]],
            [0, 1, 2, 0, 1, 3, 0, 1, 4],
        )
        volume = assert_matches_loop(book, (0.0, 1.0, 0.0), extrusion=3.0)
        assert volume.triangle_count == 2 * 2 + 2

    def test_sliver_welded_to_a_segment(self):
        # The second triangle's last two corners weld together: it takes
        # no part in edge adjacency but, lit, still gets its caps.
        sliver = Mesh(
            "sliver",
            [[0, 0, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1e-5]],
            [0, 1, 2, 0, 1, 3],
        )
        volume = assert_matches_loop(sliver, (0.0, 1.0, 0.0), extrusion=2.0)
        assert volume.triangle_count == 3 * 2 + 2 * 2

    def test_unlit_direction_gives_empty_volume(self):
        grid = grid_mesh("g", 3, 3, 4.0, 4.0)  # every face points up
        volume = assert_matches_loop(grid, (0.0, 1.0, 0.0))
        assert volume.vertex_count == 0 and volume.index_count == 0

    def test_closed_solids_many_directions(self):
        rng = np.random.default_rng(11)
        meshes = [
            box_mesh("b", (1.0, 1.4, 0.8), subdivisions=3),
            cylinder_mesh("c", 0.5, 1.5, segments=9, rings=3),
            character_mesh("ch", seed=3),
        ]
        for mesh in meshes:
            caster = ShadowCaster(mesh)
            for light in rng.normal(size=(6, 3)):
                extrusion = float(rng.uniform(1.0, 40.0))
                want = loop_extrude_shadow_volume(mesh, light, extrusion)
                got = caster.extrude(light, extrusion)
                assert volume_bytes(got) == volume_bytes(want)

    def test_weld_rows_equals_unique(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(-3, 3, size=(400, 3)).astype(np.int64)
        first, inverse = _weld_rows(keys)
        _, want_first, want_inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        empty_first, empty_inverse = _weld_rows(np.zeros((0, 3), np.int64))
        assert empty_first.size == 0 and empty_inverse.size == 0
