"""Tests for the synthetic workload package."""

import pickle

import numpy as np
import pytest

from repro.api.commands import Clear, Draw, GraphicsApi, SetUniform, UploadResource
from repro.geometry.primitives import PrimitiveType
from repro.gpu.texture import TextureFilter
from repro.workloads import (
    OPENGL_SIMULATED,
    WORKLOADS,
    all_workloads,
    build_workload,
    workload,
)
from repro.workloads.camera import CorridorPath, TerrainPath
from repro.workloads.scenes import build_corridor_scene, room_light_positions
from repro.workloads.spec import EngineParams
from repro.workloads.textures import build_texture_set


class TestRegistry:
    def test_twelve_workloads(self):
        assert len(WORKLOADS) == 12
        assert len(all_workloads()) == 12

    def test_simulated_subset(self):
        assert set(OPENGL_SIMULATED) <= set(WORKLOADS)
        for name in OPENGL_SIMULATED:
            assert workload(name).api is GraphicsApi.OPENGL

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            workload("Crysis/benchmark")

    def test_table1_metadata(self):
        spec = workload("Doom3/trdemo2")
        assert spec.frames == 3990
        assert spec.index_size_bytes == 4
        assert spec.aniso_level == 16
        spec = workload("Riddick/MainFrame")
        assert spec.aniso_level is None
        assert spec.texture_filter is TextureFilter.TRILINEAR

    def test_slug_is_identifier_safe(self):
        for spec in all_workloads():
            assert "/" not in spec.slug and " " not in spec.slug

    def test_sim_scaling_shrinks_geometry(self):
        spec = workload("Doom3/trdemo2")
        scaled = spec.scaled_for_sim()
        assert scaled.params.object_tris < spec.params.object_tris
        assert scaled.params.objects_per_room < spec.params.objects_per_room
        assert scaled.params.prop_size > spec.params.prop_size


class TestCamera:
    def test_corridor_progression(self):
        path = CorridorPath(rooms=8, room_length=20, frames=80)
        assert path.room_at(0) == 0
        assert path.room_at(79) == 7
        shot = path.shot(40)
        assert shot.view.shape == (4, 4)
        assert shot.position[2] < 0  # walked into the corridor

    def test_corridor_deterministic(self):
        path = CorridorPath(rooms=4, room_length=10, frames=50)
        a, b = path.shot(13), path.shot(13)
        assert np.allclose(a.view, b.view)

    def test_terrain_regions(self):
        path = TerrainPath(extent=800, frames=100)
        assert path.region(0) == 0
        assert path.region(99) == 1


class TestScenes:
    def params(self, **kw):
        defaults = dict(
            render_path="stencil_shadow",
            rooms=2,
            objects_per_room=8,
            casters_per_room=3,
            lights=2,
            object_tris=40,
            room_tris=100,
            characters_per_room=1,
            arches_per_room=1,
            pillars_per_room=2,
        )
        defaults.update(kw)
        return EngineParams(**defaults)

    def test_corridor_scene_structure(self):
        scene = build_corridor_scene("t", self.params(), 1, 4, True)
        assert scene.rooms == 2
        rooms = {o.room for o in scene.objects}
        assert rooms == {0, 1}
        shells = [o for o in scene.objects if o.mesh == "t.room"]
        assert len(shells) == 2

    def test_casters_have_per_light_volumes(self):
        scene = build_corridor_scene("t", self.params(), 1, 4, True)
        casters = [o for o in scene.objects if o.caster]
        assert casters
        for obj in casters:
            assert len(obj.volume_meshes) == 2  # one per light
            for name in obj.volume_meshes:
                if name:
                    assert name in scene.meshes

    def test_no_volumes_for_forward_engines(self):
        scene = build_corridor_scene(
            "t", self.params(render_path="forward"), 1, 2, False
        )
        assert not any(o.caster for o in scene.objects)

    def test_aisle_kept_clear(self):
        scene = build_corridor_scene("t", self.params(), 1, 4, True)
        for obj in scene.objects:
            if "prop" in obj.mesh or "char" in obj.mesh:
                assert abs(obj.center[0]) > 1.0

    def test_light_positions_inside_room(self):
        params = self.params()
        for pos in room_light_positions(params, 0):
            assert 0 < pos[1] <= params.room_size[1]
            assert abs(pos[0]) <= params.room_size[0] / 2

    def test_deterministic(self):
        a = build_corridor_scene("t", self.params(), 9, 4, True)
        b = build_corridor_scene("t", self.params(), 9, 4, True)
        assert [o.mesh for o in a.objects] == [o.mesh for o in b.objects]


class TestTextures:
    def test_set_composition(self):
        textures = build_texture_set("w", 1, material_count=5, size=64)
        names = [t.name for t in textures]
        assert sum(".mat" in n for n in names) == 5
        assert sum(".cut" in n for n in names) == 2
        assert any("falloff" in n for n in names)

    def test_cutouts_have_transparency(self):
        textures = build_texture_set("w", 1, 2, size=64)
        cut = next(t for t in textures if ".cut" in t.name)
        alpha = cut.mips[0][..., 3]
        assert 0.2 < float((alpha < 0.5).mean()) < 0.8

    def test_deterministic(self):
        a = build_texture_set("w", 4, 3, size=64)
        b = build_texture_set("w", 4, 3, size=64)
        assert np.allclose(a[0].mips[0], b[0].mips[0])

    def test_unknown_palette(self):
        with pytest.raises(KeyError):
            build_texture_set("w", 1, 2, palette="vaporwave")


class TestEngineTraces:
    @pytest.fixture(scope="class")
    def doom3(self):
        return build_workload("Doom3/trdemo2", sim=True)

    def test_trace_deterministic(self, doom3):
        frames_a = [f.calls for f in doom3.trace(frames=3).frames()]
        frames_b = [f.calls for f in doom3.trace(frames=3).frames()]
        assert len(frames_a) == len(frames_b) == 3
        for fa, fb in zip(frames_a, frames_b):
            assert len(fa) == len(fb)
            draws_a = [c.mesh for c in fa if isinstance(c, Draw)]
            draws_b = [c.mesh for c in fb if isinstance(c, Draw)]
            assert draws_a == draws_b

    def test_first_frame_uploads(self, doom3):
        frame0 = next(iter(doom3.trace(frames=2).frames()))
        uploads = [c for c in frame0.calls if isinstance(c, UploadResource)]
        assert uploads
        kinds = {u.kind for u in uploads}
        assert kinds == {"vertex", "index", "texture"}

    def test_every_frame_starts_with_clear(self, doom3):
        for frame in doom3.trace(frames=3).frames():
            assert isinstance(frame.calls[0], Clear)

    def test_draw_meshes_all_exist(self, doom3):
        for frame in doom3.trace(frames=3).frames():
            for call in frame.calls:
                if isinstance(call, Draw):
                    assert call.mesh in doom3.meshes

    def test_stencil_path_has_all_three_passes(self, doom3):
        from repro.api.commands import SetState

        frame = list(doom3.trace(frames=3).frames())[2]
        stencil, func = False, "always"
        modes = set()
        for call in frame.calls:
            if isinstance(call, SetState):
                if call.name == "stencil_test":
                    stencil = call.value
                if call.name == "stencil_func":
                    func = call.value
            if isinstance(call, Draw):
                if not stencil:
                    modes.add("prepass")
                elif func == "always":
                    modes.add("volume")
                else:
                    modes.add("interaction")
        assert modes == {"prepass", "volume", "interaction"}

    def test_startup_burst_is_the_freshly_built_uniforms(self):
        """Frame 0 of a full-profile trace holds, in order, 12,000 startup
        uniforms equal to freshly built calls; a pickle round trip of the
        trace compares equal."""
        frames = list(build_workload("UT2004/Primeval").trace(frames=1).frames())
        expected = [
            SetUniform("startup_param", (float(i), 0.0, 0.0, 0.0))
            for i in range(12_000)
        ]
        calls = frames[0].calls
        start = calls.index(expected[0])
        assert calls[start : start + len(expected)] == expected
        assert sum(
            isinstance(c, SetUniform) and c.name == "startup_param" for c in calls
        ) == len(expected)
        assert pickle.loads(pickle.dumps(frames)) == frames

    @pytest.mark.parametrize("sim", [False, True], ids=["full", "sim"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_trace_from_a_later_frame_is_the_demo_suffix(self, name, sim):
        """Generation may start mid-demo: a frame's calls depend on its
        number and the demo length alone, never on the frames before it."""
        wl = build_workload(name, sim=sim)
        suffix = list(wl.trace(frames=3, first=1).frames())
        assert suffix == list(wl.trace(frames=3).frames())[1:]

    def test_oblivion_region_switch(self):
        wl = build_workload("Oblivion/Anvil Castle")
        stats = wl.api_stats(frames=20)
        first = stats.frames[2].avg_vertex_instructions
        second = stats.frames[-2].avg_vertex_instructions
        assert second > first * 1.5

    def test_api_stats_shapes(self, doom3):
        stats = doom3.api_stats(frames=4)
        assert stats.frame_count == 4
        assert stats.avg_indices_per_batch > 0
        assert stats.primitive_share[PrimitiveType.TRIANGLE_LIST] == 1.0
