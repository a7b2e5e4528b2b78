"""Tests for the vertex stage and the full pipeline."""

import numpy as np
import pytest

import repro.util.mathutil as mu
from repro.api.commands import (
    BindProgram,
    BindTexture,
    Clear,
    Draw,
    GraphicsApi,
    SetState,
    SetUniform,
)
from repro.api.state import StencilSide
from repro.api.trace import Frame, Trace, TraceMeta
from repro.geometry.generators import extrude_shadow_volume, grid_mesh
from repro.geometry.mesh import Mesh
from repro.geometry.primitives import PrimitiveType
from repro.gpu import perf
from repro.gpu.config import GpuConfig
from repro.gpu.framebuffer import BlockState
from repro.gpu.memory import MemoryController
from repro.gpu.pipeline import GpuSimulator
from repro.gpu.stats import MemClient, QuadFate
from repro.gpu.texture import TextureResource
from repro.gpu.vertex import VertexStage
from repro.shader import library

W, H = 96, 64


def simple_scene(alpha=False, two_sided_quad=False):
    positions = np.array(
        [[-1, -1, 0], [1, -1, 0], [-1, 1, 0], [1, 1, 0]], dtype=float
    )
    uvs = np.array([[0, 0], [2, 0], [0, 2], [2, 2]], dtype=float)
    mesh = Mesh("quad", positions, [0, 1, 2, 2, 1, 3], uvs=uvs)
    vp = library.build_vertex_program("vp", 16)
    fp = library.build_fragment_program("fp", 1, 8, alpha_test=alpha)
    img = np.full((32, 32, 4), 0.8, np.float32)
    tex = TextureResource.from_image("tex", img)
    return mesh, vp, fp, tex


def mvp(eye=(0, 0, 3)):
    return mu.perspective(60, W / H, 0.1, 100) @ mu.look_at(eye, (0, 0, 0))


def frame_calls(mesh, extra_state=(), fp_name="fp"):
    calls = [
        Clear(),
        BindProgram("vertex", "vp"),
        BindProgram("fragment", fp_name),
        BindTexture(0, "tex"),
        SetUniform.matrix("mvp", mvp()),
        SetUniform.matrix("model", np.eye(4)),
    ]
    calls.extend(extra_state)
    calls.append(Draw(mesh.name, mesh.primitive, mesh.index_count))
    return calls


def run(calls, mesh, vp, fp, tex, config=None):
    config = config or GpuConfig(width=W, height=H)
    sim = GpuSimulator(
        config, {mesh.name: mesh}, {"vp": vp, "fp": fp}, [tex]
    )
    meta = TraceMeta("t", GraphicsApi.OPENGL, 1, width=W, height=H)
    return sim, sim.run_trace(Trace(meta, [Frame(0, calls)]))


class TestVertexStage:
    def test_cache_and_fetch_accounting(self):
        config = GpuConfig()
        mem = MemoryController()
        stage = VertexStage(config, mem)
        mesh = grid_mesh("g", 8, 8, 4, 4)
        draw = Draw("g", PrimitiveType.TRIANGLE_LIST, mesh.index_count)
        vp = library.build_vertex_program("vp", 16)
        constants = {i: tuple(np.eye(4)[i]) for i in range(4)}
        constants.update({8 + i: tuple(np.eye(4)[i]) for i in range(3)})
        result = stage.process(mesh, draw, vp, constants)
        assert result.cache_references == mesh.index_count
        assert 0.6 < result.cache_hits / result.cache_references < 0.75
        assert result.vertices_shaded == result.cache_references - result.cache_hits
        assert result.instructions == result.vertices_shaded * 16
        assert mem.reads[MemClient.VERTEX] > mesh.index_count * 2

    def test_missing_program_rejected(self):
        mem = MemoryController()
        stage = VertexStage(GpuConfig(), mem)
        mesh = grid_mesh("g", 2, 2, 1, 1)
        before = dict(mem.reads)
        with pytest.raises(ValueError):
            stage.process(
                mesh, Draw("g", PrimitiveType.TRIANGLE_LIST, 6), None, {}
            )
        # A rejected draw fetches nothing.
        assert mem.reads == before

    def test_position_only_shading_matches_full(self):
        mesh = grid_mesh("g", 8, 8, 4, 4)
        draw = Draw("g", PrimitiveType.TRIANGLE_LIST, mesh.index_count)
        vp = library.fixed_function_vertex()
        constants = {i: tuple(mvp()[i]) for i in range(4)}
        constants.update({8 + i: tuple(np.eye(4)[i]) for i in range(3)})
        full_mem, geo_mem = MemoryController(), MemoryController()
        full = VertexStage(GpuConfig(), full_mem).process(mesh, draw, vp, constants)
        geo = VertexStage(GpuConfig(), geo_mem).process(
            mesh, draw, vp, constants, attributes=False
        )
        assert geo.clip_positions.tobytes() == full.clip_positions.tobytes()
        assert geo.uv is None and geo.color is None
        assert full.uv.shape == (full.unique.size, 2)
        assert (geo.vertices_shaded, geo.instructions) == (
            full.vertices_shaded,
            full.instructions,
        )
        assert geo_mem.reads == full_mem.reads


class TestPipelineBasics:
    def test_quad_renders(self):
        mesh, vp, fp, tex = simple_scene()
        sim, result = run(frame_calls(mesh), mesh, vp, fp, tex)
        stats = result.stats
        assert stats.triangles_traversed == 2
        assert stats.fragments_blended > 100
        assert stats.fragments_rasterized == stats.fragments_blended
        image = sim.fb.color_image()
        covered = (image[:, :, :3].sum(axis=2) > 0.01).sum()
        assert covered == stats.fragments_blended

    def test_depth_order_independence_of_final_image(self):
        """Near-then-far and far-then-near must produce identical z."""
        mesh, vp, fp, tex = simple_scene()
        near = Mesh("near", mesh.positions * 0.5, mesh.indices, uvs=mesh.uvs)
        meshes = {"quad": mesh, "near": near}

        def render(order):
            sim = GpuSimulator(
                GpuConfig(width=W, height=H), meshes, {"vp": vp, "fp": fp}, [tex]
            )
            calls = [
                Clear(),
                BindProgram("vertex", "vp"),
                BindProgram("fragment", "fp"),
                BindTexture(0, "tex"),
                SetUniform.matrix("model", np.eye(4)),
            ]
            for name in order:
                m = mu.perspective(60, W / H, 0.1, 100) @ mu.look_at(
                    (0, 0, 3), (0, 0, 0)
                ) @ (mu.translate(0, 0, 1.0) if name == "near" else np.eye(4))
                calls.append(SetUniform.matrix("mvp", m))
                calls.append(Draw(name, PrimitiveType.TRIANGLE_LIST, 6))
            meta = TraceMeta("t", GraphicsApi.OPENGL, 1, width=W, height=H)
            sim.run_trace(Trace(meta, [Frame(0, calls)]))
            return sim.fb.z.copy()

        assert np.allclose(render(["quad", "near"]), render(["near", "quad"]))

    def test_occluded_draw_consumes_no_shading(self):
        mesh, vp, fp, tex = simple_scene()
        sim = GpuSimulator(
            GpuConfig(width=W, height=H), {"quad": mesh}, {"vp": vp, "fp": fp}, [tex]
        )
        near_mvp = mvp() @ mu.translate(0, 0, 1.5)
        far_mvp = mvp()
        calls = [
            Clear(),
            BindProgram("vertex", "vp"),
            BindProgram("fragment", "fp"),
            BindTexture(0, "tex"),
            SetUniform.matrix("model", np.eye(4)),
            SetUniform.matrix("mvp", near_mvp),
            Draw("quad", PrimitiveType.TRIANGLE_LIST, 6),
        ]
        meta = TraceMeta("t", GraphicsApi.OPENGL, 2, width=W, height=H)
        frame0 = Frame(0, calls)
        # Second draw fully behind the first (larger on screen so it covers).
        calls2 = list(calls) + [
            SetUniform.matrix("mvp", far_mvp),
            Draw("quad", PrimitiveType.TRIANGLE_LIST, 6),
        ]
        sim.run_trace(Trace(meta, [frame0, Frame(1, calls2)]))
        last = sim.frame_stats[-1]
        # The far quad region covered by the near quad is HZ/ZS killed.
        killed = last.quad_fates.get(QuadFate.HZ, 0) + last.quad_fates.get(
            QuadFate.ZSTENCIL, 0
        )
        assert killed > 0

    def test_alpha_test_path_late_z(self):
        mesh, vp, fp, tex = simple_scene(alpha=True)
        # Texture alpha 0.8 > 0.5 threshold: nothing killed, but path is late-Z.
        sim, result = run(frame_calls(mesh), mesh, vp, fp, tex)
        assert result.stats.fragments_shaded >= result.stats.fragments_zstencil

    def test_alpha_kill_removes_quads(self):
        mesh, vp, fp, _ = simple_scene(alpha=True)
        img = np.full((32, 32, 4), 0.8, np.float32)
        img[:, :, 3] = 0.1  # below the threshold: everything killed
        tex = TextureResource.from_image("tex", img)
        sim, result = run(frame_calls(mesh), mesh, vp, fp, tex)
        assert result.stats.quad_fates.get(QuadFate.ALPHA, 0) > 0
        assert result.stats.fragments_blended == 0

    def test_color_mask_bucket(self):
        mesh, vp, fp, tex = simple_scene()
        calls = frame_calls(mesh, extra_state=[SetState("color_mask", False)])
        sim, result = run(calls, mesh, vp, fp, tex)
        fates = result.stats.quad_fates
        assert fates.get(QuadFate.COLOR_MASK, 0) > 0
        assert fates.get(QuadFate.BLENDED, 0) == 0
        assert result.memory.reads[MemClient.COLOR] == 0

    def test_fate_buckets_partition_rasterized_quads(self):
        mesh, vp, fp, tex = simple_scene(alpha=True)
        sim, result = run(frame_calls(mesh), mesh, vp, fp, tex)
        stats = result.stats
        assert sum(stats.quad_fates.values()) == stats.quads_rasterized

    def test_dac_and_cp_traffic(self):
        mesh, vp, fp, tex = simple_scene()
        sim, result = run(frame_calls(mesh), mesh, vp, fp, tex)
        assert result.memory.reads[MemClient.DAC] == W * H * 4
        assert result.memory.reads[MemClient.CP] > 0


class TestClears:
    def test_depth_only_clear_keeps_stencil(self):
        """A depth-only Clear resets the depth side alone."""
        mesh, vp, fp, tex = simple_scene()
        replace = StencilSide(zpass="replace")
        calls = frame_calls(
            mesh,
            extra_state=[
                SetState("stencil_test", True),
                SetState("stencil_func", "always"),
                SetState("stencil_ref", 5),
                SetState("stencil_front", replace),
                SetState("stencil_back", replace),
            ],
        )
        calls.append(Clear(color=False, stencil=False, depth_value=0.5))
        sim, _ = run(calls, mesh, vp, fp, tex)
        fb = sim.fb
        assert fb.stencil_clear_value == 0
        assert (fb.stencil == 5).sum() > 100  # the draw's marks survive
        assert fb.hz_stencil_max.max() == 5
        assert (fb.z == 0.5).all() and fb.z_clear_value == 0.5
        assert (fb.hz_max == 0.5).all() and (fb.hz_min == 0.5).all()
        assert (fb.z_block_state == BlockState.CLEARED).all()
        with sim.zstencil.cache.kernel_state() as (_, _, sizes):
            assert not sizes.any()  # the Z cache was dropped


class TestStencilShadowIntegration:
    def test_shadowed_region_stays_dark(self):
        """Full Carmack z-fail flow on a floor + occluder + volume scene."""
        config = GpuConfig(width=W, height=H)
        floor = grid_mesh("floor", 4, 4, 8, 8)
        occluder = Mesh(
            "occluder",
            np.array(
                [
                    [-0.5, 0.5, -0.5], [0.5, 0.5, -0.5],
                    [-0.5, 1.5, -0.5], [0.5, 1.5, -0.5],
                ]
            ),
            [0, 1, 2, 2, 1, 3],
        )
        # Light from above/behind: shadow falls on the floor below.
        volume = extrude_shadow_volume(
            occluder, (0.0, -0.8, -2.0), 8.0, name="volume"
        )
        vp = library.build_vertex_program("vp", 12, lit=False)
        fp = library.build_fragment_program("fp", 0, 3)
        meshes = {m.name: m for m in (floor, occluder, volume)}
        sim = GpuSimulator(config, meshes, {"vp": vp, "fp": fp}, [])
        view = mu.perspective(60, W / H, 0.1, 100) @ mu.look_at(
            (3.0, 5.0, 2.0), (0, 0, -2)
        )
        def draw(name):
            return Draw(name, PrimitiveType.TRIANGLE_LIST,
                        meshes[name].index_count)
        calls = [
            Clear(),
            BindProgram("vertex", "vp"),
            SetUniform.matrix("mvp", view),
            SetUniform.matrix("model", np.eye(4)),
            # Depth prepass.
            BindProgram("fragment", None),
            SetState("color_mask", False),
            draw("floor"),
            draw("occluder"),
            # Shadow volume pass (z-fail, two-sided).
            SetState("depth_write", False),
            SetState("stencil_test", True),
            SetState("stencil_func", "always"),
            SetState("stencil_front", StencilSide(zfail="decr_wrap")),
            SetState("stencil_back", StencilSide(zfail="incr_wrap")),
            SetState("cull", "none"),
            SetState("hierarchical_z", False),
            draw("volume"),
            # Additive light pass gated on stencil == 0.
            SetState("stencil_func", "equal"),
            SetState("stencil_ref", 0),
            SetState("stencil_front", StencilSide()),
            SetState("stencil_back", StencilSide()),
            SetState("cull", "back"),
            SetState("depth_func", "equal"),
            SetState("color_mask", True),
            SetState("blend", "add"),
            SetState("hierarchical_z", True),
            BindProgram("fragment", "fp"),
            draw("floor"),
            draw("occluder"),
        ]
        meta = TraceMeta("t", GraphicsApi.OPENGL, 1, width=W, height=H)
        sim.run_trace(Trace(meta, [Frame(0, calls)]))
        shadowed = int((sim.fb.stencil[:H, :W] != 0).sum())
        assert shadowed > 50  # the occluder casts a real shadow
        image = sim.fb.color_image()
        lit_mask = image[:, :, :3].sum(axis=2) > 0.01
        # No shadowed pixel got lit.
        stencil = sim.fb.stencil[:H, :W]
        assert not (lit_mask & (stencil != 0)).any()
        # But plenty of unshadowed floor did.
        assert lit_mask.sum() > 100


class TestPerfModel:
    def test_estimate_bottleneck(self):
        mesh, vp, fp, tex = simple_scene()
        sim, result = run(frame_calls(mesh), mesh, vp, fp, tex)
        estimate = perf.estimate(result.stats, result.memory, result.config)
        assert estimate.cycles_per_frame > 0
        assert estimate.bottleneck in (
            "vertex", "setup", "zstencil", "shader", "texture", "color", "memory",
        )
        assert estimate.fps_at_clock(625e6) > 0


class TestVertexConsumersAgree:
    """Geometry-only jobs shade ``o0`` alone; full jobs shade ``o0``-``o2``.

    Both must transform the same positions, so every vertex and clip/cull
    counter and the vertex-side traffic match frame by frame.
    """

    VERTEX_FIELDS = (
        "indices",
        "vertex_cache_references",
        "vertex_cache_hits",
        "vertices_shaded",
        "vertex_instructions",
        "triangles_assembled",
        "triangles_clipped",
        "triangles_culled",
        "triangles_traversed",
    )

    @pytest.mark.parametrize(
        "workload", ["UT2004/Primeval", "Doom3/trdemo2", "Quake4/demo4"]
    )
    def test_geometry_and_sim_jobs_agree(self, workload):
        from repro.farm import geometry_job, run_job, sim_job

        geo = run_job(geometry_job(workload, 2)).result
        full = run_job(sim_job(workload, 2)).result
        assert len(geo.frame_stats) == len(full.frame_stats) == 2
        for g, f in zip(geo.frame_stats, full.frame_stats):
            for name in self.VERTEX_FIELDS:
                assert getattr(g, name) == getattr(f, name), (g.frame, name)
        assert geo.frame_stats[0].triangles_traversed > 0
        for client in (MemClient.VERTEX, MemClient.CP):
            assert geo.memory.client_bytes(client) == full.memory.client_bytes(client)
