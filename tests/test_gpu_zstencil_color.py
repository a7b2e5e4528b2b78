"""Tests for the Z/stencil and color stages."""

import numpy as np
import pytest

from repro.api.state import RenderState, StencilSide
from repro.gpu.color import ColorStage
from repro.gpu.config import GpuConfig
from repro.gpu.framebuffer import BlockState, Framebuffer
from repro.gpu.memory import MemoryController
from repro.gpu.rasterizer import QuadBatch
from repro.gpu.stats import MemClient
from repro.gpu.zstencil import ZStencilStage


def make_stage():
    config = GpuConfig(width=64, height=64)
    fb = Framebuffer(64, 64)
    mem = MemoryController()
    return ZStencilStage(config, fb, mem), fb, mem


def quad_batch(qx, qy, z, cover=None, front=True):
    n = len(qx)
    cover = np.ones((n, 4), bool) if cover is None else cover
    return QuadBatch(
        qx=np.asarray(qx),
        qy=np.asarray(qy),
        cover=cover,
        z=np.asarray(z, float),
        uv=np.zeros((n, 4, 2)),
        color=np.zeros((n, 4, 4)),
        front=front,
    )


class TestDepth:
    def test_less_pass_and_write(self):
        stage, fb, _ = make_stage()
        qb = quad_batch([0], [0], [[0.5] * 4])
        result = stage.process(qb, RenderState(), qb.cover)
        assert result.pass_mask.all()
        assert (fb.z[0:2, 0:2] == 0.5).all()

    def test_less_fail_after_nearer_write(self):
        stage, fb, _ = make_stage()
        near = quad_batch([0], [0], [[0.3] * 4])
        far = quad_batch([0], [0], [[0.7] * 4])
        stage.process(near, RenderState(), near.cover)
        result = stage.process(far, RenderState(), far.cover)
        assert not result.pass_mask.any()
        assert (fb.z[0:2, 0:2] == 0.3).all()

    def test_equal_passes_rewrite(self):
        stage, fb, _ = make_stage()
        qb = quad_batch([0], [0], [[0.4] * 4])
        stage.process(qb, RenderState(), qb.cover)
        state = RenderState(depth_func="equal", depth_write=False)
        result = stage.process(qb, state, qb.cover)
        assert result.pass_mask.all()

    def test_depth_write_off_preserves_buffer(self):
        stage, fb, _ = make_stage()
        qb = quad_batch([0], [0], [[0.5] * 4])
        stage.process(qb, RenderState(depth_write=False), qb.cover)
        assert (fb.z[0:2, 0:2] == 1.0).all()

    def test_depth_test_disabled_passes_everything(self):
        stage, fb, _ = make_stage()
        near = quad_batch([0], [0], [[0.3] * 4])
        stage.process(near, RenderState(), near.cover)
        far = quad_batch([0], [0], [[0.9] * 4])
        result = stage.process(far, RenderState(depth_test=False), far.cover)
        assert result.pass_mask.all()

    def test_never_and_always(self):
        stage, _, _ = make_stage()
        qb = quad_batch([0], [0], [[0.5] * 4])
        assert not stage.process(
            qb, RenderState(depth_func="never"), qb.cover
        ).pass_mask.any()
        assert stage.process(
            qb, RenderState(depth_func="always"), qb.cover
        ).pass_mask.all()


class TestStencil:
    def zfail_state(self, front_op="keep", back_op="keep") -> RenderState:
        return RenderState(
            depth_write=False,
            stencil_test=True,
            stencil_func="always",
            stencil_front=StencilSide(zfail=front_op),
            stencil_back=StencilSide(zfail=back_op),
            cull="none",
        )

    def test_zfail_increments_back_faces(self):
        stage, fb, _ = make_stage()
        near = quad_batch([0], [0], [[0.3] * 4])
        stage.process(near, RenderState(), near.cover)
        # A back-facing volume quad behind the scene: z-fail -> incr.
        volume = quad_batch([0], [0], [[0.8] * 4], front=False)
        stage.process(volume, self.zfail_state(back_op="incr_wrap"), volume.cover)
        assert (fb.stencil[0:2, 0:2] == 1).all()

    def test_zfail_balanced_pair_cancels(self):
        """Front+back volume faces behind geometry leave stencil at zero."""
        stage, fb, _ = make_stage()
        near = quad_batch([0], [0], [[0.3] * 4])
        stage.process(near, RenderState(), near.cover)
        back = quad_batch([0], [0], [[0.8] * 4], front=False)
        front = quad_batch([0], [0], [[0.7] * 4], front=True)
        state = self.zfail_state(front_op="decr_wrap", back_op="incr_wrap")
        stage.process(back, state, back.cover)
        stage.process(front, state, front.cover)
        assert (fb.stencil[0:2, 0:2] == 0).all()

    def test_wrap_semantics(self):
        stage, fb, _ = make_stage()
        near = quad_batch([0], [0], [[0.3] * 4])
        stage.process(near, RenderState(), near.cover)
        volume = quad_batch([0], [0], [[0.9] * 4], front=True)
        stage.process(volume, self.zfail_state(front_op="decr_wrap"), volume.cover)
        assert (fb.stencil[0:2, 0:2] == 255).all()

    def test_stencil_equal_gate(self):
        stage, fb, _ = make_stage()
        fb.stencil[0:2, 0:2] = 1  # shadowed
        qb = quad_batch([0, 1], [0, 0], [[0.5] * 4, [0.5] * 4])
        state = RenderState(
            stencil_test=True, stencil_func="equal", stencil_ref=0
        )
        result = stage.process(qb, state, qb.cover)
        assert not result.pass_mask[0].any()  # shadowed quad blocked
        assert result.pass_mask[1].all()

    def test_replace_and_zero_ops(self):
        stage, fb, _ = make_stage()
        qb = quad_batch([0], [0], [[0.5] * 4])
        state = RenderState(
            stencil_test=True,
            stencil_func="always",
            stencil_ref=7,
            stencil_front=StencilSide(zpass="replace"),
        )
        stage.process(qb, state, qb.cover)
        assert (fb.stencil[0:2, 0:2] == 7).all()


class TestZSCacheTraffic:
    def test_fast_clear_blocks_cost_nothing(self):
        stage, fb, mem = make_stage()
        qb = quad_batch([0], [0], [[0.5] * 4])
        stage.process(qb, RenderState(), qb.cover)
        assert mem.reads[MemClient.ZSTENCIL] == 0  # cleared block, no fill

    def test_eviction_writes_back_compressed_planar(self):
        config = GpuConfig(width=64, height=64).with_scaled_caches(
            2 / 64, include_texture=False
        )  # tiny 2-line z cache to force evictions
        fb = Framebuffer(64, 64)
        mem = MemoryController()
        stage = ZStencilStage(config, fb, mem)
        # Write planar z into several blocks; evictions must be half-lines.
        for bx in range(4):
            qb = quad_batch(
                [bx * 4], [0], [[0.5] * 4]
            )
            stage.process(qb, RenderState(), qb.cover)
        assert mem.writes[MemClient.ZSTENCIL] > 0
        assert mem.writes[MemClient.ZSTENCIL] % 128 == 0

    def test_update_hz_tightens(self):
        stage, fb, _ = make_stage()
        qb = quad_batch([0], [0], [[0.5] * 4])
        result = stage.process(qb, RenderState(), qb.cover)
        stage.update_hz_quads(qb.qx, qb.qy, result.wrote)
        # Block still has z=1 pixels outside the quad.
        assert fb.hz_max[0, 0] == 1.0
        # Fill the whole block: HZ must drop to the new max.
        for qx in range(4):
            for qy in range(4):
                q = quad_batch([qx], [qy], [[0.5] * 4])
                r = stage.process(q, RenderState(), q.cover)
                stage.update_hz_quads(q.qx, q.qy, r.wrote)
        assert fb.hz_max[0, 0] == pytest.approx(0.5)


class TestColorStage:
    def make_color(self):
        config = GpuConfig(width=64, height=64)
        fb = Framebuffer(64, 64)
        mem = MemoryController()
        return ColorStage(config, fb, mem), fb, mem

    def lanes(self, qx=0, qy=0):
        xs = np.array([[0, 1, 0, 1]]) + qx * 2
        ys = np.array([[0, 0, 1, 1]]) + qy * 2
        return xs, ys

    def test_replace_write(self):
        stage, fb, _ = self.make_color()
        xs, ys = self.lanes()
        colors = np.full((1, 4, 4), 0.25)
        stage.process(xs, ys, np.array([0]), np.array([0]), colors,
                      np.ones((1, 4), bool), "replace")
        assert (fb.color[0:2, 0:2] == 0.25).all()

    def test_add_saturates(self):
        stage, fb, _ = self.make_color()
        xs, ys = self.lanes()
        colors = np.full((1, 4, 4), 0.7)
        mask = np.ones((1, 4), bool)
        stage.process(xs, ys, np.array([0]), np.array([0]), colors, mask, "add")
        stage.process(xs, ys, np.array([0]), np.array([0]), colors, mask, "add")
        assert (fb.color[0:2, 0:2] == 1.0).all()

    def test_alpha_blend(self):
        stage, fb, _ = self.make_color()
        fb.color[:] = 0.0
        xs, ys = self.lanes()
        colors = np.zeros((1, 4, 4))
        colors[..., 0] = 1.0
        colors[..., 3] = 0.5
        stage.process(xs, ys, np.array([0]), np.array([0]), colors,
                      np.ones((1, 4), bool), "alpha")
        assert fb.color[0, 0, 0] == pytest.approx(0.5)

    def test_masked_lanes_untouched(self):
        stage, fb, _ = self.make_color()
        xs, ys = self.lanes()
        colors = np.full((1, 4, 4), 0.9)
        mask = np.array([[True, False, False, False]])
        stage.process(xs, ys, np.array([0]), np.array([0]), colors, mask, "replace")
        assert fb.color[0, 0, 0] == 0.9
        assert fb.color[0, 1, 0] == 0.0

    def test_flush_writes_back_uniform_compressed(self):
        stage, fb, mem = self.make_color()
        xs, ys = self.lanes()
        colors = np.full((1, 4, 4), 0.25)
        stage.process(xs, ys, np.array([0]), np.array([0]), colors,
                      np.ones((1, 4), bool), "replace")
        fb.color[0:8, 0:8] = 0.25  # make the whole block uniform
        stage.flush()
        assert mem.writes[MemClient.COLOR] == 128  # half a 256B line

    def test_flush_full_line_when_varied(self):
        stage, fb, mem = self.make_color()
        xs, ys = self.lanes()
        colors = np.random.default_rng(0).random((1, 4, 4))
        stage.process(xs, ys, np.array([0]), np.array([0]), colors,
                      np.ones((1, 4), bool), "replace")
        stage.flush()
        assert mem.writes[MemClient.COLOR] == 256
