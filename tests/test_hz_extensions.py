"""Tests for the paper's Section III.C HZ improvements (min/max, stencil)."""

import numpy as np
import pytest

from dataclasses import replace

from repro.gpu.framebuffer import Framebuffer
from repro.gpu.zstencil import _apply_stencil_op
from repro.workloads import build_workload


class TestMinMaxHz:
    def test_minmax_tracked_on_update(self):
        fb = Framebuffer(64, 64)
        fb.z[0:8, 0:8] = np.linspace(0.3, 0.6, 64).reshape(8, 8)
        fb.update_hz(np.array([0]), np.array([0]))
        assert fb.hz_min[0, 0] == pytest.approx(0.3)
        assert fb.hz_max[0, 0] == pytest.approx(0.6)

    def test_equal_cull_outside_band(self):
        fb = Framebuffer(64, 64)
        fb.z[0:8, 0:8] = 0.5
        fb.update_hz(np.array([0]), np.array([0]))
        qx = np.array([0, 0, 0])
        qy = np.array([0, 0, 0])
        # Quad bands: entirely below, straddling, entirely above the block.
        z_min = np.array([0.1, 0.45, 0.7])
        z_max = np.array([0.2, 0.55, 0.9])
        culled = fb.hz_minmax_equal_cull_mask(qx, qy, z_min, z_max)
        assert culled.tolist() == [True, False, True]

    def test_cleared_band_collapses_to_clear_depth(self):
        fb = Framebuffer(64, 64)
        fb.clear_depth(1.0)
        culled = fb.hz_minmax_equal_cull_mask(
            np.array([0]), np.array([0]), np.array([0.5]), np.array([0.6])
        )
        assert culled.all()  # nothing at depth 0.5-0.6 can be EQUAL to 1.0


class TestStencilHz:
    def test_band_tracks_stencil_writes(self):
        fb = Framebuffer(64, 64)
        fb.stencil[0:8, 0:8] = 2
        fb.note_stencil_write(np.array([0]), np.array([0]))
        assert fb.hz_stencil_min[0, 0] == 2
        assert fb.hz_stencil_max[0, 0] == 2

    def test_equal_zero_culls_fully_shadowed_block(self):
        fb = Framebuffer(64, 64)
        fb.stencil[0:8, 0:8] = 1  # fully shadowed block
        fb.note_stencil_write(np.array([0]), np.array([0]))
        culled = fb.hz_stencil_cull_mask(
            np.array([0, 4]), np.array([0, 0]), ref=0, func="equal"
        )
        assert culled.tolist() == [True, False]

    def test_partial_block_not_culled(self):
        fb = Framebuffer(64, 64)
        fb.stencil[0:4, 0:4] = 1  # half shadowed
        fb.note_stencil_write(np.array([0]), np.array([0]))
        culled = fb.hz_stencil_cull_mask(
            np.array([0]), np.array([0]), ref=0, func="equal"
        )
        assert not culled.any()

    def test_notequal_collapsed_band(self):
        fb = Framebuffer(64, 64)
        culled = fb.hz_stencil_cull_mask(
            np.array([0]), np.array([0]), ref=0, func="notequal"
        )
        assert culled.all()  # everything is 0: notequal-0 always fails

    def test_other_funcs_never_cull(self):
        fb = Framebuffer(64, 64)
        culled = fb.hz_stencil_cull_mask(
            np.array([0]), np.array([0]), ref=0, func="always"
        )
        assert not culled.any()

    @pytest.mark.parametrize("seed", range(4))
    def test_band_matches_per_block_loop(self, seed):
        """The gathered refresh equals a min/max per touched block, after
        random writes of every stencil op (incr/decr wrap through 0/255)
        on a surface whose last block row and column are padded."""
        rng = np.random.default_rng(seed)
        fb = Framebuffer(70, 45)
        lo, hi = fb.hz_stencil_min.copy(), fb.hz_stencil_max.copy()
        b = fb.block
        for _ in range(40):
            n = int(rng.integers(1, 200))
            ys = rng.integers(0, fb.height, n)
            xs = rng.integers(0, fb.width, n)
            op = str(rng.choice(["zero", "replace", "incr_wrap", "decr_wrap"]))
            fb.stencil[ys, xs] = _apply_stencil_op(
                op, fb.stencil[ys, xs], int(rng.integers(0, 256))
            )
            bx, by = xs // b, ys // b
            fb.note_stencil_write(bx, by)
            for x, y in zip(bx.tolist(), by.tolist()):
                tile = fb.stencil[y * b : (y + 1) * b, x * b : (x + 1) * b]
                lo[y, x] = tile.min()
                hi[y, x] = tile.max()
            assert np.array_equal(fb.hz_stencil_min, lo)
            assert np.array_equal(fb.hz_stencil_max, hi)
        assert fb.hz_stencil_min.dtype == fb.hz_stencil_max.dtype == np.int16
        assert hi.max() == 255 and lo.min() == 0


class TestEndToEnd:
    """The extensions must be conservative: identical final output."""

    @pytest.fixture(scope="class")
    def runs(self):
        workload = build_workload("Doom3/trdemo2", sim=True)
        base = workload.simulator().config
        baseline = workload.simulate(frames=2, config=base)
        improved = workload.simulate(
            frames=2, config=replace(base, hz_min_max=True, hz_stencil=True)
        )
        return baseline, improved

    def test_same_blended_output(self, runs):
        baseline, improved = runs
        for a, b in zip(baseline.frame_stats, improved.frame_stats):
            assert a.fragments_blended == b.fragments_blended

    def test_more_early_culling(self, runs):
        from repro.gpu.stats import QuadFate

        baseline, improved = runs
        hz_base = baseline.stats.quad_fates.get(QuadFate.HZ, 0)
        hz_improved = improved.stats.quad_fates.get(QuadFate.HZ, 0)
        assert hz_improved >= hz_base
        zs_base = baseline.stats.quad_fates.get(QuadFate.ZSTENCIL, 0)
        zs_improved = improved.stats.quad_fates.get(QuadFate.ZSTENCIL, 0)
        assert zs_improved <= zs_base
