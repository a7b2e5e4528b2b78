"""Tests for the memory controller and framebuffer block machinery."""

import numpy as np
import pytest

from repro.gpu.framebuffer import BlockState, Framebuffer
from repro.gpu.memory import MemoryController
from repro.gpu.stats import MemClient


class TestMemoryController:
    def test_accounting(self):
        mem = MemoryController()
        mem.read(MemClient.TEXTURE, 100)
        mem.write(MemClient.COLOR, 50)
        assert mem.total_read_bytes == 100
        assert mem.total_write_bytes == 50
        assert mem.total_bytes == 150
        assert mem.read_fraction == pytest.approx(100 / 150)

    def test_negative_rejected(self):
        mem = MemoryController()
        with pytest.raises(ValueError):
            mem.read(MemClient.CP, -1)

    def test_distribution_sums_to_100(self):
        mem = MemoryController()
        for i, client in enumerate(MemClient):
            mem.read(client, (i + 1) * 10)
        assert sum(mem.traffic_distribution.values()) == pytest.approx(100.0)

    def test_bandwidth_at_fps(self):
        mem = MemoryController()
        mem.read(MemClient.DAC, 1000)
        assert mem.bandwidth_at_fps(frames=2, fps=100.0) == pytest.approx(50000.0)

    def test_empty_distribution(self):
        mem = MemoryController()
        assert all(v == 0.0 for v in mem.traffic_distribution.values())


class TestFramebuffer:
    def test_padding_to_blocks(self):
        fb = Framebuffer(100, 50, block=8)
        assert fb.z.shape == (56, 104)
        assert fb.blocks_x == 13 and fb.blocks_y == 7

    def test_clear_depth_stencil(self):
        fb = Framebuffer(64, 64)
        fb.z[:] = 0.5
        fb.clear_depth(1.0)
        fb.clear_stencil_only(3)
        assert (fb.z == 1.0).all()
        assert (fb.stencil == 3).all()
        assert (fb.z_block_state == BlockState.CLEARED).all()
        assert (fb.hz_max == 1.0).all()

    def test_stencil_only_clear_preserves_z(self):
        fb = Framebuffer(64, 64)
        fb.z[:] = 0.25
        fb.stencil[:] = 7
        fb.clear_stencil_only(0)
        assert (fb.stencil == 0).all()
        assert (fb.z == 0.25).all()

    def test_hz_cull_conservative_initially(self):
        fb = Framebuffer(64, 64)
        qx = np.array([0, 1])
        qy = np.array([0, 0])
        z_min = np.array([0.5, 0.999])
        assert not fb.hz_cull_mask(qx, qy, z_min).any()

    def test_hz_cull_after_update(self):
        fb = Framebuffer(64, 64)
        fb.z[0:8, 0:8] = 0.3  # whole first block written near
        fb.update_hz(np.array([0]), np.array([0]))
        assert fb.hz_max[0, 0] == pytest.approx(0.3)
        culled = fb.hz_cull_mask(np.array([0]), np.array([0]), np.array([0.31]))
        assert culled.all()
        passed = fb.hz_cull_mask(np.array([0]), np.array([0]), np.array([0.29]))
        assert not passed.any()

    def test_z_block_compressible_planar(self):
        fb = Framebuffer(64, 64)
        ys, xs = np.mgrid[0:8, 0:8]
        fb.z[0:8, 0:8] = 0.5 + 0.01 * xs + 0.002 * ys
        assert fb.z_block_compressible(0, 0)
        fb.z[3, 3] = 0.9  # break planarity
        assert not fb.z_block_compressible(0, 0)

    def test_color_block_uniform(self):
        fb = Framebuffer(64, 64)
        assert fb.color_block_uniform(0, 0)
        fb.color[2, 2] = [1, 0, 0, 1]
        assert not fb.color_block_uniform(0, 0)

    def test_color_image_cropped_and_clipped(self):
        fb = Framebuffer(100, 50)
        fb.color[:] = 2.0
        img = fb.color_image()
        assert img.shape == (50, 100, 4)
        assert img.max() == 1.0

    def test_ppm_output(self, tmp_path):
        fb = Framebuffer(16, 8)
        fb.color[:, :, 0] = 1.0
        path = tmp_path / "out.ppm"
        fb.to_ppm(path)
        data = path.read_bytes()
        assert data.startswith(b"P6 16 8 255\n")
        assert len(data) == len(b"P6 16 8 255\n") + 16 * 8 * 3

    def test_quad_block_coords(self):
        fb = Framebuffer(64, 64, block=8)
        bx, by = fb.quad_block_coords(np.array([0, 3, 4]), np.array([0, 3, 4]))
        assert bx.tolist() == [0, 0, 1]
        assert by.tolist() == [0, 0, 1]
