"""Tests for texture resources, filtering, and the cache hierarchy."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.gpu import _native
from repro.gpu.config import CacheConfig, GpuConfig
from repro.gpu.memory import MemoryController
from repro.gpu.stats import MemClient
from repro.gpu.texture import (
    TextureFilter,
    TextureFormat,
    TextureResource,
    TextureUnit,
)


def checker(size=64):
    img = np.zeros((size, size, 4), np.float32)
    img[::2, ::2] = 1.0
    img[1::2, 1::2] = 1.0
    img[..., 3] = 1.0
    return img


def make_unit(filter=TextureFilter.BILINEAR, aniso=16, tex_size=64):
    mem = MemoryController()
    unit = TextureUnit(GpuConfig(), mem)
    unit.register(TextureResource.from_image("t", checker(tex_size)))
    unit.bind(0, "t")
    unit.set_filter(filter, aniso)
    return unit, mem


def quad_coords(u0, v0, du, dv):
    """One quad's worth of texture coordinates with the given derivatives."""
    return np.array(
        [
            [u0, v0, 0, 1],
            [u0 + du, v0, 0, 1],
            [u0, v0 + dv, 0, 1],
            [u0 + du, v0 + dv, 0, 1],
        ]
    )


class TestResource:
    def test_mip_chain_full(self):
        tex = TextureResource.from_image("t", checker(64))
        assert tex.levels == 7
        assert tex.mips[-1].shape == (1, 1, 4)

    def test_mip_chain_averages(self):
        tex = TextureResource.from_image("t", checker(64))
        assert tex.mips[-1][0, 0, 0] == pytest.approx(0.5, abs=0.01)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            TextureResource.from_image("t", np.zeros((60, 64, 4), np.float32))

    def test_format_sizes(self):
        assert TextureFormat.DXT1.bytes_per_texel == 0.5
        assert TextureFormat.DXT5.bytes_per_texel == 1.0
        assert TextureFormat.RGBA8.bytes_per_texel == 4.0

    def test_compressed_bytes_dxt1(self):
        tex = TextureResource.from_image("t", checker(64), TextureFormat.DXT1)
        base_blocks = (64 // 4) ** 2
        assert tex.compressed_bytes >= base_blocks * 8

    def test_registration_assigns_disjoint_ranges(self):
        mem = MemoryController()
        unit = TextureUnit(GpuConfig(), mem)
        a = unit.register(TextureResource.from_image("a", checker(64)))
        b = unit.register(TextureResource.from_image("b", checker(64)))
        assert b.base_address >= a.base_address + a.compressed_bytes


class TestSampling:
    def test_unbound_unit_returns_debug_color(self):
        mem = MemoryController()
        unit = TextureUnit(GpuConfig(), mem)
        out = unit(0, quad_coords(0.5, 0.5, 0.001, 0.001))
        assert np.allclose(out[0], [1, 0, 1, 1])

    def test_bilinear_magnified_exact_texel_center(self):
        unit, _ = make_unit()
        # Sample texel (0,0) center: u = 0.5/64.
        coords = quad_coords(0.5 / 64, 0.5 / 64, 0.001, 0.001)
        out = unit(0, coords)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_wrap_mode(self):
        unit, _ = make_unit()
        a = unit(0, quad_coords(0.25, 0.25, 0.001, 0.001))
        b = unit(0, quad_coords(1.25, 1.25, 0.001, 0.001))
        assert np.allclose(a, b, atol=1e-5)

    def test_quad_alignment_required(self):
        unit, _ = make_unit()
        with pytest.raises(ValueError):
            unit(0, np.zeros((3, 4)))

    def test_bilinear_count_one_per_request(self):
        unit, _ = make_unit(TextureFilter.BILINEAR)
        unit(0, quad_coords(0.3, 0.3, 0.001, 0.001))
        assert unit.stats.requests == 4
        assert unit.stats.bilinear_samples == 4

    def test_trilinear_doubles_when_minified(self):
        unit, _ = make_unit(TextureFilter.TRILINEAR)
        # Derivative of 4 texels/pixel -> lod 2: two mips touched.
        unit(0, quad_coords(0.1, 0.1, 4 / 64, 4 / 64))
        assert unit.stats.bilinear_samples == 8

    def test_aniso_scales_with_footprint_ratio(self):
        unit, _ = make_unit(TextureFilter.ANISOTROPIC, aniso=16)
        # 8:1 anisotropy: du/dx large, dv/dy small.
        unit(0, quad_coords(0.1, 0.1, 16 / 64, 2 / 64))
        per_request = unit.stats.bilinear_samples / unit.stats.requests
        assert 8 <= per_request <= 16 * 2

    def test_aniso_clamped_to_max(self):
        unit, _ = make_unit(TextureFilter.ANISOTROPIC, aniso=4)
        unit(0, quad_coords(0.1, 0.1, 32 / 64, 1 / 64))
        per_request = unit.stats.bilinear_samples / unit.stats.requests
        assert per_request <= 4 * 2

    def test_coverage_mask_limits_stats(self):
        unit, _ = make_unit()
        unit.set_coverage(np.array([True, False, False, False]))
        unit(0, quad_coords(0.3, 0.3, 0.001, 0.001))
        assert unit.stats.requests == 1

    def test_stats_reset(self):
        unit, _ = make_unit()
        unit(0, quad_coords(0.3, 0.3, 0.001, 0.001))
        snap = unit.stats.reset()
        assert snap.requests == 4
        assert unit.stats.requests == 0


class TestCaches:
    def test_memory_traffic_on_cold_sampling(self):
        unit, mem = make_unit()
        unit(0, quad_coords(0.2, 0.2, 0.01, 0.01))
        assert mem.reads[MemClient.TEXTURE] > 0

    def test_repeat_sampling_hits(self):
        unit, mem = make_unit()
        coords = quad_coords(0.2, 0.2, 0.01, 0.01)
        unit(0, coords)
        before = mem.reads[MemClient.TEXTURE]
        unit(0, coords)
        assert mem.reads[MemClient.TEXTURE] == before  # fully cached
        assert unit.l0.hit_rate > 0.4

    def test_spatial_locality_high_hit_rate(self):
        unit, mem = make_unit()
        # A row of adjacent quads, like a rasterized span.
        for qx in range(32):
            unit(0, quad_coords(qx / 64.0, 0.25, 1 / 64, 1 / 64))
        assert unit.l0.hit_rate > 0.8

    def test_dxt_reduces_memory_vs_rgba(self):
        def traffic(fmt):
            mem = MemoryController()
            unit = TextureUnit(GpuConfig(), mem)
            unit.register(TextureResource.from_image("t", checker(128), fmt))
            unit.bind(0, "t")
            unit.set_filter(TextureFilter.BILINEAR)
            rng = np.random.default_rng(0)
            for _ in range(200):
                u, v = rng.random(2)
                unit(0, quad_coords(u, v, 1 / 128, 1 / 128))
            return mem.reads[MemClient.TEXTURE]

        assert traffic(TextureFormat.RGBA8) > 2 * traffic(TextureFormat.DXT1)

    def test_unknown_binding_rejected(self):
        mem = MemoryController()
        unit = TextureUnit(GpuConfig(), mem)
        with pytest.raises(KeyError):
            unit.bind(0, "nope")


def _exported(cache):
    """A cache's ``kernel_state()`` export: MRU-first lines, dirty, sizes."""
    with cache.kernel_state() as (lines, dirty, sizes):
        return lines.copy(), dirty.copy(), sizes.copy()


@pytest.mark.skipif(not _native.available(), reason="no native kernels")
class TestNativeMatchesNumpy:
    """``texcache`` and ``bilinear_levels`` against the numpy path.

    Two units see the same calls; one runs with the compiled kernels off.
    After every call the colors, counters, bytes and each cache's recency
    order must match bit for bit — across wrapping, negative, minified and
    anisotropic footprints on square and one-texel-wide textures, and on
    small thrashing cache geometries where eviction order decides misses.
    """

    EXTENTS = [(1, 1), (16, 16), (1, 128), (64, 1), (8, 256), (256, 4),
               (32, 64), (256, 256)]
    FORMATS = [TextureFormat.DXT1, TextureFormat.DXT5, TextureFormat.RGBA8]
    FILTERS = [TextureFilter.BILINEAR, TextureFilter.TRILINEAR,
               TextureFilter.ANISOTROPIC]

    @staticmethod
    def _geometry(rng):
        l0_sets, l0_ways = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        l1_sets = int(rng.choice([1, 3, 5, 6]))
        l1_ways = int(rng.integers(1, 5))
        return (
            CacheConfig(l0_sets * l0_ways * 64, 64, l0_ways, "texture_l0"),
            CacheConfig(l1_sets * l1_ways * 64, 64, l1_ways, "texture_l1"),
        )

    def _units(self, rng, l0, l1):
        config = replace(GpuConfig(), texture_l0=l0, texture_l1=l1)
        units = [TextureUnit(config, MemoryController()) for _ in range(2)]
        for k, (h, w) in enumerate(self.EXTENTS):
            image = rng.random((h, w, 4), dtype=np.float32)
            fmt = self.FORMATS[k % len(self.FORMATS)]
            for unit in units:
                unit.register(TextureResource.from_image(f"t{k}", image, fmt))
        return units

    @staticmethod
    def _coords(rng, quads):
        """Quads anywhere in [-3, 3)^2 (several wraps, negative too), with
        derivatives from 1e-4 to about 3 texture widths per pixel and axis,
        so every LOD and anisotropy ratio occurs."""
        base = rng.uniform(-3.0, 3.0, size=(quads, 2))
        dx = rng.normal(size=(quads, 2)) * 10.0 ** rng.uniform(-4, 0.5, (quads, 1))
        dy = rng.normal(size=(quads, 2)) * 10.0 ** rng.uniform(-4, 0.5, (quads, 1))
        lanes = np.stack([base, base + dx, base + dy, base + dx + dy], axis=1)
        coords = np.zeros((quads * 4, 4))
        coords[:, :2] = lanes.reshape(-1, 2)
        coords[:, 3] = 1.0
        return coords

    @staticmethod
    def _state(unit):
        return (
            unit.stats.requests,
            unit.stats.bilinear_samples,
            unit.l0.hits, unit.l0.misses, unit.l0.accesses,
            unit.l1.hits, unit.l1.misses, unit.l1.accesses,
            unit.memory.reads[MemClient.TEXTURE],
        )

    def _call(self, units, name, filt, aniso, coords, coverage):
        """One sampler call on both units; everything must still match."""
        native, numpy_path = units
        outputs = []
        for unit, kernels in ((native, True), (numpy_path, False)):
            unit.bind(0, name)
            unit.set_filter(filt, aniso)
            unit.set_coverage(coverage)
            if kernels:
                outputs.append(unit(0, coords))
            else:
                with mock.patch.object(_native, "available", return_value=False):
                    outputs.append(unit(0, coords))
        assert outputs[0].tobytes() == outputs[1].tobytes()
        assert self._state(native) == self._state(numpy_path)
        for a, b in ((native.l0, numpy_path.l0), (native.l1, numpy_path.l1)):
            for x, y in zip(_exported(a), _exported(b)):
                assert np.array_equal(x, y)

    def _drive(self, seed, l0, l1, calls):
        rng = np.random.default_rng(seed)
        units = self._units(rng, l0, l1)
        for _ in range(calls):
            name = f"t{int(rng.integers(len(self.EXTENTS)))}"
            filt = self.FILTERS[int(rng.integers(3))]
            aniso = int(rng.integers(1, 17))
            quads = int(rng.integers(1, 65))
            coords = self._coords(rng, quads)
            coverage = rng.random(quads * 4) < rng.uniform(0.0, 1.0)
            self._call(units, name, filt, aniso, coords, coverage)
        return units[0]

    @pytest.mark.parametrize("seed", range(16))
    def test_random_draws_on_thrashing_geometries(self, seed):
        l0, l1 = self._geometry(np.random.default_rng(1000 + seed))
        native = self._drive(seed, l0, l1, calls=4)
        assert native.l0.misses > 0 and native.l1.accesses > 0

    def test_default_geometry(self):
        config = GpuConfig()
        self._drive(99, config.texture_l0, config.texture_l1, calls=6)

    @pytest.mark.parametrize("extent", [(64, 64), (8, 256), (256, 4)])
    def test_bilinear_on_every_chain_prefix(self, extent):
        """On a full chain the last level is 1x1, where the four taps are one
        texel and no level scale can change a color; on a chain prefix the
        last level's scale shows, so every reciprocal is checked."""
        rng = np.random.default_rng(5)
        image = rng.random((*extent, 4), dtype=np.float32)
        tex = TextureResource.from_image("t", image)
        unit = TextureUnit(GpuConfig(), MemoryController())
        offs, hs, ws = tex.level_layout
        u = rng.uniform(-3.0, 3.0, 256) * tex.width
        v = rng.uniform(-3.0, 3.0, 256) * tex.height
        for k in range(1, tex.levels + 1):
            mip0 = rng.integers(0, k, 256)
            fused = np.empty((256, 4), dtype=np.float32)
            _native.bilinear_levels(
                tex.texels, offs[:k], hs[:k], ws[:k], u, v, mip0, fused
            )
            with mock.patch.object(_native, "available", return_value=False):
                expected = unit._bilinear(tex, u, v, mip0)
            assert fused.tobytes() == expected.tobytes()

    def test_geometry_over_kernel_bound_falls_back(self):
        """An L1 of 4100 slots exceeds the kernel's 4096: it refuses without
        touching state and the numpy walk runs instead, with equal results."""
        self._drive(7, CacheConfig(4 * 64, 64, 4, "texture_l0"),
                    CacheConfig(1025 * 4 * 64, 64, 4, "texture_l1"), calls=3)

    def _defaults(self, seed):
        config = GpuConfig()
        return self._units(
            np.random.default_rng(seed), config.texture_l0, config.texture_l1
        )

    @pytest.mark.parametrize(
        "texel",
        [2.0**63, 1e19, -1e19, 1e300, -1e300, -(2.0**63), 2.0**62, -5e18,
         1e17, 3.7e15],
    )
    def test_far_out_coordinates(self, texel):
        """From |u| = 2^63 on the int64 texel index overflows; the kernel's
        bilinear weights must still come from that index, as numpy's do."""
        units = self._defaults(11)
        for name, (h, w) in (("t1", self.EXTENTS[1]), ("t5", self.EXTENTS[5])):
            coords = np.zeros((8, 4))
            coords[:, 0] = texel / w
            coords[:4, 1] = texel / h
            coords[4:, 1] = np.array([0.5, 0.5, 1.5, 1.5]) / h
            coords[:, 3] = 1.0
            for filt in self.FILTERS:
                with np.errstate(all="ignore"):
                    self._call(units, name, filt, 16, coords, None)

    @pytest.mark.parametrize("filt", FILTERS)
    def test_every_reference_repeats_one_line(self, filt):
        """Covered lanes all sample texel (1.5, 1.5) with no footprint: both
        corners fall in block 0, so after the first miss every reference
        repeats the line just walked."""
        units = self._defaults(3)
        coords = np.zeros((64, 4))
        coords[:, :2] = 1.5 / 16
        coords[:, 3] = 1.0
        coverage = np.arange(64) % 3 != 0
        self._call(units, "t1", filt, 16, coords, coverage)
        native = units[0]
        assert native.l0.accesses == 2 * int(coverage.sum())
        assert native.l0.misses == 1 and native.l1.accesses == 1

    def test_probe_buckets_mix_one_and_two_mip_lanes(self):
        """Quads from magnified (one mip) to minified between levels (two
        mips) at anisotropy 1 to 8, so each probe's step-1 buffers are
        shorter than its step-0 buffers and probe counts differ by lane."""
        units = self._defaults(4)
        # (texels per pixel along x, along y) of each quad on t7 (256x256).
        steps = [(1, 1), (3, 3), (0.5, 0.5), (11, 3), (2.5, 19), (1, 7.5), (6, 6)]
        coords = np.concatenate([
            quad_coords(0.1 + 0.1 * k, 0.3, sx / 256, sy / 256)
            for k, (sx, sy) in enumerate(steps)
        ])
        native = units[0]
        native.set_filter(TextureFilter.ANISOTROPIC, 16)
        tex = native._resources["t7"]
        lod, ratio, _, _ = native._footprint(
            coords[:, 0] * 256, coords[:, 1] * 256, tex
        )
        two = (lod > 0) & (np.floor(lod) < tex.levels - 1)
        assert two.any() and not two.all()
        assert len(set(ratio[two])) > 1 and len(set(ratio[~two])) > 1
        self._call(units, "t7", TextureFilter.ANISOTROPIC, 16, coords, None)

    def test_zero_and_one_covered_lanes(self):
        units = self._defaults(6)
        coords = self._coords(np.random.default_rng(7), 8)
        for lanes in (0, 1):
            coverage = np.zeros(32, dtype=bool)
            coverage[13 : 13 + lanes] = True
            for filt in self.FILTERS:
                self._call(units, "t6", filt, 16, coords, coverage)
        assert units[0].l0.accesses > 0

    def test_kernel_refuses_without_touching_state(self):
        """A covered lane whose level falls outside the per-level table
        (mip0 < 0) or that takes 65 probes makes texcache return None with
        both state triples byte-identical; uncovered, the same lane is never
        read, and with no lane covered nothing is emitted."""
        unit = self._defaults(8)[0]
        unit.bind(0, "t7")
        unit.set_filter(TextureFilter.ANISOTROPIC, 16)
        unit(0, self._coords(np.random.default_rng(9), 64))
        tex = unit._resources["t7"]
        rng = np.random.default_rng(10)
        n = 16
        lanes = {
            "u": rng.uniform(0, 256, n), "v": rng.uniform(0, 256, n),
            "du": rng.uniform(-4, 4, n), "dv": rng.uniform(-4, 4, n),
            "mip0": np.zeros(n, dtype=np.int64), "probes": np.ones(n),
            "mips": np.ones(n, dtype=np.int64),
        }

        def run(covered, **override):
            args = {**lanes, **override}
            states = (_exported(unit.l0), _exported(unit.l1))
            before = [x.tobytes() for state in states for x in state]
            counts = _native.texcache(
                args["u"], args["v"], args["du"], args["dv"],
                args["mip0"], args["probes"], args["mips"], covered,
                tex.levels - 1, tex.width, tex.height,
                np.asarray(tex.mip_block_offsets(), dtype=np.int64),
                tex.base_address, tex.format.block_bytes,
                states[0], (unit.l0.config.sets, unit.l0.config.ways),
                states[1], (unit.l1.config.sets, unit.l1.config.ways),
                unit.l1.config.line_bytes,
            )
            unchanged = before == [x.tobytes() for state in states for x in state]
            return counts, unchanged

        for key, value in (("mip0", -1), ("probes", 65.0)):
            bad = lanes[key].copy()
            bad[5] = value
            covered = np.ones(n, dtype=bool)
            assert run(covered, **{key: bad}) == (None, True)
            covered[5] = False
            counts, _ = run(covered, **{key: bad})
            assert counts is not None and counts[0] == 2 * (n - 1)
        assert run(np.zeros(n, dtype=bool)) == ((0, 0, 0, 0, 0), True)
