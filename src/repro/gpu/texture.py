"""Texture unit: sampling, filtering, LOD/anisotropy, and the cache pair.

Implements the dynamic texturing behaviour Table XIII characterizes: each
texture request costs a number of bilinear probes that depends on the filter
(1 bilinear, 2 trilinear, up to ``2*max_aniso`` anisotropic), with the
anisotropy ratio computed per quad from the UV footprint like the Feline
family of algorithms.  Texel traffic flows through a two-level cache: L0
holds decompressed 4x4-texel lines, L1 holds DXT-compressed memory lines;
L1 misses are the GDDR texture traffic of Tables XV-XVII.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.gpu import _native
from repro.gpu.caches import Cache
from repro.gpu.config import GpuConfig
from repro.gpu.memory import MemoryController
from repro.gpu.stats import MemClient
from repro.util.morton import morton2d


class TextureFormat(Enum):
    """Storage formats; value = bytes per 4x4 texel block in memory."""

    RGBA8 = 64
    DXT1 = 8
    DXT3 = 16
    DXT5 = 16

    @property
    def block_bytes(self) -> int:
        return self.value

    @property
    def bytes_per_texel(self) -> float:
        return self.value / 16.0


class TextureFilter(Enum):
    BILINEAR = "bilinear"
    TRILINEAR = "trilinear"
    ANISOTROPIC = "anisotropic"


def _copy_image(image: np.ndarray, out: np.ndarray) -> None:
    out[...] = image


class TextureResource:
    """A mip-mapped 2D texture resident in GPU memory, rendered on first read.

    A texture keeps its name, format, extent and a *recipe*: ``fill``, a
    picklable callable that writes the base level into an ``(h, w, 4)``
    float32 array.  Width, height, levels, :meth:`mip_block_offsets` and
    :attr:`compressed_bytes` — all the API trace and texture registration
    read — follow from the extent, so they never render a texel.

    The first texel read renders the base level and box-filters the chain
    into one contiguous float32 ``(texels, 4)`` buffer, :attr:`texels`
    (level after level, each row-major); :attr:`mips` are ``(h, w, 4)``
    views into it.
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        fill,
        format: TextureFormat = TextureFormat.DXT1,
    ):
        if width < 1 or height < 1 or width & (width - 1) or height & (height - 1):
            raise ValueError("texture dimensions must be powers of two")
        self.name = name
        self.width = width
        self.height = height
        self.fill = fill
        self.format = format
        self.base_address = 0  # assigned at registration
        extents = [(height, width)]
        while height > 1 or width > 1:
            height, width = max(1, height // 2), max(1, width // 2)
            extents.append((height, width))
        #: ``(h, w)`` of every level, halving down to 1x1.
        self.extents = tuple(extents)

    @staticmethod
    def from_image(
        name: str,
        image: np.ndarray,
        format: TextureFormat = TextureFormat.DXT1,
    ) -> "TextureResource":
        """A texture whose base level is ``image``; its recipe keeps a copy."""
        base = np.array(image, dtype=np.float32)
        if base.ndim != 3 or base.shape[2] != 4:
            raise ValueError("image must be (h, w, 4)")
        h, w = base.shape[:2]
        return TextureResource(name, w, h, functools.partial(_copy_image, base), format)

    @property
    def levels(self) -> int:
        return len(self.extents)

    @functools.cached_property
    def level_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, heights, widths)`` of each level in :attr:`texels`."""
        hs = np.asarray([h for h, _ in self.extents], dtype=np.int64)
        ws = np.asarray([w for _, w in self.extents], dtype=np.int64)
        offsets = np.zeros(len(hs), dtype=np.int64)
        np.cumsum((hs * ws)[:-1], out=offsets[1:])
        return offsets, hs, ws

    def _level_views(self, texels: np.ndarray) -> list[np.ndarray]:
        offsets, hs, ws = self.level_layout
        return [
            texels[o : o + h * w].reshape(h, w, 4)
            for o, h, w in zip(offsets.tolist(), hs.tolist(), ws.tolist())
        ]

    @functools.cached_property
    def texels(self) -> np.ndarray:
        """Every level's RGBA texels in one contiguous float32 buffer."""
        offsets, hs, ws = self.level_layout
        texels = np.empty((int(offsets[-1] + hs[-1] * ws[-1]), 4), dtype=np.float32)
        levels = self._level_views(texels)
        self.fill(levels[0])
        for prev, out in zip(levels, levels[1:]):
            (h, w), (nh, nw) = prev.shape[:2], out.shape[:2]
            if h > 1 and w > 1:
                np.mean(prev.reshape(nh, 2, nw, 2, 4), axis=(1, 3), out=out)
            elif h > 1:
                np.mean(prev.reshape(nh, 2, nw, 4), axis=1, out=out)
            else:
                np.mean(prev.reshape(nh, nw, 2, 4), axis=2, out=out)
        return texels

    @functools.cached_property
    def mips(self) -> list[np.ndarray]:
        """Each level as an ``(h, w, 4)`` view into :attr:`texels`."""
        return self._level_views(self.texels)

    def mip_block_offsets(self) -> list[int]:
        """Byte offset of each mip level (in compressed blocks, Morton laid)."""
        offsets = []
        offset = 0
        for h, w in self.extents:
            offsets.append(offset)
            blocks_x = -(-w // 4)
            blocks_y = -(-h // 4)
            # Morton layout needs a square power-of-two extent.
            extent = 1 << max(blocks_x - 1, blocks_y - 1, 1).bit_length()
            offset += extent * extent * self.format.block_bytes
        return offsets

    @property
    def compressed_bytes(self) -> int:
        total = sum((-(-w // 4)) * (-(-h // 4)) for h, w in self.extents)
        return total * self.format.block_bytes


@dataclass
class TextureSampleStats:
    """Per-draw texture statistics pulled by the pipeline."""

    requests: int = 0
    bilinear_samples: int = 0

    def reset(self) -> "TextureSampleStats":
        snap = TextureSampleStats(self.requests, self.bilinear_samples)
        self.requests = 0
        self.bilinear_samples = 0
        return snap


class TextureUnit:
    """Sampler backend for the fragment interpreter plus cache/BW model."""

    def __init__(self, config: GpuConfig, memory: MemoryController):
        self.config = config
        self.memory = memory
        self.l0 = Cache(config.texture_l0)
        self.l1 = Cache(config.texture_l1)
        self._resources: dict[str, TextureResource] = {}
        self._next_base = 0
        self._bindings: dict[int, str] = {}
        self._filter = TextureFilter.ANISOTROPIC
        self._max_aniso = config.max_anisotropy
        self._coverage: np.ndarray | None = None
        self._mip_offsets: dict[str, np.ndarray] = {}
        self.stats = TextureSampleStats()

    # -- setup -------------------------------------------------------------
    def register(self, resource: TextureResource) -> TextureResource:
        """Place a texture in the GPU texture address space."""
        if resource.name in self._resources:
            return self._resources[resource.name]
        size = resource.compressed_bytes
        aligned = -(-size // 4096) * 4096
        resource.base_address = self._next_base
        self._next_base += aligned
        self._resources[resource.name] = resource
        return resource

    def bind(self, unit: int, name: str | None) -> None:
        if name is None:
            self._bindings.pop(unit, None)
        else:
            if name not in self._resources:
                raise KeyError(f"texture {name!r} not registered")
            self._bindings[unit] = name

    def invalidate_caches(self) -> None:
        """Drop L0/L1 contents (texture data is read-only, nothing to flush).

        Called at full-frame clears: a frame touches far more texels than
        the caches hold, so cross-frame reuse is negligible — dropping the
        contents at the frame boundary makes every frame's reference stream
        independent of the frames before it, which is what lets the farm
        shard a run by frame ranges bit-identically.  Hit/miss/access
        counters are preserved (they span the whole run).
        """
        self.l0.invalidate()
        self.l1.invalidate()

    def set_filter(self, filter: TextureFilter, max_aniso: int | None = None) -> None:
        self._filter = filter
        if max_aniso is not None:
            self._max_aniso = max(1, min(max_aniso, self.config.max_anisotropy))

    def set_coverage(self, coverage: np.ndarray | None) -> None:
        """Lane coverage mask for the next program execution.

        Helper lanes still compute derivatives but only covered lanes count
        as requests and generate cache traffic.
        """
        self._coverage = coverage

    # -- the SamplerCallback protocol ---------------------------------------
    def __call__(self, unit: int, coords: np.ndarray) -> np.ndarray:
        name = self._bindings.get(unit)
        n = coords.shape[0]
        if name is None:
            return np.tile(np.array([1.0, 0.0, 1.0, 1.0]), (n, 1))  # debug pink
        resource = self._resources[name]
        if n % 4:
            raise ValueError("texture coords must be quad-aligned (N % 4 == 0)")
        u = coords[:, 0] * resource.width
        v = coords[:, 1] * resource.height

        lod, ratio, major_du, major_dv = self._footprint(u, v, resource)
        covered = (
            self._coverage
            if self._coverage is not None
            else np.ones(n, dtype=bool)
        )

        mip0 = np.floor(lod).astype(np.int64)
        trilinear = self._filter in (
            TextureFilter.TRILINEAR,
            TextureFilter.ANISOTROPIC,
        )
        mip_count = np.where(trilinear & (lod > 0) & (mip0 < resource.levels - 1), 2, 1)
        probes = ratio if self._filter is TextureFilter.ANISOTROPIC else np.ones_like(ratio)
        bilinears = probes * mip_count

        self.stats.requests += int(covered.sum())
        self.stats.bilinear_samples += int(bilinears[covered].sum())

        self._simulate_cache(
            resource, u, v, mip0, probes, mip_count, major_du, major_dv, covered
        )
        return self._bilinear(resource, u, v, mip0).astype(np.float64)

    # -- internals -----------------------------------------------------------
    def _footprint(self, u: np.ndarray, v: np.ndarray, resource: TextureResource):
        """Per-quad LOD and anisotropy from lane derivatives (broadcast to lanes)."""
        q = u.shape[0] // 4
        uq = u.reshape(q, 4)
        vq = v.reshape(q, 4)
        dudx = uq[:, 1] - uq[:, 0]
        dvdx = vq[:, 1] - vq[:, 0]
        dudy = uq[:, 2] - uq[:, 0]
        dvdy = vq[:, 2] - vq[:, 0]
        lx = np.hypot(dudx, dvdx)
        ly = np.hypot(dudy, dvdy)
        major = np.maximum(lx, ly)
        minor = np.minimum(lx, ly)
        if self._filter is TextureFilter.ANISOTROPIC:
            ratio = np.ceil(major / np.maximum(minor, 1e-6))
            ratio = np.clip(ratio, 1, self._max_aniso)
            lod_len = major / ratio
        else:
            ratio = np.ones(q)
            lod_len = major
        lod = np.log2(np.maximum(lod_len, 1e-6))
        lod = np.clip(lod, 0.0, resource.levels - 1.0)
        x_major = lx >= ly
        major_du = np.where(x_major, dudx, dudy)
        major_dv = np.where(x_major, dvdx, dvdy)

        def lanes(a: np.ndarray) -> np.ndarray:
            return np.repeat(a, 4)

        return lanes(lod), lanes(ratio), lanes(major_du), lanes(major_dv)

    def _simulate_cache(
        self,
        resource: TextureResource,
        u: np.ndarray,
        v: np.ndarray,
        mip0: np.ndarray,
        probes: np.ndarray,
        mip_count: np.ndarray,
        major_du: np.ndarray,
        major_dv: np.ndarray,
        covered: np.ndarray,
    ) -> None:
        """Generate the L0/L1/memory reference stream for covered lanes."""
        if not covered.any():
            return
        mip_offsets = self._mip_offsets.get(resource.name)
        if mip_offsets is None:
            mip_offsets = np.asarray(resource.mip_block_offsets(), dtype=np.int64)
            self._mip_offsets[resource.name] = mip_offsets
        max_probes = int(probes[covered].max())
        u_c = u[covered]
        v_c = v[covered]
        mip0_c = mip0[covered]
        probes_c = probes[covered]
        mips_c = mip_count[covered]
        du_c = major_du[covered]
        dv_c = major_dv[covered]
        block_bytes = resource.format.block_bytes
        if _native.available() and u_c.dtype == np.float64 and max_probes <= 64:
            # One fused pass: the kernel generates the probe-major reference
            # stream (bit-identical addresses to the numpy construction
            # below) and walks it through the L0 and L1 LRU state inline,
            # without materializing any intermediate.  The raw walk counts
            # exactly what the collapse passes in ``access_runs`` count:
            # those passes only drop guaranteed hits, which the walk scores
            # as hits anyway, and leave the same final LRU contents.
            mip0_i = np.ascontiguousarray(mip0_c, dtype=np.int64)
            probes_i = np.ascontiguousarray(probes_c, dtype=np.int64)
            mips_i = np.ascontiguousarray(mips_c, dtype=np.int64)
            bucket = np.empty(max(int(probes_i.sum()), 1), dtype=np.int64)
            l0_config, l1_config = self.l0.config, self.l1.config
            with (
                self.l0.kernel_state() as l0_state,
                self.l1.kernel_state() as l1_state,
            ):
                counts = _native.texcache(
                    np.ascontiguousarray(u_c),
                    np.ascontiguousarray(v_c),
                    np.ascontiguousarray(du_c, dtype=np.float64),
                    np.ascontiguousarray(dv_c, dtype=np.float64),
                    mip0_i,
                    probes_i,
                    mips_i,
                    max_probes,
                    resource.levels - 1,
                    resource.width,
                    resource.height,
                    mip_offsets,
                    resource.base_address,
                    block_bytes,
                    bucket,
                    l0_state,
                    (l0_config.sets, l0_config.ways),
                    l1_state,
                    (l1_config.sets, l1_config.ways),
                    l1_config.line_bytes,
                )
            if counts is not None:
                emitted, l0_hits, l0_misses, l1_hits, l1_misses = counts
                self.l0.accesses += emitted
                self.l0.hits += l0_hits
                self.l0.misses += l0_misses
                self.l1.accesses += l0_misses
                self.l1.hits += l1_hits
                self.l1.misses += l1_misses
                if l1_misses:
                    self.memory.read(
                        MemClient.TEXTURE, l1_misses * l1_config.line_bytes
                    )
                return
        # The reference stream is probe-major: probe p of every lane that has
        # one (lane order), then probe p+1, ...  Materialize that (p, lane)
        # pair order once up front so every per-lane array is gathered a
        # single time — anisotropic draws take up to 16 probes per lane, and
        # re-gathering with a boolean mask per probe dominated this stage.
        if max_probes == 1:
            rows = np.zeros(probes_c.shape[0], dtype=np.int64)
            cols = np.arange(probes_c.shape[0])
        else:
            pair_mask = (
                np.arange(max_probes, dtype=np.int64)[:, None] < probes_c[None, :]
            )
            rows, cols = np.nonzero(pair_mask)
        # t in [-0.5, 0.5) along the anisotropy major axis (same float
        # expression as the per-probe form: rows is the probe index p).
        t_all = (rows + 0.5) / probes_c[cols] - 0.5
        pu_all = u_c[cols] + t_all * du_c[cols]
        pv_all = v_c[cols] + t_all * dv_c[cols]
        mip0_all = mip0_c[cols]
        mips_all = mips_c[cols]
        # Per mip step, compute both corner addresses for ALL pairs at once;
        # the probe-major assembly below is then pure slicing.
        step_addrs: dict[int, list[np.ndarray]] = {}
        step_bounds: dict[int, np.ndarray] = {}
        for level_step in (0, 1):
            gsel = mips_all > level_step
            if not gsel.any():
                continue
            level = np.minimum(mip0_all[gsel] + level_step, resource.levels - 1)
            # A bilinear probe reads a 2x2 texel footprint.  Reference its
            # two diagonal corners (at the sampled mip's texel pitch): they
            # bound the footprint's cache-line spread, so the hit rates
            # reflect texel traffic like Table XIV does, at half the
            # reference-stream cost of all four corners.  The mip geometry
            # is shared by both corners.
            clamped = np.minimum(level, 30)
            pitch = np.power(2.0, level.astype(np.float64))
            w = np.maximum(resource.width >> clamped, 1)
            h = np.maximum(resource.height >> clamped, 1)
            offs = resource.base_address + mip_offsets[
                np.minimum(level, len(mip_offsets) - 1)
            ]
            bu = pu_all[gsel]
            bv = pv_all[gsel]
            # pitch is an exact power of two, so dividing by it and
            # multiplying by its reciprocal round identically; likewise the
            # mip extents are powers of two (TextureResource rejects any
            # other), letting the wrap use a bit mask (correct for negative
            # pre-wrap texels in two's complement) and the block split a
            # shift.
            inv_pitch = 1.0 / pitch
            corners = []
            for corner in (-0.5, 0.5):
                tx = np.floor((bu + corner * pitch) * inv_pitch).astype(np.int64)
                ty = np.floor((bv + corner * pitch) * inv_pitch).astype(np.int64)
                tx &= w - 1
                ty &= h - 1
                block = morton2d(
                    (tx >> 2).astype(np.uint64), (ty >> 2).astype(np.uint64)
                ).astype(np.int64)
                corners.append(offs + block * block_bytes)
            step_addrs[level_step] = corners
            step_bounds[level_step] = np.searchsorted(
                rows[gsel], np.arange(max_probes + 1)
            )
        if not step_addrs:
            return
        l0_addr_parts: list[np.ndarray] = []
        for p in range(max_probes):
            for level_step, corners in step_addrs.items():
                bounds = step_bounds[level_step]
                s, e = int(bounds[p]), int(bounds[p + 1])
                if s == e:
                    continue
                l0_addr_parts.append(corners[0][s:e])
                l0_addr_parts.append(corners[1][s:e])
        if not l0_addr_parts:
            return
        self._account_l0_stream(np.concatenate(l0_addr_parts), block_bytes)

    def _account_l0_stream(
        self, block_addrs: np.ndarray, block_bytes: int
    ) -> None:
        """Run a block-address stream through L0 → L1 → memory."""
        if block_addrs.size == 0:
            return
        # One L0 line holds one decompressed 4x4 block.
        l0_lines = block_addrs // block_bytes
        l0_result = self.l0.access_runs(l0_lines)
        if l0_result.misses == 0:
            return
        # L0 misses fetch the compressed block through L1 (64 B lines hold
        # several DXT blocks, which is where compressed-space locality pays).
        miss_block_addrs = np.asarray(l0_result.miss_lines, dtype=np.int64) * block_bytes
        l1_lines = miss_block_addrs // self.config.texture_l1.line_bytes
        l1_result = self.l1.access_runs(l1_lines)
        if l1_result.misses:
            self.memory.read(
                MemClient.TEXTURE,
                l1_result.misses * self.config.texture_l1.line_bytes,
            )

    def _bilinear(
        self, resource: TextureResource, u: np.ndarray, v: np.ndarray, mip0: np.ndarray
    ) -> np.ndarray:
        """Bilinear color fetch at the floor mip (color approximation)."""
        if _native.available() and u.dtype == np.float64 and v.dtype == np.float64:
            # One fused pass over all lanes regardless of mip level; its
            # colors equal the numpy loop's below bit for bit (see the
            # kernel's comment for why its mask wraps and reciprocal
            # scales round the same as % and /).
            fused = np.empty((u.shape[0], 4), dtype=np.float32)
            _native.bilinear_levels(
                resource.texels,
                *resource.level_layout,
                np.ascontiguousarray(u),
                np.ascontiguousarray(v),
                np.ascontiguousarray(mip0, dtype=np.int64),
                fused,
            )
            return fused
        out = np.empty((u.shape[0], 4), dtype=np.float32)
        for level in np.unique(mip0):
            sel = mip0 == level
            mip = resource.mips[int(level)]
            h, w = mip.shape[:2]
            mu = u[sel] / (1 << int(level)) - 0.5
            mv = v[sel] / (1 << int(level)) - 0.5
            x0 = np.floor(mu).astype(np.int64)
            y0 = np.floor(mv).astype(np.int64)
            fx = (mu - x0)[:, None]
            fy = (mv - y0)[:, None]
            x0w, x1w = x0 % w, (x0 + 1) % w
            y0w, y1w = y0 % h, (y0 + 1) % h
            # Flat-index gathers (one address computation per texel instead
            # of numpy's 2D fancy-index path); same texels, same colors.
            flat = mip.reshape(-1, mip.shape[-1])
            r0 = y0w * w
            r1 = y1w * w
            c00 = flat[r0 + x0w]
            c10 = flat[r0 + x1w]
            c01 = flat[r1 + x0w]
            c11 = flat[r1 + x1w]
            out[sel] = (
                c00 * (1 - fx) * (1 - fy)
                + c10 * fx * (1 - fy)
                + c01 * (1 - fx) * fy
                + c11 * fx * fy
            )
        return out
