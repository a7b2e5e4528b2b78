"""Color/blend stage: framebuffer color update, color cache, compression.

The paper notes blending is always active in the color stage for the
simulated workloads, that a large share of Doom3/Quake4 quads arrive with
the color write mask off (stencil-shadow passes), and that the fast-clear +
uniform-block compression only pays off when large screen regions stay a
single color (shadowed areas) — all of which this stage reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.gpu import _native
from repro.gpu.caches import Cache
from repro.gpu.config import GpuConfig
from repro.gpu.framebuffer import BlockState, Framebuffer
from repro.gpu.memory import MemoryController
from repro.gpu.stats import MemClient

_BLEND_MODES = {"replace": 0, "add": 1, "modulate": 2, "alpha": 3}


class ColorStage:
    def __init__(
        self, config: GpuConfig, framebuffer: Framebuffer, memory: MemoryController
    ):
        self.config = config
        self.fb = framebuffer
        self.memory = memory
        self.cache = Cache(config.color_cache)

    def invalidate_cache(self) -> None:
        """Drop contents without writeback (a color clear kills the data)."""
        self.cache.invalidate()

    def process(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        qx: np.ndarray,
        qy: np.ndarray,
        colors: np.ndarray,
        write_mask: np.ndarray,
        blend: str,
    ) -> None:
        """Blend ``colors`` into the framebuffer.

        ``xs``/``ys``/``colors``/``write_mask``: (Q, 4[, 4]) lane arrays;
        ``qx``/``qy``: (Q,) quad coordinates for cache accounting.  Duplicate
        pixels across quads (overdraw within a draw call) are handled
        per-mode: ``replace`` keeps submission order (last write wins),
        ``add`` accumulates order-independently, ``alpha``/``modulate`` fall
        back to sequential application.
        """
        if not write_mask.any():
            return
        fb = self.fb
        m = write_mask
        if blend == "replace":
            fb.color[ys[m], xs[m]] = colors[m]
        elif blend == "add":
            np.add.at(fb.color, (ys[m], xs[m]), colors[m])
            # Saturate like an 8-bit framebuffer (touched pixels only).
            fb.color[ys[m], xs[m]] = np.clip(fb.color[ys[m], xs[m]], 0.0, 1.0)
        elif blend == "modulate":
            np.multiply.at(fb.color, (ys[m], xs[m]), colors[m])
        elif blend == "alpha":
            flat_y, flat_x, flat_c = ys[m], xs[m], colors[m]
            for i in range(flat_y.shape[0]):
                a = flat_c[i, 3]
                dst = fb.color[flat_y[i], flat_x[i]]
                fb.color[flat_y[i], flat_x[i]] = a * flat_c[i] + (1.0 - a) * dst
        else:
            raise ValueError(f"unknown blend mode {blend!r}")
        self._account_cache(qx, qy)

    def process_groups(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        qx: np.ndarray,
        qy: np.ndarray,
        colors: np.ndarray,
        write_mask: np.ndarray,
        blend: str,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        """Run :meth:`process` over ``[starts[g], ends[g])`` quad groups.

        One native call blends every group and walks the color cache in the
        group-sequential reference order (blend group g, account group g,
        blend group g+1, ...), with the per-group eviction write-backs and
        block-state updates deferred to each group's end exactly like
        :meth:`_account_cache`.  Falls back to the per-group Python loop
        when the kernel is unavailable.
        """
        mode = _BLEND_MODES.get(blend)
        if mode is None:
            raise ValueError(f"unknown blend mode {blend!r}")
        nquads = qx.shape[0]
        if _native.available() and nquads:
            fb = self.fb
            cache = self.cache
            cache_config = cache.config
            escratch = np.empty(nquads, dtype=np.int64)
            with cache.kernel_state() as state:
                counts = _native.colorpass(
                    np.ascontiguousarray(xs.reshape(-1), dtype=np.int64),
                    np.ascontiguousarray(ys.reshape(-1), dtype=np.int64),
                    np.ascontiguousarray(colors.reshape(-1, 4), dtype=np.float64),
                    np.ascontiguousarray(write_mask.reshape(-1), dtype=np.uint8),
                    np.ascontiguousarray(starts, dtype=np.int64),
                    np.ascontiguousarray(ends, dtype=np.int64),
                    mode,
                    fb.color,
                    fb.color_block_state,
                    fb.block,
                    fb.blocks_x,
                    state,
                    cache_config.sets,
                    cache_config.ways,
                    cache_config.line_bytes,
                    bool(self.config.color_compression),
                    bool(self.config.color_fast_clear),
                    escratch,
                )
            accesses, hits, misses, read_bytes, write_bytes = counts
            cache.accesses += accesses
            cache.hits += hits
            cache.misses += misses
            if read_bytes:
                self.memory.read(MemClient.COLOR, read_bytes)
            if write_bytes:
                self.memory.write(MemClient.COLOR, write_bytes)
            return
        for g in range(starts.shape[0]):
            s, e = int(starts[g]), int(ends[g])
            self.process(
                xs[s:e], ys[s:e], qx[s:e], qy[s:e],
                colors[s:e], write_mask[s:e], blend,
            )

    def _account_cache(self, qx: np.ndarray, qy: np.ndarray) -> None:
        fb = self.fb
        config = self.config
        line_bytes = config.color_cache.line_bytes
        bx, by = fb.quad_block_coords(qx, qy)
        lines = fb.block_line_index(bx, by)
        result = self.cache.access_runs(lines, True)
        # Batched exactly like ZStencilStage.account_stream: miss fills
        # only read block states, uniformity probes only read the color
        # plane (blending for this batch already happened above).
        misses = np.asarray(result.miss_lines, dtype=np.int64)
        if misses.size:
            ys, xs = np.divmod(misses, fb.blocks_x)
            states = fb.color_block_state[ys, xs]
            nbytes = np.full(misses.size, line_bytes, dtype=np.int64)
            if config.color_compression:
                nbytes[states == BlockState.COMPRESSED] = line_bytes // 2
            if config.color_fast_clear:
                nbytes[states == BlockState.CLEARED] = 0
            self.memory.read(MemClient.COLOR, int(nbytes.sum()))
        evictions = np.asarray(result.dirty_evictions, dtype=np.int64)
        if evictions.size:
            self._write_back_lines(evictions // line_bytes)

    def _write_back_lines(self, lines: np.ndarray) -> None:
        """Write back evicted lines, compressing the uniform blocks."""
        fb = self.fb
        line_bytes = self.config.color_cache.line_bytes
        ys, xs = np.divmod(lines, fb.blocks_x)
        if self.config.color_compression:
            uniform = fb.color_blocks_uniform(xs, ys)
        else:
            uniform = np.zeros(lines.size, dtype=bool)
        nbytes = np.where(uniform, line_bytes // 2, line_bytes)
        self.memory.write(MemClient.COLOR, int(nbytes.sum()))
        fb.color_block_state[ys[uniform], xs[uniform]] = BlockState.COMPRESSED
        fb.color_block_state[ys[~uniform], xs[~uniform]] = BlockState.UNCOMPRESSED

    def flush(self) -> None:
        """End-of-frame writeback so the DAC can scan the finished frame."""
        addrs = np.asarray(self.cache.flush(), dtype=np.int64)
        if addrs.size:
            self._write_back_lines(addrs // self.config.color_cache.line_bytes)
