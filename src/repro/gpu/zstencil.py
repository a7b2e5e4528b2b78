"""Z and stencil test stage.

Performs the per-fragment depth and stencil tests, the stencil update
operations (including the two-sided wrap ops the Doom3/Quake4 shadow-volume
algorithm relies on), the z-buffer writes, and the Z/stencil cache with
fast-clear and plane compression — the machinery behind Tables IX, XIV, XV
and XVII.

Two entries test and write: :meth:`ZStencilStage.process` takes one
triangle's quads (the per-triangle reference path) and
:meth:`ZStencilStage.test_write` a whole draw's QuadStream, HZ cull
included.  ``test_write`` runs the compiled ``zstencilpass`` over the draw's
triangle groups in submission order, or without the kernels replays that
order in hazard-free block-rank waves (:func:`block_ranks`).  Cache
accounting is separate (:meth:`ZStencilStage.account_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.state import DEPTH_FUNCS, STENCIL_FUNCS, STENCIL_OPS, RenderState
from repro.gpu import _native
from repro.gpu.caches import Cache
from repro.gpu.config import GpuConfig
from repro.gpu.framebuffer import BlockState, Framebuffer
from repro.gpu.memory import MemoryController
from repro.gpu.rasterizer import _QUAD_DX, _QUAD_DY, QuadBatch, QuadStream
from repro.gpu.stats import MemClient


@dataclass
class ZStencilResult:
    pass_mask: np.ndarray  # (Q, 4) lanes passing both tests
    wrote: np.ndarray  # (Q,) quads that modified z or stencil
    # Draw-level entry (test_write) only: the quads that passed HZ and
    # were tested, and the counts the pipeline books.
    entered: np.ndarray | None = None  # (Q,)
    hz_culled: int = 0
    fragments: int = 0  # alive lanes of entered quads
    quads: int = 0
    complete_quads: int = 0


def block_ranks(block: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Per-quad wave index for hazard-free vectorized Z/stencil.

    ``rank(q)`` = number of *distinct earlier triangles* with a quad in the
    same framebuffer block as ``q``.  Within one rank, all quads sharing a
    block belong to a single triangle (so a vectorized read-test-write pass
    is race-free), and per block the ranks replay triangles in submission
    order — which is exactly the ordering the per-triangle reference path
    gives each block's depth/stencil state.  A quad's z, stencil, HZ
    extents and stencil band all belong to its block, so this equals the
    compiled pass's walk of the triangle groups in stream order; the waves
    are :meth:`ZStencilStage.test_write`'s path when no kernels are built.

    ``tri`` must be non-decreasing within each block's quads (true for a
    :class:`~repro.gpu.rasterizer.QuadStream`, which is triangle-ordered).
    """
    n = block.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(block, kind="stable")
    sb = block[order]
    st = tri[order]
    new_block = np.empty(n, dtype=bool)
    new_block[0] = True
    np.not_equal(sb[1:], sb[:-1], out=new_block[1:])
    new_tri = new_block.copy()
    new_tri[1:] |= st[1:] != st[:-1]
    group = np.cumsum(new_tri)  # 1-based id of each (block, triangle) run
    group_at_block_start = np.maximum.accumulate(np.where(new_block, group, 0))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = group - group_at_block_start
    return ranks


class ZStencilStage:
    def __init__(
        self, config: GpuConfig, framebuffer: Framebuffer, memory: MemoryController
    ):
        self.config = config
        self.fb = framebuffer
        self.memory = memory
        self.cache = Cache(config.zstencil_cache)

    def invalidate_cache(self) -> None:
        """Drop cache contents without writeback (fast clear kills the data)."""
        self.cache.invalidate()

    def process(
        self, quads: QuadBatch, state: RenderState, alive: np.ndarray
    ) -> ZStencilResult:
        """Test/update the framebuffer for one triangle's quads.

        ``alive``: (Q, 4) lanes still live entering the stage.  Returns the
        surviving lanes and accounts all cache/memory traffic.
        """
        passed, wrote = self._test_write_quads(
            quads.qx, quads.qy, quads.z,
            np.full(quads.quad_count, quads.front), state, alive,
        )
        self.account_stream(quads.qx, quads.qy, wrote)
        return ZStencilResult(pass_mask=passed, wrote=wrote)

    def test_write(
        self,
        stream: QuadStream,
        alive: np.ndarray,
        state: RenderState,
        hz_on: bool,
    ) -> ZStencilResult:
        """One draw's HZ cull and Z/stencil test and write, in stream order.

        ``alive`` is the (Q, 4) lanes entering the stage: ``stream.cover``
        for early Z, the shaded survivors for late Z (where ``hz_on`` is
        False).  HZ culls test ``stream.cover``.  Each triangle group (a run
        of equal ``stream.tri``) is culled against the HZ state from before
        it, tested and written; then the stencil band of each block whose
        stencil it changed is refreshed and, when ``state.depth_write``,
        the HZ extents of each block it wrote: the per-triangle reference's
        order.  Cache accounting is left to :meth:`account_stream`, which
        the pipeline calls once over the entered quads in original order.

        The compiled ``zstencilpass`` walks the groups in one call; without
        the kernels the same order is replayed in block-rank waves
        (:func:`block_ranks`).  Both give identical results.
        """
        if not _native.available():
            return self._test_write_waves(stream, alive, state, hz_on)
        n = stream.quad_count
        pass_mask = np.empty((n, 4), dtype=bool)
        wrote = np.empty(n, dtype=bool)
        entered = np.empty(n, dtype=bool)
        front, back = state.stencil_front, state.stencil_back
        params = np.array(
            [
                state.depth_test, DEPTH_FUNCS.index(state.depth_func),
                state.depth_write, state.stencil_test,
                STENCIL_FUNCS.index(state.stencil_func), state.stencil_ref,
                state.stencil_write,
                *(STENCIL_OPS.index(op) for op in (
                    front.sfail, front.zfail, front.zpass,
                    back.sfail, back.zfail, back.zpass,
                )),
                hz_on,
                hz_on and self.config.hz_min_max and state.depth_func == "equal",
                hz_on and self.config.hz_stencil and state.stencil_test,
            ],
            dtype=np.int64,
        )
        fb = self.fb
        counts = _native.zstencilpass(
            np.ascontiguousarray(stream.qx, dtype=np.int64),
            np.ascontiguousarray(stream.qy, dtype=np.int64),
            np.ascontiguousarray(stream.tri, dtype=np.int64),
            np.ascontiguousarray(stream.cover, dtype=bool),
            np.ascontiguousarray(alive, dtype=bool),
            np.ascontiguousarray(stream.z, dtype=np.float64),
            np.ascontiguousarray(stream.front, dtype=bool),
            params,
            (fb.z, fb.stencil, fb.hz_max, fb.hz_min,
             fb.hz_stencil_min, fb.hz_stencil_max),
            fb.block,
            pass_mask, wrote, entered,
        )
        return ZStencilResult(pass_mask, wrote, entered, *counts)

    def _test_write_waves(
        self,
        stream: QuadStream,
        alive: np.ndarray,
        state: RenderState,
        hz_on: bool,
    ) -> ZStencilResult:
        """:meth:`test_write` without the kernels: block-rank waves.

        When the draw can write depth or stencil, its quads run in
        :func:`block_ranks` waves, each hazard-free, so every block sees
        its triangles in submission order; HZ culls and refreshes
        interleave with the waves as the per-triangle path interleaves
        them per block.  A draw that writes nothing is one wave.
        """
        n = stream.quad_count
        pass_mask = np.zeros((n, 4), dtype=bool)
        wrote = np.zeros(n, dtype=bool)
        entered = np.zeros(n, dtype=bool)
        hz_culled = fragments = complete = 0
        if (state.depth_test and state.depth_write) or (
            state.stencil_test and state.stencil_write
        ):
            bx, by = self.fb.quad_block_coords(stream.qx, stream.qy)
            ranks = block_ranks(self.fb.block_line_index(bx, by), stream.tri)
            order = np.argsort(ranks, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(np.bincount(ranks))))
            waves = [
                order[bounds[r] : bounds[r + 1]] for r in range(bounds.size - 1)
            ]
        else:
            waves = [np.arange(n)]

        for idx in waves:
            if hz_on:
                culled = self.hz_cull(
                    stream.qx[idx], stream.qy[idx], stream.z[idx],
                    stream.cover[idx], state,
                )
                hz_culled += int(culled.sum())
                if culled.all():
                    continue
                if culled.any():
                    idx = idx[~culled]
            qx, qy = stream.qx[idx], stream.qy[idx]
            wave_alive = alive[idx]
            entered[idx] = True
            fragments += int(wave_alive.sum())
            complete += int(wave_alive.all(axis=1).sum())
            passed, wave_wrote = self._test_write_quads(
                qx, qy, stream.z[idx], stream.front[idx], state, wave_alive
            )
            pass_mask[idx] = passed
            wrote[idx] = wave_wrote
            if state.depth_write:
                self.update_hz_quads(qx, qy, wave_wrote)
        return ZStencilResult(
            pass_mask, wrote, entered,
            hz_culled, fragments, int(entered.sum()), complete,
        )

    def _test_write_quads(
        self,
        qx: np.ndarray,
        qy: np.ndarray,
        z: np.ndarray,
        front: np.ndarray,
        state: RenderState,
        alive: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Test/update the framebuffer for quads that share no pixel: one
        triangle's, or one block-rank wave's.

        ``front`` is per quad.  Refreshes the stencil band of changed
        blocks, not HZ, and accounts no cache traffic.  Returns the pass
        mask and the per-quad write flags.
        """
        fb = self.fb
        xs = qx[:, None] * 2 + _QUAD_DX[None, :]
        ys = qy[:, None] * 2 + _QUAD_DY[None, :]
        cur_z = fb.z[ys, xs]
        cur_s = fb.stencil[ys, xs]

        if state.depth_test:
            z_pass = _DEPTH_FUNCS[state.depth_func](z, cur_z)
        else:
            z_pass = np.ones_like(alive)
        if state.stencil_test:
            s_pass = _STENCIL_FUNCS[state.stencil_func](cur_s, state.stencil_ref)
        else:
            s_pass = np.ones_like(alive)

        passed = alive & z_pass & s_pass
        wrote_any = np.zeros(qx.shape[0], dtype=bool)

        if state.stencil_test and state.stencil_write:
            new_s = cur_s.copy()
            sfail = alive & ~s_pass
            zfail = alive & s_pass & ~z_pass
            for side_sel, side in (
                (front, state.stencil_front),
                (~front, state.stencil_back),
            ):
                if not side_sel.any():
                    continue
                for mask, op in (
                    (sfail, side.sfail),
                    (zfail, side.zfail),
                    (passed, side.zpass),
                ):
                    if op == "keep":
                        continue
                    m = mask & side_sel[:, None]
                    if not m.any():
                        continue
                    new_s[m] = _apply_stencil_op(op, cur_s[m], state.stencil_ref)
            changed = new_s != cur_s
            if changed.any():
                fb.stencil[ys[changed], xs[changed]] = new_s[changed]
                touched = changed.any(axis=1)
                wrote_any |= touched
                bx, by = fb.quad_block_coords(qx[touched], qy[touched])
                fb.note_stencil_write(bx, by)

        if state.depth_test and state.depth_write:
            write_mask = passed
            if write_mask.any():
                fb.z[ys[write_mask], xs[write_mask]] = z[write_mask]
                wrote_any |= write_mask.any(axis=1)

        return passed, wrote_any

    def hz_cull(
        self,
        qx: np.ndarray,
        qy: np.ndarray,
        z: np.ndarray,
        cover: np.ndarray,
        state: RenderState,
    ) -> np.ndarray:
        """Hierarchical-Z cull mask for quads tested against the current HZ.

        The quad's depth extremes over its ``cover`` lanes meet the block's
        HZ max (and min, for ``equal`` under ``hz_min_max``); under
        ``hz_stencil`` a stencil test also culls on the block's band.
        """
        z_min = np.where(cover, z, np.inf).min(axis=1)
        if self.config.hz_min_max and state.depth_func == "equal":
            culled = self.fb.hz_minmax_equal_cull_mask(
                qx, qy, z_min, np.where(cover, z, -np.inf).max(axis=1)
            )
        else:
            culled = self.fb.hz_cull_mask(qx, qy, z_min)
        if self.config.hz_stencil and state.stencil_test:
            culled = culled | self.fb.hz_stencil_cull_mask(
                qx, qy, state.stencil_ref, state.stencil_func
            )
        return culled

    def update_hz_quads(
        self, qx: np.ndarray, qy: np.ndarray, wrote: np.ndarray
    ) -> None:
        """Refresh the on-die HZ max for blocks whose z changed.

        ``qx``/``qy`` are quad coordinates and ``wrote`` flags the quads
        that wrote z or stencil.
        """
        if not wrote.any():
            return
        bx, by = self.fb.quad_block_coords(qx[wrote], qy[wrote])
        packed = np.unique(by.astype(np.int64) * self.fb.blocks_x + bx)
        self.fb.update_hz(packed % self.fb.blocks_x, packed // self.fb.blocks_x)

    def account_stream(
        self, qx: np.ndarray, qy: np.ndarray, wrote: np.ndarray
    ) -> None:
        """Cache/memory accounting for a draw's post-HZ stream, in order.

        The per-triangle path (:meth:`process`) calls this once per
        triangle; because :meth:`Cache.access_runs` collapses consecutive
        duplicate lines into one access (counted as hits), splitting or
        merging the reference stream at any boundary yields the identical
        hit/miss/eviction sequence — so one deferred call over the whole
        draw matches the baseline exactly.

        One deliberate approximation: dirty evictions probe
        ``z_blocks_compressible`` against the *end-of-draw* z contents rather
        than the mid-draw contents the per-triangle path would see, which
        can flip a writeback between compressed and raw size (and so the
        block state a later miss reads).  This affects only z memory byte
        totals, never hit/miss counts, statistics, quad fates, or
        framebuffer contents.  Measured against the per-triangle reference
        at 1 sim frame, ZSTENCIL reads differ by -1.0% (Doom3), -2.1%
        (Quake4), -3.2% (UT2004), -11.4% (Riddick), -11.6% (Oblivion),
        -13.1% (FEAR) and -39.3% (HL2 LC), writes by 0 to -8.7%; over 2
        frames the three simulated engines' total memory bytes move -0.28%
        to -0.58%.
        """
        fb = self.fb
        config = self.config
        bx, by = fb.quad_block_coords(qx, qy)
        result = self.cache.access_runs(fb.block_line_index(bx, by), wrote)
        line_bytes = config.zstencil_cache.line_bytes
        # Miss fills: cost depends on the block's in-memory state.  The
        # whole batch reads states up front — the miss loop never writes
        # them, so this matches the per-line walk exactly.
        misses = np.asarray(result.miss_lines, dtype=np.int64)
        if misses.size:
            ys, xs = np.divmod(misses, fb.blocks_x)
            states = fb.z_block_state[ys, xs]
            nbytes = np.full(misses.size, line_bytes, dtype=np.int64)
            if config.z_compression:
                nbytes[states == BlockState.COMPRESSED] = line_bytes // 2
            if config.z_fast_clear:
                nbytes[states == BlockState.CLEARED] = 0
            self.memory.read(MemClient.ZSTENCIL, int(nbytes.sum()))
        # Dirty evictions: try to compress the block being written back.
        # Compressibility probes only read the z plane, which accounting
        # never touches, so they batch exactly too.
        evictions = np.asarray(result.dirty_evictions, dtype=np.int64)
        if evictions.size:
            lines = evictions // line_bytes
            ys, xs = np.divmod(lines, fb.blocks_x)
            if config.z_compression:
                compressible = fb.z_blocks_compressible(xs, ys)
            else:
                compressible = np.zeros(lines.size, dtype=bool)
            nbytes = np.where(compressible, line_bytes // 2, line_bytes)
            self.memory.write(MemClient.ZSTENCIL, int(nbytes.sum()))
            fb.z_block_state[ys[compressible], xs[compressible]] = (
                BlockState.COMPRESSED
            )
            fb.z_block_state[ys[~compressible], xs[~compressible]] = (
                BlockState.UNCOMPRESSED
            )


def _apply_stencil_op(op: str, values: np.ndarray, ref: int) -> np.ndarray:
    if op == "zero":
        return np.zeros_like(values)
    if op == "replace":
        return np.full_like(values, ref)
    if op == "incr_wrap":
        return (values + 1) % 256
    if op == "decr_wrap":
        return (values - 1) % 256
    raise ValueError(f"unknown stencil op {op!r}")


_DEPTH_FUNCS = {
    "never": lambda new, cur: np.zeros_like(new, dtype=bool),
    "less": lambda new, cur: new < cur,
    "lequal": lambda new, cur: new <= cur,
    "equal": lambda new, cur: np.abs(new - cur) <= 1e-7,
    "always": lambda new, cur: np.ones_like(new, dtype=bool),
}

_STENCIL_FUNCS = {
    "always": lambda cur, ref: np.ones_like(cur, dtype=bool),
    "never": lambda cur, ref: np.zeros_like(cur, dtype=bool),
    "equal": lambda cur, ref: cur == ref,
    "notequal": lambda cur, ref: cur != ref,
}
