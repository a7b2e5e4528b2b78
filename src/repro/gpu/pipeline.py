"""Top-level GPU simulator: replays API traces through the full pipeline.

Per draw call: vertex fetch + post-transform cache + vertex shading →
primitive assembly → clip/cull → per-triangle rasterization into quads →
Hierarchical Z → (early or late) Z/stencil → fragment shading with textures
and KIL → color mask / blend.  Early Z runs before shading unless the
fragment program can kill fragments (the paper's alpha-test rule); the
stencil-shadow passes run with HZ disabled and color writes masked, exactly
the flow that produces the paper's Doom3/Quake4 numbers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.api.commands import (
    BindTexture,
    Clear,
    Draw,
    SetUniform,
    UploadResource,
)
from repro.api.state import StateMachine
from repro.api.trace import Frame, Trace
from repro.geometry.mesh import Mesh
from repro.observe import metrics as obs_metrics
from repro.observe import spans as obs_spans
from repro.geometry.primitives import assemble_triangles
from repro.gpu.caches import Cache
from repro.gpu.clipper import clip_and_cull
from repro.gpu.color import ColorStage
from repro.gpu.config import GpuConfig
from repro.gpu.framebuffer import Framebuffer
from repro.gpu.memory import MemoryController
from repro.gpu.rasterizer import (
    QuadBatch,
    QuadStream,
    rasterize_draw,
    rasterize_triangle,
)
from repro.gpu.stats import FrameGpuStats, GpuStats, MemClient, QuadFate
from repro.gpu.texture import TextureFilter, TextureResource, TextureUnit
from repro.gpu.vertex import VertexStage
from repro.gpu.zstencil import ZStencilStage
from repro.shader.interpreter import ShaderInterpreter
from repro.shader.program import ShaderProgram

#: Estimated command-buffer bytes fetched by the Command Processor per call.
_CP_CALL_BYTES = 16


@dataclass
class SimulationResult:
    """Everything the experiment harness needs from one simulated run."""

    stats: GpuStats
    frame_stats: list[FrameGpuStats]
    memory: MemoryController
    caches: dict[str, Cache]
    config: GpuConfig
    images: list[np.ndarray] = field(default_factory=list)

    def __setstate__(self, state: dict) -> None:
        # Unpickling interns instance-dict keys but no dict key or string
        # value, so a name shared by a GpuConfig field, a CacheConfig and
        # ``caches`` would come back as two strings and pickle twice.
        # Interning them here makes a result that crossed a process pool
        # pickle to the bytes of a fresh one.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self.caches = {sys.intern(k): v for k, v in self.caches.items()}

    @property
    def pixels(self) -> int:
        return self.config.pixels

    def overdraw(self, stage: str) -> float:
        return self.stats.overdraw(stage, self.pixels)


class GpuSimulator:
    """Replays traces; owns all pipeline state (framebuffer, caches, …)."""

    def __init__(
        self,
        config: GpuConfig,
        meshes: dict[str, Mesh],
        programs: dict[str, ShaderProgram],
        textures: list[TextureResource] | None = None,
        texture_filter: TextureFilter = TextureFilter.ANISOTROPIC,
        max_aniso: int = 16,
    ):
        self.config = config
        self.meshes = meshes
        self.programs = programs
        self.memory = MemoryController()
        self.fb = Framebuffer(config.width, config.height, config.hz_block)
        self.vertex_stage = VertexStage(config, self.memory)
        self.zstencil = ZStencilStage(config, self.fb, self.memory)
        self.color_stage = ColorStage(config, self.fb, self.memory)
        self.texture_unit = TextureUnit(config, self.memory)
        for tex in textures or []:
            self.texture_unit.register(tex)
        self.texture_unit.set_filter(texture_filter, max_aniso)
        self.fragment_interp = ShaderInterpreter(sampler=self.texture_unit)
        self.machine = StateMachine()
        self.stats = GpuStats()
        self.frame_stats: list[FrameGpuStats] = []

    # -- public API -----------------------------------------------------
    @property
    def frames_completed(self) -> int:
        """Frames fully simulated so far."""
        return len(self.frame_stats)

    def run_trace(
        self,
        trace: Trace,
        max_frames: int | None = None,
        fragment_stages: bool = True,
        keep_images: int = 0,
        on_frame=None,
        start_frame: int = 0,
    ) -> SimulationResult:
        """Simulate ``trace`` (optionally truncated) and return the results.

        ``fragment_stages=False`` runs the geometry pipeline only — cheap
        mode for the per-frame vertex-cache and clip/cull statistics (Figs. 5
        and 6) over long timedemos.  ``keep_images`` retains the color buffer
        of the first N frames.

        ``start_frame=k`` simulates a frame *shard*: the first ``k`` frames
        are fast-forwarded — their API calls are applied to the state
        machine only, with no rendering, statistics, or memory traffic — and
        simulation proper starts at frame ``k``.  Because every generated
        frame opens with a full clear (framebuffer reset, z/color/texture
        cache contents dropped), the pre-shard frames leave no pipeline
        state behind beyond the render state the fast-forward replays, so a
        shard's frames are bit-identical to the same frames of a serial run
        (``max_frames`` still counts *simulated* frames, i.e. the shard
        length).  ``on_frame(sim, n)`` is invoked after each completed
        frame — the farm's checkpoint hook.
        """
        images: list[np.ndarray] = []
        forward = start_frame
        run_span = obs_spans.span("gpu.run", "gpu")
        try:
            for frame in trace.frames():
                if forward > 0:
                    forward -= 1
                    self._fast_forward(frame)
                    continue
                if max_frames is not None and self.frames_completed >= max_frames:
                    break
                self.run_frame(frame, fragment_stages=fragment_stages)
                if len(images) < keep_images:
                    images.append(self.fb.color_image())
                if on_frame is not None:
                    on_frame(self, self.frames_completed)
        finally:
            if run_span:
                run_span.set("frames", self.frames_completed)
                run_span.set("start_frame", start_frame)
                obs_metrics.registry().gauge("gpu.memory_bytes").set(
                    int(self.memory.total_bytes)
                )
                run_span.__exit__(None, None, None)
        return self.result(images=images)

    def _fast_forward(self, frame: Frame) -> None:
        """Apply a pre-shard frame's calls to the render state only.

        No draws, clears, statistics, or memory traffic — those belong to
        the shard that owns the frame.  Replaying the state stream keeps
        program bindings, texture bindings, and uniforms exactly where a
        serial run would have them when the shard's first frame begins.
        """
        for call in frame.calls:
            self.machine.apply(call)

    def result(self, images: list[np.ndarray] | None = None) -> SimulationResult:
        """Merge the accumulated pipeline state into a SimulationResult.

        Valid at any frame boundary, which is what a checkpoint saves.
        """
        return SimulationResult(
            stats=self.stats,
            frame_stats=self.frame_stats,
            memory=self.memory,
            caches={
                "zstencil": self.zstencil.cache,
                "color": self.color_stage.cache,
                "texture_l0": self.texture_unit.l0,
                "texture_l1": self.texture_unit.l1,
            },
            config=self.config,
            images=images or [],
        )

    def run_frame(self, frame: Frame, fragment_stages: bool = True) -> FrameGpuStats:
        fstats = FrameGpuStats(frame=frame.number)
        frame_span = obs_spans.span("gpu.frame", "gpu")
        if frame_span:
            frame_span.set("frame", frame.number)
        try:
            for call in frame.calls:
                self.memory.read(MemClient.CP, self._command_bytes(call))
                if isinstance(call, Draw):
                    self._process_draw(call, fstats, fragment_stages)
                    continue
                if isinstance(call, UploadResource):
                    self.memory.write(MemClient.CP, call.byte_size)
                elif isinstance(call, Clear):
                    self._apply_clear(call)
                elif isinstance(call, BindTexture):
                    pass  # applied through the state machine below
                self.machine.apply(call)
            if fragment_stages:
                self.color_stage.flush()
                self.memory.read(
                    MemClient.DAC,
                    self.config.pixels * self.config.framebuffer_bytes_per_pixel,
                )
        finally:
            if frame_span:
                self._publish_frame_metrics(fstats)
                frame_span.__exit__(None, None, None)
        fstats.merge_into(self.stats)
        self.frame_stats.append(fstats)
        return fstats

    @staticmethod
    def _publish_frame_metrics(fstats: FrameGpuStats) -> None:
        """Per-frame event counts into the process-wide metrics registry.

        Only called while tracing — the counters travel in worker span
        payloads and merge order-independently at harvest.
        """
        reg = obs_metrics.registry()
        reg.counter("gpu.frames").inc()
        reg.counter("gpu.triangles_traversed").inc(fstats.triangles_traversed)
        reg.counter("gpu.fragments_rasterized").inc(fstats.fragments_rasterized)
        reg.counter("gpu.fragments_shaded").inc(fstats.fragments_shaded)
        reg.counter("gpu.fragments_blended").inc(fstats.fragments_blended)
        reg.histogram("gpu.frame_fragments_shaded").observe(
            fstats.fragments_shaded
        )

    # -- internals ------------------------------------------------------
    @staticmethod
    def _command_bytes(call) -> int:
        if isinstance(call, SetUniform):
            return _CP_CALL_BYTES + 4 * len(call.value)
        return _CP_CALL_BYTES

    def _apply_clear(self, call: Clear) -> None:
        if call.depth:
            self.fb.clear_depth(call.depth_value)
            self.zstencil.invalidate_cache()
        if call.stencil:
            self.fb.clear_stencil_only(call.stencil_value)
        if call.color:
            self.fb.clear_color(call.color_value)
            self.color_stage.invalidate_cache()
        if call.color and call.depth:
            # A full-frame clear is the frame boundary: drop the texture
            # cache contents too (counters survive).  Cross-frame texel
            # reuse is negligible — a frame references far more lines than
            # the caches hold — and starting every frame cold makes frames
            # independent units, which the farm's frame sharding requires.
            self.texture_unit.invalidate_caches()

    def _gather_constants(self) -> dict[int, tuple]:
        uniforms = self.machine.uniforms
        constants: dict[int, tuple] = {}
        mvp = uniforms.get("mvp")
        if mvp is not None:
            rows = np.asarray(mvp, dtype=np.float64).reshape(4, 4)
            for i in range(4):
                constants[i] = tuple(rows[i])
        model = uniforms.get("model")
        if model is not None:
            rows = np.asarray(model, dtype=np.float64).reshape(4, 4)
            for i in range(3):
                constants[8 + i] = tuple(rows[i])
        for name, slot in (("light_dir", 4), ("light_color", 5), ("ambient", 6)):
            value = uniforms.get(name)
            if value is not None:
                constants[slot] = tuple(value)[:4]
        return constants

    def _process_draw(
        self, draw: Draw, fstats: FrameGpuStats, fragment_stages: bool
    ) -> None:
        """Span-accounting wrapper around :meth:`_process_draw_impl`.

        With tracing disabled this adds one no-op span lookup per draw;
        enabled, it records the draw's cost deltas as ``gpu.draw`` span
        attributes — the one source of per-draw records
        (:func:`repro.gpu.profiler.records_from_spans`).
        """
        draw_span = obs_spans.span("gpu.draw", "gpu")
        if not draw_span:
            self._process_draw_impl(draw, fstats, fragment_stages)
            return
        memory_before = self.memory.total_bytes
        before = (
            fstats.indices,
            fstats.triangles_traversed,
            fstats.fragments_rasterized,
            fstats.fragments_shaded,
            fstats.fragments_blended,
            fstats.fragment_instructions,
            fstats.bilinear_samples,
        )
        try:
            self._process_draw_impl(draw, fstats, fragment_stages)
        finally:
            state = self.machine.state
            draw_span.set("frame", fstats.frame)
            draw_span.set("mesh", draw.mesh)
            draw_span.set("vertex_program", state.vertex_program)
            draw_span.set("fragment_program", state.fragment_program)
            draw_span.set("indices", fstats.indices - before[0])
            draw_span.set(
                "triangles_traversed", fstats.triangles_traversed - before[1]
            )
            draw_span.set(
                "fragments_rasterized",
                fstats.fragments_rasterized - before[2],
            )
            draw_span.set(
                "fragments_shaded", fstats.fragments_shaded - before[3]
            )
            draw_span.set(
                "fragments_blended", fstats.fragments_blended - before[4]
            )
            draw_span.set(
                "fragment_instructions",
                fstats.fragment_instructions - before[5],
            )
            draw_span.set(
                "bilinear_samples", fstats.bilinear_samples - before[6]
            )
            draw_span.set(
                "memory_bytes", int(self.memory.total_bytes - memory_before)
            )
            draw_span.__exit__(None, None, None)

    def _process_draw_impl(
        self, draw: Draw, fstats: FrameGpuStats, fragment_stages: bool
    ) -> None:
        state = self.machine.state
        mesh = self.meshes[draw.mesh]
        vp = self.programs.get(state.vertex_program or "")
        constants = self._gather_constants()
        with obs_spans.span("gpu.stage.vertex", "gpu"):
            vres = self.vertex_stage.process(
                mesh, draw, vp, constants, attributes=fragment_stages
            )

        fstats.indices += int(vres.indices.size)
        fstats.vertex_cache_references += vres.cache_references
        fstats.vertex_cache_hits += vres.cache_hits
        fstats.vertices_shaded += vres.vertices_shaded
        fstats.vertex_instructions += vres.instructions

        with obs_spans.span("gpu.stage.geometry", "gpu"):
            triangles = assemble_triangles(vres.remap, draw.primitive)
            ccr = clip_and_cull(
                vres.clip_positions,
                triangles,
                vres.uv,
                vres.color,
                self.config.width,
                self.config.height,
                cull=state.cull,
            )
        fstats.triangles_assembled += ccr.assembled
        fstats.triangles_clipped += ccr.clipped
        fstats.triangles_culled += ccr.culled
        fstats.triangles_traversed += ccr.traversed
        if not fragment_stages or ccr.triangles.count == 0:
            return

        fp = self.programs.get(state.fragment_program or "")
        if state.fragment_program and fp is None:
            raise KeyError(f"fragment program {state.fragment_program!r} unknown")
        early_z = fp is None or not fp.uses_kill
        for unit, name in state.textures:
            self.texture_unit.bind(unit, name)

        hz_on = (
            self.config.hierarchical_z
            and state.hierarchical_z
            and state.depth_test
            and state.depth_func in ("less", "lequal", "equal")
        )

        if self.config.vectorized:
            self._fragment_stages_stream(
                ccr.triangles, fp, state, fstats, early_z, hz_on
            )
        else:
            self._fragment_stages_classic(
                ccr.triangles, fp, state, fstats, early_z, hz_on
            )

    def _fragment_stages_classic(
        self, tris, fp, state, fstats: FrameGpuStats, early_z: bool, hz_on: bool
    ) -> None:
        """Per-triangle reference path (``GpuConfig(vectorized=False)``)."""
        pending: list[tuple[QuadBatch, np.ndarray]] = []
        # One span over the whole interleaved raster/HZ/Z loop — per-triangle
        # spans would dominate the work they measure.
        raster_span = obs_spans.span("gpu.stage.raster_z", "gpu")
        for t in range(tris.count):
            qb = rasterize_triangle(
                tris.xy[t],
                tris.z[t],
                tris.inv_w[t],
                tris.uv[t],
                tris.color[t],
                self.config.width,
                self.config.height,
                front=bool(tris.front[t]),
            )
            if qb is None:
                continue
            fstats.fragments_rasterized += qb.fragment_count
            fstats.quads_rasterized += qb.quad_count
            fstats.complete_quads_rasterized += qb.complete_quads

            alive = qb.cover
            if hz_on:
                culled = self.zstencil.hz_cull(
                    qb.qx, qb.qy, qb.z, alive, state
                )
                fstats.count_quad_fates(QuadFate.HZ, int(culled.sum()))
                if culled.all():
                    continue
                qb = qb.select(~culled)
                alive = qb.cover

            if early_z:
                fstats.fragments_zstencil += int(alive.sum())
                fstats.quads_zstencil += qb.quad_count
                fstats.complete_quads_zstencil += int(alive.all(axis=1).sum())
                zres = self.zstencil.process(qb, state, alive)
                if state.depth_write:
                    self.zstencil.update_hz_quads(qb.qx, qb.qy, zres.wrote)
                surviving = zres.pass_mask.any(axis=1)
                fstats.count_quad_fates(
                    QuadFate.ZSTENCIL, int((~surviving).sum())
                )
                if surviving.any():
                    pending.append((qb.select(surviving), zres.pass_mask[surviving]))
            else:
                pending.append((qb, alive))

        if raster_span:
            raster_span.__exit__(None, None, None)
        if not pending:
            return
        with obs_spans.span("gpu.stage.shade", "gpu"):
            self._shade_and_write(pending, fp, state, fstats, early_z)

    def _shade_and_write(
        self,
        pending: list[tuple[QuadBatch, np.ndarray]],
        fp: ShaderProgram | None,
        state,
        fstats: FrameGpuStats,
        early_z: bool,
    ) -> None:
        """Batched fragment shading, then (for late Z) tests, then color."""
        lanes_alive = [alive for _, alive in pending]
        all_alive = np.concatenate([a.reshape(-1) for a in lanes_alive])

        if fp is not None:
            uv = np.concatenate([qb.uv.reshape(-1, 2) for qb, _ in pending])
            colors_in = np.concatenate([qb.color.reshape(-1, 4) for qb, _ in pending])
            n = uv.shape[0]
            v1 = np.zeros((n, 4))
            v1[:, :2] = uv
            v1[:, 3] = 1.0
            self.texture_unit.set_coverage(all_alive)
            tex_before = self.texture_unit.stats.reset()
            del tex_before
            result = self.fragment_interp.run(
                fp, inputs={1: v1, 2: colors_in}, count=n, outputs=(0,)
            )
            self.texture_unit.set_coverage(None)
            tex_stats = self.texture_unit.stats.reset()
            shaded = int(all_alive.sum())
            fstats.fragments_shaded += shaded
            fstats.quads_shaded += sum(qb.quad_count for qb, _ in pending)
            fstats.fragment_instructions += fp.instruction_count * shaded
            fstats.fragment_alu_instructions += fp.alu_instruction_count * shaded
            fstats.texture_requests += tex_stats.requests
            fstats.bilinear_samples += tex_stats.bilinear_samples
            out_color = result.output(0)
            kill = result.kill_mask
        else:
            out_color = np.concatenate([qb.color.reshape(-1, 4) for qb, _ in pending])
            kill = np.zeros(all_alive.shape[0], dtype=bool)

        offset = 0
        for qb, alive in pending:
            count = qb.quad_count * 4
            q_color = out_color[offset : offset + count].reshape(-1, 4, 4)
            q_kill = kill[offset : offset + count].reshape(-1, 4)
            offset += count

            live = alive & ~q_kill
            if fp is not None and fp.uses_kill:
                dead = ~live.any(axis=1)
                fstats.count_quad_fates(QuadFate.ALPHA, int(dead.sum()))
                if dead.all():
                    continue
                keep = ~dead
                qb = qb.select(keep)
                live = live[keep]
                q_color = q_color[keep]

            if not early_z:
                fstats.fragments_zstencil += int(live.sum())
                fstats.quads_zstencil += qb.quad_count
                fstats.complete_quads_zstencil += int(live.all(axis=1).sum())
                zres = self.zstencil.process(qb, state, live)
                if state.depth_write:
                    self.zstencil.update_hz_quads(qb.qx, qb.qy, zres.wrote)
                surviving = zres.pass_mask.any(axis=1)
                fstats.count_quad_fates(QuadFate.ZSTENCIL, int((~surviving).sum()))
                if not surviving.any():
                    continue
                qb = qb.select(surviving)
                live = zres.pass_mask[surviving]
                q_color = q_color[surviving]

            if not state.color_mask:
                fstats.count_quad_fates(QuadFate.COLOR_MASK, qb.quad_count)
                continue
            xs, ys = qb.pixel_coords()
            self.color_stage.process(
                xs, ys, qb.qx, qb.qy, q_color, live, state.blend
            )
            fstats.fragments_blended += int(live.sum())
            fstats.quads_blended += qb.quad_count
            fstats.count_quad_fates(QuadFate.BLENDED, qb.quad_count)

    # -- QuadStream (draw-level vectorized) path -------------------------
    def _fragment_stages_stream(
        self, tris, fp, state, fstats: FrameGpuStats, early_z: bool, hz_on: bool
    ) -> None:
        """Draw-level vectorized fragment pipeline (``vectorized=True``).

        Rasterizes the whole draw into one :class:`QuadStream` and runs the
        downstream stages over the stream.  Statistics, quad fates, cache
        reference streams, and framebuffer contents are bit-identical to
        :meth:`_fragment_stages_classic` (see ``tests/test_quadstream.py``).
        """
        with obs_spans.span("gpu.stage.raster", "gpu"):
            stream = rasterize_draw(tris, self.config.width, self.config.height)
        if stream is None:
            return
        fstats.fragments_rasterized += stream.fragment_count
        fstats.quads_rasterized += stream.quad_count
        fstats.complete_quads_rasterized += stream.complete_quads

        if early_z:
            with obs_spans.span("gpu.stage.zstencil", "gpu"):
                surv, pass_mask = self._zstencil_stream(
                    stream, stream.cover, state, fstats, hz_on
                )
            if not surv.any():
                return
            stream = stream.select(surv)
            live = pass_mask[surv]
        else:
            # Late Z: HZ state cannot change before shading (updates happen
            # in the Z/stencil stage below), so one cull pass suffices.
            if hz_on:
                culled = self.zstencil.hz_cull(
                    stream.qx, stream.qy, stream.z, stream.cover, state
                )
                fstats.count_quad_fates(QuadFate.HZ, int(culled.sum()))
                if culled.all():
                    return
                if culled.any():
                    stream = stream.select(~culled)
            live = stream.cover
        with obs_spans.span("gpu.stage.shade", "gpu"):
            self._shade_and_write_stream(
                stream, live, fp, state, fstats, early_z
            )

    def _zstencil_stream(
        self,
        stream: QuadStream,
        alive: np.ndarray,
        state,
        fstats: FrameGpuStats,
        hz_on: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A draw's Z/stencil stage: quad fates and cache accounting.

        :meth:`ZStencilStage.test_write` runs the HZ cull, the tests and
        writes in the per-triangle order; this books its counts and fates
        and accounts the entered quads' cache traffic in one original-order
        pass.  Returns ``(survivors, pass_mask)`` over the input stream.
        """
        zres = self.zstencil.test_write(stream, alive, state, hz_on)
        entered = zres.entered
        fstats.count_quad_fates(QuadFate.HZ, zres.hz_culled)
        fstats.fragments_zstencil += zres.fragments
        fstats.quads_zstencil += zres.quads
        fstats.complete_quads_zstencil += zres.complete_quads
        self.zstencil.account_stream(
            stream.qx[entered], stream.qy[entered], zres.wrote[entered]
        )
        surv = zres.pass_mask.any(axis=1)
        fstats.count_quad_fates(QuadFate.ZSTENCIL, zres.quads - int(surv.sum()))
        return surv, zres.pass_mask

    def _shade_and_write_stream(
        self,
        stream: QuadStream,
        alive: np.ndarray,
        fp: ShaderProgram | None,
        state,
        fstats: FrameGpuStats,
        early_z: bool,
    ) -> None:
        """Stream analogue of :meth:`_shade_and_write`."""
        all_alive = alive.reshape(-1)

        if fp is not None:
            uv = stream.uv.reshape(-1, 2)
            colors_in = stream.color.reshape(-1, 4)
            n = uv.shape[0]
            v1 = np.zeros((n, 4))
            v1[:, :2] = uv
            v1[:, 3] = 1.0
            self.texture_unit.set_coverage(all_alive)
            tex_before = self.texture_unit.stats.reset()
            del tex_before
            result = self.fragment_interp.run(
                fp, inputs={1: v1, 2: colors_in}, count=n, outputs=(0,)
            )
            self.texture_unit.set_coverage(None)
            tex_stats = self.texture_unit.stats.reset()
            shaded = int(all_alive.sum())
            fstats.fragments_shaded += shaded
            fstats.quads_shaded += stream.quad_count
            fstats.fragment_instructions += fp.instruction_count * shaded
            fstats.fragment_alu_instructions += fp.alu_instruction_count * shaded
            fstats.texture_requests += tex_stats.requests
            fstats.bilinear_samples += tex_stats.bilinear_samples
            out_color = result.output(0)
            kill = result.kill_mask
        else:
            out_color = stream.color.reshape(-1, 4)
            kill = np.zeros(all_alive.shape[0], dtype=bool)

        q_color = out_color.reshape(-1, 4, 4)
        q_kill = kill.reshape(-1, 4)
        live = alive & ~q_kill

        if fp is not None and fp.uses_kill:
            dead = ~live.any(axis=1)
            fstats.count_quad_fates(QuadFate.ALPHA, int(dead.sum()))
            if dead.all():
                return
            if dead.any():
                keep = ~dead
                stream = stream.select(keep)
                live = live[keep]
                q_color = q_color[keep]

        if not early_z:
            surv, pass_mask = self._zstencil_stream(
                stream, live, state, fstats, hz_on=False
            )
            if not surv.any():
                return
            stream = stream.select(surv)
            live = pass_mask[surv]
            q_color = q_color[surv]

        if not state.color_mask:
            fstats.count_quad_fates(QuadFate.COLOR_MASK, stream.quad_count)
            return

        # Blend order within a draw matters (and the color cache's
        # eviction-time uniformity checks observe mid-draw framebuffer
        # state), so the color stage runs per traversal-order triangle
        # group — the exact call sequence of the per-triangle path.
        xs, ys = stream.pixel_coords()
        tri = stream.tri
        n = stream.quad_count
        starts = np.nonzero(np.r_[True, tri[1:] != tri[:-1]])[0]
        ends = np.r_[starts[1:], n]
        self.color_stage.process_groups(
            xs, ys, stream.qx, stream.qy, q_color, live, state.blend,
            starts, ends,
        )
        fstats.fragments_blended += int(live.sum())
        fstats.quads_blended += n
        fstats.count_quad_fates(QuadFate.BLENDED, n)
