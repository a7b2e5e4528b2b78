"""GLInterceptor-style API statistics collector.

Consumes a :class:`~repro.api.trace.Trace` and produces the paper's API-level
statistics.  Needs the workload's shader program registry to resolve program
names into instruction counts (Tables IV and XII).
"""

from __future__ import annotations

import itertools

from repro.api.commands import Draw, UploadResource
from repro.api.state import StateMachine
from repro.api.stats import FrameApiStats, WorkloadApiStats
from repro.api.trace import Frame, Trace
from repro.geometry.primitives import primitive_count
from repro.shader.program import ShaderProgram


class ApiTracer:
    """Streams over trace frames and accumulates API statistics."""

    def __init__(self, programs: dict[str, ShaderProgram] | None = None):
        self._programs = programs or {}

    def trace_stats(self, trace: Trace, max_frames: int | None = None) -> WorkloadApiStats:
        """Collect statistics for a whole trace (optionally truncated); a
        lazy trace generates no frame past ``max_frames``."""
        stats = WorkloadApiStats(
            name=trace.meta.name,
            index_size_bytes=trace.meta.index_size_bytes,
        )
        for frame in itertools.islice(trace.frames(), max_frames):
            stats.add(self.frame_stats(frame, trace.meta.index_size_bytes))
        return stats

    def frame_stats(self, frame: Frame, index_size_bytes: int) -> FrameApiStats:
        """Collect statistics for one frame's call stream."""
        machine = StateMachine()
        out = FrameApiStats(frame=frame.number)
        for call in frame.calls:
            if isinstance(call, Draw):
                self._record_draw(out, call, machine, index_size_bytes)
            else:
                out.state_calls += 1
                if isinstance(call, UploadResource):
                    out.upload_bytes += call.byte_size
                machine.apply(call)
        return out

    def _record_draw(
        self,
        out: FrameApiStats,
        call: Draw,
        machine: StateMachine,
        index_size_bytes: int,
    ) -> None:
        out.batches += 1
        out.indices += call.index_count
        out.index_bytes += call.index_count * index_size_bytes
        prims = primitive_count(call.index_count, call.primitive)
        out.primitives[call.primitive] = out.primitives.get(call.primitive, 0) + prims

        state = machine.state
        vp = self._programs.get(state.vertex_program or "")
        if vp is not None:
            out.vertex_instr_weighted += call.index_count * vp.instruction_count
            out.vertex_weight += call.index_count
        fp = self._programs.get(state.fragment_program or "")
        if fp is not None:
            out.fragment_batches += 1
            out.fragment_instr_weighted += fp.instruction_count
            out.fragment_tex_weighted += fp.texture_instruction_count
