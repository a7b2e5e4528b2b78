"""Per-draw profiler: NVPerfHUD-style bottleneck inspection.

The paper's related work surveys per-draw profiling tools (NVPerfHUD,
NVPerfKit, ATI's PIX plugins).  This module provides the equivalent for the
simulator: one :class:`DrawRecord` row per draw call — triangles, fragments
per stage, shader instructions, texture probes, and the memory bytes the
draw moved — so the heaviest batches of a frame can be ranked and
attributed.  The rows come from the pipeline's ``gpu.draw`` spans
(:meth:`repro.gpu.pipeline.GpuSimulator._process_draw`), the one source of
per-draw records: :func:`profile_workload` traces a run locally, ``repro
observe --top-draws`` reads an exported timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observe import spans as obs_spans


@dataclass
class DrawRecord:
    """One draw call's costs."""

    frame: int
    index: int  # draw order within the frame
    mesh: str
    vertex_program: str | None
    fragment_program: str | None
    indices: int = 0
    triangles_traversed: int = 0
    fragments_rasterized: int = 0
    fragments_shaded: int = 0
    fragments_blended: int = 0
    fragment_instructions: int = 0
    bilinear_samples: int = 0
    memory_bytes: int = 0

    @property
    def pass_kind(self) -> str:
        """Heuristic pass classification for stencil-shadow engines."""
        if ".vol." in self.mesh:
            return "shadow volume"
        if self.fragment_program is None:
            return "depth prepass"
        return "shading"


@dataclass
class FrameProfile:
    """All draw records of one frame plus ranking helpers."""

    frame: int
    draws: list[DrawRecord] = field(default_factory=list)

    def heaviest(self, n: int = 10, by: str = "memory_bytes") -> list[DrawRecord]:
        return sorted(self.draws, key=lambda d: getattr(d, by), reverse=True)[:n]

    def totals(self, attribute: str) -> int:
        return sum(getattr(d, attribute) for d in self.draws)

    def by_pass_kind(self) -> dict[str, int]:
        """Memory bytes attributed to each pass kind."""
        out: dict[str, int] = {}
        for d in self.draws:
            out[d.pass_kind] = out.get(d.pass_kind, 0) + d.memory_bytes
        return out


def records_from_spans(span_docs) -> list[DrawRecord]:
    """Rebuild :class:`DrawRecord` rows from ``gpu.draw`` span documents.

    Each draw span carries the draw's cost deltas as attributes, so a
    traced run — live (:func:`profile_workload`) or exported (``repro
    observe --top-draws``) — yields the profile without a second
    instrumented pass.  ``index`` is the draw's order within its frame,
    recovered from span order.
    """
    records: list[DrawRecord] = []
    next_index: dict[int, int] = {}
    for doc in span_docs:
        if doc.get("name") != "gpu.draw":
            continue
        attrs = doc.get("attrs") or {}
        frame = int(attrs.get("frame", -1))
        index = next_index.get(frame, 0)
        next_index[frame] = index + 1
        records.append(
            DrawRecord(
                frame=frame,
                index=index,
                mesh=str(attrs.get("mesh", "")),
                vertex_program=attrs.get("vertex_program"),
                fragment_program=attrs.get("fragment_program"),
                indices=int(attrs.get("indices", 0)),
                triangles_traversed=int(attrs.get("triangles_traversed", 0)),
                fragments_rasterized=int(
                    attrs.get("fragments_rasterized", 0)
                ),
                fragments_shaded=int(attrs.get("fragments_shaded", 0)),
                fragments_blended=int(attrs.get("fragments_blended", 0)),
                fragment_instructions=int(
                    attrs.get("fragment_instructions", 0)
                ),
                bilinear_samples=int(attrs.get("bilinear_samples", 0)),
                memory_bytes=int(attrs.get("memory_bytes", 0)),
            )
        )
    return records


def records_from_timeline(tracks: list[dict]) -> list[DrawRecord]:
    """Draw records from a merged multi-track timeline, frame-ordered."""
    records = []
    for track in tracks:
        records.extend(records_from_spans(track.get("spans", ())))
    records.sort(key=lambda r: (r.frame, r.index))
    return records


def profile_workload(workload, frames: int = 1) -> list[FrameProfile]:
    """Simulate ``frames`` of a workload and group its draws per frame.

    The run is traced on a local tracer (``env=False``: no farm worker
    starts tracing) that is removed again before returning.
    """
    sim = workload.simulator()
    tracer = obs_spans.enable(track="profile", env=False)
    try:
        sim.run_trace(workload.trace(frames=frames))
    finally:
        obs_spans.disable()
    profiles: list[FrameProfile] = []
    for record in records_from_spans(s.as_dict() for s in tracer.spans):
        if not profiles or profiles[-1].frame != record.frame:
            profiles.append(FrameProfile(record.frame))
        profiles[-1].draws.append(record)
    return profiles
