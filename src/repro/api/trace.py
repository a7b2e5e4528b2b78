"""Trace container and JSONL serialization.

A trace is what GLInterceptor/PIX captured for the paper: per-frame API call
streams plus workload metadata.  Traces here can be materialized lists or
lazy generators (the synthetic timedemos are generated frame-by-frame).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.api.commands import (
    ApiCall,
    BindProgram,
    BindTexture,
    Clear,
    Draw,
    SetState,
    SetUniform,
    UploadResource,
)
from repro.api.commands import GraphicsApi
from repro.geometry.primitives import PrimitiveType


@dataclass
class Frame:
    """One frame's API call stream."""

    number: int
    calls: list[ApiCall] = field(default_factory=list)


@dataclass(frozen=True)
class TraceMeta:
    """Workload metadata, mirroring the paper's Table I columns."""

    name: str
    api: GraphicsApi
    frame_count: int
    width: int = 1024
    height: int = 768
    index_size_bytes: int = 2
    engine: str = ""
    aniso_level: int = 16
    uses_shaders: bool = True


class Trace:
    """A replayable API trace: metadata plus an iterable of frames."""

    def __init__(
        self,
        meta: TraceMeta,
        frames: Iterable[Frame] | Callable[[], Iterator[Frame]],
    ):
        self._meta = meta
        self._frames = frames

    @property
    def meta(self) -> TraceMeta:
        return self._meta

    def frames(self) -> Iterator[Frame]:
        """Iterate frames; safe to call repeatedly for callable sources."""
        if callable(self._frames):
            return self._frames()
        return iter(self._frames)

    def materialize(self) -> "Trace":
        """Return a trace with all frames held in memory."""
        return Trace(self._meta, list(self.frames()))


_CALL_NAMES = {
    Draw: "draw",
    SetState: "set_state",
    SetUniform: "set_uniform",
    BindProgram: "bind_program",
    BindTexture: "bind_texture",
    UploadResource: "upload",
    Clear: "clear",
}
_NAME_CALLS = {v: k for k, v in _CALL_NAMES.items()}


def _encode_call(call: ApiCall) -> dict:
    record: dict = {"t": _CALL_NAMES[type(call)]}
    if isinstance(call, Draw):
        record.update(
            mesh=call.mesh,
            prim=call.primitive.value,
            n=call.index_count,
            first=call.first_index,
        )
    elif isinstance(call, SetState):
        value = call.value
        if hasattr(value, "sfail"):  # StencilSide
            value = [value.sfail, value.zfail, value.zpass]
        record.update(name=call.name, value=value)
    elif isinstance(call, SetUniform):
        record.update(name=call.name, value=list(call.value))
    elif isinstance(call, BindProgram):
        record.update(stage=call.stage, program=call.program)
    elif isinstance(call, BindTexture):
        record.update(unit=call.unit, texture=call.texture)
    elif isinstance(call, UploadResource):
        record.update(resource=call.resource, kind=call.kind, size=call.byte_size)
    elif isinstance(call, Clear):
        record.update(
            color=call.color,
            depth=call.depth,
            stencil=call.stencil,
            cv=list(call.color_value),
            dv=call.depth_value,
            sv=call.stencil_value,
        )
    return record


def _decode_call(record: dict) -> ApiCall:
    kind = record["t"]
    if kind == "draw":
        return Draw(
            mesh=record["mesh"],
            primitive=PrimitiveType(record["prim"]),
            index_count=record["n"],
            first_index=record.get("first", 0),
        )
    if kind == "set_state":
        value = record["value"]
        if isinstance(value, list) and record["name"].startswith("stencil_"):
            value = tuple(value)
        return SetState(record["name"], value)
    if kind == "set_uniform":
        return SetUniform(record["name"], tuple(record["value"]))
    if kind == "bind_program":
        return BindProgram(record["stage"], record["program"])
    if kind == "bind_texture":
        return BindTexture(record["unit"], record["texture"])
    if kind == "upload":
        return UploadResource(record["resource"], record["kind"], record["size"])
    if kind == "clear":
        return Clear(
            color=record["color"],
            depth=record["depth"],
            stencil=record["stencil"],
            color_value=tuple(record["cv"]),
            depth_value=record["dv"],
            stencil_value=record["sv"],
        )
    raise ValueError(f"unknown call record {kind!r}")


def save_trace(trace: Trace, path) -> None:
    """Write a trace as JSONL: one meta line, then one line per frame."""
    with open(path, "w", encoding="utf-8") as fh:
        meta = trace.meta
        fh.write(
            json.dumps(
                {
                    "meta": {
                        "name": meta.name,
                        "api": meta.api.value,
                        "frame_count": meta.frame_count,
                        "width": meta.width,
                        "height": meta.height,
                        "index_size_bytes": meta.index_size_bytes,
                        "engine": meta.engine,
                        "aniso_level": meta.aniso_level,
                        "uses_shaders": meta.uses_shaders,
                    }
                }
            )
            + "\n"
        )
        for frame in trace.frames():
            fh.write(
                json.dumps(
                    {
                        "frame": frame.number,
                        "calls": [_encode_call(c) for c in frame.calls],
                    }
                )
                + "\n"
            )


def load_trace(path) -> Trace:
    """Load a trace written by :func:`save_trace` (fully materialized)."""
    frames: list[Frame] = []
    meta: TraceMeta | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "meta" in record:
                m = record["meta"]
                meta = TraceMeta(
                    name=m["name"],
                    api=GraphicsApi(m["api"]),
                    frame_count=m["frame_count"],
                    width=m["width"],
                    height=m["height"],
                    index_size_bytes=m["index_size_bytes"],
                    engine=m["engine"],
                    aniso_level=m["aniso_level"],
                    uses_shaders=m["uses_shaders"],
                )
            else:
                frames.append(
                    Frame(
                        number=record["frame"],
                        calls=[_decode_call(c) for c in record["calls"]],
                    )
                )
    if meta is None:
        raise ValueError(f"{path}: missing meta line")
    return Trace(meta, frames)
