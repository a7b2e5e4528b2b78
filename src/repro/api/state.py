"""Render state machine.

Tracks the pipeline state that the GPU simulator snapshots at each draw:
programs, textures, depth/stencil/blend configuration, masks, culling, and
shader uniforms.  ``SetState`` names map 1:1 to :class:`RenderState` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

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

DEPTH_FUNCS = ("never", "less", "lequal", "equal", "always")
STENCIL_FUNCS = ("always", "equal", "notequal", "never")
STENCIL_OPS = ("keep", "zero", "replace", "incr_wrap", "decr_wrap")
BLEND_MODES = ("replace", "add", "alpha", "modulate")
CULL_MODES = ("none", "back", "front")


@dataclass(frozen=True)
class StencilSide:
    """Stencil operations for one face orientation (two-sided stencil)."""

    sfail: str = "keep"
    zfail: str = "keep"
    zpass: str = "keep"

    def __post_init__(self) -> None:
        for op in (self.sfail, self.zfail, self.zpass):
            if op not in STENCIL_OPS:
                raise ValueError(f"unknown stencil op {op!r}")


@dataclass(frozen=True)
class RenderState:
    """Complete pipeline state snapshot taken at draw time."""

    vertex_program: str | None = None
    fragment_program: str | None = None
    textures: tuple[tuple[int, str], ...] = ()
    depth_test: bool = True
    depth_func: str = "less"
    depth_write: bool = True
    stencil_test: bool = False
    stencil_func: str = "always"
    stencil_ref: int = 0
    stencil_front: StencilSide = field(default_factory=StencilSide)
    stencil_back: StencilSide = field(default_factory=StencilSide)
    stencil_write: bool = True
    blend: str = "replace"
    color_mask: bool = True
    cull: str = "back"
    hierarchical_z: bool = True

    def __post_init__(self) -> None:
        if self.depth_func not in DEPTH_FUNCS:
            raise ValueError(f"unknown depth func {self.depth_func!r}")
        if self.stencil_func not in STENCIL_FUNCS:
            raise ValueError(f"unknown stencil func {self.stencil_func!r}")
        if self.blend not in BLEND_MODES:
            raise ValueError(f"unknown blend mode {self.blend!r}")
        if self.cull not in CULL_MODES:
            raise ValueError(f"unknown cull mode {self.cull!r}")

    def texture(self, unit: int) -> str | None:
        for u, name in self.textures:
            if u == unit:
                return name
        return None


class StateMachine:
    """Applies API calls to a :class:`RenderState` and collects uniforms."""

    def __init__(self) -> None:
        self.state = RenderState()
        self.uniforms: dict[str, tuple] = {}
        self._textures: dict[int, str] = {}

    def apply(self, call: ApiCall) -> None:
        """Apply a non-draw call; draws do not change state."""
        if isinstance(call, SetUniform):  # first: most calls are uniforms
            self.uniforms[call.name] = call.value
        elif isinstance(call, (Draw, UploadResource, Clear)):
            pass  # resource/clear handling is the pipeline's job
        elif isinstance(call, BindProgram):
            key = f"{call.stage}_program"
            self.state = replace(self.state, **{key: call.program})
        elif isinstance(call, BindTexture):
            if call.texture is None:
                self._textures.pop(call.unit, None)
            else:
                self._textures[call.unit] = call.texture
            self.state = replace(
                self.state, textures=tuple(sorted(self._textures.items()))
            )
        elif isinstance(call, SetState):
            if not hasattr(self.state, call.name):
                raise ValueError(f"unknown render state {call.name!r}")
            value = call.value
            if call.name in ("stencil_front", "stencil_back") and isinstance(
                value, (tuple, list)
            ):
                value = StencilSide(*value)
            self.state = replace(self.state, **{call.name: value})
        else:
            raise TypeError(f"unknown call type {type(call).__name__}")

    def uniform_matrix(self, name: str) -> np.ndarray | None:
        value = self.uniforms.get(name)
        if value is None:
            return None
        return np.asarray(value, dtype=np.float64).reshape(4, 4)
