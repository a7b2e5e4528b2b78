"""API call model.

A frame is a sequence of these calls.  ``Draw`` is a "batch" in the paper's
terminology; everything else counts as a state call (the paper's Fig. 3
"average state calls between batches" metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

from repro.geometry.primitives import PrimitiveType


class GraphicsApi(Enum):
    OPENGL = "OpenGL"
    DIRECT3D = "Direct3D"


@dataclass(frozen=True)
class Draw:
    """An indexed draw call: one batch of one primitive type.

    ``mesh`` names a mesh in the workload's mesh library; ``index_count``
    indices starting at ``first_index`` of that mesh's index buffer are drawn.
    """

    mesh: str
    primitive: PrimitiveType
    index_count: int
    first_index: int = 0

    def __post_init__(self) -> None:
        if self.index_count <= 0:
            raise ValueError("index_count must be positive")
        if self.first_index < 0:
            raise ValueError("first_index must be non-negative")


@dataclass(frozen=True)
class SetState:
    """Fixed-function / pipeline state change (depth func, blend, masks…)."""

    name: str
    value: object


@dataclass(frozen=True)
class SetUniform:
    """Shader constant upload (e.g. the per-batch MVP matrix)."""

    name: str
    value: tuple

    @staticmethod
    def matrix(name: str, matrix: np.ndarray) -> "SetUniform":
        flat = np.asarray(matrix, dtype=np.float64).reshape(-1)
        return SetUniform(name, tuple(flat.tolist()))


@dataclass(frozen=True)
class BindProgram:
    """Bind (or unbind with ``None``) a vertex or fragment program."""

    stage: str  # "vertex" | "fragment"
    program: str | None

    def __post_init__(self) -> None:
        if self.stage not in ("vertex", "fragment"):
            raise ValueError("stage must be 'vertex' or 'fragment'")


@dataclass(frozen=True)
class BindTexture:
    """Bind texture ``texture`` to sampler ``unit`` (None unbinds)."""

    unit: int
    texture: str | None


@dataclass(frozen=True)
class UploadResource:
    """Geometry/texture upload from system memory to GPU memory.

    These dominate the first frames of every timedemo and the scene
    transitions (the spikes in the paper's Fig. 3); the byte count feeds the
    Command Processor traffic in Table XVI.
    """

    resource: str
    kind: str  # "vertex" | "index" | "texture"
    byte_size: int

    def __post_init__(self) -> None:
        if self.kind not in ("vertex", "index", "texture"):
            raise ValueError("kind must be vertex/index/texture")
        if self.byte_size < 0:
            raise ValueError("byte_size must be non-negative")


@dataclass(frozen=True)
class Clear:
    """Clear framebuffer planes at frame start (fast-cleared in the GPU)."""

    color: bool = True
    depth: bool = True
    stencil: bool = True
    color_value: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)
    depth_value: float = 1.0
    stencil_value: int = 0


ApiCall = Union[Draw, SetState, SetUniform, BindProgram, BindTexture, UploadResource, Clear]

#: Calls that count towards the paper's "state calls" metric (everything
#: that is not a draw).
STATE_CALL_TYPES = (SetState, SetUniform, BindProgram, BindTexture, UploadResource, Clear)


def is_state_call(call: ApiCall) -> bool:
    return isinstance(call, STATE_CALL_TYPES)
