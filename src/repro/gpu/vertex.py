"""Vertex front end: index fetch, post-transform cache, vertex shading.

The post-transform vertex cache is the paper's explanation (Section III.B,
Fig. 5) for why triangle lists dominate: with indexed geometry and a
cache-friendly face order, a list behaves like a strip.  The cache here is a
FIFO keyed by vertex index, the policy R520-era hardware used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.api.commands import Draw
from repro.geometry.mesh import Mesh
from repro.gpu.config import GpuConfig
from repro.gpu.memory import MemoryController
from repro.gpu.stats import MemClient
from repro.shader.interpreter import ShaderInterpreter
from repro.shader.program import ShaderProgram


@dataclass
class VertexStageResult:
    """Shaded vertex data for one draw, indexed by position in ``unique``."""

    indices: np.ndarray  # the draw's index stream
    unique: np.ndarray  # unique vertex ids, sorted
    remap: np.ndarray  # indices remapped into rows of the arrays below
    clip_positions: np.ndarray  # (U, 4)
    uv: np.ndarray | None  # (U, 2); None when only positions were shaded
    color: np.ndarray | None  # (U, 4); likewise
    cache_references: int = 0
    cache_hits: int = 0
    vertices_shaded: int = 0
    instructions: int = 0


class VertexStage:
    """Fetches indices/vertices from memory and shades missed vertices."""

    def __init__(self, config: GpuConfig, memory: MemoryController):
        self.config = config
        self.memory = memory
        self._interpreter = ShaderInterpreter()

    def process(
        self,
        mesh: Mesh,
        draw: Draw,
        program: ShaderProgram | None,
        constants: dict[int, tuple] | None,
        attributes: bool = True,
    ) -> VertexStageResult:
        """Fetch and shade one draw's vertices.

        ``attributes=False`` (geometry-only runs) shades the clip position
        ``o0`` alone from ``v0``; the result's ``uv`` and ``color`` are None.
        """
        if program is None:
            raise ValueError(
                "draw issued without a vertex program; the driver always "
                "synthesizes one (fixed-function translation)"
            )
        indices = mesh.indices[
            draw.first_index : draw.first_index + draw.index_count
        ]
        refs, hits, misses = self._simulate_cache(indices)

        # Index fetch + vertex attribute fetch for every cache miss.
        self.memory.read(MemClient.VERTEX, indices.size * mesh.index_size_bytes)
        gran = self.config.vertex_fetch_granularity
        fetch_bytes = -(-mesh.vertex_size_bytes // gran) * gran
        self.memory.read(MemClient.VERTEX, misses * fetch_bytes)

        unique, remap = np.unique(indices, return_inverse=True)
        positions = mesh.positions[unique]
        if attributes:
            uv = mesh.uvs[unique]
            colors = (
                mesh.colors[unique]
                if mesh.colors is not None
                else np.ones((unique.size, 4))
            )
            result = self._interpreter.run(
                program,
                inputs={
                    0: positions,
                    1: uv,
                    2: mesh.normals[unique],
                    3: colors,
                    4: np.zeros((unique.size, 3)),
                    5: uv,
                },
                constants=constants,
                outputs=(0, 1, 2),
            )
            out_uv = result.outputs.get(1)
            out_color = result.outputs.get(2)
            uv = out_uv[:, :2] if out_uv is not None else uv
            color = out_color if out_color is not None else colors
        else:
            result = self._interpreter.run(
                program, inputs={0: positions}, constants=constants, outputs=(0,)
            )
            uv = color = None
        return VertexStageResult(
            indices=indices,
            unique=unique,
            remap=remap,
            clip_positions=result.output(0),
            uv=uv,
            color=color,
            cache_references=refs,
            cache_hits=hits,
            vertices_shaded=misses,
            instructions=misses * program.instruction_count,
        )

    def _simulate_cache(self, indices: np.ndarray) -> tuple[int, int, int]:
        """FIFO post-transform cache; returns (references, hits, misses)."""
        size = self.config.vertex_cache_entries
        fifo: deque[int] = deque()
        members: set[int] = set()
        hits = 0
        for raw in indices.tolist():
            if raw in members:
                hits += 1
                continue
            fifo.append(raw)
            members.add(raw)
            if len(fifo) > size:
                members.discard(fifo.popleft())
        refs = int(indices.size)
        return refs, hits, refs - hits
