"""GPUBench-style synthetic microbenchmarks for the simulator.

The paper's related work cites GPUBench [12]: "a set of small
special-designed tests, each one giving a different measurement like
fillrates, latencies or BWs".  This module builds the equivalent targeted
workloads for the simulated pipeline — each stresses exactly one stage and
reports that stage's event counts and the coarse cycle estimate — and is
used by the examples and the quality benchmarks to sanity-check that the
simulator's bottleneck behaviour responds to the Table II machine rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.util.mathutil as mu
from repro.api.commands import (
    BindProgram,
    BindTexture,
    Clear,
    Draw,
    GraphicsApi,
    SetState,
    SetUniform,
)
from repro.api.trace import Frame, Trace, TraceMeta
from repro.geometry.generators import grid_mesh
from repro.geometry.mesh import Mesh
from repro.gpu import perf
from repro.gpu.config import GpuConfig
from repro.gpu.pipeline import GpuSimulator
from repro.gpu.texture import TextureResource
from repro.shader import library


@dataclass(frozen=True)
class MicrobenchResult:
    """One microbenchmark's outcome."""

    name: str
    metric: str
    events: int
    cycles_per_frame: float
    bottleneck: str

    @property
    def events_per_cycle(self) -> float:
        return self.events / self.cycles_per_frame if self.cycles_per_frame else 0.0


def _fullscreen_quad(name: str = "fsq", depth: float = 0.0) -> Mesh:
    positions = np.array(
        [[-1, -1, depth], [1, -1, depth], [-1, 1, depth], [1, 1, depth]],
        dtype=float,
    )
    uvs = np.array([[0, 0], [8, 0], [0, 8], [8, 8]], dtype=float)
    return Mesh(name, positions, [0, 1, 2, 2, 1, 3], uvs=uvs)


def _noise_texture(name: str, size: int = 128) -> TextureResource:
    rng = np.random.default_rng(17)
    img = rng.random((size, size, 4)).astype(np.float32)
    img[..., 3] = 1.0
    return TextureResource.from_image(name, img)


def _ortho_mvp() -> np.ndarray:
    # The full-screen quad is already in NDC: push it slightly into the
    # frustum with a simple translation-style projection.
    m = np.eye(4)
    m[2, 2] = 0.5
    m[2, 3] = -0.5
    return m


def _run(
    config: GpuConfig,
    meshes: dict[str, Mesh],
    programs,
    textures,
    calls: list,
) -> tuple:
    sim = GpuSimulator(config, meshes, programs, textures)
    meta = TraceMeta(
        "microbench", GraphicsApi.OPENGL, 1, config.width, config.height
    )
    result = sim.run_trace(Trace(meta, [Frame(0, calls)]))
    estimate = perf.estimate(result.stats, result.memory, result.config)
    return result, estimate


def fill_rate(config: GpuConfig | None = None, layers: int = 8) -> MicrobenchResult:
    """Color fill rate: ``layers`` full-screen quads, trivial shading."""
    config = config or GpuConfig(width=256, height=192)
    mesh = _fullscreen_quad()
    vp = library.build_vertex_program("vp", 12, lit=False)
    fp = library.build_fragment_program("fp", 0, 3)
    calls: list = [
        Clear(),
        BindProgram("vertex", "vp"),
        BindProgram("fragment", "fp"),
        SetState("depth_test", False),
        SetUniform.matrix("mvp", _ortho_mvp()),
        SetUniform.matrix("model", np.eye(4)),
    ]
    calls.extend(
        Draw("fsq", mesh.primitive, mesh.index_count) for _ in range(layers)
    )
    result, estimate = _run(config, {"fsq": mesh}, {"vp": vp, "fp": fp}, [], calls)
    return MicrobenchResult(
        "fill_rate",
        "fragments blended",
        result.stats.fragments_blended,
        estimate.cycles_per_frame,
        estimate.bottleneck,
    )


def texture_rate(
    config: GpuConfig | None = None, layers: int = 4, textures: int = 4
) -> MicrobenchResult:
    """Texture sampling throughput: multitextured full-screen quads."""
    config = config or GpuConfig(width=256, height=192)
    mesh = _fullscreen_quad()
    vp = library.build_vertex_program("vp", 12, lit=False)
    fp = library.build_fragment_program("fp", textures, textures * 2 + 2)
    resources = [_noise_texture(f"noise{i}") for i in range(textures)]
    calls: list = [
        Clear(),
        BindProgram("vertex", "vp"),
        BindProgram("fragment", "fp"),
        SetState("depth_test", False),
        SetUniform.matrix("mvp", _ortho_mvp()),
        SetUniform.matrix("model", np.eye(4)),
    ]
    calls.extend(BindTexture(i, f"noise{i}") for i in range(textures))
    calls.extend(
        Draw("fsq", mesh.primitive, mesh.index_count) for _ in range(layers)
    )
    result, estimate = _run(
        config, {"fsq": mesh}, {"vp": vp, "fp": fp}, resources, calls
    )
    return MicrobenchResult(
        "texture_rate",
        "bilinear samples",
        result.stats.bilinear_samples,
        estimate.cycles_per_frame,
        estimate.bottleneck,
    )


def geometry_rate(
    config: GpuConfig | None = None, cells: int = 96
) -> MicrobenchResult:
    """Vertex/setup throughput: a dense grid of tiny triangles."""
    config = config or GpuConfig(width=256, height=192)
    mesh = grid_mesh("dense", cells, cells, 2.0, 2.0)
    vp = library.build_vertex_program("vp", 24)
    fp = library.build_fragment_program("fp", 0, 3)
    view = mu.perspective(60, config.width / config.height, 0.1, 50) @ mu.look_at(
        (0, 2.2, 2.2), (0, 0, 0)
    )
    calls = [
        Clear(),
        BindProgram("vertex", "vp"),
        BindProgram("fragment", "fp"),
        SetUniform.matrix("mvp", view),
        SetUniform.matrix("model", np.eye(4)),
        Draw("dense", mesh.primitive, mesh.index_count),
    ]
    result, estimate = _run(config, {"dense": mesh}, {"vp": vp, "fp": fp}, [], calls)
    return MicrobenchResult(
        "geometry_rate",
        "triangles assembled",
        result.stats.triangles_assembled,
        estimate.cycles_per_frame,
        estimate.bottleneck,
    )


def zstencil_rate(
    config: GpuConfig | None = None, layers: int = 10
) -> MicrobenchResult:
    """Z reject throughput: occluded full-screen layers behind a near quad."""
    config = config or GpuConfig(width=256, height=192)
    near = _fullscreen_quad("near", depth=-0.5)
    far = _fullscreen_quad("far", depth=0.5)
    vp = library.build_vertex_program("vp", 12, lit=False)
    fp = library.build_fragment_program("fp", 0, 3)
    calls: list = [
        Clear(),
        BindProgram("vertex", "vp"),
        BindProgram("fragment", "fp"),
        SetUniform.matrix("mvp", _ortho_mvp()),
        SetUniform.matrix("model", np.eye(4)),
        Draw("near", near.primitive, near.index_count),
    ]
    calls.extend(
        Draw("far", far.primitive, far.index_count) for _ in range(layers)
    )
    result, estimate = _run(
        config, {"near": near, "far": far}, {"vp": vp, "fp": fp}, [], calls
    )
    return MicrobenchResult(
        "zstencil_rate",
        "fragments z-tested",
        result.stats.fragments_zstencil,
        estimate.cycles_per_frame,
        estimate.bottleneck,
    )


ALL_MICROBENCHES = {
    "fill_rate": fill_rate,
    "texture_rate": texture_rate,
    "geometry_rate": geometry_rate,
    "zstencil_rate": zstencil_rate,
}


def run_all(config: GpuConfig | None = None) -> list[MicrobenchResult]:
    """Run the whole suite with a shared configuration."""
    return [func(config) for func in ALL_MICROBENCHES.values()]
