"""QuadStream equivalence: the draw-level vectorized path and the optional
compiled kernels against the per-triangle pure-Python reference.

One fingerprint covers everything a simulation observably produces — the
fields the benchmark's result fingerprint covers: every frame's
``FrameGpuStats.as_dict()`` (quad fates included), each cache's
hit/miss/access triple, per-client memory read/write bytes, every frame's
image, and the final color/z/stencil planes.

* QuadStream vs per-triangle: equal on all of it except Z/stencil memory
  bytes — QuadStream probes z-block compressibility at draw end (see
  :meth:`repro.gpu.zstencil.ZStencilStage.account_stream`).  One strict
  ``xfail`` per engine asserts Z/stencil byte equality, so the known gap
  shows in every run and fails the day it is fixed.
* Native kernels vs ``REPRO_NO_NATIVE`` fallbacks: equal on everything,
  Z/stencil bytes included.
"""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

import repro
from repro.gpu import _native
from repro.gpu.clipper import ScreenTriangles
from repro.gpu.rasterizer import rasterize_draw
from repro.workloads import build_workload

# One workload per engine family (Table I), plus Quake4: the three
# simulated engines lead.
SIMULATED = ["UT2004/Primeval", "Doom3/trdemo2", "Quake4/demo4"]
ENGINES = SIMULATED + [
    "Riddick/MainFrame",        # Starbreeze
    "FEAR/built-in demo",       # Monolith
    "Half Life 2 LC/built-in",  # Valve Source
    "Oblivion/Anvil Castle",    # Gamebryo
]
FRAMES = 2


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _fingerprint(name: str, vectorized: bool) -> dict:
    workload = build_workload(name, sim=True)
    sim = workload.simulator()
    sim.config = dataclasses.replace(sim.config, vectorized=vectorized)
    result = sim.run_trace(
        workload.trace(frames=FRAMES), max_frames=FRAMES, keep_images=FRAMES
    )
    return {
        "frames": [fs.as_dict() for fs in result.frame_stats],
        "caches": {
            cname: (cache.hits, cache.misses, cache.accesses)
            for cname, cache in sorted(result.caches.items())
        },
        "memory": {
            client.name: (result.memory.reads[client],
                          result.memory.writes[client])
            for client in result.memory.reads
        },
        "images": [_sha(image) for image in result.images],
        "planes": _sha(sim.fb.color, sim.fb.z, sim.fb.stencil),
    }


@functools.lru_cache(maxsize=None)
def _run(name: str, vectorized: bool) -> dict:
    """One simulation per (engine, path), shared across the test cases."""
    return _fingerprint(name, vectorized)


def _without_zstencil_bytes(fingerprint: dict) -> dict:
    memory = dict(fingerprint["memory"])
    del memory["ZSTENCIL"]
    return {**fingerprint, "memory": memory}


@pytest.mark.parametrize("name", ENGINES)
def test_quadstream_matches_per_triangle(name):
    stream = _run(name, True)
    classic = _run(name, False)
    assert len(stream["images"]) == FRAMES
    assert _without_zstencil_bytes(stream) == _without_zstencil_bytes(classic)


@pytest.mark.xfail(
    strict=True,
    reason="QuadStream probes z-block compressibility at draw end "
    "(ZStencilStage.account_stream), which moves Z/stencil bytes",
)
@pytest.mark.parametrize("name", ENGINES)
def test_quadstream_zstencil_bytes_match_per_triangle(name):
    stream = _run(name, True)["memory"]["ZSTENCIL"]
    assert stream == _run(name, False)["memory"]["ZSTENCIL"]


def test_native_kernels_match_python(monkeypatch):
    """The compiled kernels are a pure accelerator: forcing the Python
    fallbacks must reproduce the identical QuadStream simulation, Z/stencil
    bytes included."""
    with_native = {name: _run(name, True) for name in SIMULATED}
    monkeypatch.setattr(_native, "available", lambda: False)
    for name in SIMULATED:
        assert _fingerprint(name, True) == with_native[name], name


def _random_triangles(count: int, seed: int = 7) -> ScreenTriangles:
    rng = np.random.default_rng(seed)
    return ScreenTriangles(
        xy=rng.uniform(-8.0, 72.0, size=(count, 3, 2)),
        z=rng.uniform(0.0, 1.0, size=(count, 3)),
        inv_w=rng.uniform(0.5, 2.0, size=(count, 3)),
        uv=rng.uniform(0.0, 8.0, size=(count, 3, 2)),
        color=rng.uniform(0.0, 1.0, size=(count, 3, 4)),
        front=rng.random(count) > 0.3,
        parent=np.arange(count),
    )


def test_rasterize_draw_chunking_invariant():
    """Chunking only bounds peak memory — a tiny chunk budget must emit the
    identical stream, quad for quad and bit for bit."""
    tris = _random_triangles(40)
    whole = rasterize_draw(tris, 64, 64)
    chunked = rasterize_draw(tris, 64, 64, chunk_quads=64)
    assert whole is not None and chunked is not None
    for field in ("qx", "qy", "cover", "z", "uv", "color", "tri", "front"):
        np.testing.assert_array_equal(
            getattr(whole, field), getattr(chunked, field)
        )


def test_facade_exports():
    for attr in (
        "simulate",
        "api_stats",
        "ExperimentConfig",
        "GpuConfig",
    ):
        assert attr in repro.__all__
        assert callable(getattr(repro, attr))


def test_runner_simulation_shim_removed():
    """The 1.x ``Runner.simulation`` deprecation shim is gone since 2.0;
    3.0 removed the fused path's two ``GpuConfig`` fields, 4.0 the
    ``characterize`` entry points and 5.0 ``TextureResource(name, mips)``."""
    from repro.experiments.runner import ExperimentConfig, Runner

    runner = Runner(ExperimentConfig(sim_frames=1))
    assert not hasattr(runner, "simulation")
    assert not hasattr(runner, "characterize")
    assert not hasattr(repro, "characterize")
    fields = {field.name for field in dataclasses.fields(repro.GpuConfig)}
    assert not fields & {"fused", "threads"}
    assert repro.__version__.split(".")[0] == "5"
