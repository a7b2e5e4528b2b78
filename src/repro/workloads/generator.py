"""Workload facade: trace generation, API statistics, and simulation."""

from __future__ import annotations

from repro.api.tracer import ApiTracer
from repro.api.stats import WorkloadApiStats
from repro.api.trace import Trace
from repro.gpu.config import GpuConfig
from repro.gpu.pipeline import GpuSimulator, SimulationResult
from repro.workloads.engines import GameEngine
from repro.workloads.spec import WorkloadSpec


class GameWorkload:
    """One Table-I workload: engine + scene + traces, API- or sim-profile.

    ``sim=True`` builds the reduced-scale profile used for the
    microarchitectural experiments (see :class:`~repro.workloads.spec
    .SimProfile`); the default full-scale profile drives the API-level
    statistics.
    """

    def __init__(self, spec: WorkloadSpec, sim: bool = False):
        self.spec = spec.scaled_for_sim() if sim else spec
        self.is_sim_profile = sim
        self.engine = GameEngine(self.spec)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def meshes(self):
        return self.engine.scene.meshes

    @property
    def programs(self):
        return self.engine.programs

    @property
    def textures(self):
        return self.engine.textures

    def trace(self, frames: int | None = None, first: int = 0) -> Trace:
        if self.is_sim_profile:
            frames = frames if frames is not None else self.spec.sim.frames
            return self.engine.trace(
                frames=frames,
                width=self.spec.sim.width,
                height=self.spec.sim.height,
                first=first,
            )
        return self.engine.trace(frames=frames, first=first)

    def api_stats(self, frames: int | None = None) -> WorkloadApiStats:
        """GLInterceptor-style statistics over the (possibly truncated) trace."""
        frames = frames if frames is not None else self.spec.api_stat_frames
        tracer = ApiTracer(self.programs)
        return tracer.trace_stats(self.trace(frames=frames))

    def simulator(self, config: GpuConfig | None = None) -> GpuSimulator:
        """A fresh simulator loaded with this workload's resources."""
        if config is None:
            config = GpuConfig.r520(
                self.spec.sim.width, self.spec.sim.height
            ).with_scaled_caches(
                self.spec.sim.cache_scale,
                l1_factor=self.spec.sim.texture_l1_scale,
            )
        return GpuSimulator(
            config,
            meshes=self.meshes,
            programs=self.programs,
            textures=self.textures,
            texture_filter=self.spec.texture_filter,
            max_aniso=self.spec.aniso_level or 1,
        )

    def simulate(
        self,
        frames: int | None = None,
        config: GpuConfig | None = None,
        fragment_stages: bool = True,
        keep_images: int = 0,
    ) -> SimulationResult:
        """Run the workload's trace through the GPU simulator."""
        sim = self.simulator(config)
        return sim.run_trace(
            self.trace(frames=frames),
            fragment_stages=fragment_stages,
            keep_images=keep_images,
        )


def build_workload(name: str, sim: bool = False) -> GameWorkload:
    """Look a workload up in the registry and build it."""
    from repro.workloads.registry import workload

    return GameWorkload(workload(name), sim=sim)
