"""Shared, cached execution of the underlying measurement runs.

Many exhibits read the same three simulations and twelve API-statistics
passes.  The runner maps each read onto a content-addressed
:class:`~repro.farm.job.JobSpec` and hands it to the execution farm
(:mod:`repro.farm`), which satisfies it from the persistent artifact cache
when possible and otherwise executes it — in parallel across worker
processes when more than one job is outstanding and the farm is configured
with ``jobs > 1``.  Results are additionally memoized in-process so repeated
reads within one runner return the identical object.

Frame counts are configurable (environment variables ``REPRO_API_FRAMES``,
``REPRO_SIM_FRAMES``, ``REPRO_GEOM_FRAMES`` override the defaults) — more
frames tighten the statistics at proportional cost.  The frame budget is
part of every cache key (in-process and on-disk), so changing a budget can
never serve results computed under another one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.api.stats import WorkloadApiStats
from repro.farm import Farm, JobSpec
from repro.observe import spans as obs_spans
from repro.gpu.config import GpuConfig
from repro.gpu.pipeline import SimulationResult
from repro.workloads import build_workload
from repro.workloads.generator import GameWorkload


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


@dataclass(frozen=True)
class ExperimentConfig:
    """Frame budgets for the three kinds of measurement runs.

    Defaults read the environment at construction time so test/CI runs can
    shrink the budgets without touching code.
    """

    api_frames: int = field(
        default_factory=lambda: _env_int("REPRO_API_FRAMES", 160)
    )
    sim_frames: int = field(
        default_factory=lambda: _env_int("REPRO_SIM_FRAMES", 6)
    )
    geometry_frames: int = field(
        default_factory=lambda: _env_int("REPRO_GEOM_FRAMES", 120)
    )


class Runner:
    """Executes and caches API/simulation runs for the experiment functions.

    ``jobs``, ``use_cache`` and ``cache_dir`` configure the underlying farm
    (ignored when an explicit ``farm`` is passed): ``jobs=1`` keeps the
    classic serial in-process behaviour, larger values shard outstanding
    jobs across worker processes; ``use_cache=False`` disables the on-disk
    artifact store entirely.  ``strict=False`` makes batch prefetches return
    whatever completed instead of raising on a permanently failed job; the
    per-job cause chains land in :attr:`failure_report`.  ``shard_frames``
    is the farm's frame-sharding policy (``None`` automatic, ``0`` off,
    ``k`` fixed slice count — see :class:`~repro.farm.executor.Farm`): with
    ``jobs > 1`` even a single long simulation fans out across workers.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        farm: Farm | None = None,
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir: str | None = None,
        strict: bool = True,
        shard_frames: int | None = None,
    ):
        self.config = config or ExperimentConfig()
        if farm is None:
            from repro.farm import ArtifactStore

            farm = Farm(
                store=ArtifactStore(cache_dir),
                jobs=jobs,
                use_cache=use_cache,
                strict=strict,
                shard_frames=shard_frames,
            )
        self.farm = farm
        self._results: dict[JobSpec, Any] = {}
        self._workloads: dict[tuple[str, bool], GameWorkload] = {}

    @property
    def telemetry(self):
        return self.farm.telemetry

    @property
    def failure_report(self):
        """The farm's :class:`~repro.farm.executor.FailureReport` (last run)."""
        return self.farm.last_report

    # -- job plumbing ----------------------------------------------------
    def _frames(self, kind: str) -> int:
        return {
            "api": self.config.api_frames,
            "sim": self.config.sim_frames,
            "geometry": self.config.geometry_frames,
        }[kind]

    def _job(self, kind: str, name: str) -> JobSpec:
        return JobSpec(kind, name, self._frames(kind))

    def _get(self, job: JobSpec) -> Any:
        if job not in self._results:
            with obs_spans.span("runner.job", "runner") as s:
                if s:
                    s.set("job", job.describe())
                self._results[job] = self.farm.run_one(job)
        return self._results[job]

    # -- public API ------------------------------------------------------
    def workload(self, name: str, sim: bool = False) -> GameWorkload:
        key = (name, sim)
        if key not in self._workloads:
            self._workloads[key] = build_workload(name, sim=sim)
        return self._workloads[key]

    def api(self, name: str) -> WorkloadApiStats:
        """Full-profile API statistics (Tables III-V, XII; Figs. 1-3, 8)."""
        return self._get(self._job("api", name))

    def sim(self, name: str) -> SimulationResult:
        """Full-pipeline simulation on the reduced profile (Tables VIII-XVII)."""
        return self._get(self._job("sim", name))

    def geometry(self, name: str) -> SimulationResult:
        """Geometry-only simulation over more frames (Table VII, Figs. 5-6)."""
        return self._get(self._job("geometry", name))

    def simulate(
        self,
        workload: str | GameWorkload,
        config: GpuConfig | None = None,
        frames: int | None = None,
    ) -> SimulationResult:
        """Full-pipeline simulation with optional config/frame overrides.

        ``workload`` is a registry name (``"Doom3/trdemo2"``) or a built
        :class:`GameWorkload`.  Overrides land in the farm's cache key, so a
        non-default run can never be served a default run's artifact.
        """
        name = workload if isinstance(workload, str) else workload.name
        job = JobSpec(
            "sim",
            name,
            frames if frames is not None else self.config.sim_frames,
            config=config,
        )
        return self._get(job)

    def api_stats(
        self, workload: str | GameWorkload, frames: int | None = None
    ) -> WorkloadApiStats:
        """API statistics with an optional frame override (see :meth:`api`)."""
        name = workload if isinstance(workload, str) else workload.name
        job = JobSpec(
            "api",
            name,
            frames if frames is not None else self.config.api_frames,
        )
        return self._get(job)

    def prefetch(
        self,
        api_names: list[str] | None = None,
        sim_names: list[str] | None = None,
        geometry_names: list[str] | None = None,
    ) -> None:
        """Execute every measurement the exhibits will read, as one batch.

        This is the parallel entry point: all outstanding jobs go to the
        farm together, which shards them across workers.  ``None`` for a
        list means its default coverage — API statistics for all twelve
        workloads, simulation and geometry runs for the three OpenGL games;
        pass an empty list to skip a kind entirely.
        """
        from repro.experiments import paper
        from repro.workloads import all_workloads

        if api_names is None:
            api_names = [spec.name for spec in all_workloads()]
        if sim_names is None:
            sim_names = list(paper.SIMULATED)
        if geometry_names is None:
            geometry_names = list(paper.SIMULATED)
        jobs = [self._job("api", name) for name in api_names]
        jobs += [self._job("sim", name) for name in sim_names]
        jobs += [self._job("geometry", name) for name in geometry_names]
        missing = [job for job in jobs if job not in self._results]
        if missing:
            with obs_spans.span("runner.prefetch", "runner") as s:
                if s:
                    s.set("jobs", len(missing))
                self._results.update(self.farm.run(missing))

    def clear(self) -> None:
        """Drop the in-process memo (the on-disk artifact store persists)."""
        self._results.clear()
        self._workloads.clear()


_DEFAULT: Runner | None = None


def default_runner() -> Runner:
    """Process-wide shared runner (what the benchmarks use).

    Rebuilt whenever the environment-derived frame budgets change, so a
    long-lived process never serves results computed under stale budgets.
    Parallelism defaults to the machine width (``REPRO_FARM_JOBS``
    overrides).
    """
    global _DEFAULT
    config = ExperimentConfig()
    if _DEFAULT is None or _DEFAULT.config != config:
        jobs = _env_int("REPRO_FARM_JOBS", 0) or (os.cpu_count() or 1)
        _DEFAULT = Runner(config, jobs=jobs)
    return _DEFAULT


def simulate(
    workload: str | GameWorkload,
    config: GpuConfig | None = None,
    frames: int | None = None,
) -> SimulationResult:
    """Simulate a workload through the farm — the stable public entry point.

    ::

        import repro
        result = repro.simulate("Doom3/trdemo2", frames=6)
        print(result.stats.quad_fate_percent)

    Routes through the shared :func:`default_runner`, so results are cached
    (in-process and in the on-disk artifact store) and parallel-safe; pass a
    :class:`~repro.gpu.config.GpuConfig` to override the machine model.
    """
    return default_runner().simulate(workload, config=config, frames=frames)


def api_stats(
    workload: str | GameWorkload, frames: int | None = None
) -> WorkloadApiStats:
    """API-level statistics for a workload, through the farm.

    ::

        import repro
        stats = repro.api_stats("UT2004/Primeval", frames=60)
    """
    return default_runner().api_stats(workload, frames=frames)
