"""Per-job wall-time, cache, and failure-cause accounting for farm runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observe import metrics as obs_metrics
from repro.observe import spans as obs_spans

#: Registry namespace for phase wall-time counters (seconds).
PHASE_PREFIX = "farm.phase."


@dataclass
class JobRecord:
    """How one job was satisfied."""

    job: str  # JobSpec.describe()
    key: str
    source: str  # "cache" | "parallel" | "serial" | "fallback"
    wall_s: float
    attempts: int = 1
    causes: tuple[str, ...] = ()  # transient failures overcome on the way


@dataclass
class FailureRecord:
    """A job that failed permanently, with its chronological cause chain."""

    job: str
    key: str
    causes: tuple[str, ...] = ()


@dataclass
class FarmTelemetry:
    """Aggregated over one farm invocation (or one Runner lifetime)."""

    records: list[JobRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    #: ``{phase: seconds}``, in the order the phases first ran.
    phases: dict[str, float] = field(default_factory=dict, init=False)

    def add_phase(self, phase: str, seconds: float) -> None:
        """Accumulate seconds for an execution phase: ``spawn`` (pool
        creation), ``trace`` (the job's one workload build plus timedemo
        resolution: worker cache, trace store or generation), ``simulate``
        (pipeline work), ``harvest`` (validation), ``merge``
        (shard assembly)."""
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds
        # While tracing, mirror into the process-wide registry so span
        # exports and metric dumps carry the phase totals too.
        if obs_spans.enabled():
            obs_metrics.registry().counter(PHASE_PREFIX + phase).inc(seconds)

    def record(
        self,
        job,
        key: str,
        source: str,
        wall_s: float,
        attempts: int = 1,
        causes: tuple[str, ...] = (),
    ) -> None:
        self.records.append(JobRecord(job, key, source, wall_s, attempts, causes))

    def record_failure(
        self, job, key: str, causes: tuple[str, ...] = ()
    ) -> None:
        self.failures.append(FailureRecord(job, key, causes))

    # -- counters -------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "cache")

    @property
    def cache_misses(self) -> int:
        return len(self.records) - self.cache_hits

    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    @property
    def retries(self) -> int:
        return sum(r.attempts - 1 for r in self.records)

    @property
    def failed(self) -> int:
        return len(self.failures)

    # -- rendering ------------------------------------------------------
    def summary_line(self) -> str:
        line = (
            f"farm: {len(self.records)} jobs, {self.cache_hits} cache hits, "
            f"{self.cache_misses} executed, {self.retries} retries, "
            f"{self.total_wall_s:.1f}s job wall time"
        )
        if self.failures:
            line += f", {self.failed} FAILED"
        if self.phases:
            line += " [" + " ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in sorted(self.phases.items())
            ) + "]"
        return line
