"""Execution farm: parallel, cached, resumable, fault-tolerant measurement runs.

Every exhibit in the repository bottoms out in one of three measurement
kinds — API statistics, full-pipeline simulation, or geometry-only
simulation — over one of the twelve Table-I workloads.  The farm turns each
such run into a content-addressed :class:`~repro.farm.job.JobSpec`, executes
batches of jobs across worker processes (:class:`~repro.farm.executor.Farm`),
persists the results in an on-disk :class:`~repro.farm.store.ArtifactStore`
(``.repro-cache/`` by default, ``REPRO_CACHE_DIR`` override), and checkpoints
long simulations frame-by-frame so an interrupted run resumes where it
stopped instead of starting over.

A run larger than the batch is parallel-sharded in *frames*: contiguous
slices of one timedemo execute as independent jobs (every generated frame
opens with a full clear, making frame ranges independent) and are folded
back bit-identically by :mod:`repro.farm.merge`.  Workers are warm — one
process pool lives for the whole :class:`~repro.farm.executor.Farm` — and
the store is the cache only: workers persist artifacts there, but each
result and span buffer reaches the parent in the worker's
:class:`~repro.farm.executor.JobOutcome`.

The cache key covers everything that can change a result: workload spec,
seed, frame budget, GPU configuration, and a hash of the ``repro`` source
tree — so stale artifacts are impossible by construction and ``farm clear``
is an optimization, never a correctness requirement.  On top of the key,
every store entry is sealed with a SHA-256 checksum, and artifacts are
re-validated against the pipeline's conservation invariants
(:mod:`repro.farm.invariants`) on load; corrupt files are quarantined,
never reused.  The recovery machinery — crash/hang/exception retry with
deterministic backoff, checkpoint resume, graceful degradation via
``Farm(strict=False)`` and :class:`~repro.farm.executor.FailureReport` —
is itself exercised by the seeded fault-injection layer
(:mod:`repro.farm.faults`) and the ``repro chaos`` end-to-end suite
(:mod:`repro.farm.chaos`).
"""

from repro.farm.executor import (
    FailureReport,
    Farm,
    FarmError,
    JobFailure,
    run_job,
)
from repro.farm.faults import FaultPlan, FaultSpec, TransientFault
from repro.farm.invariants import validate_result
from repro.farm.job import JobSpec, api_job, geometry_job, sim_job
from repro.farm.merge import (
    MergeError,
    merge_api_stats,
    merge_results,
    merge_simulations,
)
from repro.farm.store import ArtifactStore, default_cache_dir
from repro.farm.telemetry import FailureRecord, FarmTelemetry, JobRecord
from repro.farm.version import code_version

__all__ = [
    "ArtifactStore",
    "FailureRecord",
    "FailureReport",
    "Farm",
    "FarmError",
    "FarmTelemetry",
    "FaultPlan",
    "FaultSpec",
    "JobFailure",
    "JobRecord",
    "JobSpec",
    "MergeError",
    "TransientFault",
    "api_job",
    "code_version",
    "default_cache_dir",
    "geometry_job",
    "merge_api_stats",
    "merge_results",
    "merge_simulations",
    "run_job",
    "sim_job",
    "validate_result",
]
