"""Frame-level checkpoint/resume and shared-trace resolution for jobs.

A simulation is a strict frame-by-frame recurrence *within* a frame, but
every generated frame opens with a full clear that resets the framebuffer
and drops all cross-frame cache contents, so frame ranges of one timedemo
are independent: the farm shards a run into contiguous slices (see
:meth:`repro.farm.job.JobSpec.shard`) and each worker fast-forwards the API
state machine over the frames before its slice, then simulates only its
own.  An interrupted slice resumes the same way.  Its checkpoint is the
:class:`~repro.gpu.pipeline.SimulationResult` of the frames it finished,
a few KB; the rest of the slice runs on a fresh simulator from the first
unfinished frame, and :func:`repro.farm.merge.merge_results` folds the
saved frames in front, bit-identically to an uninterrupted run (covered by
``tests/test_farm.py``).  No simulator is ever pickled.

Trace generation is the other shared cost: every shard of one simulation
replays the *same* call stream, so :func:`job_trace` resolves it through a
worker-local LRU and the store's sealed trace entries
(:meth:`repro.farm.store.ArtifactStore.load_trace`) instead of regenerating
it per job; ``sim`` and ``geometry`` jobs of one total length share one.
``api`` jobs read the full-scale profile, which nothing else replays, once
per frame: :func:`run_api_job` streams their slice, and only their slice,
from the generator into the tracer.

The job's :class:`~repro.workloads.generator.GameWorkload` is built once
per job: :func:`repro.farm.executor.run_job` builds it and hands it to
:func:`job_trace` (which needs it only to generate a missing trace) and to
:func:`run_api_job` / :func:`run_checkpointed`.  Each of the three builds
its own when a direct caller passes none.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.api.trace import Trace
from repro.api.tracer import ApiTracer
from repro.api.stats import WorkloadApiStats
from repro.farm import faults
from repro.farm.job import JobSpec
from repro.farm.merge import merge_results
from repro.farm.store import ArtifactStore
from repro.gpu.pipeline import SimulationResult
from repro.workloads.generator import GameWorkload


def build_job_workload(job: JobSpec) -> GameWorkload:
    """Construct the workload a job measures, honoring its seed override."""
    from repro.workloads.registry import workload as lookup

    spec = lookup(job.workload)
    if job.seed is not None:
        spec = dataclasses.replace(spec, seed=job.seed)
    return GameWorkload(spec, sim=job.sim_profile)


#: Worker-local cache of materialized simulation timedemos, keyed by
#: :meth:`JobSpec.trace_key`.  Lives for the life of the (warm, reused)
#: pool worker, so consecutive shards of one run pay for trace generation
#: or trace-file parsing once, not once per shard.
_TRACE_CACHE: "OrderedDict[str, Trace]" = OrderedDict()
_TRACE_CACHE_MAX = 4


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()


def job_trace(
    job: JobSpec,
    store: ArtifactStore | None = None,
    workload: GameWorkload | None = None,
) -> Trace:
    """The full-length timedemo a ``sim``/``geometry`` job's slice is cut from.

    Resolution order: worker-local LRU → the store's shared trace file →
    generate (and publish to the store for the other workers).  A store
    that cannot be written to (full disk, read-only volume) degrades to
    per-worker generation rather than failing the job.  ``workload`` is
    the job's built workload, used only to generate; without one a
    missing trace builds its own.
    """
    key = job.trace_key()
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        _TRACE_CACHE.move_to_end(key)
        return trace
    trace = store.load_trace(job) if store is not None else None
    if trace is None:
        if workload is None:
            workload = build_job_workload(job)
        trace = workload.trace(frames=job.total_frames)
        trace = trace.materialize()
        if store is not None:
            try:
                store.save_trace(job, trace)
            except OSError:
                pass
    _TRACE_CACHE[key] = trace
    while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)
    return trace


def run_api_job(
    job: JobSpec,
    trace: Trace | None = None,
    workload: GameWorkload | None = None,
) -> WorkloadApiStats:
    """Collect API statistics for ``job``'s frame slice of its timedemo.

    API frames are analyzed with a fresh state machine per frame (see
    :meth:`repro.api.tracer.ApiTracer.frame_stats`), so a slice needs no
    fast-forward.  Without ``trace`` the slice streams from the generator,
    which starts at the slice's first frame, and nothing is stored; a
    passed ``trace`` holds the whole demo, and its earlier frames are skipped.
    ``workload`` is the job's built workload; without one it is built here.
    """
    if workload is None:
        workload = build_job_workload(job)
    if trace is None:
        trace = workload.trace(frames=job.total_frames, first=job.frame_offset)
    frames = (f for f in trace.frames() if f.number >= job.frame_offset)
    tracer = ApiTracer(workload.programs)
    return tracer.trace_stats(Trace(trace.meta, frames), max_frames=job.frames)


def run_checkpointed(
    job: JobSpec,
    store: ArtifactStore | None,
    on_frame=None,
    trace: Trace | None = None,
    workload: GameWorkload | None = None,
) -> SimulationResult:
    """Execute a sim/geometry job, checkpointing after every finished frame.

    With a store, the result of the frames finished so far is saved after
    each frame but the last.  A run that finds a checkpoint for this job
    key simulates only the frames after it, as a frame shard does, and
    merges the two.  The checkpoint is deleted once the run completes (the
    artifact supersedes it).  ``on_frame(sim, n)`` is an extra per-frame
    hook the tests use to inject interrupts; ``n`` counts the job's
    finished frames, restored ones included.

    For a frame shard, the replay fast-forwards the API state machine over
    the frames before the slice (no simulation work) and then simulates
    ``job.frames`` frames of the shared timedemo.

    ``workload`` is the job's built workload; without one it is built here.
    """
    if workload is None:
        workload = build_job_workload(job)
    done = store.load_checkpoint(job) if store is not None else None
    restored = len(done.frame_stats) if done is not None else 0

    if restored >= job.frames:
        result = done
    else:
        if trace is None:
            trace = job_trace(job, store, workload)

        def so_far(sim) -> SimulationResult:
            part = sim.result()
            return part if done is None else merge_results([done, part])

        def hook(simulator, frames_done: int) -> None:
            frames_done += restored
            if store is not None and frames_done < job.frames:
                try:
                    store.save_checkpoint(job, so_far(simulator))
                except OSError:
                    pass  # full/read-only cache dir: run on without snapshots
            faults.on_frame(job.describe(), frames_done)
            if on_frame is not None:
                on_frame(simulator, frames_done)

        sim = workload.simulator(job.config)
        sim.run_trace(
            trace,
            max_frames=job.frames - restored,
            fragment_stages=job.fragment_stages,
            start_frame=job.frame_offset + restored,
            on_frame=hook,
        )
        result = so_far(sim)

    if store is not None:
        store.clear_checkpoint(job)
    return result
