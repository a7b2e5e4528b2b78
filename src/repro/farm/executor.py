"""Job scheduler: shard measurement runs across worker processes.

Execution policy, in order:

1. **Cache probe** — jobs whose artifact is already on disk (and passes the
   checksum + invariant gauntlet, see :mod:`repro.farm.store`) are satisfied
   without running anything.
2. **Unit plan** — every batch runs as a list of execution units
   (:meth:`Farm._plan_units`): whole jobs, or contiguous frame slices
   (:meth:`~repro.farm.job.JobSpec.shard`).  An under-subscribed batch
   (fewer pending jobs than workers) is sliced, so even ``run_one`` of a
   single long timedemo uses every worker; ``shard_frames=k`` pins the
   slicing, and a pinned plan is the same at every ``--jobs`` width.
   Shard results are recombined by :mod:`repro.farm.merge` bit-identically
   to a serial run — the per-frame full clear makes frame ranges
   independent (see :mod:`repro.farm.checkpoint`), and
   ``tests/test_merge.py`` checks the equality on every engine.
3. **Warm parallel execution** — execution units run on a persistent
   ``ProcessPoolExecutor`` (``--jobs N``, default ``os.cpu_count()``; the
   effective worker and shard width is capped at ``os.cpu_count()``, so a
   small box never runs slower in parallel than serial) that lives for the
   whole :class:`Farm`, spanning retry rounds *and* consecutive
   :meth:`Farm.run` calls; it is torn down only when broken by a worker
   death / kill (or by :meth:`Farm.close`).  Workers precompile the native
   kernels at init and keep generated simulation traces in an in-process
   LRU, so only the first job in a worker pays those costs.
4. **Result envelope** — a unit's products leave its worker in one
   :class:`JobOutcome`: the result, worker-side phase timings and the
   unit's span buffer.  The store is only the cache; the parent validates
   each unit once at harvest and folds its spans into its own timeline.
5. **Crash/hang/exception recovery** — a worker crash breaks the pool, so
   the round's unfinished units are requeued and the pool is rebuilt; a
   round that outlives its deadline (``timeout`` seconds per unit, scaled
   by the number of queue waves so a unit waiting behind slow siblings is
   never killed spuriously) has its workers killed and its unfinished
   units requeued; exceptions *raised* by a unit are requeued the same way
   (they may be transient).  Only units that actually *started* (their
   worker touched a start beacon) are charged an attempt — a unit still
   queued when a sibling broke the pool is requeued for free, so narrow
   pools never starve queued jobs of real tries.  Requeue rounds are
   separated by exponential backoff with deterministic jitter.  After
   ``retries`` failed attempts a unit falls back to serial in-parent
   execution.
6. **In-process execution** — with ``jobs=1`` or a one-unit plan the
   plan's units run in the parent, as they do when the pool cannot be
   created at all (restricted environments).  Either way they are
   assembled exactly like pooled units.
7. **Failure accounting** — a job that still fails after the serial
   fallback is *permanently failed*: its full cause chain (including its
   shards') is recorded in telemetry and a :class:`FailureReport`.  With
   ``strict=True`` (the default) the batch raises :class:`FarmError` after
   every job has been given its chance; with ``strict=False`` the
   completed results are returned and the report is left on
   :attr:`Farm.last_report`.

Workers persist their artifact before returning, so a completed unit's
work survives even if the parent dies while collecting results.  Fresh and
cached results alike are checked against the pipeline conservation
invariants (:mod:`repro.farm.invariants`) before they are handed out, and
merged jobs are validated again as a whole.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import observe
from repro.farm import faults
from repro.farm.checkpoint import (
    build_job_workload,
    job_trace,
    run_api_job,
    run_checkpointed,
)
from repro.farm.invariants import validate_result
from repro.farm.job import JobSpec
from repro.farm.locks import backoff_delay
from repro.farm.merge import MergeError, merge_results
from repro.farm.store import ArtifactStore
from repro.farm.telemetry import FarmTelemetry


class FarmError(RuntimeError):
    """One or more jobs failed permanently (retries and fallback exhausted).

    Carries the :class:`FailureReport` with every failed job's cause chain.
    """

    def __init__(self, message: str, report: "FailureReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class JobFailure:
    """One permanently failed job and everything that went wrong with it."""

    job: JobSpec
    causes: tuple[str, ...]

    def describe(self) -> str:
        chain = " ; then ".join(self.causes) if self.causes else "unknown cause"
        return f"{self.job.describe()}: {chain}"


@dataclass
class FailureReport:
    """Outcome summary of one :meth:`Farm.run` batch."""

    failures: list[JobFailure] = field(default_factory=list)
    completed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_jobs(self) -> list[JobSpec]:
        return [failure.job for failure in self.failures]

    def summary(self) -> str:
        if self.ok:
            return f"all {self.completed} job(s) completed"
        lines = [
            f"{len(self.failures)} job(s) failed permanently, "
            f"{self.completed} completed:"
        ]
        lines += [f"  {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)


@dataclass
class JobOutcome:
    """Worker return envelope: the result plus execution telemetry.

    The envelope is the only way a unit's products leave its worker.
    ``phases`` carries worker-side timing (``trace``, ``simulate``) for the
    farm's phase breakdown; ``spans`` is the unit's span-buffer payload
    (:meth:`repro.observe.UnitScope.finish`) when it ran on a fresh tracer,
    for the parent to absorb (:func:`repro.observe.absorb`).
    """

    result: Any
    wall_s: float
    from_cache: bool = False
    phases: dict[str, float] = field(default_factory=dict)
    spans: dict | None = None


def run_job(job: JobSpec, cache_dir: str | None = None) -> JobOutcome:
    """Compute one job end-to-end (the worker-process entry point).

    Probes the cache first so retried or restarted workers never redo
    finished work, and persists the artifact before returning so the result
    survives a parent crash.  A fresh job builds its workload once and
    passes it to the run; a ``sim`` or ``geometry`` job's timedemo is
    resolved through the shared trace store / worker-local cache
    (:func:`repro.farm.checkpoint.job_trace`), once per demo, not once per
    shard, while an ``api`` job streams its frames.  A fresh outcome carries
    the unit's span buffer when the unit traced on its own tracer.
    Fault-injection hooks fire here so the chaos suite can kill, hang, or
    trip the worker at a controlled point.
    """
    faults.reset_native_if_planned()
    faults.on_job_start(job.describe())
    # Per-unit tracing scope: in a pool worker this installs a fresh tracer
    # (buffer contents depend only on this unit's work, never on which
    # worker ran it); in the parent it is just a span on the live tracer.
    scope = observe.UnitScope(job.describe())
    if scope.fresh:
        observe.metrics.reset()
    store = ArtifactStore(cache_dir) if cache_dir is not None else None
    try:
        if store is not None:
            cached = store.load(job)
            if cached is not None:
                return JobOutcome(cached, 0.0, from_cache=True)
        phases: dict[str, float] = {}
        start = time.perf_counter()
        workload = build_job_workload(job)
        trace = None if job.kind == "api" else job_trace(job, store, workload)
        phases["trace"] = time.perf_counter() - start
        mark = time.perf_counter()
        if job.kind == "api":
            result = run_api_job(job, workload=workload)
        else:
            result = run_checkpointed(job, store, trace=trace, workload=workload)
        phases["simulate"] = time.perf_counter() - mark
        wall_s = time.perf_counter() - start
        if store is not None:
            try:
                store.save(job, result, wall_s=wall_s)
            except OSError:
                pass  # full or read-only cache: the computation still succeeded
    finally:
        payload = scope.finish(
            metrics=observe.registry().snapshot() if scope.fresh else None
        )
    return JobOutcome(result, wall_s, phases=phases, spans=payload)


def _pool_entry(
    worker: Callable,
    job: JobSpec,
    cache_dir: str | None,
    started_beacon: str | None = None,
):
    """Pool-side wrapper: touch the start beacon, then run the worker.

    The worker's return value crosses the process boundary whole: for the
    standard worker, the :class:`JobOutcome` envelope with its result and
    span buffer (the artifact was already saved to the store).

    The *started_beacon* file is touched before the worker runs: if this
    unit later comes back :class:`BrokenProcessPool`, the parent uses the
    beacon to tell the crash victim (it ran — charge a retry attempt) from
    units that were still queued behind it (collateral — requeue free).
    """
    if started_beacon is not None:
        try:
            open(started_beacon, "w").close()
        except OSError:
            pass  # parent falls back to charging the attempt
    return worker(job, cache_dir)


def _worker_init() -> None:
    """Warm-pool worker initializer: pay one-time costs before any job.

    Re-arms fault injection for this process, then probes (and if needed
    compiles) the native kernels so the first job scheduled on this worker
    doesn't serialize behind a compiler run.
    """
    faults.reset_native_if_planned()
    try:
        from repro.gpu import _native

        _native.available()
    except Exception:
        pass  # the pure-Python pipeline works without the accelerator


#: Requeue rounds wait ``BACKOFF_BASE * 2**(round - 1)`` seconds, jittered
#: and capped at ``BACKOFF_MAX`` (see :func:`repro.farm.locks.backoff_delay`).
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0


class Farm:
    """Runs batches of :class:`JobSpec` through cache, pool, and fallback."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        jobs: int | None = None,
        use_cache: bool = True,
        retries: int = 2,
        timeout: float | None = None,
        strict: bool = True,
        shard_frames: int | None = None,
    ):
        self.store = store if store is not None else ArtifactStore()
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        #: Worker/shard width actually used: ``--jobs`` capped by the
        #: machine's core count.  On a 1-core box, ``--jobs 4`` used to
        #: *lose* to serial (4 processes competing for 1 core, plus 4-way
        #: shard merges) — capped, the pool runs one worker and shards are
        #: never planned wider than the hardware.
        self.width = max(1, min(self.jobs, os.cpu_count() or 1))
        self.use_cache = use_cache
        self.retries = max(1, int(retries))
        self.timeout = timeout
        self.telemetry = FarmTelemetry()
        self.strict = strict
        #: ``None`` = shard automatically when the batch under-subscribes
        #: the pool; ``0`` = never shard; ``k`` = split every shardable job
        #: into (up to) ``k`` frame slices.
        self.shard_frames = shard_frames
        self.last_report = FailureReport()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None
        self._beacon_dir: str | None = None

    @property
    def cache_dir(self) -> str | None:
        """Store root handed to workers; ``None`` disables caching."""
        return str(self.store.root) if self.use_cache else None

    # -- warm pool lifecycle --------------------------------------------
    def _ensure_pool(self, units: int) -> ProcessPoolExecutor | None:
        """The persistent worker pool, created lazily on first need.

        The pool spans retry rounds and :meth:`run` calls — spawn and
        native-kernel warmup are paid once per :class:`Farm`, not once per
        round.  Creation happens *after* any fault plan is installed in
        the parent environment (pools are lazy), so forked workers inherit
        it.  Returns ``None`` where multiprocessing is unavailable.
        """
        if self._pool is not None:
            return self._pool
        start = time.perf_counter()
        try:
            from repro.gpu import _native

            _native.available()  # compile once here; forked workers inherit
        except Exception:
            pass
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.width, max(1, units)),
                initializer=_worker_init,
            )
        except (OSError, ValueError):  # no multiprocessing available
            return None
        self._pool = pool
        self._pool_finalizer = weakref.finalize(
            self, pool.shutdown, wait=False, cancel_futures=True
        )
        self.telemetry.add_phase("spawn", time.perf_counter() - start)
        return pool

    def _discard_pool(self) -> None:
        """Tear the pool down (broken worker, kill, or explicit close)."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Release the warm pool; the farm remains usable (it re-warms)."""
        self._discard_pool()

    def __enter__(self) -> "Farm":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- shard planning --------------------------------------------------
    def _plan_units(
        self, pending: list[JobSpec], worker: Callable
    ) -> dict[JobSpec, tuple[JobSpec, ...]]:
        """Map each pending job to the execution units that will run it.

        Sharding applies only to the standard worker (custom workers have
        their own contracts).  Automatic policy: split when the batch has
        fewer jobs than the pool has workers — the classic long-timedemo /
        few-workloads shape where whole-job parallelism leaves workers
        idle.  A saturated batch is left unsharded: slicing it would only
        add merge work.
        """
        if worker is not run_job or self.shard_frames == 0:
            return {job: (job,) for job in pending}
        if self.shard_frames:
            # An explicit pin wins over the width cap: exports pinned for
            # determinism must plan identically on any host.
            pieces = self.shard_frames
        elif self.width > 1 and len(pending) < self.width:
            pieces = math.ceil(self.width / len(pending))
        else:
            pieces = 1
        return {job: job.shard(pieces) for job in pending}

    # -- public API -----------------------------------------------------
    def run_one(self, job: JobSpec, worker: Callable = run_job) -> Any:
        results = self.run([job], worker=worker)
        if job not in results:  # only reachable with strict=False
            raise FarmError(self.last_report.summary(), self.last_report)
        return results[job]

    def run(
        self, jobs: list[JobSpec], worker: Callable = run_job
    ) -> dict[JobSpec, Any]:
        """Execute ``jobs`` (deduplicated) and return ``{job: result}``.

        With ``strict=True`` a permanent job failure raises
        :class:`FarmError` — after every other job has run to completion,
        so one bad job never discards its siblings' work.  With
        ``strict=False`` the completed subset is returned and the
        :class:`FailureReport` is available on :attr:`last_report`.
        """
        report = FailureReport()
        self.last_report = report
        causes: dict[JobSpec, list[str]] = {}
        results: dict[JobSpec, Any] = {}
        pending: list[JobSpec] = []
        run_span = observe.span("farm.run", "farm")
        if run_span:
            run_span.set("jobs", len(jobs))
        try:
            with observe.span("farm.probe", "farm") as probe_span:
                for job in jobs:
                    if job in results or job in pending:
                        continue
                    if self.use_cache:
                        start = time.perf_counter()
                        cached = self.store.load(job)
                        if cached is not None:
                            results[job] = cached
                            self.telemetry.record(
                                job.describe(),
                                job.key(),
                                "cache",
                                time.perf_counter() - start,
                            )
                            continue
                    pending.append(job)
                if probe_span:
                    probe_span.set("hits", len(results))
                    probe_span.set("misses", len(pending))

            if pending:
                plan = self._plan_units(pending, worker)
                units = [unit for job in pending for unit in plan[job]]
                unit_results: dict[JobSpec, Any] = {}
                if self.jobs <= 1 or len(units) == 1:
                    self._run_serial(
                        units, worker, unit_results, "serial", causes
                    )
                else:
                    self._run_units(units, worker, unit_results, causes)
                self._assemble(
                    pending, plan, unit_results, results, causes, report
                )
        finally:
            if run_span:
                run_span.__exit__(None, None, None)

        report.completed = len(results)
        if report.failures and self.strict:
            raise FarmError(report.summary(), report)
        return results

    # -- shard assembly --------------------------------------------------
    def _assemble(
        self,
        pending: list[JobSpec],
        plan: dict[JobSpec, tuple[JobSpec, ...]],
        unit_results: dict[JobSpec, Any],
        results: dict[JobSpec, Any],
        causes: dict[JobSpec, list[str]],
        report: FailureReport,
    ) -> None:
        """Recombine unit results into parent-job results.

        A sharded parent whose every slice completed is merged
        (:func:`repro.farm.merge.merge_results`), re-validated as a whole
        run, and persisted under the *parent* key so the next batch
        cache-hits it directly.  Any failed slice fails the parent, with
        the slice's cause chain folded into the parent's.
        """
        failed: list[JobSpec] = []
        for parent in pending:
            units = plan[parent]
            missing = [unit for unit in units if unit not in unit_results]
            if missing:
                if len(units) > 1:
                    for unit in missing:
                        for cause in causes.get(unit, ["unknown cause"]):
                            self._note(
                                causes, parent, f"{unit.describe()}: {cause}"
                            )
                failed.append(parent)
                continue
            if len(units) == 1:
                results[parent] = unit_results[units[0]]
                continue
            start = time.perf_counter()
            merge_span = observe.span("farm.merge", "farm")
            if merge_span:
                merge_span.set("job", parent.describe())
                merge_span.set("units", len(units))
            try:
                try:
                    merged = merge_results(
                        [unit_results[unit] for unit in units]
                    )
                except MergeError as exc:
                    self._note(causes, parent, f"shard merge failed: {exc}")
                    failed.append(parent)
                    continue
                violations = validate_result(parent, merged)
                if violations:
                    self._note(
                        causes,
                        parent,
                        "merged result invariant violation: "
                        + "; ".join(violations),
                    )
                    failed.append(parent)
                    continue
                if self.use_cache:
                    try:
                        self.store.save(parent, merged)
                    except OSError:
                        pass
                wall = time.perf_counter() - start
                self.telemetry.add_phase("merge", wall)
                results[parent] = merged
                self.telemetry.record(
                    parent.describe(),
                    parent.key(),
                    "merge",
                    wall,
                    1,
                    tuple(causes.get(parent, ())),
                )
            finally:
                if merge_span:
                    merge_span.__exit__(None, None, None)
        self._record_failures(report, failed, causes)

    # -- failure bookkeeping --------------------------------------------
    @staticmethod
    def _note(causes: dict[JobSpec, list[str]], job: JobSpec, cause: str) -> None:
        causes.setdefault(job, []).append(cause)

    def _record_failures(
        self,
        report: FailureReport,
        failed: list[JobSpec],
        causes: dict[JobSpec, list[str]],
    ) -> None:
        for job in failed:
            chain = tuple(causes.get(job, ()))
            report.failures.append(JobFailure(job, chain))
            self.telemetry.record_failure(job.describe(), job.key(), chain)

    def _validate(self, job: JobSpec, outcome: Any) -> list[str]:
        result = outcome.result if isinstance(outcome, JobOutcome) else outcome
        return validate_result(job, result)

    def _backoff(self, round_no: int, round_jobs: list[JobSpec]) -> None:
        """Exponential backoff with deterministic jitter between requeues.

        The jitter is seeded from the round's job keys, so a given batch
        always waits the same amount — reruns stay reproducible while
        distinct batches still desynchronize.
        """
        seed = ",".join(sorted(job.key() for job in round_jobs)) + f"#{round_no}"
        delay = backoff_delay(round_no, BACKOFF_BASE, BACKOFF_MAX, seed)
        if delay > 0:
            time.sleep(delay)

    # -- execution strategies -------------------------------------------
    def _harvest(
        self,
        job: JobSpec,
        outcome: Any,
        results: dict,
        source: str,
        attempts: int,
        parent_wall: float,
        causes: tuple[str, ...] = (),
    ) -> None:
        if isinstance(outcome, JobOutcome):
            wall = outcome.wall_s if not outcome.from_cache else parent_wall
            if outcome.from_cache:
                source = "cache"
            results[job] = outcome.result
            for phase, seconds in outcome.phases.items():
                self.telemetry.add_phase(phase, seconds)
            observe.absorb(outcome.spans)
        else:  # custom worker returning a bare value
            wall = parent_wall
            results[job] = outcome
        self.telemetry.record(
            job.describe(), job.key(), source, wall, attempts, causes
        )

    def _run_serial(
        self,
        batch: list[JobSpec],
        worker: Callable,
        results: dict,
        source: str,
        causes: dict[JobSpec, list[str]],
        attempts: dict[JobSpec, int] | None = None,
    ) -> None:
        """Run ``batch`` in-process; a failed unit stays out of ``results``."""
        attempts = attempts if attempts is not None else {}
        for job in batch:
            start = time.perf_counter()
            attempts[job] = attempts.get(job, 0) + 1
            try:
                outcome = worker(job, self.cache_dir)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._note(causes, job, f"{source}: {type(exc).__name__}: {exc}")
                continue
            violations = self._validate(job, outcome)
            if violations:
                self._note(
                    causes,
                    job,
                    f"{source}: invariant violation: " + "; ".join(violations),
                )
                continue
            self._harvest(
                job,
                outcome,
                results,
                source,
                attempts[job],
                time.perf_counter() - start,
                tuple(causes.get(job, ())),
            )

    def _run_units(
        self,
        batch: list[JobSpec],
        worker: Callable,
        results: dict,
        causes: dict[JobSpec, list[str]],
    ) -> None:
        """Run execution units on the warm pool; a failed unit is left out.

        The pool persists across retry rounds (and :meth:`run` calls) —
        it is discarded and rebuilt only when a worker death or a deadline
        kill breaks it.
        """
        attempts = dict.fromkeys(batch, 0)
        remaining = list(batch)
        fallback: list[JobSpec] = []
        round_no = 0
        while remaining:
            round_jobs, remaining = remaining, []
            round_no += 1
            if round_no > 1:
                self._backoff(round_no - 1, round_jobs)
            pool = self._ensure_pool(len(round_jobs))
            if pool is None:  # no multiprocessing available
                fallback.extend(round_jobs)
                break
            beacons = self._clear_beacons(round_jobs)
            futures: dict = {}
            try:
                for job in round_jobs:
                    futures[
                        pool.submit(
                            _pool_entry,
                            worker,
                            job,
                            self.cache_dir,
                            beacons.get(job),
                        )
                    ] = job
            except (BrokenProcessPool, RuntimeError):
                self._discard_pool()
                submitted = set(futures.values())
                for job in round_jobs:
                    if job not in submitted:
                        self._note(causes, job, "pool rejected submission")
                        self._requeue(
                            job,
                            attempts,
                            remaining,
                            fallback,
                            count=self._unit_started(job),
                        )
            if futures:
                self._collect_round(
                    pool, futures, attempts, results, remaining, fallback, causes
                )
        if fallback:
            self._run_serial(
                fallback, worker, results, "fallback", causes, attempts
            )

    def _collect_round(
        self,
        pool: ProcessPoolExecutor,
        futures: dict,
        attempts: dict[JobSpec, int],
        results: dict,
        remaining: list[JobSpec],
        fallback: list[JobSpec],
        causes: dict[JobSpec, list[str]],
    ) -> None:
        """Harvest one pool round under a shared deadline.

        The deadline is ``timeout`` seconds *per queue wave*
        (``ceil(jobs / workers)``), measured from round start — so the
        clock covers execution, not position in the collection order, and
        a job that queued behind slow siblings is never killed spuriously.
        Finished futures are always harvested before the deadline is
        enforced, so completed work survives even an expired round.
        """
        deadline = None
        if self.timeout is not None:
            workers = getattr(pool, "_max_workers", None) or 1
            waves = max(1, math.ceil(len(futures) / workers))
            deadline = time.monotonic() + self.timeout * waves
        round_start = time.monotonic()
        pending = set(futures)
        while pending:
            budget = None
            if deadline is not None:
                budget = max(0.0, deadline - time.monotonic())
            done, pending = wait(
                pending, timeout=budget, return_when=FIRST_COMPLETED
            )
            if not done:  # deadline expired with jobs still in flight
                self._kill_workers(pool)
                self._discard_pool()
                for future in pending:
                    job = futures[future]
                    if self._unit_started(job):
                        self._note(
                            causes,
                            job,
                            f"hung (round deadline of {self.timeout:g}s/job "
                            "exceeded); workers killed",
                        )
                        self._requeue(job, attempts, remaining, fallback)
                    else:
                        self._note(
                            causes,
                            job,
                            "queued behind a hung sibling; requeued unchanged",
                        )
                        self._requeue(
                            job, attempts, remaining, fallback, count=False
                        )
                return
            for future in done:
                job = futures[future]
                try:
                    outcome = future.result()
                except (BrokenProcessPool, CancelledError):
                    self._discard_pool()
                    if self._unit_started(job):
                        self._note(
                            causes, job, "worker process died (pool broken)"
                        )
                        self._requeue(job, attempts, remaining, fallback)
                    else:
                        # The unit never reached a worker — a sibling broke
                        # the pool while it sat in the queue.  Requeue it
                        # without spending one of its attempts, else a
                        # 1-worker pool starves queued jobs of real tries
                        # and feeds them untested to the in-parent fallback.
                        self._note(
                            causes,
                            job,
                            "pool broke before the unit started; "
                            "requeued unchanged",
                        )
                        self._requeue(
                            job, attempts, remaining, fallback, count=False
                        )
                except KeyboardInterrupt:
                    self._kill_workers(pool)
                    self._discard_pool()
                    raise
                except Exception as exc:
                    self._note(causes, job, f"{type(exc).__name__}: {exc}")
                    self._requeue(job, attempts, remaining, fallback)
                else:
                    attempts[job] += 1
                    mark = time.perf_counter()
                    violations = self._validate(job, outcome)
                    if violations:
                        self._note(
                            causes,
                            job,
                            "invariant violation: " + "; ".join(violations),
                        )
                        self._requeue(
                            job, attempts, remaining, fallback, count=False
                        )
                        continue
                    self.telemetry.add_phase(
                        "harvest", time.perf_counter() - mark
                    )
                    self._harvest(
                        job,
                        outcome,
                        results,
                        "parallel",
                        attempts[job],
                        time.monotonic() - round_start,
                        tuple(causes.get(job, ())),
                    )

    # -- start beacons ---------------------------------------------------
    def _clear_beacons(
        self, round_jobs: list[JobSpec]
    ) -> dict[JobSpec, str | None]:
        """Fresh per-unit beacon paths for one pool round.

        Workers touch their beacon just before running the unit
        (:func:`_pool_entry`); after a broken round the parent reads them
        to separate the crash victim from units that never started.  Stale
        beacons from earlier rounds are removed here so a unit is never
        judged by a previous round's run.  Returns ``{job: None}`` when no
        scratch directory can be made — attempt accounting then degrades
        to charging every unit, the pre-beacon behaviour.
        """
        if self._beacon_dir is None:
            try:
                self._beacon_dir = tempfile.mkdtemp(prefix="repro-farm-")
            except OSError:
                return dict.fromkeys(round_jobs)
            weakref.finalize(
                self, shutil.rmtree, self._beacon_dir, ignore_errors=True
            )
        beacons: dict[JobSpec, str | None] = {}
        for job in round_jobs:
            path = os.path.join(self._beacon_dir, f"{job.key()}.started")
            try:
                os.unlink(path)
            except OSError:
                pass
            beacons[job] = path
        return beacons

    def _unit_started(self, job: JobSpec) -> bool:
        """Did this unit's worker begin executing in the current round?"""
        if self._beacon_dir is None:
            return True  # beacons unavailable; assume it ran
        return os.path.exists(
            os.path.join(self._beacon_dir, f"{job.key()}.started")
        )

    def _requeue(
        self,
        job: JobSpec,
        attempts: dict[JobSpec, int],
        remaining: list[JobSpec],
        fallback: list[JobSpec],
        count: bool = True,
    ) -> None:
        if count:
            attempts[job] += 1
        if attempts[job] >= self.retries:
            fallback.append(job)
        else:
            remaining.append(job)

    @staticmethod
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
        for proc in (getattr(pool, "_processes", None) or {}).values():
            try:
                proc.kill()
            except OSError:
                pass
