"""``repro chaos`` — end-to-end injected-fault recovery suite.

Runs every fault class the injector knows (worker crash, hang, transient
exception, artifact corruption, checkpoint truncation, trace corruption,
``ENOSPC``, read-only cache, native-compile failure, a strict/graceful-
degradation check, plus frame-shard recovery: a worker dying mid-shard)
against real farm batches, and asserts that the recovered results are
**bit-identical** to a fault-free reference run — the same equality the
tier-1 suite demands of parallel-vs-serial execution.  Corruption scenarios
additionally assert the damaged files ended up in quarantine rather than
being silently reused.

Every scenario runs in a throwaway cache directory with a fresh
:class:`~repro.farm.faults.FaultPlan` installed through the environment, so
pool workers inherit the faults without cooperation from the scheduler.
The plan seed (``--seed``) drives corruption positions deterministically;
the suite is reproducible end to end.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.farm import faults
from repro.farm.checkpoint import clear_trace_cache
from repro.farm.executor import Farm, FarmError
from repro.farm.job import JobSpec, api_job, sim_job
from repro.farm.store import ArtifactStore
from repro.util.tables import format_table

WORKLOAD = "UT2004/Primeval"
OTHER = "Doom3/trdemo2"

#: The measurement batch every scenario recovers: two API runs and a
#: checkpointed simulation, enough to exercise every store path.
BASE_JOBS = (api_job(WORKLOAD, 2), api_job(OTHER, 2), sim_job(WORKLOAD, 2))

#: Longer simulation used by the checkpoint-truncation scenario (needs a
#: mid-run frame boundary to crash at).
CKPT_JOB = sim_job(WORKLOAD, 3)


class ChaosFailure(AssertionError):
    """A scenario's recovery guarantee did not hold."""


def results_equal(reference, recovered) -> bool:
    """Bit-identity for farm results (API stats or simulation results)."""
    if hasattr(reference, "stats"):  # SimulationResult
        return (
            reference.stats == recovered.stats
            and reference.frame_stats == recovered.frame_stats
            and reference.memory == recovered.memory
            and reference.config == recovered.config
            and len(reference.images) == len(recovered.images)
            and all(
                np.array_equal(a, b)
                for a, b in zip(reference.images, recovered.images)
            )
            and {k: (c.hits, c.misses) for k, c in reference.caches.items()}
            == {k: (c.hits, c.misses) for k, c in recovered.caches.items()}
        )
    return reference == recovered


def _check_match(reference: dict, recovered: dict, jobs) -> None:
    for job in jobs:
        if job not in recovered:
            raise ChaosFailure(f"{job.describe()} missing from recovered batch")
        if not results_equal(reference[job], recovered[job]):
            raise ChaosFailure(
                f"{job.describe()} differs from the fault-free reference"
            )


@dataclass
class _Context:
    """Per-scenario scratch state handed to scenario functions."""

    reference: dict
    seed: int
    jobs: int
    root: pathlib.Path

    def farm(self, subdir: str, **kwargs) -> Farm:
        kwargs.setdefault("jobs", self.jobs)
        kwargs.setdefault("retries", 3)
        return Farm(store=ArtifactStore(self.root / subdir), **kwargs)

    def plan(self, *specs: faults.FaultSpec) -> faults.FaultPlan:
        return faults.FaultPlan(
            faults=tuple(specs),
            seed=self.seed,
            state_dir=str(self.root / "fault-state" / f"{time.monotonic_ns()}"),
        )


# -- scenarios ---------------------------------------------------------------


def _crash(ctx: _Context) -> str:
    """A worker hard-exits mid-round; the broken pool is rebuilt and retried."""
    plan = ctx.plan(faults.FaultSpec("crash", times=1))
    farm = ctx.farm("crash")
    with faults.injected(plan):
        recovered = farm.run(list(BASE_JOBS))
    _check_match(ctx.reference, recovered, BASE_JOBS)
    if farm.telemetry.retries < 1:
        raise ChaosFailure("crash was injected but no retry was recorded")
    return f"recovered after {farm.telemetry.retries} requeue(s)"


def _hang(ctx: _Context) -> str:
    """A worker sleeps past the round deadline; it is killed and requeued."""
    plan = ctx.plan(faults.FaultSpec("hang", times=1, hang_s=60.0))
    farm = ctx.farm("hang", timeout=5.0)
    start = time.monotonic()
    with faults.injected(plan):
        recovered = farm.run(list(BASE_JOBS))
    elapsed = time.monotonic() - start
    if elapsed > 45.0:
        raise ChaosFailure(f"batch waited out the hang ({elapsed:.0f}s)")
    _check_match(ctx.reference, recovered, BASE_JOBS)
    return f"hung worker killed, batch done in {elapsed:.1f}s"


def _transient_exception(ctx: _Context) -> str:
    """Two jobs raise once each; the farm requeues instead of aborting."""
    plan = ctx.plan(faults.FaultSpec("exception", times=2))
    farm = ctx.farm("exc")
    with faults.injected(plan):
        recovered = farm.run(list(BASE_JOBS))
    _check_match(ctx.reference, recovered, BASE_JOBS)
    overcome = sum(1 for r in farm.telemetry.records if r.causes)
    return f"{overcome} job(s) recovered from injected exceptions"


def _artifact_corruption(ctx: _Context) -> str:
    """Every saved artifact is bit-flipped; loads must quarantine, not reuse."""
    plan = ctx.plan(
        faults.FaultSpec("corrupt_artifact", times=0, mode="bitflip")
    )
    with faults.injected(plan):
        first = ctx.farm("corrupt").run(list(BASE_JOBS))
    _check_match(ctx.reference, first, BASE_JOBS)  # computed before corruption
    warm = ctx.farm("corrupt")  # same (corrupted) store, faults gone
    recovered = warm.run(list(BASE_JOBS))
    _check_match(ctx.reference, recovered, BASE_JOBS)
    if warm.store.quarantined < len(BASE_JOBS):
        raise ChaosFailure(
            f"only {warm.store.quarantined} of {len(BASE_JOBS)} corrupted "
            "artifacts were quarantined"
        )
    if not warm.store.quarantined_files():
        raise ChaosFailure("quarantine directory is empty")
    if warm.telemetry.cache_hits:
        raise ChaosFailure("a corrupted artifact was served as a cache hit")
    return (
        f"{warm.store.quarantined} corrupt artifact(s) quarantined "
        "and recomputed"
    )


def _checkpoint_truncation(ctx: _Context) -> str:
    """Crash after a truncated checkpoint; resume must restart from scratch."""
    plan = ctx.plan(
        faults.FaultSpec("corrupt_checkpoint", match="sim", times=1),
        faults.FaultSpec("crash", match="sim", times=1, frame=1),
    )
    farm = ctx.farm("ckpt")
    batch = [CKPT_JOB, api_job(OTHER, 2)]
    with faults.injected(plan):
        recovered = farm.run(batch)
    _check_match(ctx.reference, recovered, batch)
    if not farm.store.quarantined_files():
        raise ChaosFailure("truncated checkpoint was not quarantined")
    return "corrupt checkpoint quarantined; resumed run is bit-identical"


def _trace_corruption(ctx: _Context) -> str:
    """The stored trace is truncated after save; the next job that needs it
    must quarantine it, regenerate the trace, and match bit for bit."""
    job = sim_job(WORKLOAD, 2)
    clear_trace_cache()  # earlier in-process runs cached this very trace
    plan = ctx.plan(faults.FaultSpec("corrupt_trace", times=1))
    with faults.injected(plan):
        first = ctx.farm("trace-corruption", jobs=1).run([job])
    _check_match(ctx.reference, first, [job])
    warm = ctx.farm("trace-corruption", jobs=1)
    # Drop the artifact so the rerun replays the trace, and the in-process
    # trace cache so the replay reads the stored (damaged) file.
    warm.store.artifact_path(job).unlink(missing_ok=True)
    clear_trace_cache()
    recovered = warm.run([job])
    _check_match(ctx.reference, recovered, [job])
    name = warm.store.trace_path(job).name
    if not any(p.name == name for p in warm.store.quarantined_files()):
        raise ChaosFailure("corrupted trace was not quarantined")
    if not warm.store.contains_trace(job):
        raise ChaosFailure("regenerated trace was not stored again")
    return "corrupt trace quarantined; regenerated run is bit-identical"


def _unwritable(ctx: _Context, error: str) -> str:
    """Cache writes fail (full/read-only volume); results still flow."""
    plan = ctx.plan(faults.FaultSpec("unwritable", times=0, error=error))
    farm = ctx.farm(f"unwritable-{error.lower()}")
    with faults.injected(plan):
        recovered = farm.run(list(BASE_JOBS))
    _check_match(ctx.reference, recovered, BASE_JOBS)
    if farm.store.entries():
        raise ChaosFailure(f"artifacts were written despite {error}")
    return f"batch completed with every cache write raising {error}"


def _native_compile(ctx: _Context) -> str:
    """The C accelerator fails to build; the Python path must match bit-for-bit."""
    from repro.gpu import _native

    plan = ctx.plan(faults.FaultSpec("native_compile", times=0))
    farm = ctx.farm("native")
    with faults.injected(plan):
        _native._reset()
        if _native.available():
            raise ChaosFailure("native kernels loaded despite compile fault")
        recovered = farm.run(list(BASE_JOBS))
    _native._reset()  # forget the fault-blocked probe
    _check_match(ctx.reference, recovered, BASE_JOBS)
    return "pure-Python fallback is bit-identical to the accelerated run"


def _graceful_degradation(ctx: _Context) -> str:
    """A permanently failing job yields a FailureReport, not a lost batch."""
    plan = ctx.plan(faults.FaultSpec("exception", match="sim", times=0))
    farm = ctx.farm("degrade", strict=False, retries=2)
    with faults.injected(plan):
        partial = farm.run(list(BASE_JOBS))
    report = farm.last_report
    good = [job for job in BASE_JOBS if job.kind == "api"]
    _check_match(ctx.reference, partial, good)
    if len(partial) != len(good) or report.ok or len(report.failures) != 1:
        raise ChaosFailure(
            f"expected {len(good)} results + 1 reported failure, got "
            f"{len(partial)} results and {len(report.failures)} failure(s)"
        )
    if not any("TransientFault" in c for c in report.failures[0].causes):
        raise ChaosFailure("failure report lost the per-job cause chain")
    with faults.injected(ctx.plan(faults.FaultSpec("exception", match="sim", times=0))):
        try:
            ctx.farm("degrade-strict", strict=True, retries=2).run(list(BASE_JOBS))
        except FarmError as exc:
            if "TransientFault" not in str(exc):
                raise ChaosFailure("FarmError message lost the cause chain")
        else:
            raise ChaosFailure("strict farm did not raise on permanent failure")
    return (
        f"strict=False returned {len(partial)}/{len(BASE_JOBS)} results + "
        "FailureReport; strict=True raised with the cause chain"
    )


def _worker_death_mid_shard(ctx: _Context) -> str:
    """A worker dies while simulating its frame shard; the slice is retried
    on a rebuilt pool and the merged run stays bit-identical."""
    job = sim_job(WORKLOAD, 2)
    plan = ctx.plan(faults.FaultSpec("crash", match="+1/2", times=1, frame=1))
    farm = ctx.farm("shard-death", shard_frames=2)
    with faults.injected(plan):
        recovered = farm.run([job])
    _check_match(ctx.reference, recovered, [job])
    if farm.telemetry.retries < 1:
        raise ChaosFailure("shard crash was injected but no retry recorded")
    merged = [r for r in farm.telemetry.records if r.source == "merge"]
    if not merged:
        raise ChaosFailure("run was not frame-sharded (no merge record)")
    return "dead shard worker replaced; merged run is bit-identical"


SCENARIOS: dict[str, Callable[[_Context], str]] = {
    "crash": _crash,
    "hang": _hang,
    "transient-exception": _transient_exception,
    "artifact-corruption": _artifact_corruption,
    "checkpoint-truncation": _checkpoint_truncation,
    "trace-corruption": _trace_corruption,
    "enospc": lambda ctx: _unwritable(ctx, "ENOSPC"),
    "read-only-cache": lambda ctx: _unwritable(ctx, "EROFS"),
    "native-compile-failure": _native_compile,
    "graceful-degradation": _graceful_degradation,
    "worker-death-mid-shard": _worker_death_mid_shard,
}


def run_chaos(
    seed: int = 0,
    jobs: int = 2,
    only: list[str] | None = None,
    out: Callable[[str], None] = print,
) -> int:
    """Run the suite; returns a process exit code (0 = every scenario held)."""
    selected = only or list(SCENARIOS)
    for name in selected:
        if name not in SCENARIOS:
            out(f"unknown chaos scenario {name!r}; known: {', '.join(SCENARIOS)}")
            return 2
    rows = []
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        root = pathlib.Path(tmp)
        out(f"chaos: computing fault-free reference ({len(BASE_JOBS) + 1} jobs)...")
        reference_jobs: list[JobSpec] = list(BASE_JOBS) + [CKPT_JOB]
        reference = Farm(store=ArtifactStore(root / "reference"), jobs=jobs).run(
            reference_jobs
        )
        for name in selected:
            ctx = _Context(reference, seed, jobs, root / name)
            start = time.monotonic()
            try:
                detail = SCENARIOS[name](ctx)
                status = "PASS"
            except ChaosFailure as exc:
                detail, status, failures = str(exc), "FAIL", failures + 1
            except FarmError as exc:
                detail, status, failures = f"FarmError: {exc}", "FAIL", failures + 1
            rows.append(
                [name, status, f"{time.monotonic() - start:.1f}", detail]
            )
            out(f"  {status} {name}: {rows[-1][3]}")
    out("")
    out(
        format_table(
            ["scenario", "status", "secs", "detail"],
            rows,
            title=f"repro chaos (seed {seed}, {jobs} workers)",
        )
    )
    out("")
    if failures:
        out(f"chaos: {failures}/{len(selected)} scenario(s) FAILED")
        return 1
    out(
        f"chaos: all {len(selected)} scenario(s) recovered bit-identical "
        "results under injected faults"
    )
    return 0
