"""Tests for fault injection, artifact integrity, and graceful degradation.

Four layers, bottom-up:

* the injector itself — plan serialization, env installation, cross-process
  ``times`` accounting, deterministic corruption;
* store integrity — seal/decode/invariant gauntlet, quarantine, and one
  sealed file per entry with damage caught anywhere in it;
* the conservation invariants — clean results pass, tampered ones don't;
* end-to-end recovery — every satellite fault class (crash, hang, corrupt
  artifact, truncated checkpoint, corrupt trace, unwritable cache,
  native-compile failure) recovers results bit-identical to a fault-free
  run, plus the ``strict=False`` degradation contract.

The end-to-end cases run the shared ``repro chaos`` scenarios (the same
code ``python -m repro chaos`` executes), against one module-scoped
fault-free reference batch.
"""

from __future__ import annotations

import os
import time
import types

import pytest

from repro.farm import (
    ArtifactStore,
    Farm,
    FarmError,
    FaultPlan,
    FaultSpec,
    api_job,
    run_job,
    sim_job,
    validate_result,
)
from repro.farm import chaos, faults
from repro.farm.store import write_sealed

WORKLOAD = "UT2004/Primeval"
OTHER = "Doom3/trdemo2"


def _plan(tmp_path, *specs, seed=0):
    return FaultPlan(
        faults=tuple(specs), seed=seed, state_dir=str(tmp_path / "fault-state")
    )


# -- the injector -----------------------------------------------------------


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("crash", match="sim", times=2, frame=3),
                FaultSpec("unwritable", error="EROFS"),
            ),
            seed=7,
            state_dir="/tmp/somewhere",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor-strike")

    def test_injected_installs_and_restores_env(self, tmp_path):
        assert faults.active() is None
        plan = _plan(tmp_path, FaultSpec("exception"))
        with faults.injected(plan) as installed:
            assert faults.active() == installed
            assert os.environ[faults.ENV_VAR] == installed.to_json()
        assert faults.active() is None
        assert faults.ENV_VAR not in os.environ

    def test_times_claimed_across_calls(self, tmp_path):
        plan = _plan(tmp_path, FaultSpec("exception", times=2))
        with faults.injected(plan):
            assert faults.fire("exception") is not None
            assert faults.fire("exception") is not None
            assert faults.fire("exception") is None  # both slots claimed

    def test_times_zero_is_unlimited(self, tmp_path):
        plan = _plan(tmp_path, FaultSpec("exception", times=0))
        with faults.injected(plan):
            assert all(faults.fire("exception") for _ in range(5))

    def test_match_filters_by_label(self, tmp_path):
        plan = _plan(tmp_path, FaultSpec("exception", match="sim", times=0))
        with faults.injected(plan):
            assert faults.fire("exception", "api:UT2004/Primeval@2f") is None
            assert faults.fire("exception", "sim:UT2004/Primeval@2f")

    def test_frame_targeting(self, tmp_path):
        plan = _plan(tmp_path, FaultSpec("exception", times=0, frame=2))
        with faults.injected(plan):
            assert faults.fire("exception") is None  # job-entry site
            assert faults.fire("exception", frame=1) is None
            assert faults.fire("exception", frame=2)

    def test_bitflip_is_deterministic_and_single_bit(self, tmp_path):
        payload = bytes(range(256)) * 4
        damaged = []
        for attempt in ("a", "b"):
            target = tmp_path / attempt / "blob.bin"
            target.parent.mkdir()
            target.write_bytes(payload)
            plan = _plan(
                tmp_path / attempt,
                FaultSpec("corrupt_artifact", mode="bitflip"),
                seed=3,
            )
            with faults.injected(plan):
                assert faults.corrupt_file("corrupt_artifact", target)
            damaged.append(target.read_bytes())
        assert damaged[0] == damaged[1]  # same seed + name => same damage
        diff = [
            i for i, (a, b) in enumerate(zip(payload, damaged[0])) if a != b
        ]
        assert len(diff) == 1
        assert bin(payload[diff[0]] ^ damaged[0][diff[0]]).count("1") == 1

    def test_no_plan_is_a_no_op(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"payload")
        assert faults.fire("exception") is None
        assert not faults.corrupt_file("corrupt_artifact", target)
        faults.check_writable("anything")  # must not raise
        assert target.read_bytes() == b"payload"


# -- store integrity --------------------------------------------------------


class TestStoreIntegrity:
    def test_checksum_mismatch_quarantined(self, tmp_path):
        job = api_job(WORKLOAD, 2)
        store = ArtifactStore(tmp_path)
        store.save(job, "placeholder")
        blob = bytearray(store.artifact_path(job).read_bytes())
        blob[len(blob) // 2] ^= 0x40  # single flipped bit on disk
        store.artifact_path(job).write_bytes(bytes(blob))

        assert store.load(job) is None
        assert store.misses == 1
        assert store.quarantined == 1
        assert not store.artifact_path(job).exists()  # moved, not left behind
        names = {p.name for p in store.quarantined_files()}
        assert names == {f"{job.key()}.pkl"}
        log = (store.quarantine_dir / "REASONS.log").read_text()
        assert "checksum mismatch" in log

    def test_undecodable_artifact_quarantined(self, tmp_path):
        job = api_job(WORKLOAD, 2)
        store = ArtifactStore(tmp_path)
        store.save(job, "placeholder")
        # A valid seal over garbage: only the guarded decode can catch it.
        write_sealed(store.artifact_path(job), {"key": job.key()},
                     b"\x80\x05garbage")

        assert store.load(job) is None
        assert store.quarantined == 1
        assert "UnpicklingError" in (
            store.quarantine_dir / "REASONS.log"
        ).read_text()

    def test_semantic_violation_quarantined(self, tmp_path):
        # A well-formed pickle under the wrong key: the checksum and the
        # decode both pass, only the invariant pass can reject it.
        stats = run_job(api_job(WORKLOAD, 2)).result
        store = ArtifactStore(tmp_path)
        wrong = api_job(WORKLOAD, 3)
        store.save(wrong, stats)
        assert store.load(wrong) is None
        assert store.quarantined == 1
        assert "invariant violation" in (
            store.quarantine_dir / "REASONS.log"
        ).read_text()

    def test_truncated_checkpoint_quarantined(self, tmp_path):
        job = sim_job(WORKLOAD, 2)
        store = ArtifactStore(tmp_path)
        store.save_checkpoint(job, {"frame": 1, "state": list(range(1000))})
        path = store.checkpoint_path(job)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        assert store.load_checkpoint(job) is None
        assert store.quarantined == 1
        assert not path.exists()

    def test_clear_also_empties_quarantine(self, tmp_path):
        job = api_job(WORKLOAD, 2)
        store = ArtifactStore(tmp_path)
        store.save(job, "placeholder")
        store.artifact_path(job).write_bytes(b"junk")
        assert store.load(job) is None
        assert store.quarantined_files()
        store.clear()
        assert store.quarantined_files() == []


#: Per entry family: (save, load, path of the one file a save leaves).
ENTRY_FAMILIES = {
    "artifact": (
        lambda store, job: store.save(job, "placeholder"),
        lambda store, job: store.load(job),
        lambda store, job: store.artifact_path(job),
    ),
    "checkpoint": (
        lambda store, job: store.save_checkpoint(job, {"frame": 1}),
        lambda store, job: store.load_checkpoint(job),
        lambda store, job: store.checkpoint_path(job),
    ),
    "trace": (
        lambda store, job: store.save_trace(
            job, types.SimpleNamespace(meta=types.SimpleNamespace(frame_count=2))
        ),
        lambda store, job: store.load_trace(job),
        lambda store, job: store.trace_path(job),
    ),
}


class TestSealedEntries:
    """Every store family is one sealed file; damage anywhere is a miss."""

    @pytest.mark.parametrize("region", ["seal", "header", "payload"])
    @pytest.mark.parametrize("family", sorted(ENTRY_FAMILIES))
    def test_one_file_per_entry_and_damage_anywhere_quarantines_it(
        self, tmp_path, family, region
    ):
        save, load, entry_path = ENTRY_FAMILIES[family]
        store = ArtifactStore(tmp_path)
        job = sim_job(WORKLOAD, 2)
        save(store, job)
        path = entry_path(store, job)
        files = [p for p in tmp_path.rglob("*") if p.is_file()
                 and p.parent.name != "locks"]
        assert files == [path]
        assert load(store, job) is not None

        data = bytearray(path.read_bytes())
        header_end = data.index(b"\n", 65)
        assert header_end > 70  # the header line is long enough to hit
        position = {
            "seal": 10,
            "header": 70,
            "payload": (header_end + 1 + len(data)) // 2,
        }[region]
        data[position] ^= 0x01
        path.write_bytes(bytes(data))

        assert load(store, job) is None
        assert not path.exists()
        assert [p.name for p in store.quarantined_files()] == [path.name]
        assert "checksum mismatch" in (
            store.quarantine_dir / "REASONS.log"
        ).read_text()


# -- conservation invariants ------------------------------------------------


class TestInvariants:
    def test_clean_api_result_passes(self):
        job = api_job(WORKLOAD, 2)
        assert validate_result(job, run_job(job).result) == []

    def test_frame_budget_mismatch_detected(self):
        stats = run_job(api_job(WORKLOAD, 2)).result
        assert validate_result(api_job(WORKLOAD, 3), stats)

    def test_clean_sim_result_passes(self):
        job = sim_job(WORKLOAD, 1)
        assert validate_result(job, run_job(job).result) == []

    def test_tampered_sim_counter_detected(self):
        job = sim_job(WORKLOAD, 1)
        result = run_job(job).result
        result.stats.fragments_rasterized += 1  # breaks frame-sum conservation
        assert validate_result(job, result)

    def test_unknown_result_shape_is_not_validated(self):
        assert validate_result(api_job(WORKLOAD, 2), "bare string") == []


# -- end-to-end recovery (the chaos scenarios) -------------------------------


@pytest.fixture(scope="module")
def chaos_ctx(tmp_path_factory):
    """Fault-free reference batch shared by every recovery test."""
    root = tmp_path_factory.mktemp("chaos")
    reference = Farm(store=ArtifactStore(root / "reference"), jobs=2).run(
        list(chaos.BASE_JOBS) + [chaos.CKPT_JOB]
    )

    def make(name: str) -> chaos._Context:
        return chaos._Context(reference, seed=0, jobs=2, root=root / name)

    return make


class TestChaosRecovery:
    """Each satellite fault class recovers bit-identical to the reference.

    ``ChaosFailure`` (an ``AssertionError``) propagating out of a scenario
    is the test failure; these are the exact scenarios ``repro chaos`` runs.
    """

    def test_worker_crash_mid_round(self, chaos_ctx):
        chaos._crash(chaos_ctx("crash"))

    def test_hung_job_killed_and_requeued(self, chaos_ctx):
        chaos._hang(chaos_ctx("hang"))

    def test_corrupt_artifact_quarantined_and_recomputed(self, chaos_ctx):
        chaos._artifact_corruption(chaos_ctx("corrupt"))

    def test_truncated_checkpoint_restarts_cleanly(self, chaos_ctx):
        chaos._checkpoint_truncation(chaos_ctx("ckpt"))

    def test_corrupt_trace_quarantined_and_regenerated(self, chaos_ctx):
        chaos._trace_corruption(chaos_ctx("trace"))

    def test_unwritable_cache_dir_still_produces_results(self, chaos_ctx):
        chaos._unwritable(chaos_ctx("readonly"), "EROFS")

    def test_native_compile_failure_falls_back_identically(self, chaos_ctx):
        chaos._native_compile(chaos_ctx("native"))


def test_chaos_refuses_a_one_worker_farm(monkeypatch):
    """With one worker the farm runs units in-process, where an injected
    crash would exit the suite: ``run_chaos`` refuses before any farm."""

    def no_farm(*args, **kwargs):
        raise AssertionError("run_chaos started a farm")

    monkeypatch.setattr(chaos, "Farm", no_farm)
    lines: list[str] = []
    assert chaos.run_chaos(jobs=1, out=lines.append) == 2
    assert len(lines) == 1 and "at least 2" in lines[0]


def test_corrupt_shard_artifact_is_a_cache_miss_not_a_retry(chaos_ctx):
    """Results ride the worker's envelope: a shard artifact damaged after
    the worker saved it costs the run nothing, and the cache quarantines
    it on its next load."""
    ctx = chaos_ctx("shard-corrupt")
    job = sim_job(WORKLOAD, 2)
    plan = ctx.plan(
        FaultSpec("corrupt_artifact", match="+1/2", times=1, mode="bitflip")
    )
    farm = ctx.farm("shard-corrupt", shard_frames=2)
    with faults.injected(plan):
        recovered = farm.run([job])
    chaos._check_match(ctx.reference, recovered, [job])
    assert farm.telemetry.retries == 0
    assert farm.last_report.ok
    assert [r.source for r in farm.telemetry.records].count("merge") == 1

    shard = job.shard(2)[1]
    path = farm.store.artifact_path(shard)
    assert farm.store.load(shard) is None
    assert not path.exists()
    assert [p.name for p in farm.store.quarantined_files()] == [path.name]


# -- graceful degradation and scheduling fixes -------------------------------


def _fails_for_doom(job, cache_dir, checkpoint_every):
    if "Doom3" in job.workload:
        raise ValueError("doom jobs always fail")
    return f"ok:{job.workload}"


def _sleeps_briefly(job, cache_dir, checkpoint_every):
    time.sleep(0.6)
    return f"slept:{job.key()}"


class TestFarmDegradation:
    JOBS = [api_job(WORKLOAD, 2), api_job(OTHER, 2)]

    def test_strict_false_returns_partial_results_and_report(self, tmp_path):
        farm = Farm(
            store=ArtifactStore(tmp_path), jobs=2, retries=2, strict=False
        )
        results = farm.run(self.JOBS, worker=_fails_for_doom)
        assert results == {self.JOBS[0]: f"ok:{WORKLOAD}"}
        report = farm.last_report
        assert not report.ok
        assert report.completed == 1
        assert report.failed_jobs() == [self.JOBS[1]]
        assert any("doom jobs always fail" in c for c in report.failures[0].causes)
        assert farm.telemetry.failed == 1

    def test_strict_error_carries_per_job_cause_chain(self, tmp_path):
        farm = Farm(store=ArtifactStore(tmp_path), jobs=2, retries=2)
        with pytest.raises(FarmError, match="doom jobs always fail") as info:
            farm.run(self.JOBS, worker=_fails_for_doom)
        assert info.value.report is not None
        assert info.value.report.failed_jobs() == [self.JOBS[1]]
        # the survivor's work is not discarded by the sibling's failure
        assert info.value.report.completed == 1

    def test_run_one_raises_when_nonstrict_job_fails(self, tmp_path):
        farm = Farm(store=ArtifactStore(tmp_path), jobs=1, strict=False)
        with pytest.raises(FarmError):
            farm.run_one(api_job(OTHER, 2), worker=_fails_for_doom)

    def test_queued_jobs_not_charged_for_wait_time(self, tmp_path):
        # Six 0.6s jobs through 2 workers: the last wave finishes ~1.8s in,
        # past a naive per-job clock started at collection time.  The
        # wave-scaled round deadline must not kill or retry anything.
        jobs = [api_job(WORKLOAD, frames) for frames in range(2, 8)]
        farm = Farm(
            store=ArtifactStore(tmp_path), jobs=2, retries=2, timeout=1.0
        )
        results = farm.run(jobs, worker=_sleeps_briefly)
        assert len(results) == len(jobs)
        assert farm.telemetry.retries == 0
        assert all(r.attempts == 1 for r in farm.telemetry.records)
