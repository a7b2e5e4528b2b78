"""Tests for the execution farm: jobs, store, scheduler, checkpointing.

Covers the subsystem's five load-bearing guarantees:

* parallel N-worker runs are bit-identical to serial runs;
* artifacts round-trip through the store (store → load == fresh compute);
* cache keys invalidate on seed / config / frame-budget / kind changes;
* an interrupted simulation resumes from its last checkpointed frame, a
  result of the finished frames, and finishes with an artifact
  byte-identical to an uninterrupted run's;
* a crashed or hung worker is retried and the batch still completes.
"""

from __future__ import annotations

import functools
import os
import pathlib
import pickle
import time

import pytest

from repro.experiments import ExperimentConfig, Runner, default_runner
from repro.farm import (
    ArtifactStore,
    Farm,
    FarmError,
    JobSpec,
    api_job,
    geometry_job,
    run_job,
    sim_job,
)
from repro.farm.checkpoint import run_checkpointed
from repro.gpu.config import GpuConfig
from repro.gpu.pipeline import SimulationResult

WORKLOAD = "UT2004/Primeval"
OTHER = "Doom3/trdemo2"


# -- job model / cache keys -------------------------------------------------


class TestJobKeys:
    def test_key_stable(self):
        assert api_job(WORKLOAD, 4).key() == api_job(WORKLOAD, 4).key()

    def test_key_changes_with_frame_budget(self):
        assert api_job(WORKLOAD, 4).key() != api_job(WORKLOAD, 5).key()

    def test_key_changes_with_seed(self):
        base = sim_job(WORKLOAD, 2)
        assert base.key() != sim_job(WORKLOAD, 2, seed=123).key()

    def test_key_changes_with_config(self):
        override = GpuConfig(width=64, height=48, hierarchical_z=False)
        assert sim_job(WORKLOAD, 2).key() != sim_job(
            WORKLOAD, 2, config=override
        ).key()

    def test_key_changes_with_kind_and_workload(self):
        keys = {
            api_job(WORKLOAD, 2).key(),
            sim_job(WORKLOAD, 2).key(),
            geometry_job(WORKLOAD, 2).key(),
            api_job(OTHER, 2).key(),
        }
        assert len(keys) == 4

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("nonsense", WORKLOAD, 2)
        with pytest.raises(ValueError):
            JobSpec("api", WORKLOAD, 0)


# -- artifact store ---------------------------------------------------------


class TestArtifactStore:
    def test_round_trip_equals_fresh_compute(self, tmp_path):
        job = api_job(WORKLOAD, 2)
        store = ArtifactStore(tmp_path)
        outcome = run_job(job, cache_dir=str(tmp_path))
        assert not outcome.from_cache
        loaded = store.load(job)
        assert loaded == outcome.result
        fresh = run_job(job, cache_dir=None)
        assert loaded == fresh.result

    def test_sim_round_trip(self, tmp_path):
        job = sim_job(WORKLOAD, 1)
        run_job(job, cache_dir=str(tmp_path))
        loaded = ArtifactStore(tmp_path).load(job)
        fresh = run_job(job, cache_dir=None).result
        assert loaded.stats == fresh.stats
        assert loaded.frame_stats == fresh.frame_stats
        assert loaded.memory == fresh.memory
        assert loaded.config == fresh.config

    def test_corrupted_artifact_is_a_miss(self, tmp_path):
        job = api_job(WORKLOAD, 2)
        store = ArtifactStore(tmp_path)
        store.save(job, "placeholder")
        store.artifact_path(job).write_bytes(b"not a pickle")
        assert store.load(job) is None
        assert store.misses == 1

    def test_entries_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(api_job(WORKLOAD, 2), "a", wall_s=1.5)
        store.save(api_job(WORKLOAD, 3), "b", wall_s=0.5)
        entries = store.entries()
        assert len(entries) == 2
        assert {m["workload"] for m in entries} == {WORKLOAD}
        assert store.total_bytes() > 0
        assert store.clear() == 2  # one sealed file per artifact
        assert store.entries() == []

    def test_env_override_resolves_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ArtifactStore().root == tmp_path / "elsewhere"


# -- scheduler: determinism and caching -------------------------------------


class TestFarmExecution:
    JOBS = [api_job(WORKLOAD, 2), api_job(OTHER, 2), sim_job(WORKLOAD, 1)]

    def test_parallel_matches_serial(self, tmp_path):
        parallel = Farm(store=ArtifactStore(tmp_path / "p"), jobs=3).run(
            self.JOBS
        )
        serial = Farm(store=ArtifactStore(tmp_path / "s"), jobs=1).run(
            self.JOBS
        )
        for job in self.JOBS[:2]:
            assert parallel[job] == serial[job]
        psim, ssim = parallel[self.JOBS[2]], serial[self.JOBS[2]]
        assert psim.stats == ssim.stats
        assert psim.memory == ssim.memory

    def test_warm_cache_hits_without_execution(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = Farm(store=store, jobs=2)
        cold.run(self.JOBS[:2])
        assert cold.telemetry.cache_hits == 0
        warm = Farm(store=ArtifactStore(tmp_path), jobs=2)
        results = warm.run(self.JOBS[:2])
        assert warm.telemetry.cache_hits == 2
        assert len(results) == 2

    def test_no_cache_writes_nothing(self, tmp_path):
        farm = Farm(store=ArtifactStore(tmp_path), jobs=1, use_cache=False)
        farm.run([api_job(WORKLOAD, 2)])
        assert ArtifactStore(tmp_path).entries() == []

    def test_duplicate_jobs_deduplicated(self, tmp_path):
        farm = Farm(store=ArtifactStore(tmp_path), jobs=1)
        results = farm.run([api_job(WORKLOAD, 2), api_job(WORKLOAD, 2)])
        assert len(results) == 1
        assert len(farm.telemetry.records) == 1


class TestWorkloadBuilds:
    """A fresh job builds its workload once; a stored job builds none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.farm.checkpoint import clear_trace_cache
        from repro.workloads.generator import GameWorkload

        calls: list[str] = []
        original = GameWorkload.__init__

        def counting_init(self, spec, sim=False):
            calls.append(spec.name)
            original(self, spec, sim=sim)

        monkeypatch.setattr(GameWorkload, "__init__", counting_init)
        # An empty worker-local trace cache, so every fresh job generates.
        clear_trace_cache()
        yield calls
        clear_trace_cache()

    @pytest.mark.parametrize(
        "job",
        [api_job(WORKLOAD, 1), sim_job(WORKLOAD, 1), sim_job(WORKLOAD, 2).shard(2)[1]],
        ids=["api", "sim", "sim-shard"],
    )
    def test_fresh_job_builds_once(self, tmp_path, builds, job):
        outcome = run_job(job, str(tmp_path))
        assert not outcome.from_cache
        assert builds == [WORKLOAD]

    def test_api_job_streams_past_the_trace_store(self, tmp_path, builds):
        """A fresh API job stores no trace and parks none in the worker LRU;
        a sim job still does both."""
        from repro.farm.checkpoint import _TRACE_CACHE

        store = ArtifactStore(tmp_path)
        run_job(api_job(WORKLOAD, 1), str(tmp_path))
        assert not store.trace_dir.is_dir() or not any(store.trace_dir.iterdir())
        assert not _TRACE_CACHE
        job = sim_job(WORKLOAD, 1)
        run_job(job, str(tmp_path))
        assert [p.name for p in store.trace_dir.iterdir()] == [
            store.trace_path(job).name
        ]
        assert list(_TRACE_CACHE) == [job.trace_key()]

    def test_stored_job_builds_nothing(self, tmp_path, builds):
        job = api_job(WORKLOAD, 1)
        run_job(job, str(tmp_path))
        builds.clear()
        outcome = run_job(job, str(tmp_path))
        assert outcome.from_cache
        assert builds == []

    @pytest.fixture
    def reads(self, monkeypatch, builds):
        """Names of the textures rendered, meshes whose normals were
        derived and textures sampled, in call order."""
        from repro.geometry.mesh import Mesh
        from repro.gpu.texture import TextureResource, TextureUnit

        seen = {"rendered": [], "derived": [], "sampled": []}

        def count(cls, attr, log):
            compute = getattr(cls, attr).func

            def counting(obj):
                seen[log].append(obj.name)
                return compute(obj)

            prop = functools.cached_property(counting)
            prop.__set_name__(cls, attr)
            monkeypatch.setattr(cls, attr, prop)

        count(TextureResource, "texels", "rendered")
        count(Mesh, "normals", "derived")
        sample = TextureUnit.__call__

        def sampling(unit, index, coords):
            seen["sampled"].append(unit._bindings.get(index))
            return sample(unit, index, coords)

        monkeypatch.setattr(TextureUnit, "__call__", sampling)
        return seen

    @pytest.mark.parametrize(
        "job", [api_job(OTHER, 1), geometry_job(OTHER, 1)], ids=["api", "geometry"]
    )
    def test_api_and_geometry_jobs_read_no_texel_or_normal(
        self, tmp_path, reads, job
    ):
        outcome = run_job(job, str(tmp_path))
        assert not outcome.from_cache and outcome.result is not None
        assert reads == {"rendered": [], "derived": [], "sampled": []}

    def test_sim_job_renders_only_sampled_textures(self, tmp_path, reads):
        from repro.farm.checkpoint import build_job_workload

        job = sim_job(WORKLOAD, 1)
        run_job(job, str(tmp_path))
        sampled = set(reads["sampled"])
        assert reads["rendered"] and len(set(reads["rendered"])) == len(
            reads["rendered"]
        )
        assert set(reads["rendered"]) == sampled
        textures = {t.name for t in build_job_workload(job).textures}
        assert sampled < textures


# -- checkpoint / resume ----------------------------------------------------


class _InterruptAfter:
    """Raise KeyboardInterrupt once N frames have completed."""

    def __init__(self, frames: int):
        self.frames = frames
        self.seen: list[int] = []

    def __call__(self, sim, frames_done: int) -> None:
        self.seen.append(frames_done)
        if frames_done >= self.frames:
            raise KeyboardInterrupt


def _artifact_bytes(result) -> bytes:
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def _assert_checkpoint_holds(store, job, frames: int) -> None:
    """The checkpoint is the result of exactly ``job``'s first ``frames``."""
    assert store.checkpoint_path(job).stat().st_size < 16 * 1024
    done = store.load_checkpoint(job)
    assert isinstance(done, SimulationResult)
    first = job.frame_offset
    assert [fs.frame for fs in done.frame_stats] == list(
        range(first, first + frames)
    )


class TestCheckpointResume:
    def test_interrupted_sim_resumes_from_checkpoint(self, tmp_path):
        job = sim_job(WORKLOAD, 3)
        store = ArtifactStore(tmp_path)

        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(job, store, on_frame=_InterruptAfter(1))
        assert store.checkpoint_path(job).exists()

        tracker = _InterruptAfter(10**9)  # record, never fire
        resumed = run_checkpointed(job, store, on_frame=tracker)
        assert tracker.seen == [2, 3]  # frame 1 came from the checkpoint
        assert not store.checkpoint_path(job).exists()

        fresh = run_checkpointed(job, None)
        assert resumed.stats == fresh.stats
        assert resumed.frame_stats == fresh.frame_stats
        assert resumed.memory == fresh.memory

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        job = sim_job(WORKLOAD, 2)
        store = ArtifactStore(tmp_path)
        full = run_checkpointed(job, None)
        store.save_checkpoint(job, full)
        # All frames already done: finishing must not simulate anything.
        tracker = _InterruptAfter(10**9)
        result = run_checkpointed(job, store, on_frame=tracker)
        assert tracker.seen == []
        assert result.stats == full.stats
        assert not store.checkpoint_path(job).exists()

    @pytest.mark.parametrize(
        "job",
        [
            sim_job(WORKLOAD, 3),
            geometry_job(OTHER, 4),
            sim_job("Quake4/demo4", 4).shard(2)[1],
        ],
        ids=lambda job: job.describe(),
    )
    def test_resumed_run_pickles_to_the_uninterrupted_bytes(self, tmp_path, job):
        """At every interrupt point the checkpoint is the result of exactly
        the finished frames, a few KB, and the resumed run's artifact is
        the uninterrupted run's, byte for byte."""
        expected = _artifact_bytes(run_checkpointed(job, None))
        for stop in range(1, job.frames):
            store = ArtifactStore(tmp_path / f"stop-{stop}")
            with pytest.raises(KeyboardInterrupt):
                run_checkpointed(job, store, on_frame=_InterruptAfter(stop))
            _assert_checkpoint_holds(store, job, stop)
            assert _artifact_bytes(run_checkpointed(job, store)) == expected
            assert not store.checkpoint_path(job).exists()

    def test_resume_of_a_resumed_run_is_exact(self, tmp_path):
        """A resumed run checkpoints the merge of what it restored and what
        it ran; interrupting it again, frame after frame, still ends on the
        uninterrupted bytes."""
        job = geometry_job(OTHER, 4)
        expected = _artifact_bytes(run_checkpointed(job, None))
        store = ArtifactStore(tmp_path)
        for stop in range(1, job.frames):
            with pytest.raises(KeyboardInterrupt):
                run_checkpointed(job, store, on_frame=_InterruptAfter(stop))
            _assert_checkpoint_holds(store, job, stop)
        tracker = _InterruptAfter(10**9)
        resumed = run_checkpointed(job, store, on_frame=tracker)
        assert tracker.seen == [job.frames]
        assert _artifact_bytes(resumed) == expected

    def test_checkpoint_key_isolation(self, tmp_path):
        """A checkpoint for one budget is never resumed for another."""
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(sim_job(WORKLOAD, 3), store, on_frame=_InterruptAfter(1))
        tracker = _InterruptAfter(10**9)
        run_checkpointed(sim_job(WORKLOAD, 2), store, on_frame=tracker)
        assert tracker.seen == [1, 2]  # started from scratch


# -- worker crash / hang recovery -------------------------------------------


def _crash_once_worker(job, cache_dir):
    marker = pathlib.Path(cache_dir) / f"crashed-{job.key()}"
    if not marker.exists():
        marker.write_text("x")
        os._exit(13)  # simulate a hard worker crash (kills the pool)
    return f"recovered:{job.workload}"


def _hang_once_worker(job, cache_dir):
    marker = pathlib.Path(cache_dir) / f"hung-{job.key()}"
    if not marker.exists():
        marker.write_text("x")
        time.sleep(60)
    return f"recovered:{job.workload}"


def _always_raises_worker(job, cache_dir):
    raise ValueError("deterministic failure")


class TestCrashRecovery:
    JOBS = [api_job(WORKLOAD, 2), api_job(OTHER, 2)]

    def test_retry_after_worker_crash(self, tmp_path):
        farm = Farm(store=ArtifactStore(tmp_path), jobs=2, retries=3)
        results = farm.run(self.JOBS, worker=_crash_once_worker)
        assert results == {
            job: f"recovered:{job.workload}" for job in self.JOBS
        }
        assert farm.telemetry.retries >= 1

    def test_timeout_kills_and_retries(self, tmp_path):
        farm = Farm(
            store=ArtifactStore(tmp_path), jobs=2, retries=3, timeout=5.0
        )
        start = time.perf_counter()
        results = farm.run([self.JOBS[0]] + [self.JOBS[1]], worker=_hang_once_worker)
        assert time.perf_counter() - start < 55  # did not wait out the hang
        assert len(results) == 2

    def test_deterministic_exception_surfaces_immediately(self, tmp_path):
        farm = Farm(store=ArtifactStore(tmp_path), jobs=2, retries=3)
        with pytest.raises(FarmError, match="deterministic failure"):
            farm.run(self.JOBS, worker=_always_raises_worker)

    def test_fallback_runs_serial_after_repeated_crashes(self, tmp_path):
        # retries=1: the first broken round sends jobs straight to the
        # in-parent serial fallback (markers exist by then, so it succeeds).
        farm = Farm(store=ArtifactStore(tmp_path), jobs=2, retries=1)
        results = farm.run(self.JOBS, worker=_crash_once_worker)
        assert len(results) == 2
        assert any(r.source == "fallback" for r in farm.telemetry.records)


# -- runner integration (stale-results hazard) -------------------------------


class TestRunnerFarmIntegration:
    def test_memo_keyed_by_frame_budget(self, tmp_path):
        """Two budgets through one farm/store never share results."""
        store = ArtifactStore(tmp_path)
        small = Runner(
            ExperimentConfig(api_frames=2, sim_frames=1, geometry_frames=1),
            farm=Farm(store=store, jobs=1),
        )
        large = Runner(
            ExperimentConfig(api_frames=3, sim_frames=1, geometry_frames=1),
            farm=Farm(store=store, jobs=1),
        )
        assert small.api(WORKLOAD).frame_count == 2
        assert large.api(WORKLOAD).frame_count == 3

    def test_default_runner_tracks_env_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_API_FRAMES", "3")
        first = default_runner()
        assert first.config.api_frames == 3
        monkeypatch.setenv("REPRO_API_FRAMES", "5")
        second = default_runner()
        assert second.config.api_frames == 5
        assert second is not first

    def test_runner_parallel_prefetch_matches_serial(self, tmp_path):
        config = ExperimentConfig(api_frames=2, sim_frames=1, geometry_frames=1)
        parallel = Runner(
            config, farm=Farm(store=ArtifactStore(tmp_path / "p"), jobs=2)
        )
        parallel.prefetch(
            api_names=[WORKLOAD, OTHER], sim_names=[], geometry_names=[]
        )
        serial = Runner(config, use_cache=False)
        assert parallel.api(WORKLOAD) == serial.api(WORKLOAD)
        assert parallel.api(OTHER) == serial.api(OTHER)
