"""Frame-sharded execution: merge algebra, bit-identity, and the store.

The farm's scaling story rests on three claims, each tested here:

* a run split into contiguous frame shards and folded back through
  :mod:`repro.farm.merge` is **bit-identical** to the serial run — on all
  three simulated engines, across statistics, quad fates, cache reference
  counters, memory traffic, and rendered images;
* the merge itself is a well-behaved fold: order-invariant, associative,
  and loud (``MergeError``) on gaps, overlaps, or mixed result types;
* the farm around it holds up — shared traces round-trip through the
  store exactly, rendered frames survive a store round trip, a corrupted
  trace is quarantined and regenerated instead of crashing the job, and
  the warm worker pool outlives both retry rounds and whole runs.
"""

from __future__ import annotations

import itertools
import os
import pickle

import pytest

from repro.api.commands import Clear, Draw
from repro.api.tracer import ApiTracer
from repro.farm import (
    ArtifactStore,
    Farm,
    MergeError,
    api_job,
    merge_api_stats,
    merge_results,
    merge_simulations,
    run_job,
    sim_job,
)
from repro.farm import chaos, faults
from repro.farm.chaos import results_equal
from repro.farm.checkpoint import (
    build_job_workload,
    clear_trace_cache,
    job_trace,
    run_api_job,
)
from repro.workloads import all_workloads, build_workload
from repro.workloads.engines import GameEngine

WORKLOAD = "UT2004/Primeval"
OTHER = "Doom3/trdemo2"
ENGINES = ("UT2004/Primeval", "Doom3/trdemo1", "Quake4/demo4")


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def _simulate_shards(job, trace, keep_images: bool = False):
    """Run every shard of ``job`` directly against the shared ``trace``."""
    parts = []
    for shard in job.shard(job.frames):
        sim = build_job_workload(shard).simulator(shard.config)
        parts.append(
            sim.run_trace(
                trace,
                max_frames=shard.frames,
                start_frame=shard.frame_offset,
                keep_images=shard.frames if keep_images else 0,
            )
        )
    return parts


@pytest.fixture(scope="module")
def ut_split():
    """Serial UT2004 3-frame sim plus its three single-frame shard runs."""
    job = sim_job(WORKLOAD, 3)
    workload = build_job_workload(job)
    trace = workload.trace(frames=3).materialize()
    serial = workload.simulator(job.config).run_trace(
        trace, max_frames=3, keep_images=3
    )
    parts = _simulate_shards(job, trace, keep_images=True)
    return serial, parts


@pytest.fixture(scope="module")
def api_split():
    """Serial UT2004 4-frame API pass plus its two 2-frame shard passes."""
    job = api_job(WORKLOAD, 4)
    trace = build_job_workload(job).trace(frames=4).materialize()
    serial = run_api_job(job, trace=trace)
    parts = [run_api_job(shard, trace=trace) for shard in job.shard(2)]
    return serial, parts


@pytest.fixture(scope="module", params=ENGINES, ids=ENGINES)
def engine_split(request):
    """One engine's serial 2-frame sim and its merged 1-frame shards."""
    job = sim_job(request.param, 2)
    workload = build_job_workload(job)
    trace = workload.trace(frames=2).materialize()
    serial = workload.simulator(job.config).run_trace(
        trace, max_frames=2, keep_images=2
    )
    merged = merge_results(_simulate_shards(job, trace, keep_images=True))
    return serial, merged


# -- bit-identity on every engine -------------------------------------------


def test_sharded_simulation_is_bit_identical(engine_split):
    """Shard-and-merge equals serial: stats, quad fates, caches, images."""
    serial, merged = engine_split
    assert results_equal(serial, merged)
    assert merged.stats == serial.stats
    assert merged.stats.quad_fates == serial.stats.quad_fates
    for key, cache in serial.caches.items():
        other = merged.caches[key]
        assert (other.hits, other.misses, other.accesses) == (
            cache.hits,
            cache.misses,
            cache.accesses,
        )


def test_merged_simulation_pickles_to_the_serial_bytes(engine_split):
    """The merged artifact is the serial artifact, byte for byte: each
    merged cache shares its config with the result's, as a serial run's
    does, so no config is pickled twice."""
    serial, merged = engine_split
    assert pickle.dumps(merged, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
        serial, protocol=pickle.HIGHEST_PROTOCOL
    )


def test_round_tripped_result_pickles_to_the_fresh_bytes():
    """A result that crossed a process boundary pickles as it did fresh:
    unpickling splits no shared string (``config``, ``texture_l0``, ...)
    into two objects that would then pickle twice."""
    workload = build_workload(WORKLOAD, sim=True)
    sim = workload.simulator()
    sim.run_trace(workload.trace(frames=1), max_frames=1)
    fresh = pickle.dumps(sim.result(), protocol=pickle.HIGHEST_PROTOCOL)
    assert pickle.dumps(
        pickle.loads(fresh), protocol=pickle.HIGHEST_PROTOCOL
    ) == fresh


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs to pool")
def test_pooled_sharded_artifact_is_the_serial_artifact(tmp_path):
    """Two pooled shards merged in the parent store the serial run's
    artifact, byte for byte."""
    job = chaos.CKPT_JOB
    digests = []
    for jobs in (1, 2):
        farm = Farm(store=ArtifactStore(tmp_path / f"jobs{jobs}"), jobs=jobs)
        farm.run([job])
        sources = [r.source for r in farm.telemetry.records]
        assert sources.count("merge") == (jobs == 2)
        digests.append(farm.store._read_meta(job)["sha256"])
    assert digests[1] == digests[0]


def test_sharded_api_stats_are_bit_identical(api_split):
    serial, parts = api_split
    assert merge_api_stats(parts) == serial


def test_streamed_api_job_equals_materialized_replay(monkeypatch):
    """Without a trace an API job streams its frames from the generator, a
    shard only its own; the whole job and its merged shards equal a
    materialized replay."""
    job = api_job(WORKLOAD, 4)
    workload = build_job_workload(job)
    trace = workload.trace(frames=4).materialize()
    expected = ApiTracer(workload.programs).trace_stats(trace)
    generated: list[int] = []
    frame_calls = GameEngine.frame_calls

    def counted(engine, frame, *args):
        generated.append(frame)
        return frame_calls(engine, frame, *args)

    monkeypatch.setattr(GameEngine, "frame_calls", counted)
    assert run_api_job(job) == expected
    assert merge_api_stats([run_api_job(s) for s in job.shard(2)]) == expected
    assert generated == [0, 1, 2, 3, 0, 1, 2, 3]


@pytest.mark.parametrize("profile", ["sim", "full"])
@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_generated_frames_open_with_full_clear(name, profile):
    """Every generated frame clears color, depth and stencil before its
    first draw.  Shard-and-merge is exact only because of this (a shard
    starts on a fresh framebuffer), and no runtime code checks it."""
    workload = build_workload(name, sim=profile == "sim")
    for frame in workload.trace(frames=2).frames():
        first = next(
            call for call in frame.calls if isinstance(call, (Clear, Draw))
        )
        assert isinstance(first, Clear), frame.number
        assert first.color and first.depth and first.stencil, frame.number


# -- merge algebra -----------------------------------------------------------


def test_merge_matches_serial(ut_split):
    serial, parts = ut_split
    assert results_equal(serial, merge_results(parts))


def test_merge_is_order_invariant(ut_split):
    serial, parts = ut_split
    for perm in itertools.permutations(parts):
        assert results_equal(serial, merge_simulations(list(perm)))


def test_merge_is_associative(ut_split):
    serial, parts = ut_split
    left = merge_simulations([merge_simulations(parts[:2]), parts[2]])
    right = merge_simulations([parts[0], merge_simulations(parts[1:])])
    assert results_equal(serial, left)
    assert results_equal(serial, right)
    assert results_equal(left, right)


def test_api_merge_is_order_invariant(api_split):
    serial, parts = api_split
    assert merge_api_stats(list(reversed(parts))) == serial


def test_merge_single_part_is_passthrough(ut_split):
    _, parts = ut_split
    assert merge_results([parts[0]]) is parts[0]


def test_merge_rejects_frame_gap(ut_split):
    _, parts = ut_split
    with pytest.raises(MergeError):
        merge_simulations([parts[0], parts[2]])


def test_merge_rejects_overlap(ut_split):
    _, parts = ut_split
    with pytest.raises(MergeError):
        merge_simulations([parts[0], parts[0]])


def test_merge_rejects_mixed_types(ut_split, api_split):
    _, sim_parts = ut_split
    _, api_parts = api_split
    with pytest.raises(MergeError):
        merge_results([sim_parts[0], api_parts[0]])


def test_api_merge_rejects_frame_gap():
    job = api_job(WORKLOAD, 3)
    trace = build_job_workload(job).trace(frames=3).materialize()
    shards = job.shard(3)
    parts = [run_api_job(shard, trace=trace) for shard in shards]
    with pytest.raises(MergeError):
        merge_api_stats([parts[0], parts[2]])


# -- shard planning ----------------------------------------------------------


def test_shard_partitions_frames():
    job = sim_job(WORKLOAD, 5)
    shards = job.shard(3)
    assert [s.frames for s in shards] == [2, 2, 1]
    assert [s.frame_offset for s in shards] == [0, 2, 4]
    assert all(s.total_frames == 5 and s.is_shard for s in shards)
    assert len({s.key() for s in shards}) == 3  # distinct artifacts
    assert len({s.trace_key() for s in shards}) == 1  # one shared trace
    assert job.trace_key() == shards[0].trace_key()


def test_shard_degenerate_cases():
    job = sim_job(WORKLOAD, 2)
    assert job.shard(1) == (job,)
    assert len(job.shard(8)) == 2  # clamped to frame count
    shard = job.shard(2)[1]
    assert shard.shard(2) == (shard,)  # shards never re-split
    assert "+1/2" in shard.describe()


@pytest.fixture
def four_cores(monkeypatch):
    """Plan as a 4-core host would, whatever this host's core count."""
    monkeypatch.setattr("repro.farm.executor.os.cpu_count", lambda: 4)


def test_plan_auto_shards_underloaded_batch(tmp_path, four_cores):
    farm = Farm(store=ArtifactStore(tmp_path), jobs=4)
    job = sim_job(WORKLOAD, 4)
    plan = farm._plan_units([job], run_job)
    assert len(plan[job]) == 4


def test_plan_width_capped_by_cpu_count(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.farm.executor.os.cpu_count", lambda: 1)
    farm = Farm(store=ArtifactStore(tmp_path), jobs=4)
    assert farm.width == 1
    job = sim_job(WORKLOAD, 4)
    # A 1-core box never pays shard-merge overhead for parallelism it
    # cannot have.
    assert farm._plan_units([job], run_job) == {job: (job,)}


def test_plan_keeps_full_batches_whole(tmp_path, four_cores):
    farm = Farm(store=ArtifactStore(tmp_path), jobs=2)
    jobs = [sim_job(WORKLOAD, 4), sim_job(OTHER, 4)]
    plan = farm._plan_units(jobs, run_job)
    assert all(plan[job] == (job,) for job in jobs)


def test_plan_respects_shard_overrides(tmp_path, four_cores):
    job = sim_job(WORKLOAD, 4)
    store = ArtifactStore(tmp_path)
    off = Farm(store=store, jobs=4, shard_frames=0)
    assert off._plan_units([job], run_job) == {job: (job,)}
    fixed = Farm(store=store, jobs=2, shard_frames=4)
    assert len(fixed._plan_units([job], run_job)[job]) == 4


def test_plan_never_shards_custom_workers(tmp_path):
    def custom(job, cache_dir):  # pragma: no cover
        raise NotImplementedError

    farm = Farm(store=ArtifactStore(tmp_path), jobs=4)
    job = sim_job(WORKLOAD, 4)
    assert farm._plan_units([job], custom) == {job: (job,)}


# -- the farm end-to-end -----------------------------------------------------


def test_farm_sharded_run_matches_serial(tmp_path):
    job = sim_job(WORKLOAD, 2)
    serial = Farm(store=ArtifactStore(tmp_path / "serial"), jobs=1).run_one(job)
    with Farm(
        store=ArtifactStore(tmp_path / "sharded"), jobs=2, shard_frames=2
    ) as farm:
        sharded = farm.run_one(job)
        assert results_equal(serial, sharded)
        assert any(r.source == "merge" for r in farm.telemetry.records)
        assert farm.store.contains(job)  # merged parent cached whole
        again = farm.run_one(job)
    assert results_equal(serial, again)
    assert farm.telemetry.cache_hits >= 1


def test_pinned_plan_runs_in_process_at_jobs_1(tmp_path):
    """A pin holds at every width: ``jobs=1`` runs the same frame shards
    in the parent and merges them like the pool would."""
    job = sim_job(WORKLOAD, 2)
    whole = Farm(
        store=ArtifactStore(tmp_path / "whole"), jobs=1, shard_frames=0
    ).run_one(job)
    farm = Farm(store=ArtifactStore(tmp_path / "pin"), jobs=1, shard_frames=2)
    pinned = farm.run_one(job)
    assert [r.source for r in farm.telemetry.records] == [
        "serial", "serial", "merge"
    ]
    assert results_equal(whole, pinned)
    assert farm.store.contains(job)  # merged parent cached whole
    assert farm._pool is None


def test_warm_pool_persists_across_runs(tmp_path):
    with Farm(
        store=ArtifactStore(tmp_path), jobs=2, shard_frames=0
    ) as farm:
        farm.run([api_job(WORKLOAD, 2), api_job(OTHER, 2)])
        pool = farm._pool
        assert pool is not None
        farm.run([api_job(WORKLOAD, 3), api_job(OTHER, 3)])
        assert farm._pool is pool  # no teardown between runs
    assert farm._pool is None  # close() releases it


def test_warm_pool_rebuilt_after_worker_death(tmp_path):
    plan = faults.FaultPlan(
        faults=(faults.FaultSpec("crash", match="Doom3", times=1),),
        seed=0,
        state_dir=str(tmp_path / "fault-state"),
    )
    batch = [api_job(OTHER, 2), api_job(OTHER, 3)]
    reference = Farm(store=ArtifactStore(tmp_path / "ref"), jobs=1).run(batch)
    with Farm(
        store=ArtifactStore(tmp_path / "cache"),
        jobs=2,
        retries=3,
        shard_frames=0,
    ) as farm:
        with faults.injected(plan):
            farm.run([api_job(WORKLOAD, 2), api_job(WORKLOAD, 3)])
            pool = farm._pool
            recovered = farm.run(batch)
        assert farm._pool is not None
        assert farm._pool is not pool  # broken pool was replaced
    assert farm.telemetry.retries >= 1
    for job in batch:
        assert results_equal(reference[job], recovered[job])


# -- rendered frames in the store ---------------------------------------------


@pytest.fixture(scope="module")
def imaged():
    """A 2-frame simulation that kept both rendered frames."""
    job = sim_job(WORKLOAD, 2)
    workload = build_job_workload(job)
    trace = workload.trace(frames=2).materialize()
    result = workload.simulator(job.config).run_trace(
        trace, max_frames=2, keep_images=2
    )
    return job, result


def test_images_round_trip_through_the_store(tmp_path, imaged):
    job, result = imaged
    store = ArtifactStore(tmp_path)
    store.save(job, result)
    loaded = store.load(job)
    assert loaded is not None
    assert len(loaded.images) == 2
    assert results_equal(result, loaded)


# -- the shared trace store --------------------------------------------------


def _api_replay(job, trace):
    workload = build_job_workload(job)
    return ApiTracer(workload.programs).trace_stats(
        trace, max_frames=job.frames
    )


def test_trace_store_round_trip_is_exact(tmp_path):
    job = sim_job(WORKLOAD, 2)
    store = ArtifactStore(tmp_path)
    trace = job_trace(job, store)  # generates and publishes
    assert store.contains_trace(job)
    loaded = store.load_trace(job)
    assert loaded is not None
    assert _api_replay(job, loaded) == _api_replay(job, trace)


def test_corrupt_trace_is_quarantined_and_regenerated(tmp_path):
    job = sim_job(WORKLOAD, 2)
    store = ArtifactStore(tmp_path)
    original = job_trace(job, store)
    path = store.trace_path(job)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    clear_trace_cache()
    assert store.load_trace(job) is None
    assert store.quarantined >= 1
    regenerated = job_trace(job, store)  # falls back to regeneration
    assert store.contains_trace(job)  # and republishes
    assert _api_replay(job, regenerated) == _api_replay(job, original)


def test_shards_share_one_trace_file(tmp_path):
    job = sim_job(WORKLOAD, 2)
    store = ArtifactStore(tmp_path)
    job_trace(job, store)
    for shard in job.shard(2):
        assert store.trace_path(shard) == store.trace_path(job)
        assert store.contains_trace(shard)
