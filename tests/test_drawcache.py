"""Tests for draw-level incremental simulation (:mod:`repro.farm.drawcache`).

The contract under test:

* draw/frame keys are stable across processes and ``--jobs`` widths, and
  sensitive to everything that changes a frame's simulation (bound state,
  seed, GPU config) while ignoring demo position and frame budget;
* incremental replay — cold or warm — is bit-identical to full
  re-simulation, on every engine family;
* stale records (per-draw key mismatch) are invalidated, records damaged
  in payload or header are quarantined, and the frame is re-simulated
  either way.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.farm import ArtifactStore, Farm, sim_job
from repro.farm.chaos import results_equal
from repro.farm.drawcache import (
    DrawCache,
    IncrementalReport,
    frame_keys,
    job_drawcache,
    opens_with_full_clear,
    run_trace_incremental,
)
from repro.farm.store import unseal, write_sealed
from repro.observe import metrics as obs_metrics
from repro.workloads import build_workload

WORKLOAD = "UT2004/Primeval"

#: One representative workload per engine family (Table I).
ENGINES = (
    "UT2004/Primeval",        # Unreal 2.5
    "Doom3/trdemo2",          # Doom3
    "Riddick/MainFrame",      # Starbreeze
    "FEAR/built-in demo",     # Monolith
    "Half Life 2 LC/built-in",  # Valve Source
    "Oblivion/Anvil Castle",  # Gamebryo
)

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _incremental_run(name: str, frames: int, store, keep_images: int = 0):
    """One incremental replay against ``store``; returns (result, cache)."""
    workload = build_workload(name, sim=True)
    sim = workload.simulator()
    cache = job_drawcache(sim_job(name, frames), store)
    result = run_trace_incremental(
        sim,
        workload.trace(frames=frames),
        cache,
        max_frames=frames,
        keep_images=keep_images,
    )
    return result, cache


def _full_run(name: str, frames: int, keep_images: int = 0):
    workload = build_workload(name, sim=True)
    sim = workload.simulator()
    return sim.run_trace(
        workload.trace(frames=frames),
        max_frames=frames,
        keep_images=keep_images,
    )


# -- key stability ----------------------------------------------------------


class TestKeys:
    def test_base_key_ignores_frame_budget_and_slice(self):
        assert (
            sim_job(WORKLOAD, 2).draw_base_key()
            == sim_job(WORKLOAD, 6).draw_base_key()
            == sim_job(WORKLOAD, 2).shard(2)[1].draw_base_key()
        )

    def test_base_key_changes_with_seed_and_config(self):
        from repro.gpu.config import GpuConfig

        base = sim_job(WORKLOAD, 2).draw_base_key()
        assert base != sim_job(WORKLOAD, 2, seed=123).draw_base_key()
        assert (
            base
            != sim_job(
                WORKLOAD, 2, config=GpuConfig(width=64, height=48)
            ).draw_base_key()
        )

    def test_frame_key_sensitive_to_bound_state(self):
        """Mutated bound state at frame entry must change every key."""
        workload = build_workload(WORKLOAD, sim=True)
        sim = workload.simulator()
        frame = next(iter(workload.trace(frames=1).frames()))
        base = sim_job(WORKLOAD, 1).draw_base_key()
        key_a, draws_a = frame_keys(base, sim.machine, frame)
        sim.machine.uniforms["__mutated"] = (1.0, 2.0, 3.0, 4.0)
        key_b, draws_b = frame_keys(base, sim.machine, frame)
        assert key_a != key_b
        assert draws_a != draws_b
        assert len(draws_a) == len(draws_b) > 0

    def test_keys_stable_across_processes(self, tmp_path):
        """A child interpreter derives the same base key and the same
        per-frame record set (file names are frame keys)."""
        code = (
            "import json, sys\n"
            "from repro.farm import ArtifactStore, sim_job\n"
            "from repro.farm.drawcache import job_drawcache, "
            "run_trace_incremental\n"
            "from repro.workloads import build_workload\n"
            f"store = ArtifactStore({str(tmp_path / 'child')!r})\n"
            f"job = sim_job({WORKLOAD!r}, 2)\n"
            f"wl = build_workload({WORKLOAD!r}, sim=True)\n"
            "sim = wl.simulator()\n"
            "run_trace_incremental(sim, wl.trace(frames=2), "
            "job_drawcache(job, store), max_frames=2)\n"
            "print(json.dumps({'base': job.draw_base_key(), 'records': "
            "sorted(p.stem for p in store.drawcache_dir.glob('*.pkl'))}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.strip().splitlines()[-1])

        store = ArtifactStore(tmp_path / "parent")
        _incremental_run(WORKLOAD, 2, store)
        assert child["base"] == sim_job(WORKLOAD, 2).draw_base_key()
        assert child["records"] == sorted(
            p.stem for p in store.drawcache_dir.glob("*.pkl")
        )
        assert len(child["records"]) == 2

    def test_keys_stable_across_jobs_widths(self, tmp_path):
        """Serial and frame-sharded farms chain identical frame keys and
        produce bit-identical results."""
        job = sim_job(WORKLOAD, 2)
        with Farm(
            store=ArtifactStore(tmp_path / "serial"),
            jobs=1,
            shard_frames=0,
            incremental=True,
        ) as farm:
            serial = farm.run_one(job)
        with Farm(
            store=ArtifactStore(tmp_path / "sharded"),
            jobs=2,
            shard_frames=2,
            incremental=True,
        ) as farm:
            sharded = farm.run_one(job)
        assert results_equal(serial, sharded)
        stems = lambda sub: sorted(  # noqa: E731
            p.stem
            for p in ArtifactStore(tmp_path / sub).drawcache_dir.glob("*.pkl")
        )
        assert stems("serial") == stems("sharded")
        assert len(stems("serial")) == 2


# -- reuse bit-identity -----------------------------------------------------


class TestReuseBitIdentity:
    @pytest.mark.parametrize("name", ENGINES)
    def test_cold_and_warm_match_full(self, name, tmp_path):
        store = ArtifactStore(tmp_path)
        full = _full_run(name, 2)
        cold, cold_cache = _incremental_run(name, 2, store)
        warm, warm_cache = _incremental_run(name, 2, store)
        assert results_equal(full, cold)
        assert results_equal(full, warm)
        assert (cold_cache.hits, cold_cache.misses) == (0, 2)
        assert (warm_cache.hits, warm_cache.misses) == (2, 0)
        assert warm_cache.hit_rate == 1.0

    def test_reuse_preserves_images(self, tmp_path):
        store = ArtifactStore(tmp_path)
        full = _full_run(WORKLOAD, 2, keep_images=2)
        cold, _ = _incremental_run(WORKLOAD, 2, store, keep_images=2)
        warm, warm_cache = _incremental_run(WORKLOAD, 2, store, keep_images=2)
        assert results_equal(full, cold)
        assert results_equal(full, warm)
        assert warm_cache.hits == 2

    def test_record_without_image_is_resimulated_when_needed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _incremental_run(WORKLOAD, 1, store, keep_images=0)
        full = _full_run(WORKLOAD, 1, keep_images=1)
        warm, warm_cache = _incremental_run(WORKLOAD, 1, store, keep_images=1)
        assert results_equal(full, warm)
        assert warm_cache.hits == 0  # image missing -> cannot reuse

    def test_report_and_metrics(self, tmp_path):
        obs_metrics.reset()
        store = ArtifactStore(tmp_path)
        _incremental_run(WORKLOAD, 2, store)
        workload = build_workload(WORKLOAD, sim=True)
        report = IncrementalReport()
        run_trace_incremental(
            workload.simulator(),
            workload.trace(frames=2),
            job_drawcache(sim_job(WORKLOAD, 2), store),
            max_frames=2,
            report=report,
        )
        assert report.frames_reused == 2
        assert report.frames_simulated == 0
        assert report.draws_reused > 0
        registry = obs_metrics.registry()
        assert registry.counter("drawcache.hits").value >= 2
        assert registry.counter("drawcache.misses").value >= 2


# -- invalidation and quarantine --------------------------------------------


class TestInvalidation:
    def _tamper_draw_keys(self, store) -> pathlib.Path:
        """Make one record stale-but-checksum-valid (mutated bound state)."""
        target = sorted(store.drawcache_dir.glob("*.pkl"))[0]
        header, payload = unseal(target.read_bytes())
        record = pickle.loads(payload)
        record.draw_keys = tuple("0" * 24 for _ in record.draw_keys)
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        write_sealed(target, header, blob)  # resealed: the checksum holds
        return target

    def test_stale_record_invalidated_and_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        full = _full_run(WORKLOAD, 1)
        _incremental_run(WORKLOAD, 1, store)
        target = self._tamper_draw_keys(store)
        warm, cache = _incremental_run(WORKLOAD, 1, store)
        assert results_equal(full, warm)
        assert cache.invalidations == 1
        assert (cache.hits, cache.misses) == (0, 1)
        assert any(
            p.name == target.name for p in store.quarantined_files()
        )

    def test_truncated_record_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        full = _full_run(WORKLOAD, 1)
        _incremental_run(WORKLOAD, 1, store)
        target = sorted(store.drawcache_dir.glob("*.pkl"))[0]
        target.write_bytes(target.read_bytes()[:32])
        warm, cache = _incremental_run(WORKLOAD, 1, store)
        assert results_equal(full, warm)
        assert cache.invalidations == 1
        assert any(
            p.name == target.name for p in store.quarantined_files()
        )

    def test_truncated_sidecar_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _incremental_run(WORKLOAD, 1, store)
        target = sorted(store.drawcache_dir.glob("*.pkl"))[0]
        data = target.read_bytes()
        header_end = data.index(b"\n", 65)
        target.write_bytes(data[:70] + data[header_end:])  # header cut short
        cache = job_drawcache(sim_job(WORKLOAD, 1), store)
        assert cache.load(target.stem) is None
        assert cache.invalidations == 1
        assert store.quarantined >= 1

    def test_base_key_scopes_lookups(self, tmp_path):
        """A record saved under another base fingerprint never matches."""
        store = ArtifactStore(tmp_path)
        _, cold_cache = _incremental_run(WORKLOAD, 1, store)
        frame_key = sorted(store.drawcache_dir.glob("*.pkl"))[0].stem
        foreign = DrawCache(store, "f" * 24)
        assert foreign.load(frame_key) is None
        assert foreign.invalidations == 1

    def test_memory_only_cache_reuses_in_process(self):
        workload = build_workload(WORKLOAD, sim=True)
        cache = DrawCache(None, sim_job(WORKLOAD, 1).draw_base_key())
        full = _full_run(WORKLOAD, 1)
        first = run_trace_incremental(
            workload.simulator(),
            workload.trace(frames=1),
            cache,
            max_frames=1,
        )
        second = run_trace_incremental(
            workload.simulator(),
            workload.trace(frames=1),
            cache,
            max_frames=1,
        )
        assert results_equal(full, first)
        assert results_equal(full, second)
        assert (cache.hits, cache.misses) == (1, 1)


# -- structural helpers ------------------------------------------------------


class TestStructure:
    def test_generated_frames_open_with_full_clear(self):
        workload = build_workload(WORKLOAD, sim=True)
        for frame in workload.trace(frames=2).frames():
            assert opens_with_full_clear(frame)

    def test_client_and_server_protocol_versions_locked(self):
        from repro.serve.client import PROTOCOL_VERSION
        from repro.serve.protocol import VERSION

        assert PROTOCOL_VERSION == VERSION
