"""Cross-process store locking: FileLock semantics, shared backoff, TOCTOU.

The farm and serve layers share one artifact store across processes (CLI
runs, serve lanes, chaos subprocesses); these tests pin the locking
primitives that make that safe — mutual exclusion in and across
processes, the deterministic backoff both executor retry and lock spin
use, and the quota enforcer's re-check-under-lock that closes its
check-then-unlink race.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.farm import ArtifactStore, JobSpec
from repro.farm.locks import FileLock, LockTimeout, backoff_delay

WORKLOAD = "UT2004/Primeval"
SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _save(store: ArtifactStore, seed: int, mtime: float) -> JobSpec:
    job = JobSpec("api", WORKLOAD, 2, seed=seed)
    store.save(job, f"payload-{seed}" * 64)
    os.utime(store.artifact_path(job), (mtime, mtime))
    return job


class TestBackoffDelay:
    def test_deterministic_for_a_seed(self):
        assert backoff_delay(3, 0.05, 2.0, "job-a#3") == backoff_delay(
            3, 0.05, 2.0, "job-a#3"
        )
        assert backoff_delay(3, 0.05, 2.0, "job-a#3") != backoff_delay(
            3, 0.05, 2.0, "job-b#3"
        )

    def test_matches_the_documented_formula(self):
        for attempt, seed in ((1, "x"), (4, "retry#4"), (9, "")):
            jitter = 0.5 + (
                int(hashlib.sha256(seed.encode()).hexdigest()[:8], 16) % 1000
            ) / 1000.0
            expected = min(2.0, 0.05 * 2 ** (attempt - 1)) * jitter
            assert backoff_delay(attempt, 0.05, 2.0, seed) == pytest.approx(
                expected
            )

    def test_grows_then_caps(self):
        delays = [backoff_delay(n, 0.05, 2.0, "s") for n in range(1, 16)]
        assert all(d <= 2.0 * 1.5 for d in delays)
        assert delays[-1] == delays[-2]  # hit the cap

    def test_zero_base_disables_backoff(self):
        assert backoff_delay(5, 0.0, 2.0, "s") == 0.0


class TestFileLock:
    def test_mutual_exclusion_between_instances(self, tmp_path):
        path = tmp_path / "locks" / "t.lock"
        first = FileLock(path)
        first.acquire()
        second = FileLock(path, timeout=0.2)
        with pytest.raises(LockTimeout):
            second.acquire()
        first.release()
        with second:
            assert second.held
        assert not second.held

    def test_lock_timeout_is_an_oserror(self):
        # Callers' existing ``except OSError`` degradation paths must
        # swallow lock contention the same way they swallow disk errors.
        assert issubclass(LockTimeout, OSError)

    def test_exclusion_across_processes(self, tmp_path):
        path = tmp_path / "locks" / "x.lock"
        holder = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from repro.farm.locks import FileLock\n"
                "FileLock(sys.argv[2], timeout=5).acquire()\n"
                "print('held', flush=True)\n"
                "time.sleep(1.5)\n",
                SRC_ROOT, str(path),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            with pytest.raises(LockTimeout):
                FileLock(path, timeout=0.2).acquire()
            # The holder exits (releasing the flock with its fd); the
            # lock then becomes acquirable well within the spin timeout.
            lock = FileLock(path, timeout=10.0)
            lock.acquire()
            lock.release()
        finally:
            holder.kill()
            holder.wait(timeout=10)


class TestQuotaRaces:
    def test_eviction_skips_families_touched_after_snapshot(
        self, tmp_path, monkeypatch
    ):
        """The TOCTOU re-check: a concurrent cache hit saves its family.

        ``enforce_quota`` snapshots recency, then deletes.  A family whose
        mtime advanced past the snapshot was used *after* it — the
        stale snapshot must not evict what is now the most recent entry.
        """
        store = ArtifactStore(tmp_path)
        touched = _save(store, 1, mtime=1_000)  # snapshot says LRU
        other = _save(store, 2, mtime=2_000)
        stale = store.families()
        os.utime(store.artifact_path(touched), None)  # concurrent cache hit
        monkeypatch.setattr(store, "families", lambda: stale)

        evicted = store.enforce_quota(0)
        assert touched.key() not in evicted
        assert store.contains(touched)
        assert evicted == [other.key()]

    def test_eviction_yields_to_a_busy_store_lock(self, tmp_path, monkeypatch):
        """Another process mid-eviction: this one backs off empty-handed."""
        store = ArtifactStore(tmp_path)
        _save(store, 1, mtime=1_000)
        monkeypatch.setattr(
            store, "lock",
            lambda name="store", timeout=30.0: FileLock(
                store.root / "locks" / f"{name}.lock", timeout=0.1
            ),
        )
        holder = FileLock(tmp_path / "locks" / "store.lock")
        holder.acquire()
        try:
            assert store.enforce_quota(0) == []
            assert len(store.families()) == 1
        finally:
            holder.release()

    def test_concurrent_processes_never_evict_pinned(self, tmp_path):
        """Several processes churning one store: the pinned key survives."""
        store = ArtifactStore(tmp_path)
        pinned = JobSpec("api", WORKLOAD, 2, seed=0)
        store.save(pinned, "pinned" * 256)
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.farm import ArtifactStore, JobSpec\n"
            "store = ArtifactStore(sys.argv[2])\n"
            "base = int(sys.argv[3]) * 100\n"
            "pinned = JobSpec('api', 'UT2004/Primeval', 2, seed=0)\n"
            "for i in range(6):\n"
            "    job = JobSpec('api', 'UT2004/Primeval', 2, seed=base + i + 1)\n"
            "    store.save(job, 'x' * 2048)\n"
            "    store.enforce_quota(4096, {pinned.key()})\n"
            "    assert store.load(pinned) is not None\n"
            "print('ok')\n"
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, SRC_ROOT, str(tmp_path),
                 str(index)],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for index in range(3)
        ]
        for worker in workers:
            out, _ = worker.communicate(timeout=120)
            assert worker.returncode == 0, out
            assert out.strip().endswith("ok"), out
        assert store.contains(pinned)
        assert store.load(pinned) is not None
