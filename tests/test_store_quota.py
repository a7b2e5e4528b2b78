"""Artifact-store quota: LRU eviction order, pinning, quarantine safety.

The serve layer runs the store as a bounded cache
(:meth:`ArtifactStore.enforce_quota`); these tests pin the properties
that make that safe: recency is updated on use (so eviction is true
LRU), in-flight / published jobs can be pinned and are never evicted, the
bound covers traces as well as artifacts, and quarantined files —
evidence of corruption — are neither counted as evictable families,
deleted by quota churn, nor resurrected as cache hits.
"""

import os
import pickle
import types

from repro.farm import ArtifactStore, JobSpec
from repro.farm.store import QUOTA_DIRS

WORKLOAD = "UT2004/Primeval"


def _job(seed: int) -> JobSpec:
    return JobSpec("api", WORKLOAD, 2, seed=seed)


def _save(store: ArtifactStore, seed: int, mtime: float) -> JobSpec:
    """One stored family with a controlled last-used time."""
    job = _job(seed)
    store.save(job, f"payload-{seed}" * 64)
    os.utime(store.artifact_path(job), (mtime, mtime))
    return job


class TestFamilies:
    def test_families_sorted_lru_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        newest = _save(store, 1, mtime=3_000)
        oldest = _save(store, 2, mtime=1_000)
        middle = _save(store, 3, mtime=2_000)
        keys = [f["key"] for f in store.families()]
        assert keys == [oldest.key(), middle.key(), newest.key()]

    def test_family_bytes_cover_all_members(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _save(store, 1, mtime=1_000)
        # A meta sidecar an older store layout left under the same key.
        leftover = store.artifact_dir / f"{job.key()}.json"
        leftover.write_text('{"sha256": "0"}')
        (family,) = store.families()
        expected = sum(
            p.stat().st_size for p in (store.artifact_path(job), leftover)
        )
        assert family["bytes"] == expected

    def test_load_refreshes_recency(self, tmp_path):
        """A cache hit moves the family to the MRU end — true LRU."""
        store = ArtifactStore(tmp_path)
        first = _save(store, 1, mtime=1_000)
        second = _save(store, 2, mtime=2_000)
        assert store.load(first) is not None  # touch: first is now MRU
        keys = [f["key"] for f in store.families()]
        assert keys == [second.key(), first.key()]


class TestEnforceQuota:
    def test_evicts_lru_first_until_under_quota(self, tmp_path):
        store = ArtifactStore(tmp_path)
        oldest = _save(store, 1, mtime=1_000)
        middle = _save(store, 2, mtime=2_000)
        newest = _save(store, 3, mtime=3_000)
        families = {f["key"]: f["bytes"] for f in store.families()}
        total = sum(families.values())
        # Quota that exactly one eviction (the LRU family) satisfies.
        evicted = store.enforce_quota(total - families[oldest.key()])
        assert evicted == [oldest.key()]
        assert not store.contains(oldest)
        assert store.contains(middle) and store.contains(newest)
        # Eviction removes the whole family.
        assert not list(store.artifact_dir.glob(f"{oldest.key()}.*"))

    def test_no_eviction_under_quota(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _save(store, 1, mtime=1_000)
        total = sum(f["bytes"] for f in store.families())
        assert store.enforce_quota(total) == []

    def test_pinned_families_survive(self, tmp_path):
        """In-flight jobs are pinned: quota walks past them, LRU or not."""
        store = ArtifactStore(tmp_path)
        pinned = _save(store, 1, mtime=1_000)  # oldest AND pinned
        victim = _save(store, 2, mtime=2_000)
        _keep = _save(store, 3, mtime=3_000)
        families = {f["key"]: f["bytes"] for f in store.families()}
        total = sum(families.values())
        evicted = store.enforce_quota(
            total - families[victim.key()], pinned={pinned.key()}
        )
        assert evicted == [victim.key()]
        assert store.contains(pinned)

    def test_quota_zero_clears_all_unpinned(self, tmp_path):
        store = ArtifactStore(tmp_path)
        jobs = [_save(store, seed, mtime=1_000 + seed) for seed in range(3)]
        evicted = store.enforce_quota(0)
        assert sorted(evicted) == sorted(j.key() for j in jobs)
        assert store.families() == []


def _stored_bytes(store: ArtifactStore) -> int:
    return sum(
        path.stat().st_size
        for name in QUOTA_DIRS
        if (store.root / name).is_dir()
        for path in (store.root / name).iterdir()
    )


class TestWholeStoreQuota:
    def test_quota_bounds_traces(self, tmp_path):
        """Traces count and are never pinned; in-flight checkpoints are
        left alone."""
        store = ArtifactStore(tmp_path)
        jobs = [_save(store, seed, mtime=2_000 + seed) for seed in range(3)]
        for seed, job in enumerate(jobs):
            trace = types.SimpleNamespace(
                meta=types.SimpleNamespace(frame_count=2), calls=b"t" * 50_000
            )
            store.save_trace(job, trace)
            os.utime(store.trace_path(job), (1_000 + seed, 1_000 + seed))
        store.save_checkpoint(jobs[0], {"frame": 1})
        max_bytes = sum(
            store.artifact_path(job).stat().st_size for job in jobs
        ) + 30_000
        assert _stored_bytes(store) > max_bytes

        evicted = store.enforce_quota(max_bytes, pinned={j.key() for j in jobs})
        assert evicted
        assert _stored_bytes(store) <= max_bytes
        assert all(store.contains(job) for job in jobs)  # pinned
        assert not any(store.contains_trace(job) for job in jobs)  # LRU
        assert store.load_checkpoint(jobs[0]) == {"frame": 1}

    def test_older_layout_files_are_families_but_not_entries(self, tmp_path):
        """Files an older store layout left (a bare pickle plus a JSON
        sidecar) are listed by nothing, but the quota still evicts them."""
        store = ArtifactStore(tmp_path)
        store.artifact_dir.mkdir(parents=True)
        (store.artifact_dir / "old.pkl").write_bytes(pickle.dumps("stale"))
        (store.artifact_dir / "old.json").write_text('{"sha256": "0"}')
        assert store.entries() == []
        (family,) = store.families()
        assert family["key"] == "old" and len(family["paths"]) == 2
        assert store.enforce_quota(0) == ["old"]
        assert not any(store.artifact_dir.iterdir())


class TestQuarantineSafety:
    def _quarantine(self, store: ArtifactStore, job: JobSpec) -> None:
        blob = bytearray(store.artifact_path(job).read_bytes())
        blob[len(blob) // 2] ^= 0x40
        store.artifact_path(job).write_bytes(bytes(blob))
        assert store.load(job) is None  # corruption detected → quarantined

    def test_quarantined_family_is_not_a_family(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _save(store, 1, mtime=1_000)
        self._quarantine(store, job)
        assert store.families() == []
        assert store.quarantined_files()

    def test_enforce_quota_never_touches_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path)
        bad = _save(store, 1, mtime=1_000)
        self._quarantine(store, bad)
        _save(store, 2, mtime=2_000)
        before = {p.name for p in store.quarantined_files()}
        store.enforce_quota(0)
        assert {p.name for p in store.quarantined_files()} == before

    def test_quarantined_family_never_resurrected(self, tmp_path):
        """After quarantine the key stays a miss; quota churn can't bring
        the corrupt bytes back."""
        store = ArtifactStore(tmp_path)
        job = _save(store, 1, mtime=1_000)
        self._quarantine(store, job)
        store.enforce_quota(0)
        assert not store.contains(job)
        assert store.load(job) is None
        # A fresh save of the same spec is a brand-new family, loadable
        # again — quarantine blocks the corrupt bytes, not the key.
        store.save(job, "clean payload")
        assert store.load(job) == "clean payload"
