"""Persistent, content-addressed artifact store for measurement results.

Layout under the cache root (``.repro-cache/`` by default,
``REPRO_CACHE_DIR`` override)::

    artifacts/<key>.pkl        WorkloadApiStats / SimulationResult
    checkpoints/<key>.ckpt     SimulationResult of a sim/geometry job's
                               finished frames, while it runs
    traces/<tkey>.pkl          generated API trace, shared by every job and
                               frame shard that replays the same timedemo
    quarantine/                damaged files moved aside, never reused

Every entry is one sealed file (:func:`write_sealed`): a SHA-256 line over
the rest of the file, a JSON header line, then the pickled payload.  Writes
are atomic (temp file + ``os.replace``), so a killed process never leaves a
half-written entry, and keys embed the full invalidation surface (see
:meth:`repro.farm.job.JobSpec.key`, which hashes the ``repro`` sources),
so a load either returns the exact result the job would recompute or
nothing.

Loads trust nothing: :meth:`ArtifactStore.read_entry` checks the seal,
decodes under a guard that catches the whole family of exceptions
truncated or garbage bytes can raise, and artifacts are passed through
:func:`repro.farm.invariants.validate_result`.  An entry that fails is
moved into ``quarantine/`` (with the reason logged) and reported as a miss
— corruption is preserved as evidence and recomputed around, never
silently reused and never silently deleted.

The store is a cache, not a transport: workers save every result here
before returning it in their :class:`~repro.farm.executor.JobOutcome`, so
a crash or a rerun never redoes finished work.  A ``<key>.spans`` file an
older store left is inert: nothing reads it, the quota counts it in its
artifact's family, and eviction or :meth:`ArtifactStore.clear` removes it.

Capacity is managed by :meth:`ArtifactStore.enforce_quota`: artifacts
and traces are evicted least-recently-used first (recency = the entry's
own mtime, refreshed on every artifact load hit) until the store fits a
byte budget, skipping pinned keys and never touching checkpoints or
``quarantine/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import time
from typing import Any, Callable

from repro.farm import faults
from repro.farm.invariants import validate_result
from repro.farm.job import JobSpec
from repro.farm.locks import FileLock, LockTimeout
from repro.farm.version import code_version

#: Default cache directory name, relative to the current working directory.
DEFAULT_DIRNAME = ".repro-cache"

#: Store directories the quota counts: everything regenerable.  In-flight
#: checkpoints and quarantined evidence are never evicted.
QUOTA_DIRS = ("artifacts", "traces")

#: Suffix of a write in flight (:func:`_atomic_write`).  Such a file is
#: another writer's, about to be renamed into place: the quota neither
#: counts nor evicts it.
TEMP_SUFFIX = ".tmp"

#: Everything unpickling truncated/garbage/foreign bytes is known to raise.
#: ``MemoryError`` belongs here: a corrupted length prefix can demand an
#: absurd allocation long before any opcode fails to parse.
UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ValueError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    MemoryError,
    UnicodeDecodeError,
)


def default_cache_dir() -> pathlib.Path:
    """Resolve the cache root: ``REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    return pathlib.Path(override) if override else pathlib.Path(DEFAULT_DIRNAME)


def _atomic_write(path: pathlib.Path, *parts: bytes) -> None:
    """Write ``parts`` back to back into ``path`` with one ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=TEMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_sealed(path: pathlib.Path, header: dict, payload: bytes) -> None:
    """Atomically write one store entry: seal line, header line, payload.

    The seal is the SHA-256 of everything after it, so damage anywhere —
    header or payload — is caught by :func:`unseal`.  The parts are written
    separately: a multi-megabyte payload is never copied to be sealed.
    """
    head = json.dumps(header, sort_keys=True).encode() + b"\n"
    digest = hashlib.sha256(head)
    digest.update(payload)
    _atomic_write(path, digest.hexdigest().encode() + b"\n", head, payload)


def unseal(data: bytes) -> tuple[dict, memoryview]:
    """``(header, payload)`` of a sealed entry; ``ValueError`` if damaged.

    The payload is a view into ``data``, not a copy.
    """
    view = memoryview(data)
    expected = bytes(view[:64]).decode("ascii", "replace")
    actual = hashlib.sha256(view[65:]).hexdigest()
    if actual != expected:
        raise ValueError(
            f"checksum mismatch ({actual[:12]} != {expected[:12]})"
        )
    end = data.find(b"\n", 65)
    header = json.loads(bytes(view[65:end])) if end > 0 else None
    if not isinstance(header, dict):
        raise ValueError("sealed entry has no header")
    return header, view[end + 1 :]


def _read_header(path: pathlib.Path) -> dict:
    """The JSON header of a sealed file, unverified (listings, metadata)."""
    try:
        with open(path, "rb") as handle:
            handle.readline(65)
            header = json.loads(handle.readline())
    except (OSError, ValueError):
        return {}
    return header if isinstance(header, dict) else {}


def _unpickle(header: dict, payload: memoryview) -> Any:
    return pickle.loads(payload)


class ArtifactStore:
    """Disk cache keyed by job content hash, with hit/miss accounting."""

    def __init__(self, root: pathlib.Path | str | None = None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # -- paths ----------------------------------------------------------
    @property
    def artifact_dir(self) -> pathlib.Path:
        return self.root / "artifacts"

    @property
    def checkpoint_dir(self) -> pathlib.Path:
        return self.root / "checkpoints"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / "quarantine"

    @property
    def trace_dir(self) -> pathlib.Path:
        return self.root / "traces"

    def artifact_path(self, job: JobSpec) -> pathlib.Path:
        return self.artifact_dir / f"{job.key()}.pkl"

    def trace_path(self, job: JobSpec) -> pathlib.Path:
        return self.trace_dir / f"{job.trace_key()}.pkl"

    def checkpoint_path(self, job: JobSpec) -> pathlib.Path:
        return self.checkpoint_dir / f"{job.key()}.ckpt"

    # -- cross-process locking ------------------------------------------
    def lock(self, name: str = "store", timeout: float | None = 30.0) -> FileLock:
        """An advisory cross-process lock scoped to this store.

        One ``.repro-cache`` is routinely shared by a serve instance and
        CLI runs; multi-file critical sections (quota eviction, quarantine
        moves, journal appends) take one of these so they never interleave
        across processes.  ``name`` selects the lock file (``journal`` >
        ``store`` in acquisition order — see :mod:`repro.farm.locks` for
        the hierarchy rules).
        """
        return FileLock(self.root / "locks" / f"{name}.lock", timeout=timeout)

    # -- quarantine ------------------------------------------------------
    def quarantine(self, paths: list[pathlib.Path], reason: str) -> None:
        """Move corrupt files aside so they are never loaded again.

        Best effort by design: on an unwritable volume the files cannot be
        moved *or* deleted, but the caller already treats them as a miss,
        and the seal check will reject them again next time.  The store
        lock keeps the move + ``REASONS.log`` append atomic against
        concurrent eviction in another process — but a lock that cannot be
        acquired never blocks the quarantine itself.
        """
        self.quarantined += 1
        guard: FileLock | None = self.lock("store", timeout=5.0)
        try:
            guard.acquire()
        except OSError:
            guard = None  # quarantine must proceed regardless
        try:
            names = [p.name for p in paths if p.exists()]
            try:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            except OSError:
                return
            for path in paths:
                try:
                    if path.exists():
                        os.replace(path, self.quarantine_dir / path.name)
                except OSError:
                    pass
            try:
                with (self.quarantine_dir / "REASONS.log").open("a") as log:
                    log.write(
                        f"{time.time():.0f} {','.join(names) or '?'}: {reason}\n"
                    )
            except OSError:
                pass
        finally:
            if guard is not None:
                guard.release()

    def quarantined_files(self) -> list[pathlib.Path]:
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(
            p for p in self.quarantine_dir.iterdir() if p.name != "REASONS.log"
        )

    # -- sealed entries --------------------------------------------------
    def read_entry(
        self,
        path: pathlib.Path,
        decode: Callable[[dict, memoryview], Any],
        what: str,
        reject: Callable[[str], None] | None = None,
    ) -> Any | None:
        """Read, unseal and decode the entry at ``path``; ``None`` if absent.

        ``decode(header, payload)`` turns the verified parts into a value
        and raises one of :data:`UNPICKLE_ERRORS` (usually ``ValueError``)
        to refuse them.  A damaged or refused entry is read as a miss and
        handed to ``reject`` with the reason; by default that one file is
        quarantined.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return decode(*unseal(data))
        except UNPICKLE_ERRORS as exc:
            reason = f"{what} rejected ({type(exc).__name__}: {exc})"
            if reject is None:
                self.quarantine([path], reason)
            else:
                reject(reason)
            return None

    # -- artifacts ------------------------------------------------------
    def _read_meta(self, job: JobSpec) -> dict:
        """The stored artifact's header (``sha256`` digests its pickle)."""
        return _read_header(self.artifact_path(job))

    def load(self, job: JobSpec, validate: bool = True) -> Any | None:
        """The stored result for ``job``, or ``None`` on miss/corruption.

        Corrupt or invariant-violating artifacts are quarantined (see
        :meth:`quarantine`) — a bad artifact is never returned and never
        left in place to be trusted by a later load.
        """

        def decode(header: dict, payload: memoryview) -> Any:
            result = pickle.loads(payload)
            violations = validate_result(job, result) if validate else []
            if violations:
                raise ValueError("invariant violation: " + "; ".join(violations))
            return result

        path = self.artifact_path(job)
        result = self.read_entry(path, decode, f"artifact for {job.describe()}")
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # LRU recency
        except OSError:
            pass
        return result

    def save(self, job: JobSpec, result: Any, wall_s: float | None = None) -> None:
        faults.check_writable(f"artifact:{job.describe()}")
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "key": job.key(),
            "kind": job.kind,
            "workload": job.workload,
            "frames": job.frames,
            "seed": job.seed,
            "wall_s": wall_s,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "code": code_version(),
            "created": time.time(),
        }
        path = self.artifact_path(job)
        write_sealed(path, header, blob)
        faults.corrupt_file("corrupt_artifact", path, job.describe())

    def contains(self, job: JobSpec) -> bool:
        return self.artifact_path(job).exists()

    # -- checkpoints ----------------------------------------------------
    def load_checkpoint(self, job: JobSpec) -> Any | None:
        """The result of ``job``'s finished frames, or ``None``.

        A corrupt checkpoint is quarantined and the caller restarts from
        the job's first frame (which is always correct, just slower).
        """
        return self.read_entry(
            self.checkpoint_path(job), _unpickle, f"checkpoint for {job.describe()}"
        )

    def save_checkpoint(self, job: JobSpec, state: Any) -> None:
        faults.check_writable(f"checkpoint:{job.describe()}")
        path = self.checkpoint_path(job)
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        write_sealed(path, {"key": job.key(), "created": time.time()}, blob)
        faults.corrupt_file("corrupt_checkpoint", path, job.describe())

    def clear_checkpoint(self, job: JobSpec) -> None:
        try:
            self.checkpoint_path(job).unlink()
        except OSError:
            pass

    # -- shared traces --------------------------------------------------
    def load_trace(self, job: JobSpec):
        """The stored timedemo this job replays a slice of, or ``None``.

        Keyed by :meth:`repro.farm.job.JobSpec.trace_key`, so every frame
        shard of a run — and every kind sharing a profile — resolves to
        the same file.  Verified and quarantined like artifacts.
        """
        return self.read_entry(
            self.trace_path(job), _unpickle, f"trace for {job.describe()}"
        )

    def save_trace(self, job: JobSpec, trace) -> None:
        """Persist a generated timedemo for other workers/shards to replay."""
        faults.check_writable(f"trace:{job.describe()}")
        path = self.trace_path(job)
        header = {
            "workload": job.workload,
            "frames": trace.meta.frame_count,
            "created": time.time(),
        }
        blob = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
        write_sealed(path, header, blob)
        faults.corrupt_file("corrupt_trace", path, job.describe())

    def contains_trace(self, job: JobSpec) -> bool:
        return self.trace_path(job).exists()

    # -- inspection / maintenance ---------------------------------------
    def entries(self) -> list[dict]:
        """The header of every stored artifact, newest first."""
        metas: list[dict] = []
        if not self.artifact_dir.is_dir():
            return metas
        for path in self.artifact_dir.glob("*.pkl"):
            meta = _read_header(path)
            if "key" not in meta:
                continue  # not a sealed artifact (an older store layout)
            try:
                meta["bytes"] = path.stat().st_size
            except OSError:
                continue
            metas.append(meta)
        metas.sort(key=lambda m: m.get("created") or 0, reverse=True)
        return metas

    def checkpoints(self) -> list[pathlib.Path]:
        if not self.checkpoint_dir.is_dir():
            return []
        return sorted(self.checkpoint_dir.glob("*.ckpt"))

    def total_bytes(self) -> int:
        """Bytes the quota counts: artifacts and traces."""
        return sum(f["bytes"] for f in self.families())

    # -- quota / LRU eviction -------------------------------------------
    def families(self) -> list[dict]:
        """Every evictable family, least-recently-used first.

        A *family* is the files of one directory under :data:`QUOTA_DIRS`
        that share a stem (everything before the first dot): an artifact,
        one trace — and files an older store layout left under the same
        key (a ``.json`` meta sidecar, a ``.spans`` span buffer).  Recency
        is the newest member's mtime, written at save time and refreshed on
        every artifact load, so sorting by it is LRU order.  Quarantined
        files are not families — they are evidence, never candidates for
        reuse *or* eviction.  Nor is a write in flight (a
        :data:`TEMP_SUFFIX` file): evicting it would make its writer's
        rename fail.  A temp file that a killed writer left behind is
        reclaimed by :meth:`clear`.
        """
        groups: dict[tuple[str, str], list[pathlib.Path]] = {}
        for name in QUOTA_DIRS:
            directory = self.root / name
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                if path.name.endswith(TEMP_SUFFIX):
                    continue
                stem = path.name.split(".", 1)[0]
                groups.setdefault((name, stem), []).append(path)
        families = []
        for (_, key), paths in groups.items():
            try:
                stats = [path.stat() for path in paths]
            except OSError:
                continue
            families.append(
                {
                    "key": key,
                    "paths": paths,
                    "bytes": sum(st.st_size for st in stats),
                    "last_used": max(st.st_mtime for st in stats),
                }
            )
        families.sort(key=lambda f: (f["last_used"], f["key"]))
        return families

    def enforce_quota(
        self, max_bytes: int, pinned: frozenset | set | tuple = ()
    ) -> list[str]:
        """Evict least-recently-used families down to ``max_bytes``.

        Families whose key is in ``pinned`` (e.g. jobs a serve instance
        still has queued, running, or published) are never evicted, and the
        quarantine directory is never touched — a quarantined file stays
        quarantined.  Eviction *deletes* (it is reclaiming space from valid
        entries, not preserving evidence).  Returns the evicted keys.

        Runs under the store lock, and re-checks each family's recency
        immediately before unlinking: recency is read from mtimes when
        the candidate list is built, so without the re-check a concurrent
        load could touch a family *after* it was selected and still lose it
        — the classic check-then-act race.  A family whose mtime moved
        past the snapshot is skipped this round (it is recently used now).
        If the lock cannot be acquired another process is already managing
        the quota; this call backs off and evicts nothing.
        """
        pinned = set(pinned)
        try:
            guard = self.lock("store").acquire()
        except LockTimeout:
            return []
        try:
            families = self.families()
            total = sum(f["bytes"] for f in families)
            evicted: list[str] = []
            for family in families:
                if total <= max_bytes:
                    break
                if family["key"] in pinned:
                    continue
                try:
                    used = max(p.stat().st_mtime for p in family["paths"])
                    if used > family["last_used"]:
                        continue  # touched since the snapshot: now recent
                except OSError:
                    pass  # partly gone already; reclaim the leftovers
                for path in family["paths"]:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                total -= family["bytes"]
                evicted.append(family["key"])
            return evicted
        finally:
            guard.release()

    def clear(self) -> int:
        """Delete every stored entry, checkpoint, and quarantined file."""
        removed = 0
        for directory in (
            self.artifact_dir,
            self.checkpoint_dir,
            self.trace_dir,
            self.quarantine_dir,
        ):
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
