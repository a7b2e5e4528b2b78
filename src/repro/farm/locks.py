"""Cross-process coordination: advisory file locks and deterministic backoff.

One ``.repro-cache`` directory is routinely shared by several processes —
a ``repro serve`` instance and a CLI run, two serve instances behind a
port, pool workers persisting shards while the parent evicts over quota.
Every store entry is one file written atomically (temp file +
``os.replace``), but *multi-file* critical sections are not: LRU eviction
reads recency then unlinks a family, quarantine moves a file aside and
appends to ``REASONS.log``, the serve journal appends lifecycle records.
Interleaving two of those can evict a family another process just touched
or tear a journal line.

:class:`FileLock` wraps those sections in an advisory ``fcntl.flock``
exclusive lock on a dedicated lock file (the locked files themselves are
never opened for locking — they get renamed and deleted, which would
silently detach an fd-based lock).  Advisory means every writer must opt
in, which all store/journal paths now do; readers stay lock-free because
atomic replace already gives them a consistent view of any single file.

**Lock hierarchy** (acquire strictly in this order, outermost first)::

    journal  >  store

A holder of ``store`` must never acquire ``journal``: journal code may
take ``store`` (via quarantine) while holding ``journal``, but store
maintenance never reaches back into the journal, which makes the pairing
deadlock-free by construction.

On platforms without ``fcntl`` the lock degrades to a process-local
:class:`threading.Lock` — single-process correctness is preserved and the
cross-process guarantee is documented as best-effort there.

The module also hosts :func:`backoff_delay`, the farm's capped exponential
backoff with deterministic jitter.  It lived inline in the executor's
retry loop; the serve client's connect/submit retry and the journal's
lock acquisition want the identical policy, so it is shared from here
(stdlib-only, like :mod:`repro.farm.faults`, to stay import-cycle free).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

try:  # pragma: no cover - always present on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Whether real cross-process locking is available on this platform.
HAVE_FLOCK = fcntl is not None


class LockTimeout(OSError):
    """The lock could not be acquired within the caller's deadline."""


def backoff_delay(
    attempt: int,
    base: float = 0.05,
    cap: float = 2.0,
    seed_text: str = "",
) -> float:
    """Capped exponential backoff with deterministic jitter, in seconds.

    ``attempt`` counts from 1.  The jitter factor (0.5x-1.5x) is drawn from
    a SHA-256 of ``seed_text``, so a given retry sequence always waits the
    same amounts — reruns stay reproducible — while distinct callers (two
    clients, two batches) still desynchronize instead of thundering back
    in lock-step.
    """
    if base <= 0:
        return 0.0
    delay = min(cap, base * (2 ** (max(1, attempt) - 1)))
    digest = int(hashlib.sha256(seed_text.encode()).hexdigest()[:8], 16)
    return delay * (0.5 + (digest % 1000) / 1000.0)


class FileLock:
    """An advisory exclusive lock on ``path`` (context manager).

    The lock file is created on first use and never deleted (deleting a
    lock file while another process holds its fd reintroduces the race the
    lock exists to close).  Not reentrant: acquiring a held instance
    raises.  ``timeout=None`` blocks indefinitely; a number raises
    :class:`LockTimeout` after that many seconds.
    """

    def __init__(self, path, timeout: float | None = 30.0):
        self.path = os.fspath(path)
        self.timeout = timeout
        self._fd: int | None = None
        #: Serializes threads of this process on one instance; cross-process
        #: exclusion is the flock itself (per-fd, so two instances in one
        #: process also exclude each other through the kernel).
        self._thread_lock = threading.Lock()

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "FileLock":
        if not self._thread_lock.acquire(
            timeout=-1 if self.timeout is None else self.timeout
        ):
            raise LockTimeout(f"lock {self.path} busy in-process")
        fd = None
        try:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            if fcntl is not None:
                deadline = (
                    None
                    if self.timeout is None
                    else time.monotonic() + self.timeout
                )
                attempt = 0
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        attempt += 1
                        if (
                            deadline is not None
                            and time.monotonic() >= deadline
                        ):
                            raise LockTimeout(
                                f"lock {self.path} not acquired within "
                                f"{self.timeout:g}s"
                            ) from None
                        time.sleep(
                            min(
                                0.1,
                                backoff_delay(
                                    attempt, 0.002, 0.05, self.path
                                ),
                            )
                        )
            self._fd = fd
            return self
        except BaseException:
            if fd is not None:
                os.close(fd)
            self._thread_lock.release()
            raise

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
            self._thread_lock.release()

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *_exc) -> None:
        self.release()
