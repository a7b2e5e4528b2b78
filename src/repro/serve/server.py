"""The characterization service: HTTP + WebSocket front-end over the farm.

Architecture (one process, three kinds of execution context):

* the **asyncio event loop** owns all service state — the
  :class:`~repro.serve.scheduler.FairScheduler`, the job registry, every
  WebSocket subscriber queue, the lane/watchdog bookkeeping.  Connection
  handlers, lane coordinators, and the watchdog are tasks on this loop;
  nothing else mutates service state directly.
* **execution lanes** run the actual measurement through a serial
  :class:`~repro.farm.executor.Farm` (``jobs=1`` — the simulation executes
  in the job's thread itself).  Each lane dispatches one dedicated thread
  per job: a thread cannot be killed, so a *hung* job's thread is
  **abandoned** (its completion token is revoked; whatever it eventually
  reports is discarded) and the lane continues on a fresh farm.  Threads
  report back to the loop via ``call_soon_threadsafe``.
* **observe** feeds live progress: the server arms the tracing environment
  flag, so every job runs under a per-unit tracer
  (:class:`~repro.observe.spans.UnitScope`), and subscribes to span
  start/end events.  Events carry the publishing thread id; the server
  maps thread → running job, pulses that lane's heartbeat, and forwards
  the coarse-grained spans (farm lifecycle, ``gpu.run``, ``gpu.frame``)
  to that job's WebSocket subscribers, in sequence order.

Durability (this PR): every lifecycle transition is appended to the
crash-recoverable :class:`~repro.serve.journal.JobJournal` under the
artifact store.  On boot the server replays the journal — completed jobs
are served from the cache, incomplete jobs are requeued — so ``kill -9``
plus restart loses nothing.  Liveness: per-job deadlines (request field or
server default) are enforced at dequeue and by the watchdog; a lane whose
heartbeat goes stale is detected, its job failed with a structured cause,
and the lane restarted.  A :class:`CircuitBreaker` flips the server into
degraded mode (503 + Retry-After on *new* submissions; cached results and
status queries still served) on failure spikes or an unwritable store.

Identity is content-addressed end to end: a submission is hashed into a
:meth:`~repro.farm.job.JobSpec.key`, duplicates attach to the existing
entry, and finished artifacts live in the same
:class:`~repro.farm.store.ArtifactStore` the CLI uses — serving the very
bytes a direct ``repro`` run of the same spec would produce.
"""

from __future__ import annotations

import asyncio
import errno
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro import observe
from repro.farm.executor import Farm, FarmError
from repro.farm.store import ArtifactStore
from repro.serve import httpd
from repro.serve.journal import JobJournal
from repro.serve.protocol import (
    VERSION,
    ProtocolError,
    decode_client,
    decode_deadline,
    decode_submission,
    spec_to_doc,
    summarize_result,
)
from repro.serve.scheduler import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    RETRYABLE_STATES,
    RUNNING,
    FairScheduler,
    JobEntry,
    QueueFull,
)

#: Span names forwarded to WebSocket subscribers by default.  Draw- and
#: stage-level spans fire thousands of times per frame — progress wants the
#: coarse pulse, the full firehose stays available via ``verbose_events``.
COARSE_SPANS = ("gpu.run", "gpu.frame")

#: Error-text fragments that mean the store volume itself is failing; any
#: one of them trips the circuit breaker immediately (retrying new work on
#: a full disk only digs the hole deeper).
_STORE_FAILURE_MARKS = ("enospc", "no space left", "erofs", "read-only")


@dataclass
class ServeConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 8642
    lanes: int = 2
    queue_depth: int = 8
    #: Cache quota in bytes (None = unlimited).  Enforced LRU after every
    #: completed job, pinning every key the registry still references.
    quota_bytes: int | None = None
    cache_dir: str | None = None
    #: Forward every span event (draw/stage level included) over WS.
    verbose_events: bool = False
    #: Deadline applied to submissions that do not request one (seconds;
    #: ``None`` = no default deadline).
    default_deadline_s: float | None = None
    #: Journal every lifecycle transition and replay it on boot.
    journal: bool = True
    #: Watchdog cadence and the heartbeat staleness that counts as hung.
    watchdog_interval_s: float = 1.0
    lane_hang_s: float = 30.0
    #: A connection that has not delivered a full request head within this
    #: many seconds is answered 408 and dropped (slowloris defense).
    request_timeout_s: float = 10.0
    #: Circuit breaker: this many job failures inside
    #: :data:`BREAKER_WINDOW_S` trip degraded mode for the cooldown;
    #: store-volume errors trip instantly.
    breaker_failures: int = 5
    breaker_cooldown_s: float = 5.0


#: The circuit breaker's failure-counting window, in seconds.
BREAKER_WINDOW_S = 30.0


class CircuitBreaker:
    """Failure-spike detector driving the server's degraded mode.

    Closed (normal) → open (degraded: reject new submissions with 503 +
    Retry-After) when ``failures`` job failures land inside ``window_s``,
    or instantly on a store-volume error (ENOSPC/EROFS).  The open state
    lapses after ``cooldown_s`` — the next submission is the half-open
    probe: its success resets the failure history, another failure
    re-trips.  Runs entirely on the event-loop thread.
    """

    def __init__(self, failures: int = 5, window_s: float = BREAKER_WINDOW_S,
                 cooldown_s: float = 5.0):
        self.failures = max(1, failures)
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.cause: str | None = None
        self.trips = 0
        self._history: deque[float] = deque()
        self._open_until = 0.0

    @property
    def open(self) -> bool:
        return time.monotonic() < self._open_until

    def retry_after(self) -> float:
        return max(1.0, round(self._open_until - time.monotonic(), 1))

    def _trip(self, cause: str) -> None:
        self.cause = cause
        self.trips += 1
        self._open_until = time.monotonic() + self.cooldown_s

    def record_failure(self, cause: str | None) -> None:
        now = time.monotonic()
        text = (cause or "job failed").strip()
        lowered = text.lower()
        if any(mark in lowered for mark in _STORE_FAILURE_MARKS):
            self._trip(f"store volume failing: {text}")
            return
        self._history.append(now)
        while self._history and self._history[0] < now - self.window_s:
            self._history.popleft()
        if len(self._history) >= self.failures:
            self._trip(
                f"{len(self._history)} job failure(s) in "
                f"{self.window_s:g}s (last: {text})"
            )

    def record_success(self) -> None:
        self._history.clear()
        self._open_until = 0.0
        self.cause = None

    def doc(self) -> dict:
        return {
            "open": self.open,
            "trips": self.trips,
            "cause": self.cause,
            "recent_failures": len(self._history),
        }


@dataclass
class _Lane:
    """One execution lane's loop-side bookkeeping."""

    index: int
    farm: Farm
    entry: JobEntry | None = None
    #: Completion token: bumped on every dispatch *and* every abandonment,
    #: so a hung thread that eventually finishes cannot report a stale
    #: outcome onto whatever the lane is doing by then.
    token: int = 0
    tid: int | None = None
    #: Monotonic time of the last sign of life from the running thread.
    heartbeat: float = 0.0
    restarts: int = 0
    done: asyncio.Event = field(default_factory=asyncio.Event)


class ReproServer:
    """One characterization service instance (create, ``await start()``)."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        store: ArtifactStore | None = None,
        worker=None,
    ):
        self.config = config or ServeConfig()
        self.store = store if store is not None else ArtifactStore(
            self.config.cache_dir
        )
        #: Optional farm worker override (tests inject stubs; ``None`` uses
        #: the standard cached/checkpointed :func:`repro.farm.run_job`).
        self.worker = worker
        self.scheduler = FairScheduler(self.config.queue_depth)
        self.entries: dict[str, JobEntry] = {}
        self.journal: JobJournal | None = (
            JobJournal(self.store) if self.config.journal else None
        )
        self.breaker = CircuitBreaker(
            self.config.breaker_failures,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.draining = False
        self.started_at = time.time()
        self.stats = {
            "submissions": 0,
            "dedup_hits": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected_backpressure": 0,
            "rejected_degraded": 0,
            "cache_hits": 0,
            "evicted": 0,
            "ws_connections": 0,
            "recovered_served": 0,
            "recovered_requeued": 0,
            "deadline_failures": 0,
            "watchdog_restarts": 0,
            "timeouts_408": 0,
        }
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._lanes: list[_Lane] = []
        self._lane_tasks: list[asyncio.Task] = []
        self._watchdog_task: asyncio.Task | None = None
        self._lane_wakeup = asyncio.Event()
        self._drained = asyncio.Event()
        self._running: dict[int, JobEntry] = {}  # thread id -> entry
        self._lane_by_tid: dict[int, _Lane] = {}
        self._seq = 0

    # -- lifecycle -------------------------------------------------------
    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    def _new_farm(self) -> Farm:
        return Farm(store=self.store, jobs=1)

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        observe.arm_env()  # lane jobs trace themselves via UnitScope
        observe.subscribe(self._on_span_event)
        if self.journal is not None:
            self._replay_journal()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        for index in range(max(1, self.config.lanes)):
            lane = _Lane(index=index, farm=self._new_farm())
            self._lanes.append(lane)
            self._lane_tasks.append(
                asyncio.create_task(self._lane(lane), name=f"lane-{index}")
            )
        self._watchdog_task = asyncio.create_task(
            self._watchdog(), name="watchdog"
        )

    async def serve_forever(self) -> None:
        assert self._server is not None
        try:
            await self._drained.wait()
        finally:
            await self._finish_shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, cancel queued, finish running."""
        if self.draining:
            return
        self.draining = True
        for entry in self.scheduler.drain():
            entry.state = CANCELLED
            entry.finished_at = time.time()
            self.stats["cancelled"] += 1
            self._journal_append({"rec": "cancelled", "job": entry.key})
            self._push_event(entry, {"event": "cancelled"})
            self._finish_streams(entry)
        self._lane_wakeup.set()
        # Lanes exit once no queued work remains and draining is set; each
        # finishes its in-flight job first.
        if self._lane_tasks:
            await asyncio.gather(*self._lane_tasks, return_exceptions=True)
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        self._drained.set()

    async def _finish_shutdown(self) -> None:
        observe.unsubscribe(self._on_span_event)
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- journal replay --------------------------------------------------
    def _journal_append(self, record: dict) -> None:
        """Append a lifecycle record; an unwritable store trips the breaker.

        Journal loss is never allowed to fail the request that triggered
        it — the in-memory state is still correct for this process's
        lifetime — but it *does* mean a crash would now lose work, so the
        breaker degrades the service instead of accepting new submissions
        it could not journal either.
        """
        if self.journal is None:
            return
        try:
            self.journal.append(record)
        except OSError as exc:
            if exc.errno in (errno.ENOSPC, errno.EROFS):
                self.breaker.record_failure(f"journal append: {exc}")
            # Other errors (e.g. a lock timeout under a wedged sibling
            # process) degrade to journal-less operation for this record.

    def _replay_journal(self) -> None:
        """Rebuild the registry from the journal: the boot-time recovery.

        Completed jobs whose artifact is still present are registered
        ``DONE`` and served from the cache; failed/cancelled jobs keep
        their terminal state; everything else — queued, running when the
        process died, or completed under a *different* code version (the
        recomputed key no longer matches the recorded one) — is requeued
        for a fresh run.  Deadlines restart from boot: the server cannot
        know how much of the original budget the outage consumed, and
        failing recovered work for time the *server* lost would punish the
        client twice.
        """
        assert self.journal is not None
        jobs = JobJournal.reduce(self.journal.replay())
        # Re-decode every submission and recompute its key.  A key that no
        # longer matches the recorded one means the code version changed:
        # the recorded completion proves nothing about the *new* identity,
        # so the record demotes to queued under its recomputed key.  Two
        # records can collapse onto one key that way; the most-final /
        # newest state wins.
        rank = {"done": 3, "failed": 2, "cancelled": 2, "queued": 1,
                "running": 1}
        decoded: dict[str, dict] = {}
        for recorded_key, info in jobs.items():
            submission = info.get("submission")
            if not isinstance(submission, dict):
                continue
            try:
                spec = decode_submission(submission)
            except ProtocolError:
                continue  # workload/schema no longer exists: drop it
            key = spec.key()
            if key != recorded_key:
                info = {**info, "state": "queued",
                        "summary": None, "error": None}
            current = decoded.get(key)
            if current is not None:
                held = (rank.get(current["info"]["state"], 0),
                        current["info"]["ts"] or 0)
                offered = (rank.get(info["state"], 0), info["ts"] or 0)
                if held >= offered:
                    continue
            decoded[key] = {"info": info, "spec": spec}
        for key, slot in sorted(
            decoded.items(), key=lambda kv: kv[1]["info"]["ts"] or 0
        ):
            info, spec = slot["info"], slot["spec"]
            entry = JobEntry(
                spec=spec, key=key, client=info["client"],
                clients={info["client"]},
            )
            entry.deadline_s = info.get("deadline_s")
            if info["state"] == "done" and self.store.contains(spec):
                entry.state = DONE
                entry.from_cache = True
                entry.summary = info.get("summary")
                entry.finished_at = time.time()
                self.entries[key] = entry
                self._push_event(entry, {"event": "recovered", "state": DONE})
                self.stats["recovered_served"] += 1
            elif info["state"] in ("failed", "cancelled"):
                entry.state = info["state"]
                entry.error = info.get("error")
                entry.finished_at = time.time()
                self.entries[key] = entry
            else:
                # Queued, running at the crash, or done-but-evicted/drifted.
                if entry.deadline_s is not None:
                    entry.deadline_at = time.time() + entry.deadline_s
                self.entries[key] = entry
                self.scheduler.submit(entry, force=True)
                self._push_event(
                    entry,
                    {
                        "event": "queued",
                        "recovered": True,
                        "position": self.scheduler.pending(),
                    },
                )
                self.stats["recovered_requeued"] += 1
        # Compact from the recovered registry: one submitted record (plus
        # a terminal record) per job, all under *current* keys — so the
        # next boot replays exactly this state instead of the full log.
        self.journal.compact({
            key: {
                "submission": spec_to_doc(entry.spec),
                "client": entry.client,
                "deadline_s": entry.deadline_s,
                "state": entry.state,
                "summary": entry.summary,
                "error": entry.error,
                "ts": entry.submitted_at,
            }
            for key, entry in self.entries.items()
        })
        self._lane_wakeup.set()

    # -- execution lanes -------------------------------------------------
    async def _lane(self, lane: _Lane) -> None:
        """One lane: pull fairly, execute in a thread, publish the outcome."""
        while True:
            entry = self.scheduler.next_entry()
            if entry is None:
                if self.draining:
                    return
                self._lane_wakeup.clear()
                await self._lane_wakeup.wait()
                continue
            now = time.time()
            if entry.deadline_at is not None and now > entry.deadline_at:
                # Expired while queued: fail it without burning a lane.
                entry.causes.append(
                    f"deadline exceeded in queue: {entry.deadline_s:g}s "
                    f"budget elapsed before a lane was free"
                )
                entry.state = FAILED
                entry.error = entry.causes[-1]
                self.stats["deadline_failures"] += 1
                self._journal_append(
                    {"rec": "failed", "job": entry.key, "error": entry.error}
                )
                self._complete(entry)
                continue
            entry.state = RUNNING
            entry.started_at = now
            entry.lane = lane.index
            lane.entry = entry
            lane.token += 1
            lane.heartbeat = time.monotonic()
            lane.done = asyncio.Event()
            self._journal_append(
                {"rec": "started", "job": entry.key, "lane": lane.index}
            )
            self._push_event(entry, {"event": "started", "lane": lane.index})
            thread = threading.Thread(
                target=self._execute,
                args=(lane, entry, lane.token),
                name=f"lane-{lane.index}-job",
                daemon=True,
            )
            thread.start()
            await lane.done.wait()
            lane.entry = None

    def _execute(self, lane: _Lane, entry: JobEntry, token: int) -> None:
        """Job-thread body: run through the farm, report the outcome.

        Mutates no entry state directly — the outcome hops to the loop via
        ``call_soon_threadsafe`` and is applied only if ``token`` is still
        current (an abandoned thread's report is discarded).
        """
        tid = threading.get_ident()
        self._running[tid] = entry
        self._lane_by_tid[tid] = lane
        outcome = {"state": FAILED, "summary": None, "error": None,
                   "from_cache": False}
        try:
            outcome["from_cache"] = self.store.contains(entry.spec)
            if self.worker is None:
                result = lane.farm.run_one(entry.spec)
            else:
                result = lane.farm.run_one(entry.spec, worker=self.worker)
            outcome["summary"] = summarize_result(entry.spec, result)
            outcome["state"] = DONE
        except FarmError as exc:
            outcome["error"] = str(exc)
        except Exception as exc:  # never let a job thread die loudly
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            self._running.pop(tid, None)
            self._lane_by_tid.pop(tid, None)
            if self._loop is not None:
                try:
                    self._loop.call_soon_threadsafe(
                        self._lane_finished, lane, entry, token, outcome
                    )
                except RuntimeError:
                    pass  # loop already closed during shutdown

    def _lane_finished(
        self, lane: _Lane, entry: JobEntry, token: int, outcome: dict
    ) -> None:
        """Loop-side: apply a job thread's outcome, unless it was abandoned."""
        if token != lane.token:
            return  # watchdog already failed this dispatch; stale report
        entry.state = outcome["state"]
        entry.summary = outcome["summary"]
        entry.error = outcome["error"]
        entry.from_cache = outcome["from_cache"]
        if entry.error is not None:
            entry.causes.append(entry.error)
        if entry.state == DONE:
            # Success resets the breaker *before* the journal append: if
            # the append then hits ENOSPC it re-trips, instead of the
            # reset masking a still-full volume.
            self.breaker.record_success()
            self._journal_append(
                {"rec": "done", "job": entry.key, "summary": entry.summary}
            )
        else:
            self._journal_append(
                {"rec": "failed", "job": entry.key, "error": entry.error}
            )
            self.breaker.record_failure(entry.error)
        self._complete(entry)
        lane.done.set()

    # -- watchdog --------------------------------------------------------
    async def _watchdog(self) -> None:
        """Fail hung or deadline-blown jobs; keep their lanes alive."""
        interval = max(0.05, self.config.watchdog_interval_s)
        while True:
            await asyncio.sleep(interval)
            now_mono = time.monotonic()
            now = time.time()
            for lane in self._lanes:
                entry = lane.entry
                if entry is None or entry.state != RUNNING:
                    continue
                stale = now_mono - lane.heartbeat
                if stale > max(interval, self.config.lane_hang_s):
                    self._abandon_lane(
                        lane, entry,
                        f"lane {lane.index} hung: no heartbeat for "
                        f"{stale:.1f}s (limit {self.config.lane_hang_s:g}s); "
                        f"lane restarted, job abandoned",
                        "watchdog_restarts",
                    )
                elif entry.deadline_at is not None and now > entry.deadline_at:
                    self._abandon_lane(
                        lane, entry,
                        f"deadline exceeded while running: {entry.deadline_s:g}s "
                        f"budget elapsed on lane {lane.index}; job abandoned",
                        "deadline_failures",
                    )

    def _abandon_lane(
        self, lane: _Lane, entry: JobEntry, cause: str, stat: str
    ) -> None:
        """Revoke the running thread's token and fail its job.

        The thread itself cannot be killed — it is left to finish (or hang
        forever) against a farm no lane will touch again; its eventual
        report is discarded by the token check.  The lane gets a fresh
        farm because the abandoned thread may still be mutating the old
        one's internals.
        """
        lane.token += 1
        lane.restarts += 1
        lane.farm = self._new_farm()
        self.stats[stat] += 1
        entry.causes.append(cause)
        entry.state = FAILED
        entry.error = cause
        self._journal_append(
            {"rec": "failed", "job": entry.key, "error": cause}
        )
        self.breaker.record_failure(cause)
        self._complete(entry)
        lane.entry = None
        lane.done.set()

    def _complete(self, entry: JobEntry) -> None:
        """Loop-side completion: stats, quota, event fan-out."""
        entry.finished_at = time.time()
        wall = entry.finished_at - (entry.started_at or entry.finished_at)
        self.scheduler.note_job_seconds(wall)
        if entry.state == DONE:
            self.stats["completed"] += 1
            if entry.from_cache:
                self.stats["cache_hits"] += 1
        else:
            self.stats["failed"] += 1
        self._push_event(
            entry,
            {
                "event": entry.state,
                "from_cache": entry.from_cache,
                "wall_s": round(wall, 4),
                "error": entry.error,
            },
        )
        self._finish_streams(entry)
        self._enforce_quota()

    def _enforce_quota(self) -> None:
        if self.config.quota_bytes is None:
            return
        pinned = {
            key
            for key, entry in self.entries.items()
            if entry.state in ACTIVE_STATES or entry.state == DONE
        }
        evicted = self.store.enforce_quota(self.config.quota_bytes, pinned)
        self.stats["evicted"] += len(evicted)

    # -- progress events -------------------------------------------------
    def _on_span_event(self, event: dict) -> None:
        """observe subscriber: runs on the job thread, hops to the loop."""
        tid = event.get("tid")
        lane = self._lane_by_tid.get(tid)
        if lane is not None:
            # Any span at all is a sign of life — pulse before filtering,
            # so a job emitting only fine-grained spans never looks hung.
            lane.heartbeat = time.monotonic()
        entry = self._running.get(tid)
        if entry is None or self._loop is None:
            return
        if not self.config.verbose_events:
            name = event["name"]
            if event["cat"] != "farm" and name not in COARSE_SPANS:
                return
        doc = {
            "event": "span",
            "phase": event["phase"],
            "name": event["name"],
            "cat": event["cat"],
            "span_seq": event["seq"],
        }
        try:
            self._loop.call_soon_threadsafe(self._push_event, entry, doc)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def _push_event(self, entry: JobEntry, doc: dict) -> None:
        """Append to the entry's buffer and wake its WS subscribers."""
        self._seq += 1
        doc = {"seq": self._seq, "job": entry.key, "ts": time.time(), **doc}
        entry.events.append(doc)
        for queue in entry.subscribers:
            queue.put_nowait(doc)

    def _finish_streams(self, entry: JobEntry) -> None:
        for queue in entry.subscribers:
            queue.put_nowait(None)  # terminal marker

    # -- connection handling ---------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                # asyncio.timeout over wait_for: no wrapper task per
                # connection, which matters at loadtest request rates.
                async with asyncio.timeout(self.config.request_timeout_s):
                    request = await httpd.read_request(reader)
            except asyncio.TimeoutError:
                # Slowloris or a stalled peer: answer and hang up rather
                # than let half-open connections pile up.
                self.stats["timeouts_408"] += 1
                writer.write(
                    httpd.json_response(
                        408, {"error": "request not received in time"}
                    )
                )
                return
            except httpd.BadRequest as exc:
                writer.write(httpd.json_response(400, {"error": str(exc)}))
                return
            if request is None:
                return
            if request.wants_websocket:
                await self._handle_websocket(request, reader, writer)
                return
            writer.write(await self._route(request))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # surface handler bugs to the client
            try:
                writer.write(
                    httpd.json_response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                )
            except ConnectionError:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass

    async def _route(self, request: httpd.Request) -> bytes:
        segments = [s for s in request.path.split("/") if s]
        if segments[:1] != ["v1"]:
            return httpd.json_response(404, {"error": "unknown path"})
        tail = segments[1:]
        if request.method == "GET":
            if tail == ["healthz"]:
                return httpd.json_response(
                    200,
                    {
                        "ok": True,
                        "version": VERSION,
                        "draining": self.draining,
                        "degraded": self.breaker.open,
                        "uptime_s": round(time.time() - self.started_at, 3),
                    },
                )
            if tail == ["workloads"]:
                from repro.workloads import all_workloads

                return httpd.json_response(
                    200,
                    {"workloads": [spec.name for spec in all_workloads()]},
                )
            if tail == ["stats"]:
                return httpd.json_response(200, self._stats_doc())
            if len(tail) == 2 and tail[0] == "jobs":
                return self._job_status(tail[1])
            if len(tail) == 3 and tail[0] == "jobs" and tail[2] == "result":
                return self._job_result(tail[1])
            if len(tail) == 3 and tail[0] == "jobs" and tail[2] == "artifact":
                return self._job_artifact(tail[1])
            return httpd.json_response(404, {"error": "unknown path"})
        if request.method == "POST":
            if tail == ["jobs"]:
                return self._submit(request)
            if tail == ["shutdown"]:
                asyncio.get_running_loop().create_task(self.shutdown())
                return httpd.json_response(202, {"draining": True})
            return httpd.json_response(404, {"error": "unknown path"})
        return httpd.json_response(405, {"error": "method not allowed"})

    # -- route bodies ----------------------------------------------------
    def _submit(self, request: httpd.Request) -> bytes:
        try:
            doc = request.json()
            spec = decode_submission(doc)
            client = decode_client(doc, request.headers.get("x-repro-client"))
            deadline_s = decode_deadline(doc)
        except (ProtocolError, httpd.BadRequest) as exc:
            status = getattr(exc, "status", 400)
            doc = {"error": str(exc), "version": VERSION}
            path = getattr(exc, "path", None)
            if path is not None:
                doc["path"] = path
            return httpd.json_response(status, doc)
        self.stats["submissions"] += 1
        key = spec.key()
        entry = self.entries.get(key)
        if entry is not None and entry.state not in RETRYABLE_STATES:
            # Content-addressed dedupe: same spec → same entry.  Checked
            # before drain/degraded gating on purpose — finished and
            # in-flight work stays reachable in every server state.
            entry.dedup_hits += 1
            entry.clients.add(client)
            self.stats["dedup_hits"] += 1
            return httpd.json_response(200, entry.doc())
        if self.draining:
            return httpd.json_response(
                503, {"error": "server is draining", "draining": True}
            )
        if self.breaker.open:
            self.stats["rejected_degraded"] += 1
            retry = self.breaker.retry_after()
            return httpd.json_response(
                503,
                {
                    "error": f"server degraded: {self.breaker.cause}",
                    "degraded": True,
                    "retry_after_s": retry,
                },
                headers={"Retry-After": str(int(max(1, retry)))},
            )
        entry = JobEntry(spec=spec, key=key, client=client, clients={client})
        entry.deadline_s = (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        if entry.deadline_s is not None:
            entry.deadline_at = entry.submitted_at + entry.deadline_s
        try:
            self.scheduler.submit(entry)
        except QueueFull as exc:
            self.stats["rejected_backpressure"] += 1
            return httpd.json_response(
                429,
                {
                    "error": str(exc),
                    "retry_after_s": exc.retry_after,
                },
                headers={"Retry-After": str(int(max(1, exc.retry_after)))},
            )
        self.entries[key] = entry
        self._journal_append({
            "rec": "submitted",
            "job": key,
            "client": client,
            "submission": spec_to_doc(spec),
            "deadline_s": entry.deadline_s,
        })
        self._push_event(
            entry, {"event": "queued", "position": self.scheduler.pending()}
        )
        self._lane_wakeup.set()
        return httpd.json_response(202, entry.doc())

    def _job_status(self, key: str) -> bytes:
        entry = self.entries.get(key)
        if entry is None:
            return httpd.json_response(404, {"error": f"unknown job {key!r}"})
        return httpd.json_response(200, entry.doc())

    def _job_result(self, key: str) -> bytes:
        entry = self.entries.get(key)
        if entry is None:
            return httpd.json_response(404, {"error": f"unknown job {key!r}"})
        if entry.state != DONE:
            return httpd.json_response(
                409, {"error": f"job is {entry.state}", "state": entry.state}
            )
        meta = self.store._read_meta(entry.spec)
        return httpd.json_response(
            200,
            {
                "job": key,
                "from_cache": entry.from_cache,
                "summary": entry.summary,
                "artifact_sha256": meta.get("sha256"),
                "wall_s": meta.get("wall_s"),
            },
        )

    def _job_artifact(self, key: str) -> bytes:
        entry = self.entries.get(key)
        if entry is None:
            return httpd.json_response(404, {"error": f"unknown job {key!r}"})
        if entry.state != DONE:
            return httpd.json_response(
                409, {"error": f"job is {entry.state}", "state": entry.state}
            )
        found = self.store.read_entry(
            self.store.artifact_path(entry.spec),
            lambda header, payload: (header, bytes(payload)),
            f"artifact for {entry.spec.describe()}",
        )
        if found is None:
            return httpd.json_response(
                404, {"error": "artifact evicted, missing or corrupt"}
            )
        header, blob = found
        return httpd.response(
            200,
            blob,
            content_type="application/octet-stream",
            headers={"X-Repro-SHA256": header.get("sha256") or ""},
        )

    def _stats_doc(self) -> dict:
        states: dict[str, int] = {}
        for entry in self.entries.values():
            states[entry.state] = states.get(entry.state, 0) + 1
        return {
            **self.stats,
            "jobs": len(self.entries),
            "states": states,
            "queue_depths": self.scheduler.depths(),
            "pending": self.scheduler.pending(),
            "store_hits": self.store.hits,
            "store_misses": self.store.misses,
            "avg_job_s": round(self.scheduler.avg_job_s, 3),
            "draining": self.draining,
            "degraded": self.breaker.open,
            "breaker": self.breaker.doc(),
            "lane_restarts": sum(lane.restarts for lane in self._lanes),
            "journal_appends": (
                self.journal.appended if self.journal is not None else 0
            ),
        }

    # -- WebSocket progress streaming ------------------------------------
    async def _handle_websocket(self, request, reader, writer) -> None:
        segments = [s for s in request.path.split("/") if s]
        if (
            len(segments) != 4
            or segments[:2] != ["v1", "jobs"]
            or segments[3] != "events"
        ):
            writer.write(httpd.json_response(404, {"error": "unknown path"}))
            return
        entry = self.entries.get(segments[2])
        if entry is None:
            writer.write(
                httpd.json_response(404, {"error": "unknown job"})
            )
            return
        # Replay cursor: ``?from=<seq>`` skips events the client already
        # received — a disconnected stream resumes exactly where it broke.
        after = 0
        raw = request.query.get("from", [""])[0]
        if raw:
            try:
                after = int(raw)
            except ValueError:
                writer.write(
                    httpd.json_response(
                        400, {"error": "'from' must be an integer sequence"}
                    )
                )
                return
        writer.write(httpd.ws_handshake_response(request))
        await writer.drain()
        self.stats["ws_connections"] += 1
        # Snapshot + subscribe atomically (no awaits between): replay the
        # buffer, then the live queue — exactly-once, in seq order.
        queue: asyncio.Queue = asyncio.Queue()
        backlog = [doc for doc in entry.events if doc["seq"] > after]
        terminal = entry.terminal
        if not terminal:
            entry.subscribers.append(queue)
        try:
            for doc in backlog:
                writer.write(httpd.ws_encode(json.dumps(doc, sort_keys=True)))
            await writer.drain()
            if not terminal:
                while True:
                    doc = await queue.get()
                    if doc is None:
                        break
                    writer.write(
                        httpd.ws_encode(json.dumps(doc, sort_keys=True))
                    )
                    await writer.drain()
            writer.write(httpd.ws_encode(b"", opcode=httpd.WS_CLOSE))
            await writer.drain()
        finally:
            if queue in entry.subscribers:
                entry.subscribers.remove(queue)


# -- thread-hosted server (tests, loadtest) --------------------------------
class ServerThread:
    """Run a :class:`ReproServer` on a dedicated event-loop thread.

    The blocking client (:mod:`repro.serve.client`) and the load-test
    harness need a live server without owning an event loop; this wrapper
    boots one in the background and exposes ``host``/``port``/``stop()``.
    """

    def __init__(self, server: ReproServer):
        self.server = server
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            # Boot failures (port in use, bad config, replay crash) must
            # reach the caller, not time out opaquely in start().
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(
                f"server failed to start: "
                f"{type(self._error).__name__}: {self._error}"
            ) from self._error
        return self

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def reset_registry(self) -> None:
        """Forget finished jobs (loop-side), keeping the artifact store.

        The load-test harness uses this between waves to model a server
        restart over a persistent cache: the same submissions then re-run
        through the farm and hit the store instead of deduping in memory.
        """
        if self._loop is None:
            return
        done = threading.Event()

        def _clear() -> None:
            self.server.entries = {
                key: entry
                for key, entry in self.server.entries.items()
                if not entry.terminal
            }
            done.set()

        self._loop.call_soon_threadsafe(_clear)
        done.wait(timeout=10)

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain from any thread; joins the loop thread."""
        if self._loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop
            )
            try:
                future.result(timeout=timeout)
            except Exception:
                pass
        self._thread.join(timeout=timeout)
