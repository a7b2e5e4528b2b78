"""Durability chaos suite for the characterization service.

The farm chaos suite (:mod:`repro.farm.chaos`) proves the *execution*
layer recovers bit-identically from injected faults; this suite proves
the same for the *service* layer built on top of it.  Each scenario
breaks the server in a specific way — ``kill -9`` mid-job, a dropped
WebSocket, slowloris and malformed HTTP, a corrupted journal, ENOSPC, a
hung execution lane — and asserts the durability contract: the server
stays live (or comes back), no accepted work is lost, and every recovered
result is bit-identical to an uninterrupted run (checked by artifact
SHA-256 against a fault-free reference farm).

Scenarios that must survive ``SIGKILL`` run the real ``repro serve`` CLI
in a subprocess; everything else uses an in-process
:class:`~repro.serve.server.ServerThread` for speed.  Fault injection
rides the same seeded ``REPRO_FAULTS`` plans as the farm suite, so runs
are deterministic.

Run it with ``repro chaos --suite serve`` (``--artifacts DIR`` copies
each scenario's journal and quarantine evidence out for CI upload).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Callable, Iterator

from repro.farm import faults
from repro.farm.chaos import WORKLOAD, OTHER, ChaosFailure
from repro.farm.executor import Farm
from repro.farm.job import api_job, sim_job
from repro.farm.store import ArtifactStore
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer, ServeConfig, ServerThread
from repro.util.tables import format_table

#: A real simulation every recovery scenario must reproduce bit-identically.
SIM_SPEC = ("sim", WORKLOAD, 2)
#: The ``kill -9`` job: its checkpoint lives for three of its four frames,
#: so the kill lands after one and the restart resumes from it.
KILL9_SPEC = ("sim", WORKLOAD, 4)
#: Fast job for liveness scenarios (WS resume, degraded mode).
API_SPEC = ("api", WORKLOAD, 2)

_LISTEN_RE = re.compile(r"listening on http://[^:]+:(\d+)")


class _ServeContext:
    """Per-run scratch state: scenario roots and the fault-free reference."""

    def __init__(self, seed: int, root: pathlib.Path,
                 artifacts_dir: pathlib.Path | None):
        self.seed = seed
        self.root = root
        self.artifacts_dir = artifacts_dir
        # Reference artifact SHA-256s from a direct, fault-free farm run —
        # the store's meta hash of the very bytes a client download must
        # match after any recovery.
        store = ArtifactStore(root / "reference")
        farm = Farm(store=store, jobs=1)
        self.reference_sha: dict[tuple, str] = {}
        for spec_args in (SIM_SPEC, KILL9_SPEC, API_SPEC):
            kind, workload, frames = spec_args
            job = (sim_job if kind == "sim" else api_job)(workload, frames)
            farm.run_one(job)
            self.reference_sha[spec_args] = store._read_meta(job)["sha256"]

    def plan(self, *specs: faults.FaultSpec) -> faults.FaultPlan:
        return faults.FaultPlan(
            faults=tuple(specs),
            seed=self.seed,
            state_dir=str(
                self.root / "fault-state" / f"{time.monotonic_ns()}"
            ),
        )

    def collect(self, name: str, cache: pathlib.Path) -> None:
        """Copy a scenario's journal + quarantine evidence for CI upload."""
        if self.artifacts_dir is None:
            return
        for sub in ("journal", "quarantine"):
            src = cache / sub
            if src.is_dir():
                dest = self.artifacts_dir / name / sub
                shutil.copytree(src, dest, dirs_exist_ok=True)


@contextlib.contextmanager
def _thread_server(cache: pathlib.Path, **overrides) -> Iterator[ServerThread]:
    """An in-process server on an ephemeral port over ``cache``."""
    config = ServeConfig(port=0, lanes=1, **overrides)
    server = ReproServer(config, store=ArtifactStore(cache))
    thread = ServerThread(server).start()
    try:
        yield thread
    finally:
        thread.stop()


def _spawn_server(cache: pathlib.Path) -> tuple[subprocess.Popen, int]:
    """Boot the real ``repro serve`` CLI; returns (process, port)."""
    src_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_root), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--lanes", "1", "--cache-dir", str(cache),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _LISTEN_RE.search(line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise ChaosFailure("serve subprocess never announced its port")


def _served_sha(client: ServeClient, key: str) -> str:
    """Download the artifact, verifying the transport checksum."""
    blob, claimed = client.artifact(key)
    actual = hashlib.sha256(blob).hexdigest()
    if claimed and claimed != actual:
        raise ChaosFailure(
            f"artifact transport checksum mismatch for {key[:12]}"
        )
    return actual


# -- scenarios ---------------------------------------------------------------


def _kill9_recovery(ctx: _ServeContext) -> str:
    """SIGKILL after a checkpoint; the restarted server recovers the job
    from the journal and resumes it from that checkpoint."""
    cache = ctx.root / "kill9-cache"
    store = ArtifactStore(cache)
    job = sim_job(*KILL9_SPEC[1:])
    proc, port = _spawn_server(cache)
    key = None
    try:
        client = ServeClient(port=port, client_id="chaos")
        client.wait_ready(60)
        key = client.submit(*KILL9_SPEC)["job"]
        deadline = time.monotonic() + 120
        while not store.checkpoint_path(job).exists():
            if client.status(key)["state"] == "done":
                raise ChaosFailure("job finished before any checkpoint")
            if time.monotonic() > deadline:
                raise ChaosFailure("no checkpoint appeared within 120 s")
            time.sleep(0.02)
    finally:
        with contextlib.suppress(OSError):
            os.kill(proc.pid, signal.SIGKILL)
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=30)
    if key is None:
        raise ChaosFailure("submission never reached the first server")
    done = store.load_checkpoint(job)
    if done is None:
        raise ChaosFailure("no checkpoint survived the kill")
    proc2, port2 = _spawn_server(cache)
    try:
        client = ServeClient(port=port2, client_id="chaos")
        client.wait_ready(60)
        stats = client.stats()
        recovered = (
            stats["recovered_requeued"] + stats["recovered_served"]
        )
        if recovered < 1:
            raise ChaosFailure("restart recovered nothing from the journal")
        final = client.wait(key, timeout=600)
        if final["state"] != "done":
            raise ChaosFailure(
                f"recovered job ended {final['state']!r}: {final.get('error')}"
            )
        sha = _served_sha(client, key)
        if sha != ctx.reference_sha[KILL9_SPEC]:
            raise ChaosFailure(
                "recovered result differs from the uninterrupted reference"
            )
        if store.checkpoint_path(job).exists():
            raise ChaosFailure("the finished job left its checkpoint behind")
        client.shutdown()
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc2.wait(timeout=60)
    finally:
        with contextlib.suppress(OSError):
            os.kill(proc2.pid, signal.SIGKILL)
        ctx.collect("kill9-recovery", cache)
    if not stats["recovered_requeued"]:
        raise ChaosFailure("restart served the job instead of resuming it")
    return (
        f"killed after frame {len(done.frame_stats)} of {job.frames}; "
        "restart resumed from its checkpoint, result bit-identical"
    )


def _ws_resume(ctx: _ServeContext) -> str:
    """A dropped progress stream resumes from its replay cursor, gap-free."""
    cache = ctx.root / "ws-cache"
    with _thread_server(cache) as thread:
        client = ServeClient(port=thread.port, client_id="chaos")
        key = client.submit(*API_SPEC)["job"]
        first: list[dict] = []
        for event in client.events(key, timeout=300):
            first.append(event)
            break  # drop the connection after one event, mid-stream
        if not first:
            raise ChaosFailure("no events before the simulated disconnect")
        cursor = first[-1]["seq"]
        resumed = list(client.events(key, timeout=300, after_seq=cursor))
        if not resumed:
            raise ChaosFailure("resume from cursor streamed nothing")
        if min(e["seq"] for e in resumed) <= cursor:
            raise ChaosFailure("resume replayed events before the cursor")
        seqs = [e["seq"] for e in first + resumed]
        if seqs != sorted(seqs) or len(seqs) != len(set(seqs)):
            raise ChaosFailure("events duplicated or reordered across resume")
        if resumed[-1]["event"] != "done":
            raise ChaosFailure(
                f"stream ended on {resumed[-1]['event']!r}, not the terminal"
            )
        ctx.collect("ws-resume", cache)
    return (
        f"disconnected after seq {cursor}, resumed {len(resumed)} event(s), "
        f"no gaps or duplicates"
    )


def _slowloris_malformed(ctx: _ServeContext) -> str:
    """Stalled and garbage connections are shed; the server stays live."""
    cache = ctx.root / "slowloris-cache"
    with _thread_server(cache, request_timeout_s=0.5) as thread:
        address = (thread.host, thread.port)
        # Slowloris: a request head that never finishes must be answered
        # 408 and dropped instead of holding a connection slot forever.
        slow = socket.create_connection(address, timeout=30)
        try:
            slow.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: stall")
            reply = slow.recv(65536)
        finally:
            slow.close()
        if b" 408 " not in reply.split(b"\r\n", 1)[0]:
            raise ChaosFailure(f"slowloris got {reply[:40]!r}, wanted 408")
        # Malformed HTTP: binary garbage must come back as a clean 400.
        bad = socket.create_connection(address, timeout=30)
        try:
            bad.sendall(b"\x00\xffNOT-HTTP\x7f\r\n\r\n")
            reply = bad.recv(65536)
        finally:
            bad.close()
        if b" 400 " not in reply.split(b"\r\n", 1)[0]:
            raise ChaosFailure(f"malformed request got {reply[:40]!r}")
        # The server must still do real work afterwards.
        client = ServeClient(port=thread.port, client_id="chaos")
        if not client.healthz()["ok"]:
            raise ChaosFailure("health check failed after abuse")
        key = client.submit(*API_SPEC)["job"]
        if client.wait(key, timeout=300)["state"] != "done":
            raise ChaosFailure("job failed after connection abuse")
        ctx.collect("slowloris-malformed", cache)
    return "stalled head answered 408, garbage answered 400, service live"


def _journal_corruption(ctx: _ServeContext) -> str:
    """Bit-flipped and truncated journals salvage their valid prefix."""
    cache = ctx.root / "journal-cache"
    with _thread_server(cache) as thread:
        client = ServeClient(port=thread.port, client_id="chaos")
        key = client.submit(*API_SPEC)["job"]
        if client.wait(key, timeout=300)["state"] != "done":
            raise ChaosFailure("seed job failed")
    journal = cache / "journal" / "serve.jsonl"
    reasons = cache / "quarantine" / "REASONS.log"
    # Flip one byte inside the final (terminal) record: the prefix up to
    # it must be salvaged, the damage quarantined, and the job re-run to a
    # bit-identical result.
    raw = bytearray(journal.read_bytes())
    raw[-10] ^= 0x40
    journal.write_bytes(bytes(raw))
    with _thread_server(cache) as thread:
        client = ServeClient(port=thread.port, client_id="chaos")
        stats = client.stats()
        if stats["recovered_requeued"] + stats["recovered_served"] < 1:
            raise ChaosFailure("bit-flipped journal salvaged nothing")
        if not reasons.exists() or "serve journal" not in reasons.read_text():
            raise ChaosFailure("journal corruption left no quarantine reason")
        final = client.wait(key, timeout=300)
        if final["state"] != "done":
            raise ChaosFailure(f"job did not recover: {final.get('error')}")
        if _served_sha(client, key) != ctx.reference_sha[API_SPEC]:
            raise ChaosFailure("recovered result not bit-identical")
    # Torn tail (power loss mid-append): cut the file mid-line.
    raw = journal.read_bytes()
    journal.write_bytes(raw[: len(raw) - 7])
    with _thread_server(cache) as thread:
        client = ServeClient(port=thread.port, client_id="chaos")
        final = client.wait(key, timeout=300)
        if final["state"] != "done":
            raise ChaosFailure("truncated journal lost the job")
        if _served_sha(client, key) != ctx.reference_sha[API_SPEC]:
            raise ChaosFailure("post-truncation result not bit-identical")
        ctx.collect("journal-corruption", cache)
    quarantined = reasons.read_text().count("serve journal")
    return (
        f"prefix salvaged twice (bit-flip + torn tail), "
        f"{quarantined} quarantine reason(s) logged, results bit-identical"
    )


def _enospc_degraded(ctx: _ServeContext) -> str:
    """ENOSPC trips degraded mode: new work 503s, existing work survives."""
    cache = ctx.root / "enospc-cache"
    plan = ctx.plan(
        faults.FaultSpec("unwritable", match="journal", times=0,
                         error="ENOSPC")
    )
    with _thread_server(cache, breaker_cooldown_s=1.0) as thread:
        client = ServeClient(port=thread.port, client_id="chaos")
        with faults.injected(plan):
            # Accepted before the breaker trips (the failed journal append
            # of this very submission is what trips it).
            accepted = client.submit(*API_SPEC)["job"]
            try:
                client.submit("api", OTHER, 2)
                raise ChaosFailure("degraded server accepted new work")
            except ServeError as exc:
                if exc.status != 503 or not exc.doc.get("degraded"):
                    raise ChaosFailure(
                        f"wanted degraded 503, got {exc.status}: {exc.doc}"
                    )
            if not client.healthz()["degraded"]:
                raise ChaosFailure("healthz does not report degraded")
            # Work accepted before the trip still completes, and dedupe
            # submissions of it are still served while degraded.
            if client.wait(accepted, timeout=300)["state"] != "done":
                raise ChaosFailure("accepted job failed under ENOSPC")
            again = client.submit(*API_SPEC)
            if again["job"] != accepted or again["state"] != "done":
                raise ChaosFailure("dedupe not served while degraded")
        # Volume recovered: after the cooldown the breaker half-opens and
        # new submissions flow again.
        deadline = time.monotonic() + 30
        while True:
            try:
                key = client.submit("api", OTHER, 2)["job"]
                break
            except ServeError as exc:
                if exc.status != 503 or time.monotonic() > deadline:
                    raise ChaosFailure(
                        f"breaker never recovered: {exc.status} {exc.doc}"
                    )
                time.sleep(0.2)
        if client.wait(key, timeout=300)["state"] != "done":
            raise ChaosFailure("post-recovery job failed")
        ctx.collect("enospc-degraded", cache)
    return "tripped on ENOSPC, 503+Retry-After, recovered after cooldown"


def _hung_lane(ctx: _ServeContext) -> str:
    """A hung lane is detected by the watchdog and the lane keeps serving."""
    cache = ctx.root / "hung-cache"
    plan = ctx.plan(
        faults.FaultSpec("hang", match="sim", times=1, hang_s=12.0)
    )
    with _thread_server(
        cache, lane_hang_s=1.0, watchdog_interval_s=0.25,
        breaker_failures=100,
    ) as thread:
        client = ServeClient(port=thread.port, client_id="chaos")
        with faults.injected(plan):
            key = client.submit(*SIM_SPEC)["job"]
            started = time.monotonic()
            final = client.wait(key, timeout=60)
            detected_s = time.monotonic() - started
        if final["state"] != "failed":
            raise ChaosFailure(
                f"hung job ended {final['state']!r}, wanted watchdog failure"
            )
        causes = final.get("causes") or []
        if not any("hung" in cause for cause in causes):
            raise ChaosFailure(f"no structured hang cause: {causes}")
        if detected_s > 8.0:
            raise ChaosFailure(
                f"watchdog took {detected_s:.1f}s (hang was 12s — "
                f"detection must beat it by a wide margin)"
            )
        # The failed state is retryable: the same spec resubmits onto the
        # restarted lane and completes bit-identically, fault lifted.
        retry = client.submit(*SIM_SPEC)
        if retry["job"] != key:
            raise ChaosFailure("retry changed the content-addressed key")
        final = client.wait(key, timeout=600)
        if final["state"] != "done":
            raise ChaosFailure(f"retry failed: {final.get('error')}")
        if _served_sha(client, key) != ctx.reference_sha[SIM_SPEC]:
            raise ChaosFailure("post-hang result not bit-identical")
        stats = client.stats()
        if stats["watchdog_restarts"] < 1:
            raise ChaosFailure("watchdog restart not accounted")
        ctx.collect("hung-lane", cache)
    return (
        f"hang detected in {detected_s:.1f}s, structured cause recorded, "
        f"lane restarted and retry bit-identical"
    )


SCENARIOS: dict[str, Callable[[_ServeContext], str]] = {
    "kill9-recovery": _kill9_recovery,
    "ws-resume": _ws_resume,
    "slowloris-malformed": _slowloris_malformed,
    "journal-corruption": _journal_corruption,
    "enospc-degraded": _enospc_degraded,
    "hung-lane": _hung_lane,
}


def run_serve_chaos(
    seed: int = 0,
    only: list[str] | None = None,
    artifacts_dir: str | pathlib.Path | None = None,
    out: Callable[[str], None] = print,
) -> int:
    """Run the serve suite; returns a process exit code (0 = all held)."""
    selected = only or list(SCENARIOS)
    for name in selected:
        if name not in SCENARIOS:
            out(
                f"unknown serve chaos scenario {name!r}; "
                f"known: {', '.join(SCENARIOS)}"
            )
            return 2
    artifacts = pathlib.Path(artifacts_dir) if artifacts_dir else None
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)
    rows = []
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-serve-chaos-") as tmp:
        root = pathlib.Path(tmp)
        out("serve chaos: computing fault-free reference artifacts...")
        ctx = _ServeContext(seed, root, artifacts)
        for name in selected:
            start = time.monotonic()
            try:
                detail = SCENARIOS[name](ctx)
                status = "PASS"
            except ChaosFailure as exc:
                detail, status, failures = str(exc), "FAIL", failures + 1
            except (ServeError, OSError, TimeoutError) as exc:
                detail = f"{type(exc).__name__}: {exc}"
                status, failures = "FAIL", failures + 1
            rows.append(
                [name, status, f"{time.monotonic() - start:.1f}", detail]
            )
            out(f"  {status} {name}: {rows[-1][3]}")
    out("")
    out(
        format_table(
            ["scenario", "status", "secs", "detail"],
            rows,
            title=f"repro chaos --suite serve (seed {seed})",
        )
    )
    out("")
    if failures:
        out(f"serve chaos: {failures}/{len(selected)} scenario(s) FAILED")
        return 1
    out(
        f"serve chaos: all {len(selected)} scenario(s) held their "
        "durability guarantees"
    )
    return 0
