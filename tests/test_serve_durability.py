"""Durable serving: journal recovery, deadlines, watchdog, degraded mode.

Companion to ``test_serve.py`` (the happy-path service mechanics): these
tests break the server — crash-boot a second instance over the same
store, hang a lane, blow a deadline, trip the circuit breaker — and pin
the recovery contracts.  Stub workers throughout; the bit-identity of
recovered *artifacts* is pinned by the serve chaos suite
(``repro chaos --suite serve``), which runs the real pipeline.
"""

import socket
import threading
import time

import pytest

from repro.serve import (
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
)
from repro.serve.server import CircuitBreaker

@pytest.fixture(autouse=True)
def _restore_observe_env():
    """Server start arms REPRO_OBSERVE; don't leak it into later tests."""
    import os

    before = os.environ.get("REPRO_OBSERVE")
    yield
    if before is None:
        os.environ.pop("REPRO_OBSERVE", None)
    else:
        os.environ["REPRO_OBSERVE"] = before


def _spec_doc(seed=0, frames=2):
    return {"kind": "sim", "workload": "UT2004/Primeval", "frames": frames,
            "seed": seed}


def _server(tmp_path, worker, **config):
    config.setdefault("port", 0)
    config.setdefault("lanes", 1)
    config.setdefault("cache_dir", str(tmp_path / "cache"))
    thread = ServerThread(
        ReproServer(ServeConfig(**config), worker=worker)
    ).start()
    return thread, ServeClient(thread.host, thread.port, client_id="t")


class TestBootFailures:
    def test_server_thread_surfaces_boot_errors(self, tmp_path):
        """A dead port must raise from start(), not time out opaquely."""
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(RuntimeError, match="failed to start"):
                ServerThread(
                    ReproServer(
                        ServeConfig(port=port, cache_dir=str(tmp_path / "c"))
                    )
                ).start()
        finally:
            blocker.close()


class TestJournalRecovery:
    def test_restart_requeues_incomplete_jobs(self, tmp_path):
        """Jobs mid-flight at a crash are re-run by the next boot."""
        wedge = threading.Event()
        cache = str(tmp_path / "cache")

        def wedged_worker(job, cache_dir):
            wedge.wait(timeout=60)
            return {"ok": True}

        first, client1 = _server(tmp_path, wedged_worker, cache_dir=cache)
        try:
            key = client1.submit(**_spec_doc())["job"]
            deadline = time.monotonic() + 30
            while client1.status(key)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # Crash-boot a second server over the same store while the
            # first is wedged — exactly what a restart after kill -9
            # sees: a journal ending in submitted + started.
            second, client2 = _server(
                tmp_path, lambda *a: {"ok": True}, cache_dir=cache
            )
            try:
                stats = client2.stats()
                assert stats["recovered_requeued"] == 1
                assert stats["recovered_served"] == 0
                final = client2.wait(key, timeout=60)
                assert final["state"] == "done"
            finally:
                wedge.set()
                second.stop()
        finally:
            wedge.set()
            first.stop()

    def test_journal_can_be_disabled(self, tmp_path):
        thread, client = _server(
            tmp_path, lambda *a: {"ok": True}, journal=False
        )
        try:
            doc = client.submit(**_spec_doc())
            assert client.wait(doc["job"])["state"] == "done"
            assert client.stats()["journal_appends"] == 0
            assert not (tmp_path / "cache" / "journal").exists()
        finally:
            thread.stop()


class TestDeadlines:
    def test_rejects_invalid_deadlines(self, tmp_path):
        thread, client = _server(tmp_path, lambda *a: {"ok": True})
        try:
            for bad in (-1, 0, 10**9):
                with pytest.raises(ServeError) as excinfo:
                    client.submit(**_spec_doc(), deadline_s=bad)
                assert excinfo.value.status == 400
                assert excinfo.value.doc["path"] == "deadline_s"
        finally:
            thread.stop()

    def test_deadline_expires_in_queue(self, tmp_path):
        """A job whose budget lapses while queued never burns a lane."""
        release = threading.Event()
        runs = []

        def worker(job, cache_dir):
            runs.append(job.seed)
            release.wait(timeout=60)
            return {"ok": True}

        thread, client = _server(tmp_path, worker)
        try:
            blocker = client.submit(**_spec_doc(seed=1))
            time.sleep(0.1)  # the lane picks the blocker up
            doomed = client.submit(**_spec_doc(seed=2), deadline_s=0.2)
            assert doomed["deadline_s"] == 0.2
            time.sleep(0.4)  # budget lapses while the lane is busy
            release.set()
            final = client.wait(doomed["job"], timeout=30)
            assert final["state"] == "failed"
            assert any(
                "deadline exceeded in queue" in cause
                for cause in final["causes"]
            )
            assert client.wait(blocker["job"])["state"] == "done"
            assert client.stats()["deadline_failures"] == 1
            assert runs == [1]  # the doomed job never started
        finally:
            release.set()
            thread.stop()

    def test_deadline_enforced_while_running(self, tmp_path):
        release = threading.Event()

        def worker(job, cache_dir):
            release.wait(timeout=60)
            return {"ok": True}

        thread, client = _server(
            tmp_path, worker, watchdog_interval_s=0.1
        )
        try:
            doc = client.submit(**_spec_doc(), deadline_s=0.3)
            final = client.wait(doc["job"], timeout=30)
            assert final["state"] == "failed"
            assert any(
                "deadline exceeded while running" in cause
                for cause in final["causes"]
            )
            stats = client.stats()
            assert stats["deadline_failures"] == 1
            assert stats["lane_restarts"] == 1
        finally:
            release.set()
            thread.stop()


class TestWatchdog:
    def test_hung_lane_detected_and_restarted(self, tmp_path):
        hang = threading.Event()

        def worker(job, cache_dir):
            if job.seed == 1:
                # No spans while blocked: the heartbeat goes stale.
                hang.wait(timeout=60)
            return {"ok": True}

        thread, client = _server(
            tmp_path, worker, lane_hang_s=0.3, watchdog_interval_s=0.1
        )
        try:
            doc = client.submit(**_spec_doc(seed=1))
            final = client.wait(doc["job"], timeout=30)
            assert final["state"] == "failed"
            assert any("hung" in cause for cause in final["causes"])
            assert client.stats()["watchdog_restarts"] == 1
            # The lane survives its abandoned thread: the next job runs
            # on the restarted lane's fresh farm.
            ok = client.submit(**_spec_doc(seed=2))
            assert client.wait(ok["job"], timeout=30)["state"] == "done"
        finally:
            hang.set()
            thread.stop()


class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = CircuitBreaker(failures=3, window_s=10.0, cooldown_s=0.05)
        breaker.record_failure("boom")
        breaker.record_failure("boom")
        assert not breaker.open
        breaker.record_failure("boom")
        assert breaker.open and breaker.trips == 1
        assert breaker.retry_after() >= 0
        time.sleep(0.06)
        assert not breaker.open  # cooldown lapsed: half-open
        breaker.record_success()
        assert breaker.cause is None
        assert breaker.doc()["recent_failures"] == 0

    def test_store_volume_errors_trip_instantly(self):
        breaker = CircuitBreaker(failures=100, window_s=10.0, cooldown_s=5.0)
        breaker.record_failure("write failed: No space left on device")
        assert breaker.open
        assert "store volume failing" in breaker.cause

    def test_degraded_mode_rejects_new_work_serves_old(self, tmp_path):
        thread, client = _server(
            tmp_path, lambda *a: {"ok": True}, breaker_cooldown_s=30.0
        )
        try:
            done = client.submit(**_spec_doc(seed=1))
            assert client.wait(done["job"])["state"] == "done"
            server = thread.server
            server._loop.call_soon_threadsafe(
                server.breaker.record_failure, "ENOSPC: no space left"
            )
            deadline = time.monotonic() + 10
            while not client.healthz()["degraded"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ServeError) as excinfo:
                client.submit(**_spec_doc(seed=2))
            assert excinfo.value.status == 503
            assert excinfo.value.doc["degraded"] is True
            assert excinfo.value.doc["retry_after_s"] > 0
            # Finished work stays reachable while degraded: the dedupe
            # path answers before the breaker gate.
            again = client.submit(**_spec_doc(seed=1))
            assert again["state"] == "done"
            assert client.stats()["rejected_degraded"] == 1
        finally:
            thread.stop()


class TestClientRetry:
    def test_submit_retrying_gives_up_after_max_wait(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient("127.0.0.1", port, client_id="t")
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            client.submit_retrying(**_spec_doc(), max_wait=0.3)
        assert time.monotonic() - start < 5

    def test_submit_retrying_rides_out_a_restart(self, tmp_path):
        """Connection refused is retried until the server comes back."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        booted = {}

        def late_boot():
            time.sleep(0.4)
            booted["thread"] = ServerThread(
                ReproServer(
                    ServeConfig(
                        port=port, lanes=1,
                        cache_dir=str(tmp_path / "cache"),
                    ),
                    worker=lambda *a: {"ok": True},
                )
            ).start()

        boot_thread = threading.Thread(target=late_boot)
        boot_thread.start()
        client = ServeClient("127.0.0.1", port, client_id="t")
        try:
            doc = client.submit_retrying(**_spec_doc(), max_wait=30)
            assert doc["state"] in ("queued", "running", "done")
            assert client.wait(doc["job"], timeout=30)["state"] == "done"
        finally:
            boot_thread.join(timeout=30)
            if "thread" in booted:
                booted["thread"].stop()

    def test_draining_503_without_hint_is_not_retried(self, tmp_path):
        release = threading.Event()

        def worker(job, cache_dir):
            release.wait(timeout=60)
            return {"ok": True}

        thread, client = _server(tmp_path, worker)
        try:
            client.submit(**_spec_doc(seed=1))
            time.sleep(0.1)  # lane picks it up; drain will wait on it
            client.shutdown()
            time.sleep(0.2)  # the drain task sets the flag on the loop
            start = time.monotonic()
            with pytest.raises(ServeError) as excinfo:
                client.submit_retrying(**_spec_doc(seed=2), max_wait=30)
            assert excinfo.value.status == 503
            assert time.monotonic() - start < 5  # no retry loop
        finally:
            release.set()
            thread.stop()

    def test_wait_ready_blocks_until_boot(self, tmp_path):
        thread, client = _server(tmp_path, lambda *a: {"ok": True})
        try:
            assert client.wait_ready(10)["ok"] is True
        finally:
            thread.stop()


class TestEventReplayCursor:
    def test_resume_after_disconnect_is_gap_free(self, tmp_path):
        thread, client = _server(tmp_path, lambda *a: {"ok": True})
        try:
            doc = client.submit(**_spec_doc())
            client.wait(doc["job"])
            events = list(client.events(doc["job"], timeout=60))
            assert [e["event"] for e in events] == [
                "queued", "started", "done"
            ]
            cursor = events[0]["seq"]
            resumed = list(
                client.events(doc["job"], timeout=60, after_seq=cursor)
            )
            assert [e["seq"] for e in resumed] == [
                e["seq"] for e in events[1:]
            ]
            # A cursor at the end replays nothing — just a clean close.
            assert list(
                client.events(
                    doc["job"], timeout=60, after_seq=events[-1]["seq"]
                )
            ) == []
        finally:
            thread.stop()
