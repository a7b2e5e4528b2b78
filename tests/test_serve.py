"""The characterization service: dedupe, streaming, fairness, shutdown.

Most tests inject stub farm workers (the farm runs them serially in the
server's lane threads, so plain closures over :class:`threading.Event`
work) — the service mechanics under test are independent of what the job
computes.  One test runs the real pipeline end to end to pin the
bit-identity contract: a served artifact is the same bytes a direct farm
run of the same spec produces.
"""

import hashlib
import threading
import time

import pytest

from repro.farm import ArtifactStore, Farm, JobSpec
from repro.farm.store import unseal
from repro.observe import spans as obs_spans
from repro.serve import (
    Backpressure,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
)

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


class TestSubmitAndDedupe:
    def test_identical_submissions_run_once(self, tmp_path):
        runs = []
        lock = threading.Lock()

        def worker(job, cache_dir):
            with lock:
                runs.append(job.key())
            time.sleep(0.1)
            return {"ok": True}

        thread, client = _server(tmp_path, worker)
        try:
            first = client.submit(**_spec_doc())
            second = client.submit(**_spec_doc())
            assert second["job"] == first["job"]
            final = client.wait(first["job"])
            assert final["state"] == "done"
            # A spec that hashes to an existing entry attaches; it never
            # enqueues a second farm run.
            third = client.submit(**_spec_doc())
            assert third["state"] == "done"
            stats = client.stats()
            assert len(runs) == 1
            assert stats["dedup_hits"] == 2
            assert stats["submissions"] == 3
        finally:
            thread.stop()

    def test_distinct_specs_are_distinct_jobs(self, tmp_path):
        def worker(job, cache_dir):
            return {"seed": job.seed}

        thread, client = _server(tmp_path, worker)
        try:
            a = client.submit(**_spec_doc(seed=1))
            b = client.submit(**_spec_doc(seed=2))
            assert a["job"] != b["job"]
            assert client.wait(a["job"])["state"] == "done"
            assert client.wait(b["job"])["state"] == "done"
        finally:
            thread.stop()

    def test_validation_errors(self, tmp_path):
        thread, client = _server(tmp_path, lambda *a: {"ok": True})
        try:
            with pytest.raises(ServeError) as excinfo:
                client.submit("sim", "NoSuchGame/demo", 1)
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client.submit("sim", "UT2004/Primeval", 10_000)
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                client.submit(
                    "sim", "UT2004/Primeval", 1, config={"warp_factor": 9}
                )
            assert excinfo.value.status == 400
            # Fields removed from GpuConfig in 3.0.0 are unknown fields.
            for field, value in (("fused", True), ("threads", 4)):
                with pytest.raises(ServeError) as excinfo:
                    client.submit(
                        "sim", "UT2004/Primeval", 1, config={field: value}
                    )
                assert excinfo.value.status == 400
                assert excinfo.value.doc["path"] == f"config.{field}"
        finally:
            thread.stop()


class TestEventStream:
    def test_ws_events_match_span_sequence(self, tmp_path):
        """The WS stream replays the job's spans in publication order."""

        def worker(job, cache_dir):
            obs_spans.enable(track="stub", env=False)
            try:
                with obs_spans.span("alpha"):
                    with obs_spans.span("beta"):
                        pass
                with obs_spans.span("gamma"):
                    pass
            finally:
                obs_spans.disable()
            return {"ok": True}

        thread, client = _server(tmp_path, worker, verbose_events=True)
        try:
            doc = client.submit(**_spec_doc())
            events = list(client.events(doc["job"], timeout=60))
        finally:
            thread.stop()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[1] == "started"
        assert kinds[-1] == "done"
        spans = [e for e in events if e["event"] == "span"]
        assert [(e["name"], e["phase"]) for e in spans] == [
            ("alpha", "start"),
            ("beta", "start"),
            ("beta", "end"),
            ("alpha", "end"),
            ("gamma", "start"),
            ("gamma", "end"),
        ]
        # Global event seq and per-span logical seq are both monotonic.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        span_seqs = [e["span_seq"] for e in spans]
        assert span_seqs == sorted(span_seqs)

    def test_late_subscriber_gets_full_replay(self, tmp_path):
        thread, client = _server(tmp_path, lambda *a: {"ok": True})
        try:
            doc = client.submit(**_spec_doc())
            client.wait(doc["job"])
            events = list(client.events(doc["job"], timeout=60))
        finally:
            thread.stop()
        assert [e["event"] for e in events] == ["queued", "started", "done"]


class TestBackpressure:
    def test_429_when_client_queue_is_full(self, tmp_path):
        release = threading.Event()

        def worker(job, cache_dir):
            release.wait(timeout=60)
            return {"ok": True}

        thread, client = _server(tmp_path, worker, queue_depth=1)
        try:
            running = client.submit(**_spec_doc(seed=0))
            queued = client.submit(**_spec_doc(seed=1))
            with pytest.raises(Backpressure) as excinfo:
                client.submit(**_spec_doc(seed=2))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1.0
            release.set()
            assert client.wait(running["job"])["state"] == "done"
            assert client.wait(queued["job"])["state"] == "done"
            assert client.stats()["rejected_backpressure"] == 1
        finally:
            release.set()
            thread.stop()


class TestFairScheduling:
    def test_round_robin_across_clients(self, tmp_path):
        """One hog with a deep queue can't starve light tenants."""
        release = threading.Event()
        order = []
        lock = threading.Lock()

        def worker(job, cache_dir):
            if job.seed == 99:
                release.wait(timeout=60)
            with lock:
                order.append(job.seed)
            return {"ok": True}

        thread, _ = _server(tmp_path, worker, queue_depth=8)
        host, port = thread.host, thread.port
        blocker = ServeClient(host, port, client_id="blocker")
        hog = ServeClient(host, port, client_id="hog")
        light1 = ServeClient(host, port, client_id="light1")
        light2 = ServeClient(host, port, client_id="light2")
        try:
            plug = blocker.submit(**_spec_doc(seed=99))
            time.sleep(0.2)  # let the lane pick the blocker up
            hogs = [hog.submit(**_spec_doc(seed=s)) for s in (10, 11, 12)]
            lights = [
                light1.submit(**_spec_doc(seed=20)),
                light2.submit(**_spec_doc(seed=30)),
            ]
            release.set()
            for doc in [plug] + hogs + lights:
                assert blocker.wait(doc["job"])["state"] == "done"
        finally:
            release.set()
            thread.stop()
        # Round-robin drain: each light client's single job runs between
        # the hog's, never after its whole backlog.
        assert order[0] == 99
        assert order[1:4] == [10, 20, 30]
        assert order[4:] == [11, 12]


class TestGracefulShutdown:
    def test_drain_finishes_running_and_cancels_queued(self, tmp_path):
        release = threading.Event()

        def worker(job, cache_dir):
            release.wait(timeout=60)
            return {"ok": True}

        thread, client = _server(tmp_path, worker, queue_depth=8)
        try:
            running = client.submit(**_spec_doc(seed=0))
            queued = client.submit(**_spec_doc(seed=1))
            time.sleep(0.2)  # lane picks up the first job
            assert client.shutdown()["draining"] is True
            with pytest.raises(ServeError) as excinfo:
                client.submit(**_spec_doc(seed=2))
            assert excinfo.value.status == 503
            release.set()
        finally:
            release.set()
            thread.stop()
        entries = thread.server.entries
        assert entries[running["job"]].state == "done"
        assert entries[queued["job"]].state == "cancelled"
        assert thread.server.stats["cancelled"] == 1


class TestServedBitIdentity:
    def test_served_artifact_identical_to_direct_run(self, tmp_path):
        """Same JobSpec key ⇒ same artifact bytes, served or direct."""
        spec = JobSpec("sim", "UT2004/Primeval", 1)
        thread, client = _server(tmp_path, None)  # real pipeline
        try:
            doc = client.submit(
                kind=spec.kind, workload=spec.workload, frames=spec.frames
            )
            assert client.wait(doc["job"], timeout=600)["state"] == "done"
            served, served_sha = client.artifact(doc["job"])
            result = client.result(doc["job"])

            # The same spec resubmitted after a registry reset (a server
            # restart over the persistent cache) is served from the store.
            thread.reset_registry()
            again = client.submit(
                kind=spec.kind, workload=spec.workload, frames=spec.frames
            )
            final = client.wait(again["job"], timeout=600)
            assert final["from_cache"] is True
            assert client.stats()["cache_hits"] == 1
        finally:
            thread.stop()

        direct_store = ArtifactStore(tmp_path / "direct")
        with Farm(store=direct_store, jobs=1) as farm:
            farm.run_one(spec)
        _, payload = unseal(direct_store.artifact_path(spec).read_bytes())
        direct = bytes(payload)

        assert hashlib.sha256(served).hexdigest() == served_sha
        assert served == direct
        assert result["summary"]["frames"] == 1
        assert result["artifact_sha256"] == served_sha


class TestServedStore:
    def test_fresh_job_leaves_only_its_artifact(self, tmp_path):
        """A lane's span buffer goes to its live events, not to the store."""
        thread, client = _server(tmp_path, None)  # real pipeline
        try:
            doc = client.submit(kind="api", workload="UT2004/Primeval", frames=1)
            assert client.wait(doc["job"], timeout=600)["state"] == "done"
        finally:
            thread.stop()
        artifacts = tmp_path / "cache" / "artifacts"
        assert [p.name for p in artifacts.iterdir()] == [f"{doc['job']}.pkl"]


class TestHttpSurface:
    def test_health_workloads_stats_and_404s(self, tmp_path):
        thread, client = _server(tmp_path, lambda *a: {"ok": True})
        try:
            health = client.healthz()
            assert health["ok"] is True and health["draining"] is False
            assert "UT2004/Primeval" in client.workloads()
            assert client.stats()["jobs"] == 0
            with pytest.raises(ServeError) as excinfo:
                client.status("deadbeef")
            assert excinfo.value.status == 404
            doc = client.submit(**_spec_doc())
            client.wait(doc["job"])
            # result/artifact 409 only before the job is terminal; a stub
            # worker stores nothing, so artifact 404s even when done.
            with pytest.raises(ServeError) as excinfo:
                client.artifact(doc["job"])
            assert excinfo.value.status == 404
        finally:
            thread.stop()


def test_client_and_server_protocol_versions_locked():
    from repro.serve.client import PROTOCOL_VERSION
    from repro.serve.protocol import VERSION

    assert PROTOCOL_VERSION == VERSION
