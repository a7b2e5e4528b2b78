"""The ``serve`` workload: closed-loop clients against a server process.

``nproc`` client threads in the benchmark process each keep one request
outstanding.  A request does what a ``repro loadtest`` tenant does: submit,
follow the job's WebSocket events, fetch the result.  The workload seed
draws the spec seeds of a Zipf-skewed pool and the request sequence, so
most requests are dedupe or store hits and a minority (30%) run fresh
jobs; the p95 therefore falls inside the fresh jobs.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time

from perfbench import checks
from perfbench.common import SpeedProbe, median, percentile, proc_cpu_s

HERE = os.path.dirname(os.path.abspath(__file__))
TERMINAL = ("done", "failed", "cancelled")
WORKLOAD = "UT2004/Primeval"

#: Spec seeds the pool draws from; references are recorded for all of
#: them.  Every pool spec runs one fresh job, 30% of the requests, so p50
#: sits deep in the hits and p95 deep in the fresh jobs, and both clients
#: are nearly always running a job at once.  Few sim specs on purpose:
#: fresh sims (~1 s each) stay under 5% of requests, so p95 lands among the
#: fresh API jobs.  200 requests leave 10 beyond the p95.
API_SEEDS = range(1, 61)
SIM_SEEDS = range(1, 9)
POOL_API, POOL_SIM = 56, 4
ZIPF_S = 0.8
REQUESTS = 200


def request_sequence(seed: int, requests: int = REQUESTS) -> list[dict]:
    """The seeded request sequence over a Zipf-ranked pool of specs.

    Each pool spec is requested once and the other requests repeat specs
    by Zipf weight, in a seeded order; so every seed runs the same number
    of fresh jobs of each kind, and the server does the same work.
    """
    rng = random.Random(seed)
    pool = [{"kind": "api", "seed": s}
            for s in rng.sample(list(API_SEEDS), POOL_API)]
    pool += [{"kind": "sim", "seed": s}
             for s in rng.sample(list(SIM_SEEDS), POOL_SIM)]
    rng.shuffle(pool)
    pool = pool[:requests]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    sequence = pool + rng.choices(pool, weights=weights,
                                  k=requests - len(pool))
    rng.shuffle(sequence)
    return [{"workload": WORKLOAD, "frames": 1, **spec} for spec in sequence]


class ServerProc:
    """One server process on its own empty store."""

    @classmethod
    def start(cls, store: str, spans: str | None = None):
        """Boot; returns ``(seconds until /v1/healthz answers, server)``."""
        from repro.serve.client import ServeClient, ServeError

        argv = [sys.executable, os.path.join(HERE, "serve_proc.py"),
                "--store", store]
        if spans:
            argv += ["--spans", spans]
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        server = cls(proc)
        line = proc.stdout.readline().split()
        if line[:1] != ["port"]:
            server.close()
            raise RuntimeError("server process did not start")
        server.port = int(line[1])
        client = ServeClient("127.0.0.1", server.port, client_id="bench")
        deadline = begin + 60.0
        while True:
            try:
                client.healthz()
                break
            except (OSError, ServeError):
                if proc.poll() is not None or time.perf_counter() > deadline:
                    server.close()
                    raise RuntimeError("server process did not become ready")
                time.sleep(0.002)
        return time.perf_counter() - begin, server

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self, name: str, timeout: float = 300.0):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", self.port, client_id=name,
                           timeout=timeout)

    def close(self) -> None:
        """Graceful drain, then wait for the process to end."""
        from repro.serve.client import ServeError

        if self.proc.poll() is None and self.port:
            try:
                self.client("bench").shutdown()
            except (OSError, ServeError):
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _tenant(server: ServerProc, index: int, sequence, cursor, records,
            timeout: float) -> None:
    client = server.client(f"bench-{index}", timeout)
    while True:
        with cursor["lock"]:
            position = cursor["next"]
            cursor["next"] += 1
        if position >= len(sequence):
            return
        spec = sequence[position]
        record = {"spec": spec, "events": [], "summary": None, "error": None}
        started = time.perf_counter()
        try:
            doc = client.submit_retrying(max_wait=timeout, **spec)
            job = doc["job"]
            record["submitted"] = doc["state"]
            if doc["state"] not in TERMINAL:
                record["events"] = list(client.events(job, timeout=timeout))
            final = client.wait(job, timeout=timeout)
            record["state"] = final["state"]
            if final["state"] == "done":
                record["summary"] = client.result(job)["summary"]
        except Exception as exc:  # any failure is a failed operation
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency"] = time.perf_counter() - started
        records[position] = record


def run_load(server: ServerProc, sequence: list[dict],
             clients: int | None = None, timeout: float = 120.0) -> dict:
    """Drive ``sequence`` through ``clients`` closed-loop threads."""
    clients = clients or os.cpu_count() or 1
    records: list = [None] * len(sequence)
    cursor = {"next": 0, "lock": threading.Lock()}
    threads = [
        threading.Thread(target=_tenant, args=(
            server, i, sequence, cursor, records, timeout), daemon=True)
        for i in range(clients)
    ]
    begin = time.perf_counter()
    with SpeedProbe() as probe:
        cpu = proc_cpu_s(server.pid)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout * len(sequence))
        wall = time.perf_counter() - begin
        cpu = proc_cpu_s(server.pid) - cpu
    stats = server.client("bench").stats()
    return {"records": records, "wall": wall, "server_cpu": cpu,
            "speed": probe.factor, "stats": stats}


def check_serve(load: dict, refs: dict | None, out) -> None:
    """Every request done, summaries agree per spec and with the reference."""
    first: dict = {}
    for index, record in enumerate(load["records"]):
        if record is None:
            out.check(False, f"serve: request {index} never completed")
            continue
        spec = record["spec"]
        key = checks.summary_key(spec)
        summary = record["summary"]
        ok = record["error"] is None and record.get("state") == "done"
        ok = ok and first.setdefault(key, summary) == summary
        if refs is not None:
            ok = ok and refs.get(key) == summary
        out.check(ok, f"serve: request {index} {key}: state "
                      f"{record.get('state')} error {record['error']}")


def serve_e2e(load: dict) -> dict:
    latencies = [r["latency"] for r in load["records"] if r is not None]
    return {
        "p50": percentile(latencies, 0.50),
        "p95": percentile(latencies, 0.95),
        "rps": len(latencies) / load["wall"] if load["wall"] else 0.0,
        "cpu_per_request": (load["server_cpu"] / load["speed"]
                            / len(load["records"])),
        "n": len(latencies),
    }


def serve_layers(load: dict) -> dict:
    """Per-layer numbers from the requests' events and ``/v1/stats``."""
    waits, runs, events = [], [], 0
    seen: set = set()
    for record in load["records"]:
        if record is None:
            continue
        events += len(record["events"])
        stamps = {e["event"]: e["ts"] for e in record["events"]
                  if e.get("event") in ("queued", "started", "done")}
        job = record["events"][0]["job"] if record["events"] else None
        if job in seen or len(stamps) < 3:
            continue
        seen.add(job)
        waits.append(stamps["started"] - stamps["queued"])
        runs.append(stamps["done"] - stamps["started"])
    stats = load["stats"]
    answered = stats["dedup_hits"] + stats["cache_hits"]
    stats_total = stats["submissions"]
    probes = stats["store_hits"] + stats["store_misses"]
    p = serve_e2e(load)
    return {
        "farm.store.hit_rate": stats["store_hits"] / probes if probes else 0.0,
        "serve.queue_wait_s.p50": median(waits),
        "serve.run_s.p50": median(runs),
        "serve.ws_events": events,
        "serve.dedup_hits": stats["dedup_hits"],
        "serve.cache_hits": stats["cache_hits"],
        "serve.fresh_runs": stats["completed"] - stats["cache_hits"],
        "serve.hit_rate": answered / stats_total if stats_total else 0.0,
        "serve.rejected": (stats["rejected_backpressure"]
                           + stats["rejected_degraded"]),
        "serve_p50_s": p["p50"],
        "serve_p95_s": p["p95"],
        "serve_rps": p["rps"],
    }
