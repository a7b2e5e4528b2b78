"""Scaled-down serve load test: the full harness at CI-friendly scale.

Runs the same :func:`repro.serve.loadtest.run_loadtest` the
``repro loadtest`` command uses — concurrent tenants, duplicate-heavy
traffic, cold wave then warm (registry-reset) wave — but with a stub farm
worker and a modest fleet so the whole thing finishes in seconds on one
core.  The asserted properties are scale-independent: zero dropped or
incorrect responses, duplicates served without recomputation, and every
metric field the full ``BENCH_serve.json`` carries present and sane.
"""

from __future__ import annotations

import time

from repro.serve import check_loadtest, run_loadtest
from repro.util.tables import format_table


def _stub_worker(job, cache_dir):
    time.sleep(0.01)
    return {"workload": job.workload, "seed": job.seed}


def test_serve_load(record_exhibit, tmp_path):
    doc = run_loadtest(
        clients=24,
        requests_per_client=2,
        unique=4,
        lanes=2,
        queue_depth=8,
        timeout=120.0,
        worker=_stub_worker,
        out=tmp_path / "BENCH_serve_small.json",
    )

    problems = check_loadtest(doc)
    assert problems == [], problems
    assert doc["requests"] == 2 * 24 * 2  # cold + warm waves, none dropped
    assert doc["errors"] == 0 and doc["dropped"] == 0
    # 4 unique specs: computed once cold; the warm wave replays them from
    # the persistent store after the registry reset.
    assert doc["cache"]["fresh_runs"] <= 2 * 4
    assert doc["cache"]["hit_rate"] > 0.5
    for wave in doc["waves"].values():
        assert wave["latency_s"]["p50"] <= wave["latency_s"]["p99"]
        assert wave["fairness"]["spread"] >= 1.0

    rows = [
        [
            name,
            wave["requests"],
            f"{wave['latency_s']['p50'] * 1e3:.0f}",
            f"{wave['latency_s']['p99'] * 1e3:.0f}",
            f"{wave['throughput_rps']:.0f}",
            f"{wave['fairness']['spread']:.2f}",
        ]
        for name, wave in doc["waves"].items()
    ]
    record_exhibit(
        "serve_load",
        format_table(
            ["wave", "requests", "p50 ms", "p99 ms", "req/s", "fairness"],
            rows,
            title=(
                f"serve loadtest: {doc['clients']} clients, "
                f"{doc['unique_specs']} unique specs, cache hit rate "
                f"{doc['cache']['hit_rate']}"
            ),
        ),
    )
