"""The benchmark's own tests: accounting, output checks, tiny smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

from perfbench import checks, hooks, serve_load, spans, workloads
from perfbench.common import Scratch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def scratch(tmp_path):
    s = Scratch(str(tmp_path))
    yield s
    s.close()


def _span(layer, start, end, parent, sid, tid=1):
    return [layer, start, end, parent, sid, tid, None]


def test_self_time_subtracts_children_and_splits_concurrency():
    # One thread: A [0,100] with children B [10,40] and C [50,60]; another
    # process runs D [20,80].  Window [0,120].
    main = {"pid": 1, "spans": [
        _span("B", 10, 40, 1, 2), _span("C", 50, 60, 1, 3),
        _span("A", 0, 100, 0, 1)]}
    other = {"pid": 2, "spans": [_span("D", 20, 80, 0, 1)]}
    acc = spans.account([main, other], 0, 120)
    got = {k: round(v * 1e9, 6) for k, v in acc["self_s"].items()}
    assert got == {"A": 45.0, "B": 20.0, "C": 5.0, "D": 30.0}
    assert round(acc["other_s"] * 1e9, 6) == 20.0
    assert sum(acc["self_s"].values()) + acc["other_s"] == pytest.approx(
        acc["wall_s"], abs=1e-15)
    # Busy time is the classic per-thread self time.
    assert round(acc["busy_s"]["A"] * 1e9, 6) == 60.0
    assert round(acc["busy_s"]["D"] * 1e9, 6) == 60.0
    assert acc["calls"] == {"A": 1, "B": 1, "C": 1, "D": 1}


def test_nested_wrappers_account_for_the_traced_wall_time():
    rec = spans.SpanRecorder()
    inner = hooks._wrap(lambda: time.sleep(0.02), "inner", rec)
    outer = hooks._wrap(lambda: (time.sleep(0.01), inner(), inner()),
                        "outer", rec)
    start = time.perf_counter_ns()
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    time.sleep(0.01)
    end = time.perf_counter_ns()
    acc = spans.account(rec.collect(), start, end)
    total = sum(acc["self_s"].values()) + acc["other_s"]
    assert total == pytest.approx(acc["wall_s"], rel=1e-12)
    assert acc["calls"] == {"outer": 2, "inner": 4}
    assert acc["busy_s"]["inner"] >= 0.08
    assert 0.02 <= acc["busy_s"]["outer"] < acc["busy_s"]["inner"]
    assert acc["other_s"] >= 0.01


def test_hooks_restore_originals_and_report_missing_targets():
    from repro.gpu import pipeline
    from repro.gpu.vertex import VertexStage

    process, raster = VertexStage.process, pipeline.rasterize_draw
    rec = spans.SpanRecorder()
    installed = hooks.install(rec)
    try:
        assert VertexStage.process is not process
        assert pipeline.rasterize_draw is not raster
        assert not installed.missing
        assert not installed.hook("x", "repro.gpu.texture:TextureUnit.nope")
        assert not installed.hook("x", "repro.no_such_module:f")
        assert installed.missing == ["repro.gpu.texture:TextureUnit.nope",
                                     "repro.no_such_module:f"]
    finally:
        installed.remove()
    assert VertexStage.process is process
    assert pipeline.rasterize_draw is raster


def test_perturbed_engine_fingerprint_is_a_failed_operation(scratch):
    result = workloads.engines_pass(
        scratch, frames=1, engines=("UT2004/Primeval",), warm_repeats=1)
    good = {"UT2004/Primeval@1": checks.sim_fingerprint(
        result["results"]["UT2004/Primeval"])}
    out = workloads.Outcome()
    workloads.check_engines(result, good, out)
    assert (out.attempted, out.failed) == (2, 0)
    bad = {name: "0" + digest[1:] for name, digest in good.items()}
    out = workloads.Outcome()
    workloads.check_engines(result, bad, out)
    assert (out.attempted, out.failed) == (2, 1)
    # A perturbed result no longer matches its own fingerprint.
    result["results"]["UT2004/Primeval"].frame_stats[0].fragments_shaded += 1
    out = workloads.Outcome()
    workloads.check_engines(result, good, out)
    assert out.failed == 2


def test_exhibits_and_serve_checks_count_failures():
    out = workloads.Outcome()
    fake = {"text": "md", "budget": (1, 1, 1), "warm": [0.1, 0.1],
            "warm_same": [True, False]}
    workloads.check_exhibits(
        fake, {"1/1/1": checks.text_fingerprint("md")}, out)
    assert (out.attempted, out.failed) == (3, 1)
    spec = {"kind": "api", "workload": "UT2004/Primeval", "frames": 1,
            "seed": 1}
    record = {"spec": spec, "state": "done", "error": None,
              "summary": {"frames": 1}}
    load = {"records": [record, dict(record, summary={"frames": 2}), None]}
    out = workloads.Outcome()
    serve_load.check_serve(load, None, out)
    assert (out.attempted, out.failed) == (3, 2)


def test_engines_smoke(scratch):
    result = workloads.engines_pass(
        scratch, frames=1, engines=("UT2004/Primeval", "Doom3/trdemo2"),
        warm_repeats=2)
    out = workloads.Outcome()
    workloads.check_engines(result, None, out)
    assert out.attempted == 4 and out.failed == 0
    cold, warm = workloads.engines_e2e([result])
    assert cold > warm > 0
    layers = workloads.engines_layers(result)
    assert layers["gpu.frames"] == 2
    assert layers["sim_s_per_frame.ut2004"] > 0


def test_exhibits_smoke(scratch):
    result = workloads.exhibits_pass(scratch, budget=(1, 1, 1), min_warm=1)
    out = workloads.Outcome()
    workloads.check_exhibits(result, None, out)
    assert out.attempted == 2 and out.failed == 0
    assert result["cold"] > result["warm"][0] > 0
    assert "# EXPERIMENTS" in result["text"]


def test_serve_smoke(scratch):
    sequence = serve_load.request_sequence(7, requests=6)
    seconds, server = serve_load.ServerProc.start(scratch.store())
    try:
        load = serve_load.run_load(server, sequence, clients=2)
    finally:
        server.close()
    assert seconds > 0 and server.proc.returncode == 0
    out = workloads.Outcome()
    serve_load.check_serve(load, checks.load_references()["serve"], out)
    assert out.attempted == 6 and out.failed == 0
    e = serve_load.serve_e2e(load)
    assert e["n"] == 6 and e["p95"] >= e["p50"] > 0
    assert serve_load.serve_layers(load)["serve.fresh_runs"] >= 1


def test_request_sequence_is_seeded():
    assert (serve_load.request_sequence(3, 50)
            == serve_load.request_sequence(3, 50))
    assert (serve_load.request_sequence(3, 50)
            != serve_load.request_sequence(4, 50))


def test_every_seed_runs_the_same_fresh_jobs_per_kind():
    pool = serve_load.POOL_API + serve_load.POOL_SIM
    for seed in (1, 2, 3):
        sequence = serve_load.request_sequence(seed)
        distinct = {checks.summary_key(spec) for spec in sequence}
        kinds = [key.split(":")[0] for key in distinct]
        assert len(sequence) == serve_load.REQUESTS
        assert len(distinct) == pool
        assert kinds.count("sim") == serve_load.POOL_SIM


def test_speed_probe_samples_only_while_entered():
    from perfbench.common import SpeedProbe

    with SpeedProbe() as probe:
        time.sleep(0.3)
    taken = len(probe.samples)
    time.sleep(0.1)
    assert taken > 2 and len(probe.samples) == taken
    assert probe.factor > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engines",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_mirrors_the_metric_tables():
    import json

    from perfbench.metrics import END_TO_END, PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [row[:4] for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == [
        "engines", "exhibits", "serve"]
