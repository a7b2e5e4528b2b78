"""repro.observe: spans, metrics, exports, and cross-process collection.

The subsystem's contract, each clause tested here:

* spans nest correctly and the logical (event-sequence) clock makes
  exports **bit-stable** — identical across reruns and across farm pool
  widths for the same workload/seed; a pinned run exported serially and
  pooled reads the same counters and per-span counts;
* the disabled path is free: ``span()`` hands back a shared no-op
  singleton and allocates nothing, so instrumentation can live in the
  pipeline's hot loops permanently;
* attaching the observer never changes simulation results — statistics
  are bit-identical traced vs. untraced;
* worker span buffers ride each unit's result envelope and merge into
  one timeline at harvest, the same with or without a store;
* exports round-trip (JSONL) and satisfy the Chrome-trace schema check;
* ``FarmTelemetry`` phase accounting reads from a metrics registry and
  is mirrored into the process registry while tracing, so the farm
  summary line and a traced run's metrics dump can never disagree.
"""

from __future__ import annotations

import json
import pickle
import tracemalloc

import pytest

from repro.compare import from_spans
from repro.farm import ArtifactStore, Farm, sim_job
from repro.farm.checkpoint import clear_trace_cache
from repro.farm.telemetry import FarmTelemetry
from repro.observe import (
    absorb,
    ascii_timeline,
    from_jsonl,
    metrics,
    spans,
    to_chrome,
    to_jsonl,
    top_spans,
    validate_chrome,
)
from repro.workloads import build_workload

WORKLOAD = "UT2004/Primeval"


@pytest.fixture(autouse=True)
def _clean_observe():
    spans.disable()
    metrics.reset()
    clear_trace_cache()
    yield
    spans.disable()
    metrics.reset()
    clear_trace_cache()


# -- span mechanics --------------------------------------------------------
def test_span_nesting_parent_indices_and_sequence():
    tracer = spans.enable(env=False)
    with spans.span("outer", "t"):
        with spans.span("inner", "t") as s:
            s.set("k", 1)
        with spans.span("inner2", "t"):
            pass
    spans.disable()
    docs = [s.as_dict() for s in tracer.spans]
    assert [d["name"] for d in docs] == ["outer", "inner", "inner2"]
    assert [d["parent"] for d in docs] == [-1, 0, 0]
    outer, inner, inner2 = docs
    # sequence clock: every start and end ticks, children nest strictly
    assert outer["s0"] < inner["s0"] < inner["s1"] < inner2["s0"]
    assert inner2["s1"] < outer["s1"]
    assert inner["attrs"] == {"k": 1}
    assert outer["t1"] >= outer["t0"] >= 0


def test_payload_closes_open_spans_in_copy_only():
    tracer = spans.enable(env=False)
    open_span = spans.span("open", "t")
    payload = tracer.payload()
    assert payload["spans"][0]["s1"] is not None
    assert open_span.s1 is None  # the live span is untouched
    spans.disable()


def test_disabled_span_is_shared_noop_singleton():
    assert not spans.enabled()
    s = spans.span("anything", "t")
    assert s is spans.NOOP
    assert s is spans.span("other")
    assert not s  # falsy → attr blocks are skipped
    s.set("k", 1)  # and set() is a no-op
    with s:
        pass


def _hot_loop(iterations):
    for _ in iterations:
        s = spans.span("hot", "gpu")
        if s:
            s.set("k", 1)


def test_disabled_path_allocates_nothing():
    iterations = tuple(range(512))
    _hot_loop(iterations)  # warm up: bytecode, caches
    tracemalloc.start()
    _hot_loop(iterations)
    current, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert current == 0


def test_enable_sets_env_flag_for_workers():
    spans.enable(env=True)
    assert spans.env_enabled()
    spans.disable()
    assert not spans.env_enabled()
    spans.enable(env=False)
    assert not spans.env_enabled()
    spans.disable()


def test_unit_scope_fresh_in_worker_like_process(monkeypatch):
    monkeypatch.setenv(spans.ENV_FLAG, "1")
    assert spans.current() is None
    scope = spans.UnitScope("unit-a")
    assert scope.fresh
    with spans.span("work", "t"):
        pass
    payload = scope.finish(metrics={"m": {"type": "counter", "value": 1}})
    assert spans.current() is None  # uninstalled after the unit
    assert payload["track"] == "unit-a"
    assert [s["name"] for s in payload["spans"]] == ["job:unit-a", "work"]
    assert payload["metrics"]["m"]["value"] == 1


def test_unit_scope_is_plain_span_under_parent_tracer():
    tracer = spans.enable(env=True)
    scope = spans.UnitScope("unit-b")
    assert not scope.fresh
    assert scope.finish() is None  # no payload: spans went to the parent
    spans.disable()
    assert [s.name for s in tracer.spans] == ["job:unit-b"]


# -- metrics registry ------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = metrics.MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2)
    reg.gauge("g").set(7)
    hist = reg.histogram("h", buckets=(10, 100))
    for value in (5, 50, 5000):
        hist.observe(value)
    assert reg.counter("c").value == 3
    assert reg.gauge("g").value == 7
    assert hist.counts == [1, 1, 1]  # <=10, <=100, overflow
    assert hist.count == 3 and hist.total == 5055
    with pytest.raises(TypeError):
        reg.gauge("c")  # kind mismatch is loud


def test_metrics_merge_is_order_independent():
    a = metrics.MetricsRegistry()
    a.counter("jobs").inc(2)
    a.gauge("mem").set(10)
    a.histogram("h").observe(5)
    b = metrics.MetricsRegistry()
    b.counter("jobs").inc(3)
    b.gauge("mem").set(25)
    b.histogram("h").observe(500)

    ab = metrics.MetricsRegistry()
    ab.merge(a.snapshot())
    ab.merge(b.snapshot())
    ba = metrics.MetricsRegistry()
    ba.merge(b.snapshot())
    ba.merge(a.snapshot())
    assert ab.snapshot() == ba.snapshot()
    assert ab.counter("jobs").value == 5  # counters add
    assert ab.gauge("mem").value == 25  # gauges take the max


def test_metrics_merge_rejects_malformed():
    reg = metrics.MetricsRegistry()
    with pytest.raises(TypeError):
        reg.merge({"x": {"type": "exotic", "value": 1}})
    reg.histogram("h", buckets=(1, 2))
    with pytest.raises(ValueError):
        reg.merge(
            {
                "h": {
                    "type": "histogram",
                    "buckets": [9],
                    "counts": [0, 0],
                    "total": 0,
                    "count": 0,
                }
            }
        )


# -- exports ---------------------------------------------------------------
def _sample_timeline():
    tracer = spans.enable(env=False)
    with spans.span("run", "t"):
        with spans.span("frame", "t") as s:
            s.set("frame", 0)
    timeline = tracer.timeline({"c": {"type": "counter", "value": 1}})
    spans.disable()
    return timeline


def test_jsonl_roundtrip_and_chrome_schema():
    timeline = _sample_timeline()
    parsed = from_jsonl(to_jsonl(timeline))
    assert parsed == timeline
    for clock in ("logical", "wall"):
        doc = to_chrome(parsed, clock=clock)
        assert validate_chrome(doc) == []
        assert doc == to_chrome(timeline, clock=clock)
    names = [e["name"] for e in to_chrome(timeline)["traceEvents"]]
    assert names == ["process_name", "run", "frame"]


def test_validate_chrome_flags_violations():
    assert validate_chrome({}) != []
    assert validate_chrome({"traceEvents": []}) == ["traceEvents is empty"]
    bad_ph = {"traceEvents": [{"ph": "Q", "name": "x", "pid": 1, "tid": 0}]}
    assert any("ph" in e for e in validate_chrome(bad_ph))
    negative = {
        "traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0, "dur": -1}
        ]
    }
    assert any("dur" in e for e in validate_chrome(negative))
    overlap = {
        "traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": 0, "dur": 10},
            {"ph": "X", "name": "b", "pid": 1, "tid": 0, "ts": 5, "dur": 10},
        ]
    }
    assert any("overlaps" in e for e in validate_chrome(overlap))


def test_top_spans_and_ascii_timeline():
    timeline = _sample_timeline()
    ranked = top_spans(timeline, 10)
    assert [r["name"] for r in ranked] == ["run", "frame"]
    run = ranked[0]
    # self time excludes the child's wall time
    assert run["self_ns"] == run["total_ns"] - ranked[1]["total_ns"]
    art = ascii_timeline(timeline)
    assert "run" in art and "frame" in art and "track main" in art


# -- absorbing worker tracks -----------------------------------------------
def _fake_payload():
    return {
        "track": "unit",
        "pid": 7,
        "epoch_ns": 100,
        "anchor_ns": 40,
        "metrics": {"gpu.frames": {"type": "counter", "value": 1}},
        "spans": [
            {
                "name": "job:unit", "cat": "farm", "parent": -1,
                "s0": 0, "s1": 3, "t0": 50, "t1": 90, "attrs": {},
            },
            {
                "name": "gpu.run", "cat": "gpu", "parent": 0,
                "s0": 1, "s1": 2, "t0": 55, "t1": 85, "attrs": {"frames": 1},
            },
        ],
    }


def test_absorb_merges_track_and_metrics():
    assert not absorb(_fake_payload())  # not tracing: the payload is dropped
    tracer = spans.enable(env=False)
    assert not absorb(None)  # the unit traced into this tracer, or not at all
    assert absorb(_fake_payload())
    spans.disable()
    assert list(tracer.foreign) == ["unit"]
    # The counters live once, in the registry the first track carries.
    assert "metrics" not in tracer.foreign["unit"]
    assert metrics.registry().counter("gpu.frames").value == 1
    assert metrics.registry().counter("observe.tracks_merged").value == 1


# -- telemetry phases ------------------------------------------------------
def test_farm_telemetry_phases_are_a_plain_dict():
    telemetry = FarmTelemetry()
    telemetry.add_phase("trace", 0.5)
    telemetry.add_phase("trace", 0.25)
    telemetry.add_phase("merge", 1.0)
    assert telemetry.phases == {"merge": 1.0, "trace": 0.75}
    assert type(telemetry.phases) is dict
    assert not hasattr(telemetry, "registry")
    line = telemetry.summary_line()
    assert "[merge 1.00s trace 0.75s]" in line


def test_private_telemetry_mirrors_to_shared_registry_while_tracing():
    telemetry = FarmTelemetry()
    telemetry.add_phase("spawn", 1.0)  # not tracing: private only
    assert len(metrics.registry()) == 0
    spans.enable(env=False)
    telemetry.add_phase("spawn", 2.0)
    spans.disable()
    assert telemetry.phases["spawn"] == 3.0
    assert metrics.registry().counter("farm.phase.spawn").value == 2.0


# -- simulation integration ------------------------------------------------
@pytest.fixture(scope="module")
def ut_one_frame():
    workload = build_workload(WORKLOAD, sim=True)
    trace = workload.trace(frames=1).materialize()
    return workload, trace


def _run_sim(workload, trace):
    return workload.simulator().run_trace(trace, max_frames=1)


def test_observer_never_changes_simulation_statistics(ut_one_frame):
    workload, trace = ut_one_frame
    untraced = _run_sim(workload, trace)
    tracer = spans.enable(env=False)
    traced = _run_sim(workload, trace)
    spans.disable()
    assert pickle.dumps(traced.stats) == pickle.dumps(untraced.stats)
    assert pickle.dumps(traced.frame_stats) == pickle.dumps(
        untraced.frame_stats
    )
    names = {s.name for s in tracer.spans}
    assert {"gpu.run", "gpu.frame", "gpu.draw", "gpu.stage.vertex"} <= names


def test_traced_rerun_exports_identically(ut_one_frame):
    workload, trace = ut_one_frame
    exports = []
    for _ in range(2):
        metrics.reset()
        tracer = spans.enable(env=False)
        _run_sim(workload, trace)
        timeline = tracer.timeline()
        spans.disable()
        exports.append(json.dumps(to_chrome(timeline), sort_keys=True))
    assert exports[0] == exports[1]


def _traced_farm_export(tmp, jobs, use_cache=True):
    metrics.reset()
    tracer = spans.enable(track="main")
    try:
        with Farm(
            store=ArtifactStore(tmp),
            jobs=jobs,
            use_cache=use_cache,
            shard_frames=2,
        ) as farm:
            farm.run_one(sim_job(WORKLOAD, 2))
        timeline = tracer.timeline(metrics.registry().snapshot())
    finally:
        spans.disable()
    return timeline, json.dumps(to_chrome(timeline), sort_keys=True)


def test_worker_tracks_merge_bit_stably_across_jobs_widths(tmp_path):
    timeline2, export2 = _traced_farm_export(tmp_path / "a", jobs=2)
    timeline4, export4 = _traced_farm_export(tmp_path / "b", jobs=4)
    # Worker tracks ride the result envelope, not the store.
    _, export_nostore = _traced_farm_export(
        tmp_path / "c", jobs=2, use_cache=False
    )
    tracks = [t["track"] for t in timeline2]
    assert tracks[0] == "main" and len(tracks) == 3  # one per frame shard
    assert export2 == export4
    assert export_nostore == export2
    assert validate_chrome(json.loads(export2)) == []
    merged = metrics.registry().counter("observe.tracks_merged").value
    assert merged == 2


def test_pinned_export_counts_agree_across_widths(tmp_path):
    """One pinned run exported serially and pooled: every worker counter
    is exported once, and both plans trace the same spans."""
    runs = {}
    for jobs in (1, 2):
        timeline, _ = _traced_farm_export(tmp_path / str(jobs), jobs=jobs)
        path = tmp_path / f"jobs{jobs}.jsonl"
        path.write_text(to_jsonl(timeline))
        runs[jobs] = from_spans(path)
    serial, pooled = runs[1], runs[2]
    assert serial.metrics["gpu.frames"] == pooled.metrics["gpu.frames"] == 2
    assert (
        serial.metrics["gpu.fragments_shaded"]
        == pooled.metrics["gpu.fragments_shaded"]
    )
    assert {name: stage["count"] for name, stage in serial.stages.items()} == {
        name: stage["count"] for name, stage in pooled.stages.items()
    }
