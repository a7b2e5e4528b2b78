"""Metric names, units and directions; ``BENCHMARK.json`` mirrors them.

Every workload reports every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``).  End-to-end metrics are host time at the
reference host speed (wall for ``setup_s``, CPU for ``cold_s``; see
``common.SpeedProbe``) or host memory.  Per-layer metrics mix host time
(``*.self_s``, ``*.ns_per_*``, ``farm.phase.*``, serve latencies), as
measured, with counts; the ``gpu.*`` event counts,
cache and memory figures and ``paper_error_pct`` are simulated quantities
and repeat exactly at a fixed budget.  A layer a workload does not exercise
reports 0.
"""

from __future__ import annotations

#: ``(name, unit, better, bound, why)``.  ``cold_s`` is CPU time, in the
#: workload's own unit of work (see README.md).  Both end-to-end times are
#: divided by the host speed a probe measured while they ran: on a shared
#: host the same cold work takes from 39 to 64 CPU seconds within minutes,
#: and its wall time swings with it.  The raw wall-time headlines
#: (per-engine s/frame, the cold pass, serve p50/p95/rps) and the warm
#: figures are reported among the per-layer metrics, unbounded.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "fresh process to ready: import, native kernels, Runner or server"),
    ("peak_rss_mb", "MB", "lower", 0.2,
     "peak resident memory, benchmark process plus workers or server"),
    ("cold_s", "s", "lower", 0.25,
     "CPU seconds of cold work on an empty store, at the reference speed: "
     "per simulated frame (engines), per cold pass (exhibits), server's "
     "per request (serve)"),
)

GPU_STAGES = ("vertex", "geometry", "raster", "hz", "zstencil", "alu",
              "texture", "color", "frame")
GPU_COUNTS = ("frames", "vertices_shaded", "triangles_traversed",
              "fragments_rasterized", "fragments_shaded", "fragments_blended",
              "fragment_instructions", "texture_requests", "bilinear_samples")
CACHES = ("zstencil", "color", "texture_l0", "texture_l1")
MEM_CLIENTS = ("vertex", "zstencil", "texture", "color", "dac", "cp")
FARM_PHASES = ("spawn", "trace", "simulate", "harvest", "merge")

#: Wrapped layers whose self time and call count are both reported.
TIMED_LAYERS = (
    *(f"gpu.{stage}" for stage in GPU_STAGES),
    "workloads.build", "workloads.trace",
    "farm.store.load", "farm.store.save", "farm.checkpoint",
    "farm.trace_store", "farm.key", "farm.job", "farm.worker",
    "serve.journal",
)
#: Wrapped layers whose self time alone is reported.
SELF_ONLY = ("api.trace_stats", "farm.merge", "farm.validate",
             "experiments.render", "serve.decode", "serve.summary")


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows: list[tuple[str, str, str]] = []
    for layer in TIMED_LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.append((f"{layer}.calls", "count", "lower"))
    for layer in SELF_ONLY:
        rows.append((f"{layer}.self_s", "s", "lower"))
    rows += [(f"gpu.{name}", "count", "lower") for name in GPU_COUNTS]
    for cache in CACHES:
        rows.append((f"gpu.cache.{cache}.accesses", "count", "lower"))
        rows.append((f"gpu.cache.{cache}.hit_rate", "ratio", "higher"))
    rows += [
        ("gpu.vertex_cache.hit_rate", "ratio", "higher"),
        ("gpu.quads_blended_ratio", "ratio", "lower"),
        *((f"gpu.memory.{c}_bytes", "bytes", "lower") for c in MEM_CLIENTS),
        ("gpu.ns_per_fragment", "ns", "lower"),
        ("gpu.texture.ns_per_bilinear", "ns", "lower"),
        ("gpu.alu.ns_per_instruction", "ns", "lower"),
        ("api.frames", "count", "lower"),
        *((f"farm.phase.{p}_s", "s", "lower") for p in FARM_PHASES),
        ("farm.jobs", "count", "lower"),
        ("farm.retries", "count", "lower"),
        ("farm.failed", "count", "lower"),
        ("farm.quarantined", "count", "lower"),
        ("farm.store.hit_rate", "ratio", "higher"),
        ("farm.store.bytes", "bytes", "lower"),
        ("serve.queue_wait_s.p50", "s", "lower"),
        ("serve.run_s.p50", "s", "lower"),
        ("serve.ws_events", "count", "lower"),
        ("serve.dedup_hits", "count", "higher"),
        ("serve.cache_hits", "count", "higher"),
        ("serve.fresh_runs", "count", "lower"),
        ("serve.hit_rate", "ratio", "higher"),
        ("serve.rejected", "count", "lower"),
        # The workloads' own headlines: the per-engine split of cold_s
        # and the warm figures, which are too noisy to bound.
        ("sim_s_per_frame.ut2004", "s", "lower"),
        ("sim_s_per_frame.doom3", "s", "lower"),
        ("sim_s_per_frame.quake4", "s", "lower"),
        ("sim_warm_s_per_frame", "s", "lower"),
        ("exhibits_cold_s", "s", "lower"),
        ("exhibits_warm_s", "s", "lower"),
        ("serve_p50_s", "s", "lower"),
        ("serve_p95_s", "s", "lower"),
        ("serve_rps", "1/s", "higher"),
        ("paper_error_pct", "%", "lower"),
        ("other.self_s", "s", "lower"),
        ("trace_overhead_pct", "%", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()

#: Engine label used in metric names, per simulated workload.
ENGINE_LABELS = {
    "UT2004/Primeval": "ut2004",
    "Doom3/trdemo2": "doom3",
    "Quake4/demo4": "quake4",
}
