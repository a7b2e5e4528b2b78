"""Simulated event counts, summed from returned results."""

from __future__ import annotations

from collections import defaultdict

from perfbench.metrics import CACHES, GPU_COUNTS, MEM_CLIENTS


def tally(counters: dict, result) -> None:
    """Add one result's simulated counts into ``counters``."""
    stats = getattr(result, "stats", None)
    if stats is None or not hasattr(result, "frame_stats"):
        frames = getattr(result, "frame_count", None)
        if frames is not None:
            counters["api.frames"] += frames
        return
    for name in GPU_COUNTS:
        counters[f"gpu.{name}"] += getattr(stats, name)
    counters["vertex_cache.references"] += stats.vertex_cache_references
    counters["vertex_cache.hits"] += stats.vertex_cache_hits
    counters["quads_blended"] += stats.quads_blended
    counters["quads_rasterized"] += stats.quads_rasterized
    for name in CACHES:
        cache = result.caches[name]
        counters[f"cache.{name}.accesses"] += cache.accesses
        counters[f"cache.{name}.hits"] += cache.hits
    for client in result.memory.reads:
        counters[f"memory.{client.name.lower()}"] += (
            result.memory.reads[client] + result.memory.writes[client]
        )


def new() -> dict:
    return defaultdict(float)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def gpu_metrics(counters: dict) -> dict:
    """The per-layer ``gpu.*`` counts and ratios, plus ``api.frames``."""
    out = {f"gpu.{name}": counters[f"gpu.{name}"] for name in GPU_COUNTS}
    for name in CACHES:
        accesses = counters[f"cache.{name}.accesses"]
        out[f"gpu.cache.{name}.accesses"] = accesses
        out[f"gpu.cache.{name}.hit_rate"] = _ratio(
            counters[f"cache.{name}.hits"], accesses
        )
    out["gpu.vertex_cache.hit_rate"] = _ratio(
        counters["vertex_cache.hits"], counters["vertex_cache.references"]
    )
    out["gpu.quads_blended_ratio"] = _ratio(
        counters["quads_blended"], counters["quads_rasterized"]
    )
    for client in MEM_CLIENTS:
        out[f"gpu.memory.{client}_bytes"] = counters[f"memory.{client}"]
    out["api.frames"] = counters["api.frames"]
    return out
