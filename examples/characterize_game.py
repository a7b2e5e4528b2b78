#!/usr/bin/env python3
"""Characterize one game workload end-to-end, the way the paper does.

Runs the API-level pass (batches, indices, state calls, shader mix) over the
full-scale trace and the microarchitectural pass (clip/cull, overdraw, quad
fates, caches, memory) on the reduced simulation profile, then prints the
per-workload slice of every table the workload appears in.

Run:  python examples/characterize_game.py "Doom3/trdemo2" --api-frames 120 --sim-frames 6
"""

from __future__ import annotations

import argparse

import repro
from repro.experiments import ExperimentConfig, Runner, paper
from repro.geometry.primitives import PrimitiveType
from repro.gpu.stats import MemClient, QuadFate
from repro.util.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("name", nargs="?", default="Doom3/trdemo2")
    parser.add_argument("--api-frames", type=int, default=120)
    parser.add_argument("--sim-frames", type=int, default=6)
    args = parser.parse_args()
    name = args.name

    print(f"=== API-level characterization: {name} ===")
    api = repro.api_stats(name, frames=args.api_frames)
    share = api.primitive_share
    rows = [
        ["batches/frame", f"{api.total_batches / api.frame_count:.0f}"],
        ["indices/batch", f"{api.avg_indices_per_batch:.0f}"],
        ["indices/frame", f"{api.avg_indices_per_frame:.0f}"],
        ["index MB/s @100fps",
         f"{api.index_bandwidth_bytes_per_s(100) / 1e6:.1f}"],
        ["state calls/frame", f"{api.avg_state_calls_per_frame:.0f}"],
        ["vertex instr/vertex", f"{api.avg_vertex_instructions:.2f}"],
        ["fragment instr", f"{api.avg_fragment_instructions:.2f}"],
        ["fragment TEX instr", f"{api.avg_texture_instructions:.2f}"],
        ["ALU:TEX ratio", f"{api.alu_to_texture_ratio:.2f}"],
    ]
    for prim in PrimitiveType:
        rows.append([f"{prim.value} share", f"{100 * share.get(prim, 0):.1f}%"])
    print(format_table(["metric", "value"], rows))

    if name not in paper.SIMULATED:
        print(f"\n{name} is Direct3D-only in the paper (no ATTILA replay); "
              "API-level characterization complete.")
        return

    print(f"\n=== Microarchitectural characterization: {name} ===")
    result = repro.simulate(name, frames=args.sim_frames)
    stats = result.stats
    # Geometry-only replays have no facade shortcut; drive a runner with an
    # explicit frame budget for the clip/cull/traverse pass.
    geometry = Runner(
        ExperimentConfig(
            api_frames=args.api_frames,
            sim_frames=args.sim_frames,
            geometry_frames=max(20, args.sim_frames * 5),
        )
    ).geometry(name)
    clip, cull, traverse = geometry.stats.clip_cull_traverse_percent
    fates = stats.quad_fate_percent
    mem = result.memory
    rows = [
        ["% clipped / culled / traversed",
         f"{clip:.0f} / {cull:.0f} / {traverse:.0f}"],
        ["vertex cache hit rate", f"{stats.vertex_cache_hit_rate:.2%}"],
        ["overdraw raster/zs/shade/blend",
         " / ".join(f"{result.overdraw(s):.1f}"
                    for s in ("raster", "zstencil", "shaded", "blended"))],
        ["tri size raster/zs/shade/blend",
         " / ".join(f"{stats.avg_triangle_size(s):.0f}"
                    for s in ("raster", "zstencil", "shaded", "blended"))],
        ["quad fates HZ/ZS/A/CM/B",
         " / ".join(f"{fates[f]:.1f}" for f in QuadFate)],
        ["quad efficiency", f"{stats.quad_efficiency_raster:.1%}"],
        ["bilinears per texture request",
         f"{stats.bilinears_per_texture_request:.2f}"],
        ["ALU per bilinear", f"{stats.alu_per_bilinear:.2f}"],
        ["HZ share of z-kills", f"{stats.hz_effectiveness:.1%}"],
        ["memory MB/frame", f"{mem.bytes_per_frame(stats.frames) / 1e6:.1f}"],
        ["read fraction", f"{mem.read_fraction:.0%}"],
    ]
    for client in MemClient:
        rows.append(
            [f"traffic {client.value}",
             f"{mem.traffic_distribution[client]:.1f}%"]
        )
    for cache_name, cache in result.caches.items():
        rows.append([f"{cache_name} hit rate", f"{cache.hit_rate:.1%}"])
    print(format_table(["metric", "value"], rows))


if __name__ == "__main__":
    main()
