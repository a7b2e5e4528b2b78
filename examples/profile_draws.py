#!/usr/bin/env python3
"""Profile the draw calls of a simulated workload frame.

Shows the NVPerfHUD-style use of :func:`repro.gpu.profiler.profile_workload`
(per-draw rows rebuilt from the pipeline's ``gpu.draw`` spans): rank the
heaviest batches of a frame, attribute the frame's memory traffic
to the render passes, and identify which pass structure dominates — the
stencil-shadow games spend their traffic very differently from UT2004.

Run:  python examples/profile_draws.py ["Doom3/trdemo2"]
"""

from __future__ import annotations

import sys

from repro.gpu.profiler import profile_workload
from repro.util.tables import format_table
from repro.workloads import build_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Doom3/trdemo2"
    workload = build_workload(name, sim=True)
    profile = profile_workload(workload, frames=2)[-1]

    print(f"{name}: frame {profile.frame}, {len(profile.draws)} draws\n")
    rows = [
        [
            record.index,
            record.mesh.rsplit(".", 1)[-1],
            record.pass_kind,
            record.triangles_traversed,
            record.fragments_rasterized,
            record.fragments_shaded,
            f"{record.memory_bytes / 1024:.0f}",
        ]
        for record in profile.heaviest(10, by="memory_bytes")
    ]
    print(
        format_table(
            ["#", "mesh", "pass", "tris", "raster", "shaded", "KB"],
            rows,
            title="Top 10 draws by memory traffic",
        )
    )

    print("\nMemory traffic by pass kind:")
    kinds = profile.by_pass_kind()
    total = sum(kinds.values()) or 1
    for kind, nbytes in sorted(kinds.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:14s} {100 * nbytes / total:5.1f}%")

    shaded = profile.totals("fragments_shaded")
    rasterized = profile.totals("fragments_rasterized")
    print(
        f"\nframe totals: {rasterized} fragments rasterized, "
        f"{shaded} shaded ({shaded / max(rasterized, 1):.0%} of rasterized)"
    )


if __name__ == "__main__":
    main()
