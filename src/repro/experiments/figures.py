"""One function per paper figure: per-frame series plus an ASCII rendering.

The paper's figures are time series without published raw data, so each
reproduction returns the series (for CSV export), an ASCII chart of the
shape, and the summary statistics the paper's text calls out (e.g. the ~66%
vertex cache plateau of Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper
from repro.experiments.runner import Runner, default_runner
from repro.util.asciiplot import ascii_series


@dataclass
class Figure:
    exhibit: str
    title: str
    series: dict[str, list[float]]
    logy: bool = False
    notes: list[str] = field(default_factory=list)

    def as_text(self, width: int = 72, height: int = 10) -> str:
        chart = ascii_series(
            self.series,
            width=width,
            height=height,
            title=f"{self.exhibit}: {self.title}",
            logy=self.logy,
        )
        if self.notes:
            chart += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return chart

    def as_csv(self) -> str:
        names = list(self.series)
        length = max(len(v) for v in self.series.values())
        lines = ["frame," + ",".join(names)]
        for i in range(length):
            cells = [str(i)]
            for name in names:
                values = self.series[name]
                cells.append(f"{values[i]:.6g}" if i < len(values) else "")
            lines.append(",".join(cells))
        return "\n".join(lines)


_OGL_PLOTTED = [
    "UT2004/Primeval",
    "Doom3/trdemo2",
    "Quake4/demo4",
    "Riddick/PrisonArea",
]
_D3D_PLOTTED = [
    "Oblivion/Anvil Castle",
    "Half Life 2 LC/built-in",
    "FEAR/interval2",
    "Splinter Cell 3/first level",
]


def figure1(runner: Runner | None = None, api: str = "both") -> Figure:
    """Fig. 1: total batches per frame (highly variable over time)."""
    runner = runner or default_runner()
    names = {
        "ogl": _OGL_PLOTTED,
        "d3d": _D3D_PLOTTED,
        "both": _OGL_PLOTTED + _D3D_PLOTTED,
    }[api]
    series = {name: runner.api(name).series("batches") for name in names}
    fig = Figure("Figure 1", "Batches per frame", series)
    fig.notes.append(
        "paper: interactive games make batch counts highly variable over time"
    )
    return fig


def figure2(runner: Runner | None = None) -> Figure:
    """Fig. 2: index MB transferred CPU->GPU per frame."""
    runner = runner or default_runner()
    series = {
        name: runner.api(name).series("index_mb")
        for name in _OGL_PLOTTED + _D3D_PLOTTED
    }
    fig = Figure("Figure 2", "Index BW per frame (MB)", series)
    fig.notes.append("paper: well under 1 GB/s even at 100 fps (Table VI)")
    return fig


def figure3(runner: Runner | None = None) -> Figure:
    """Fig. 3: state calls per frame (log scale; startup/transition spikes)."""
    runner = runner or default_runner()
    series = {
        name: runner.api(name).series("state_calls")
        for name in _OGL_PLOTTED + _D3D_PLOTTED
    }
    fig = Figure("Figure 3", "State calls per frame", series, logy=True)
    fig.notes.append(
        "first frames spike with setup uploads; FEAR/Oblivion spike again at "
        "scene transitions"
    )
    return fig


def figure4(runner: Runner | None = None) -> Figure:
    """Fig. 4: vertex sharing of the triangle primitives (the diagram).

    The paper's figure is an illustration; we reproduce the quantity it
    illustrates — indices needed per triangle for each topology, so no
    measurement (and no ``runner``) is involved.
    """
    from repro.geometry.primitives import PrimitiveType, indices_for_triangles

    counts = list(range(1, 33))
    series = {
        prim.value: [
            indices_for_triangles(n, prim) / n for n in counts
        ]
        for prim in PrimitiveType
    }
    fig = Figure("Figure 4", "Indices per triangle vs triangles", series)
    fig.notes.append("TL stays at 3; TS/TF approach 1 as runs grow")
    return fig


def figure5(runner: Runner | None = None) -> Figure:
    """Fig. 5: post-transform vertex cache hit rate per frame (~66%)."""
    runner = runner or default_runner()
    series = {}
    for name in paper.SIMULATED:
        frames = runner.geometry(name).frame_stats
        series[name] = [f.vertex_cache_hit_rate for f in frames]
    fig = Figure("Figure 5", "Post-transform vertex cache hit rate", series)
    fig.notes.append(
        f"theoretical adjacent-triangle rate: "
        f"{paper.VERTEX_CACHE_THEORETICAL:.3f}"
    )
    return fig


def figure6(runner: Runner | None = None, workload: str = "Doom3/trdemo2") -> Figure:
    """Fig. 6: indices, assembled and traversed triangles per frame."""
    runner = runner or default_runner()
    frames = runner.geometry(workload).frame_stats
    series = {
        "indices": [float(f.indices) for f in frames],
        "assembled": [float(f.triangles_assembled) for f in frames],
        "traversed": [float(f.triangles_traversed) for f in frames],
    }
    fig = Figure("Figure 6", f"Triangle funnel per frame ({workload})", series)
    fig.notes.append("assembled = indices/3 for pure triangle lists")
    return fig


def figure7(runner: Runner | None = None, workload: str = "Doom3/trdemo2") -> Figure:
    """Fig. 7: average triangle size per frame at raster/z-stencil/shading."""
    runner = runner or default_runner()
    frames = runner.sim(workload).frame_stats
    series = {
        "raster": [f.avg_triangle_size("raster") for f in frames],
        "zst": [f.avg_triangle_size("zstencil") for f in frames],
        "shaded": [f.avg_triangle_size("shaded") for f in frames],
    }
    fig = Figure("Figure 7", f"Average triangle size per frame ({workload})", series)
    return fig


def figure8(runner: Runner | None = None) -> Figure:
    """Fig. 8: fragment program size per frame (Quake4 and FEAR)."""
    runner = runner or default_runner()
    series = {}
    for name in ("Quake4/demo4", "FEAR/interval2"):
        stats = runner.api(name)
        series[f"{name} instr"] = stats.series("fragment_instructions")
        series[f"{name} tex"] = stats.series("texture_instructions")
    return Figure("Figure 8", "Average fragment program instructions", series)


ALL_FIGURES = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
}
