"""GPU configuration (the paper's Table II machine).

The reproduction is functional, so most parameters here size the *memory
system* (which does change results — the paper notes cache configuration
"directly affects the memory BW consumed"); the throughput rates are carried
for Table II itself and for the coarse cycle estimator in
:mod:`repro.gpu.perf`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache: ``ways`` x ``sets`` x ``line_bytes``."""

    size_bytes: int
    line_bytes: int
    ways: int
    name: str = ""

    def __setstate__(self, state: dict) -> None:
        # The name is also a GpuConfig field name and a result's cache key;
        # see SimulationResult.__setstate__.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self.__dict__["name"] = sys.intern(self.name)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                f"{self.name or 'cache'}: size must be a multiple of ways*line"
            )

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    def describe(self) -> str:
        if self.sets == 1:
            return f"{self.ways}w x {self.line_bytes}B"
        return f"{self.ways}w x {self.sets}s x {self.line_bytes}B"


def scaled_cache(cache: CacheConfig, factor: float) -> CacheConfig:
    """``cache`` resized by ``factor`` with a valid ways/sets geometry."""
    lines = max(2, int(round(cache.size_bytes * factor / cache.line_bytes)))
    ways = min(cache.ways, lines)
    while lines % ways:
        ways -= 1
    return CacheConfig(
        lines * cache.line_bytes, cache.line_bytes, ways, cache.name
    )


@dataclass(frozen=True)
class GpuConfig:
    """Machine description, defaulting to the paper's ATTILA/R520 setup."""

    width: int = 1024
    height: int = 768

    # Table II rates (unified shader ATTILA configured to match an R520).
    shader_units: int = 16
    triangles_per_cycle: int = 2
    bilinears_per_cycle: int = 16
    zstencil_rate: int = 16
    color_rate: int = 16
    memory_bytes_per_cycle: int = 64

    # Geometry front end.
    vertex_cache_entries: int = 16
    vertex_fetch_granularity: int = 32  # bytes per vertex-memory transaction

    # Caches (Table XIV geometries).
    zstencil_cache: CacheConfig = CacheConfig(16 * 1024, 256, 64, "zstencil")
    color_cache: CacheConfig = CacheConfig(16 * 1024, 256, 64, "color")
    texture_l0: CacheConfig = CacheConfig(4 * 1024, 64, 64, "texture_l0")
    texture_l1: CacheConfig = CacheConfig(16 * 1024, 64, 16, "texture_l1")

    # Bandwidth-reduction features.
    hierarchical_z: bool = True
    # Paper Section III.C extensions: "a better HZ implementation (for
    # example combining stencil into the HZ buffer or a HZ storing maximum
    # and minimum values)".  Off by default to match the baseline ATTILA.
    hz_min_max: bool = False
    hz_stencil: bool = False
    z_fast_clear: bool = True
    z_compression: bool = True
    color_fast_clear: bool = True
    color_compression: bool = True

    # Texturing.
    max_anisotropy: int = 16

    # Pipeline execution strategy: True runs the draw-level QuadStream
    # path, False the per-triangle reference path kept for A/B regression
    # testing.  Results are bit-identical either way except Z/stencil
    # memory byte totals (see ZStencilStage.account_stream).
    vectorized: bool = True

    # Display.
    framebuffer_bytes_per_pixel: int = 4  # RGBA8 color; z24s8 likewise 4B

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("resolution must be positive")
        if self.zstencil_cache.line_bytes != 256 and self.zstencil_cache.line_bytes < 4:
            raise ValueError("z/stencil line too small")

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def hz_block(self) -> int:
        """Hierarchical-Z / framebuffer block edge in pixels.

        One cache line (256 B at 4 B/pixel) covers an 8x8 pixel block; HZ,
        fast clear and compression all operate at this granularity.
        """
        pixels_per_line = self.zstencil_cache.line_bytes // self.framebuffer_bytes_per_pixel
        edge = int(pixels_per_line**0.5)
        return max(2, edge)

    def with_resolution(self, width: int, height: int) -> "GpuConfig":
        return replace(self, width=width, height=height)

    def with_scaled_caches(
        self,
        factor: float,
        include_texture: bool = False,
        l1_factor: float | None = None,
    ) -> "GpuConfig":
        """Scale cache capacities by ``factor`` (line sizes unchanged).

        Used by the reduced-resolution simulation profile: the Z and color
        caches hold *screen regions*, so their footprint must shrink with
        the framebuffer to preserve the paper's miss behaviour.  The texture
        L0 holds the *instantaneous sampling working set* (bound textures x
        filter footprint), which does not scale with resolution, so it is
        left alone unless ``include_texture`` is set; the L1, whose misses
        are the GDDR texture traffic, covers the per-frame texel footprint
        and scales via ``l1_factor`` (defaults to no scaling).
        """

        replacements = {
            "zstencil_cache": scaled_cache(self.zstencil_cache, factor),
            "color_cache": scaled_cache(self.color_cache, factor),
        }
        if include_texture:
            replacements["texture_l0"] = scaled_cache(self.texture_l0, factor)
            replacements["texture_l1"] = scaled_cache(self.texture_l1, factor)
        elif l1_factor is not None:
            replacements["texture_l1"] = scaled_cache(self.texture_l1, l1_factor)
        return replace(self, **replacements)

    @staticmethod
    def r520(width: int = 1024, height: int = 768) -> "GpuConfig":
        """The reference configuration of the paper's Table II."""
        return GpuConfig(width=width, height=height)

    def table2_rows(self) -> list[tuple[str, str, str]]:
        """(parameter, R520, ATTILA) rows as printed in Table II."""
        return [
            ("Vertex/Fragment Shaders", "8/16", f"{self.shader_units} (unified)"),
            (
                "Triangle Setup",
                "2 triangles/cycle",
                f"{self.triangles_per_cycle} triangles/cycle",
            ),
            (
                "Texture Rate",
                "16 bilinears/cycle",
                f"{self.bilinears_per_cycle} bilinears/cycle",
            ),
            (
                "ZStencil / Color Rates",
                "16 / 16 fragments/cycle",
                f"{self.zstencil_rate} / {self.color_rate} fragments/cycle",
            ),
            (
                "Memory BW",
                "> 64 bytes/cycle",
                f"{self.memory_bytes_per_cycle} bytes/cycle",
            ),
        ]
