"""Procedural texture sets standing in for game art.

Each engine gets a deterministic set of DXT-compressed textures: tiled
surface materials (bricks/panels/rock via value noise and stripes), a few
alpha-cutout sheets for foliage/grates (DXT5), and the light-falloff maps
the idTech4 interaction shaders sample.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.gpu.texture import TextureFormat, TextureResource


def _noise_lattices(
    rng: np.random.Generator, size: int, octaves: int = 4
) -> list[np.ndarray]:
    """The random lattices of :func:`_value_noise`, one per octave."""
    lattices = []
    for octave in range(octaves):
        cells = 2 ** (octave + 2)
        if cells > size:
            break
        lattices.append(rng.random((cells, cells)))
    return lattices


def _value_noise(lattices: list[np.ndarray], size: int) -> np.ndarray:
    """Tileable multi-octave value noise in [0, 1] over drawn lattices."""
    out = np.zeros((size, size))
    amplitude = 1.0
    total = 0.0
    for lattice in lattices:
        cells = lattice.shape[0]
        big = np.kron(lattice, np.ones((size // cells, size // cells)))
        # Cheap smoothing: average with a rolled copy for soft edges.
        big = 0.5 * big + 0.25 * np.roll(big, size // (2 * cells), axis=0) + 0.25 * np.roll(
            big, size // (2 * cells), axis=1
        )
        out += amplitude * big
        total += amplitude
        amplitude *= 0.55
    return out / total


def _material_image(
    lattices: list[np.ndarray],
    period: int | None,
    palette: np.ndarray,
    out: np.ndarray,
) -> None:
    """A tiled material: noise base + panel lines every ``period`` texels
    (none when ``period`` is None)."""
    size = out.shape[0]
    noise = _value_noise(lattices, size)
    base = palette[0] + (palette[1] - palette[0]) * noise[..., None]
    if period is not None:
        lines = ((np.arange(size) % period) < 2).astype(float)
        darken = 1.0 - 0.35 * np.maximum(lines[None, :], lines[:, None])
        base = base * darken[..., None]
    out[..., :3] = np.clip(base, 0.0, 1.0)
    out[..., 3] = 1.0


def _material_recipe(rng: np.random.Generator, size: int, palette: np.ndarray):
    """Draw a material's randomness now; render it on first texel read."""
    lattices = _noise_lattices(rng, size)
    period = int(2 ** rng.integers(4, 6)) if rng.random() < 0.5 else None
    return functools.partial(_material_image, lattices, period, palette)


def _cutout_image(
    lattices: list[np.ndarray],
    mask_lattices: list[np.ndarray],
    palette: np.ndarray,
    out: np.ndarray,
) -> None:
    """Alpha-cutout sheet (foliage/grate): ~45% transparent texels.

    The alpha mask thresholds *low-frequency* noise so the opaque and
    transparent regions are large coherent patches — they survive mip
    filtering, keeping the alpha test effective when the sheet is minified
    (the paper's UT2004 alpha-kill rate comes from such materials).
    """
    size = out.shape[0]
    noise = _value_noise(lattices, size)
    mask_noise = _value_noise(mask_lattices, size)
    out[..., :3] = np.clip(
        palette[0] + (palette[1] - palette[0]) * noise[..., None], 0.0, 1.0
    )
    out[..., 3] = (mask_noise > 0.5).astype(np.float32)


def _falloff_image(out: np.ndarray) -> None:
    """Radial light-falloff map (idTech4 samples one per interaction)."""
    size = out.shape[0]
    ys, xs = np.mgrid[0:size, 0:size]
    cx = (size - 1) / 2.0
    r = np.hypot(xs - cx, ys - cx) / cx
    value = np.clip(1.0 - r, 0.0, 1.0) ** 1.5
    out[..., :3] = value[..., None]
    out[..., 3] = 1.0


_PALETTES = {
    "dark": np.array([[0.10, 0.09, 0.08], [0.45, 0.38, 0.30]]),
    "industrial": np.array([[0.15, 0.16, 0.18], [0.55, 0.55, 0.60]]),
    "warm": np.array([[0.25, 0.18, 0.10], [0.80, 0.62, 0.40]]),
    "outdoor": np.array([[0.12, 0.22, 0.08], [0.55, 0.60, 0.35]]),
}


def build_texture_set(
    prefix: str,
    seed: int,
    material_count: int,
    size: int = 128,
    palette: str = "dark",
    cutouts: int = 2,
) -> list[TextureResource]:
    """Deterministic texture set for one workload.

    Returns ``material_count`` DXT1 materials named ``{prefix}.matN``, the
    requested number of DXT5 cutouts (``{prefix}.cutN``) and one light
    falloff map (``{prefix}.falloff``).  Every random draw is taken here,
    in texture order; each texture keeps its draws in its recipe and
    renders its texels on first read (see :class:`TextureResource`).
    """
    if palette not in _PALETTES:
        raise KeyError(f"unknown palette {palette!r}")
    rng = np.random.default_rng(seed)
    colors = _PALETTES[palette]
    textures = [
        TextureResource(
            f"{prefix}.mat{i}",
            size,
            size,
            _material_recipe(rng, size, colors),
            TextureFormat.DXT1,
        )
        for i in range(material_count)
    ]
    for i in range(cutouts):
        lattices = _noise_lattices(rng, size, octaves=5)
        mask_lattices = _noise_lattices(rng, size, octaves=2)
        textures.append(
            TextureResource(
                f"{prefix}.cut{i}",
                size,
                size,
                functools.partial(_cutout_image, lattices, mask_lattices, colors),
                TextureFormat.DXT5,
            )
        )
    falloff = max(64, size // 2)
    textures.append(
        TextureResource(
            f"{prefix}.falloff", falloff, falloff, _falloff_image, TextureFormat.DXT1
        )
    )
    return textures
