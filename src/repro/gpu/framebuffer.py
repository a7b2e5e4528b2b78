"""Framebuffer surfaces: Z/stencil, color, block state, and Hierarchical Z.

Surfaces are organized in 8x8-pixel blocks — one Z/color cache line (256 B at
4 B/pixel) per block.  Each block carries a state (CLEARED / COMPRESSED /
UNCOMPRESSED) implementing the fast-clear and compression schemes the paper
describes: cleared blocks cost no memory read, compressed blocks move at half
a line, and the Hierarchical Z buffer keeps a per-block max depth on-die.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.gpu import _native


class BlockState(IntEnum):
    CLEARED = 0
    COMPRESSED = 1
    UNCOMPRESSED = 2


class Framebuffer:
    """Render target state for one resolution."""

    def __init__(self, width: int, height: int, block: int = 8):
        if width <= 0 or height <= 0:
            raise ValueError("resolution must be positive")
        self.width = width
        self.height = height
        self.block = block
        self.blocks_x = -(-width // block)
        self.blocks_y = -(-height // block)
        pad_w = self.blocks_x * block
        pad_h = self.blocks_y * block
        self.z = np.ones((pad_h, pad_w), dtype=np.float64)
        self.stencil = np.zeros((pad_h, pad_w), dtype=np.int16)
        self.color = np.zeros((pad_h, pad_w, 4), dtype=np.float64)
        self.z_block_state = np.full(
            (self.blocks_y, self.blocks_x), BlockState.CLEARED, dtype=np.uint8
        )
        self.color_block_state = np.full(
            (self.blocks_y, self.blocks_x), BlockState.CLEARED, dtype=np.uint8
        )
        self.hz_max = np.ones((self.blocks_y, self.blocks_x), dtype=np.float64)
        # Extensions the paper names as possible HZ improvements
        # (Section III.C): a per-block depth minimum (min/max HZ) and a
        # per-block stencil value band (stencil-in-HZ).
        self.hz_min = np.ones((self.blocks_y, self.blocks_x), dtype=np.float64)
        self.hz_stencil_min = np.zeros(
            (self.blocks_y, self.blocks_x), dtype=np.int16
        )
        self.hz_stencil_max = np.zeros(
            (self.blocks_y, self.blocks_x), dtype=np.int16
        )
        self.z_clear_value = 1.0
        self.color_clear_value = np.array([0.0, 0.0, 0.0, 1.0])
        self.stencil_clear_value = 0

    # -- clears -----------------------------------------------------------
    def clear_depth(self, depth: float = 1.0) -> None:
        """Depth fast clear: reset z and HZ, mark every Z block CLEARED.

        No memory traffic; the stencil plane keeps its values.
        """
        self.z.fill(depth)
        self.z_block_state.fill(BlockState.CLEARED)
        self.hz_max.fill(depth)
        self.hz_min.fill(depth)
        self.z_clear_value = depth

    def clear_stencil_only(self, stencil: int = 0) -> None:
        """Stencil-plane fast clear.

        Approximation: hardware tracks stencil-clear state per block; we reset
        the stencil values at no memory cost and leave the Z block states (and
        the data already resident in the Z cache) untouched.
        """
        self.stencil.fill(stencil)
        self.hz_stencil_min.fill(stencil)
        self.hz_stencil_max.fill(stencil)
        self.stencil_clear_value = stencil

    def clear_color(self, value=(0.0, 0.0, 0.0, 1.0)) -> None:
        self.color[:] = np.asarray(value, dtype=np.float64)
        self.color_block_state.fill(BlockState.CLEARED)
        self.color_clear_value = np.asarray(value, dtype=np.float64)

    # -- block geometry -----------------------------------------------------
    def block_line_index(self, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        """Cache line index of block (bx, by) in the surface address space."""
        return by * self.blocks_x + bx

    def quad_block_coords(self, qx: np.ndarray, qy: np.ndarray):
        """Block coordinates containing quads at quad coordinates (qx, qy)."""
        return qx * 2 // self.block, qy * 2 // self.block

    # -- Hierarchical Z ------------------------------------------------------
    def hz_cull_mask(
        self, qx: np.ndarray, qy: np.ndarray, z_min: np.ndarray
    ) -> np.ndarray:
        """True where a quad is provably behind everything in its block.

        The HZ buffer stores the farthest depth per block; a quad whose
        nearest fragment is farther can never pass a LESS/LEQUAL/EQUAL test.
        """
        bx, by = self.quad_block_coords(qx, qy)
        return z_min > self.hz_max[by, bx]

    def hz_minmax_equal_cull_mask(
        self,
        qx: np.ndarray,
        qy: np.ndarray,
        z_min: np.ndarray,
        z_max: np.ndarray,
    ) -> np.ndarray:
        """Min/max HZ cull for EQUAL-test passes (paper Section III.C).

        A quad whose depth interval lies entirely outside the block's
        [min, max] band cannot contain any fragment equal to a stored depth.
        """
        bx, by = self.quad_block_coords(qx, qy)
        return (z_min > self.hz_max[by, bx]) | (z_max < self.hz_min[by, bx])

    def hz_stencil_cull_mask(
        self, qx: np.ndarray, qy: np.ndarray, ref: int, func: str
    ) -> np.ndarray:
        """Stencil-in-HZ cull (paper Section III.C).

        The HZ block metadata carries the [min, max] band of the block's
        stencil values.  A quad whose stencil test provably fails for the
        whole band is culled early: ``equal ref`` fails when ref lies outside
        the band (e.g. a Doom3 light pass over a fully-shadowed block), and
        ``notequal ref`` fails when the band collapses onto ref.
        """
        bx, by = self.quad_block_coords(qx, qy)
        s_min = self.hz_stencil_min[by, bx]
        s_max = self.hz_stencil_max[by, bx]
        if func == "equal":
            return (ref < s_min) | (ref > s_max)
        if func == "notequal":
            return (s_min == ref) & (s_max == ref)
        return np.zeros(qx.shape[0], dtype=bool)

    def update_hz(self, bx: np.ndarray, by: np.ndarray) -> None:
        """Recompute the HZ min/max for the given (deduplicated) blocks."""
        if len(bx) == 0:
            return
        b = self.block
        if _native.available():
            _native.hz_update(
                self.z,
                b,
                np.ascontiguousarray(bx, dtype=np.int64),
                np.ascontiguousarray(by, dtype=np.int64),
                self.hz_max,
                self.hz_min,
            )
            return
        for x, y in zip(bx.tolist(), by.tolist()):
            tile = self.z[y * b : (y + 1) * b, x * b : (x + 1) * b]
            self.hz_max[y, x] = tile.max()
            self.hz_min[y, x] = tile.min()

    def note_stencil_write(self, bx: np.ndarray, by: np.ndarray) -> None:
        """Refresh the per-block stencil band after stencil writes."""
        if len(bx) == 0:
            return
        b = self.block
        packed = np.unique(
            np.asarray(by, dtype=np.int64) * self.blocks_x + np.asarray(bx)
        )
        for p in packed.tolist():
            y, x = divmod(p, self.blocks_x)
            tile = self.stencil[y * b : (y + 1) * b, x * b : (x + 1) * b]
            self.hz_stencil_min[y, x] = tile.min()
            self.hz_stencil_max[y, x] = tile.max()

    # -- compression checks ---------------------------------------------------
    @property
    def _block_grid(self) -> tuple[np.ndarray, np.ndarray]:
        grid = getattr(self, "_block_grid_cache", None)
        if grid is None:
            grid = np.mgrid[0 : self.block, 0 : self.block]
            self._block_grid_cache = grid
        return grid[0], grid[1]

    def _z_tiles(self, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        """Gather 8x8 z tiles for blocks (bx, by) as an (n, b, b) array."""
        b = self.block
        view = self.z.reshape(self.blocks_y, b, self.blocks_x, b)
        return view[by, :, bx, :]

    def z_blocks_compressible(self, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        """Planar-fit check per block: few-triangle blocks store as planes.

        The real scheme (ATI Hyper-Z) keeps plane equations per block; a
        single-triangle block is exactly planar.  We fit a plane from three
        corners and accept small residuals (two-plane blocks roughly halve
        compressibility, which the tolerance approximates).  ``bx``/``by``
        are block-coordinate arrays; the result is one flag per block.
        """
        b = self.block
        tiles = self._z_tiles(bx, by)
        z00 = tiles[:, 0, 0]
        dzdx = (tiles[:, 0, -1] - z00) / (b - 1)
        dzdy = (tiles[:, -1, 0] - z00) / (b - 1)
        ys, xs = self._block_grid
        plane = (
            z00[:, None, None]
            + dzdx[:, None, None] * xs
            + dzdy[:, None, None] * ys
        )
        return np.abs(tiles - plane).max(axis=(1, 2)) < 1e-5

    def color_blocks_uniform(self, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        """The paper's color compression "only works for blocks of pixels
        with the same color": one flag per block of ``bx``/``by``.

        Uniformity is judged at the framebuffer's 8-bit precision — the
        stored surface is RGBA8, so colors within half an LSB are the same
        stored value.
        """
        b = self.block
        if _native.available():
            flags = _native.blocks_uniform(
                self.color,
                b,
                np.ascontiguousarray(bx, dtype=np.int64),
                np.ascontiguousarray(by, dtype=np.int64),
            )
            return flags.view(bool)
        view = self.color.reshape(self.blocks_y, b, self.blocks_x, b, 4)
        quantized = np.clip(view[by, :, bx, :, :], 0.0, 1.0)
        first = quantized[:, :1, :1, :]
        return (
            np.abs(quantized - first).reshape(len(bx), -1).max(axis=1)
            < 0.5 / 255.0
        )

    # -- output ---------------------------------------------------------------
    def color_image(self) -> np.ndarray:
        """The rendered image, cropped to the true resolution, in [0, 1]."""
        return np.clip(self.color[: self.height, : self.width], 0.0, 1.0)

    def to_ppm(self, path) -> None:
        """Write the color buffer as a binary PPM (for the examples)."""
        img = (self.color_image()[:, :, :3] * 255.0 + 0.5).astype(np.uint8)
        with open(path, "wb") as fh:
            fh.write(f"P6 {self.width} {self.height} 255\n".encode())
            fh.write(img.tobytes())
