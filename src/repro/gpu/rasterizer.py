"""Edge-function rasterizer producing 2x2 quads.

Modern GPUs (and ATTILA) rasterize with linear edge functions over tiles
(16x16 then 8x8 in ATTILA) and hand 2x2 fragment quads to the rest of the
pipeline; quads are what makes texture LOD derivatives computable and what
the paper's Tables IX/X count.  We evaluate the edge functions over the
triangle's bounding box with numpy — this produces the identical fragment
and quad sets as the hierarchical traversal, since tile pruning only skips
work that produces no coverage.

Fill convention: pixel centers at (x+0.5, y+0.5), top-left rule, so shared
edges are rasterized exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu import _native

#: Lane offsets within a 2x2 quad, in lane order dy*2 + dx.  Allocated once:
#: pixel_coords() sits on the per-triangle hot path.
_QUAD_DX = np.array([0, 1, 0, 1])
_QUAD_DY = np.array([0, 0, 1, 1])


@dataclass
class QuadBatch:
    """Rasterizer output for one triangle: quad-aligned fragments.

    Lane order within a quad is (dy*2 + dx): (0,0), (1,0), (0,1), (1,1).
    ``cover`` marks real fragments; uncovered lanes carry extrapolated
    attributes (helper pixels, used only for derivatives).
    """

    qx: np.ndarray  # (Q,) quad x = pixel_x // 2
    qy: np.ndarray  # (Q,)
    cover: np.ndarray  # (Q, 4) bool
    z: np.ndarray  # (Q, 4) float depth
    uv: np.ndarray  # (Q, 4, 2)
    color: np.ndarray  # (Q, 4, 4)
    front: bool

    @property
    def quad_count(self) -> int:
        return int(self.qx.shape[0])

    @property
    def fragment_count(self) -> int:
        return int(self.cover.sum())

    @property
    def complete_quads(self) -> int:
        return int(self.cover.all(axis=1).sum())

    def pixel_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane pixel coordinates, shape (Q, 4) each (x, y)."""
        xs = self.qx[:, None] * 2 + _QUAD_DX[None, :]
        ys = self.qy[:, None] * 2 + _QUAD_DY[None, :]
        return xs, ys

    def select(self, mask: np.ndarray) -> "QuadBatch":
        """Subset of quads where ``mask`` is True."""
        return QuadBatch(
            qx=self.qx[mask],
            qy=self.qy[mask],
            cover=self.cover[mask],
            z=self.z[mask],
            uv=self.uv[mask],
            color=self.color[mask],
            front=self.front,
        )


def rasterize_triangle(
    xy: np.ndarray,
    z: np.ndarray,
    inv_w: np.ndarray,
    uv: np.ndarray,
    color: np.ndarray,
    width: int,
    height: int,
    front: bool = True,
) -> QuadBatch | None:
    """Rasterize one screen-space triangle into a :class:`QuadBatch`.

    ``xy``: (3, 2) screen positions, ``z``: (3,) depths, ``inv_w``: (3,)
    reciprocal clip W for perspective-correct ``uv``/(3, 2) and
    ``color``/(3, 4) interpolation.  Returns ``None`` when no quad is
    covered.
    """
    # Snap to 1/256 sub-pixel fixed point like real rasterizers; shared
    # edges between triangles become bit-identical, so the top-left rule
    # partitions them exactly.
    v = np.round(np.asarray(xy, dtype=np.float64) * 256.0) / 256.0
    area2 = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[2, 0] - v[0, 0]) * (
        v[1, 1] - v[0, 1]
    )
    if area2 == 0.0:
        return None
    order = (0, 1, 2)
    if area2 < 0.0:
        order = (0, 2, 1)
        area2 = -area2
    p0, p1, p2 = v[order[0]], v[order[1]], v[order[2]]
    zs = np.asarray(z, dtype=np.float64)[list(order)]
    ws = np.asarray(inv_w, dtype=np.float64)[list(order)]
    uvs = np.asarray(uv, dtype=np.float64)[list(order)]
    colors = np.asarray(color, dtype=np.float64)[list(order)]

    min_x = max(int(np.floor(v[:, 0].min())), 0)
    max_x = min(int(np.ceil(v[:, 0].max())), width - 1)
    min_y = max(int(np.floor(v[:, 1].min())), 0)
    max_y = min(int(np.ceil(v[:, 1].max())), height - 1)
    if min_x > max_x or min_y > max_y:
        return None
    qx0, qx1 = min_x // 2, max_x // 2
    qy0, qy1 = min_y // 2, max_y // 2

    xs = np.arange(qx0 * 2, qx1 * 2 + 2, dtype=np.float64) + 0.5
    ys = np.arange(qy0 * 2, qy1 * 2 + 2, dtype=np.float64) + 0.5

    # Edge i is opposite vertex i; E_i >= 0 inside for positive-area order.
    edges = ((p1, p2), (p2, p0), (p0, p1))
    e_vals = []
    covered = None
    for a, b in edges:
        # E(p) = cross(b - a, p - a); positive inside for the positive-area
        # vertex order established above.
        dx = b[0] - a[0]
        dy = b[1] - a[1]
        a_coef = -dy
        b_coef = dx
        c_coef = -(a_coef * a[0] + b_coef * a[1])
        e = a_coef * xs[None, :] + b_coef * ys[:, None] + c_coef
        # Top-left rule (y-down screen coords): top edges run left-to-right
        # (dy == 0, dx > 0), left edges run upward (dy < 0); those include
        # their boundary, the others exclude it.
        top_left = (dy == 0.0 and dx > 0.0) or (dy < 0.0)
        inside = e >= 0.0 if top_left else e > 0.0
        covered = inside if covered is None else (covered & inside)
        e_vals.append(e)
    if not covered.any():
        return None

    inv_area = 1.0 / area2
    l0 = e_vals[0] * inv_area
    l1 = e_vals[1] * inv_area
    l2 = e_vals[2] * inv_area

    depth = l0 * zs[0] + l1 * zs[1] + l2 * zs[2]
    one_w = l0 * ws[0] + l1 * ws[1] + l2 * ws[2]
    one_w = np.where(one_w == 0.0, 1e-12, one_w)
    uv_num_u = l0 * uvs[0, 0] * ws[0] + l1 * uvs[1, 0] * ws[1] + l2 * uvs[2, 0] * ws[2]
    uv_num_v = l0 * uvs[0, 1] * ws[0] + l1 * uvs[1, 1] * ws[1] + l2 * uvs[2, 1] * ws[2]
    u = uv_num_u / one_w
    vv = uv_num_v / one_w
    col = np.empty(depth.shape + (4,), dtype=np.float64)
    for c in range(4):
        num = (
            l0 * colors[0, c] * ws[0]
            + l1 * colors[1, c] * ws[1]
            + l2 * colors[2, c] * ws[2]
        )
        col[..., c] = num / one_w

    gh, gw = covered.shape  # multiples of 2 by construction
    qh, qw = gh // 2, gw // 2

    def to_quads(arr: np.ndarray) -> np.ndarray:
        """(gh, gw, ...) -> (Q, 4, ...) in lane order dy*2+dx."""
        extra = arr.shape[2:]
        quads = arr.reshape(qh, 2, qw, 2, *extra)
        quads = np.moveaxis(quads, 2, 1)  # (qh, qw, 2(dy), 2(dx), ...)
        return quads.reshape(qh * qw, 4, *extra)

    q_cover = to_quads(covered)
    keep = q_cover.any(axis=1)
    if not keep.any():
        return None
    grid_qy, grid_qx = np.divmod(np.nonzero(keep)[0], qw)
    return QuadBatch(
        qx=(grid_qx + qx0).astype(np.int64),
        qy=(grid_qy + qy0).astype(np.int64),
        cover=q_cover[keep],
        z=np.clip(to_quads(depth)[keep], 0.0, 1.0),
        uv=np.stack([to_quads(u)[keep], to_quads(vv)[keep]], axis=-1),
        color=to_quads(col)[keep],
        front=front,
    )


@dataclass
class QuadStream:
    """All quads of one draw call, concatenated in triangle submission order.

    The draw-level analogue of :class:`QuadBatch`: the same per-quad arrays,
    plus a per-quad triangle id (``tri``, the triangle's index among the
    draw's traversed triangles) and a per-quad front-facing flag.  Quads of
    one triangle are contiguous and triangles appear in submission order, so
    the stream is exactly the concatenation of the per-triangle batches.
    """

    qx: np.ndarray  # (Q,) quad x = pixel_x // 2
    qy: np.ndarray  # (Q,)
    cover: np.ndarray  # (Q, 4) bool
    z: np.ndarray  # (Q, 4) float depth
    uv: np.ndarray  # (Q, 4, 2)
    color: np.ndarray  # (Q, 4, 4)
    tri: np.ndarray  # (Q,) int triangle index within the draw
    front: np.ndarray  # (Q,) bool

    @property
    def quad_count(self) -> int:
        return int(self.qx.shape[0])

    @property
    def fragment_count(self) -> int:
        return int(self.cover.sum())

    @property
    def complete_quads(self) -> int:
        return int(self.cover.all(axis=1).sum())

    def pixel_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane pixel coordinates, shape (Q, 4) each (x, y)."""
        xs = self.qx[:, None] * 2 + _QUAD_DX[None, :]
        ys = self.qy[:, None] * 2 + _QUAD_DY[None, :]
        return xs, ys

    def select(self, mask: np.ndarray) -> "QuadStream":
        """Subset of quads where ``mask`` (bool or index array) selects."""
        return QuadStream(
            qx=self.qx[mask],
            qy=self.qy[mask],
            cover=self.cover[mask],
            z=self.z[mask],
            uv=self.uv[mask],
            color=self.color[mask],
            tri=self.tri[mask],
            front=self.front[mask],
        )


def rasterize_draw(
    tris,
    width: int,
    height: int,
    chunk_quads: int = 1 << 17,
) -> QuadStream | None:
    """Rasterize a whole draw call's triangles into one :class:`QuadStream`.

    ``tris`` is a :class:`~repro.gpu.clipper.ScreenTriangles`.  Every
    arithmetic step evaluates the identical float64 expressions as
    :func:`rasterize_triangle`, in the same association order, so the stream
    is bit-identical to concatenating the per-triangle batches (covered by
    ``tests/test_quadstream.py``).  Triangles are processed in batches of at
    most ``chunk_quads`` candidate (bounding-box) quads to bound peak memory.
    """
    t_count = tris.count
    if t_count == 0:
        return None
    v = np.round(np.asarray(tris.xy, dtype=np.float64) * 256.0) / 256.0
    area2 = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (
        v[:, 2, 0] - v[:, 0, 0]
    ) * (v[:, 1, 1] - v[:, 0, 1])

    min_x = np.maximum(np.floor(v[:, :, 0].min(axis=1)), 0.0).astype(np.int64)
    max_x = np.minimum(np.ceil(v[:, :, 0].max(axis=1)), width - 1).astype(np.int64)
    min_y = np.maximum(np.floor(v[:, :, 1].min(axis=1)), 0.0).astype(np.int64)
    max_y = np.minimum(np.ceil(v[:, :, 1].max(axis=1)), height - 1).astype(np.int64)
    valid = (area2 != 0.0) & (min_x <= max_x) & (min_y <= max_y)
    if not valid.any():
        return None
    tsel = np.nonzero(valid)[0]

    # Winding reorder (swap vertices 1 and 2 where the signed area is
    # negative) so every edge function is positive inside.
    neg = area2[tsel] < 0.0
    idx = np.where(neg[:, None], np.array([0, 2, 1]), np.array([0, 1, 2]))
    rows = np.arange(tsel.size)[:, None]
    vv = v[tsel][rows, idx]
    zs = np.asarray(tris.z, dtype=np.float64)[tsel][rows, idx]
    ws = np.asarray(tris.inv_w, dtype=np.float64)[tsel][rows, idx]
    uvs = np.asarray(tris.uv, dtype=np.float64)[tsel][rows, idx]
    cols = np.asarray(tris.color, dtype=np.float64)[tsel][rows, idx]
    inv_area = 1.0 / np.abs(area2[tsel])
    front_sel = np.asarray(tris.front, dtype=bool)[tsel]

    # Edge i is opposite vertex i: E(p) = a*px + b*py + c, positive inside.
    ea = np.empty((tsel.size, 3))
    eb = np.empty((tsel.size, 3))
    ec = np.empty((tsel.size, 3))
    etl = np.empty((tsel.size, 3), dtype=bool)
    for k, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        ax, ay = vv[:, a, 0], vv[:, a, 1]
        dx = vv[:, b, 0] - ax
        dy = vv[:, b, 1] - ay
        a_coef = -dy
        b_coef = dx
        ea[:, k] = a_coef
        eb[:, k] = b_coef
        ec[:, k] = -(a_coef * ax + b_coef * ay)
        # Top-left rule, matching rasterize_triangle.
        etl[:, k] = ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)

    qx0, qx1 = min_x[tsel] // 2, max_x[tsel] // 2
    qy0, qy1 = min_y[tsel] // 2, max_y[tsel] // 2
    qw = qx1 - qx0 + 1
    nq = qw * (qy1 - qy0 + 1)

    parts: list[tuple] = []
    start = 0
    while start < tsel.size:
        # Greedy triangle batch under the candidate-quad budget (a single
        # oversized triangle still forms its own batch).
        end = start + 1
        budget = int(nq[start])
        while end < tsel.size and budget + int(nq[end]) <= chunk_quads:
            budget += int(nq[end])
            end += 1
        batch = _rasterize_tri_range(
            start, end, nq, qw, qx0, qy0, ea, eb, ec, etl,
            inv_area, zs, ws, uvs, cols,
        )
        if batch is not None:
            parts.append(batch)
        start = end

    if not parts:
        return None
    t_local = np.concatenate([p[6] for p in parts])
    return QuadStream(
        qx=np.concatenate([p[0] for p in parts]),
        qy=np.concatenate([p[1] for p in parts]),
        cover=np.concatenate([p[2] for p in parts]),
        z=np.concatenate([p[3] for p in parts]),
        uv=np.concatenate([p[4] for p in parts]),
        color=np.concatenate([p[5] for p in parts]),
        tri=tsel[t_local],
        front=front_sel[t_local],
    )


def _rasterize_tri_range(
    start, end, nq, qw, qx0, qy0, ea, eb, ec, etl, inv_area, zs, ws, uvs, cols
):
    """Rasterize triangles [start, end) of a prepared draw in one sweep."""
    counts = nq[start:end]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    t = np.repeat(np.arange(start, end), counts)  # (N,) triangle per candidate
    local = np.arange(total, dtype=np.int64) - offsets[t - start]
    lqy, lqx = np.divmod(local, qw[t])
    cqx = qx0[t] + lqx
    cqy = qy0[t] + lqy

    if _native.available():
        # Fused edge evaluation + coverage, then fused interpolation over
        # the kept quads (both bit-identical to the numpy expressions).
        es3, cov8 = _native.raster_edges(
            np.ascontiguousarray(cqx),
            np.ascontiguousarray(cqy),
            np.ascontiguousarray(t),
            np.ascontiguousarray(ea),
            np.ascontiguousarray(eb),
            np.ascontiguousarray(ec),
            np.ascontiguousarray(etl).view(np.uint8),
        )
        covered = cov8.view(bool)
        keep = covered.any(axis=1)
        if not keep.any():
            return None
        keep_idx = np.nonzero(keep)[0]
        tk = t[keep_idx]
        depth, uv, col = _native.raster_interp(
            es3,
            keep_idx,
            np.ascontiguousarray(tk),
            np.ascontiguousarray(inv_area),
            np.ascontiguousarray(zs),
            np.ascontiguousarray(ws),
            np.ascontiguousarray(uvs),
            np.ascontiguousarray(cols),
        )
        return (
            cqx[keep_idx],
            cqy[keep_idx],
            covered[keep_idx],
            depth,
            uv,
            col,
            tk,
        )
    else:
        # Pixel centers: integer coords are exact in float64, +0.5 is
        # exact, so these match rasterize_triangle's arange(...)+0.5
        # values bit-for-bit.
        pxf = (cqx[:, None] * 2 + _QUAD_DX[None, :]).astype(np.float64) + 0.5
        pyf = (cqy[:, None] * 2 + _QUAD_DY[None, :]).astype(np.float64) + 0.5

        es = []
        covered = None
        for k in range(3):
            # Column-then-gather (1D take) beats the paired 2D fancy
            # index, and (e > 0) | (top-left & (e == 0)) is the same
            # predicate as the where(tl, e >= 0, e > 0) form for every
            # float including NaN.
            ek = ea[:, k][t][:, None] * pxf + eb[:, k][t][:, None] * pyf
            e = ek + ec[:, k][t][:, None]
            inside = (e > 0.0) | (etl[:, k][t][:, None] & (e == 0.0))
            if covered is None:
                covered = inside
            else:
                np.logical_and(covered, inside, out=covered)
            es.append(e)
    keep = covered.any(axis=1)
    if not keep.any():
        return None

    tk = t[keep]
    ia = inv_area[tk][:, None]
    l0 = es[0][keep] * ia
    l1 = es[1][keep] * ia
    l2 = es[2][keep] * ia

    z0, z1, z2 = zs[tk, 0, None], zs[tk, 1, None], zs[tk, 2, None]
    depth = l0 * z0 + l1 * z1 + l2 * z2
    w0, w1, w2 = ws[tk, 0, None], ws[tk, 1, None], ws[tk, 2, None]
    one_w = l0 * w0 + l1 * w1 + l2 * w2
    one_w = np.where(one_w == 0.0, 1e-12, one_w)
    u = (
        l0 * uvs[tk, 0, 0, None] * w0
        + l1 * uvs[tk, 1, 0, None] * w1
        + l2 * uvs[tk, 2, 0, None] * w2
    ) / one_w
    vv = (
        l0 * uvs[tk, 0, 1, None] * w0
        + l1 * uvs[tk, 1, 1, None] * w1
        + l2 * uvs[tk, 2, 1, None] * w2
    ) / one_w
    col = np.empty(depth.shape + (4,), dtype=np.float64)
    for c in range(4):
        num = (
            l0 * cols[tk, 0, c, None] * w0
            + l1 * cols[tk, 1, c, None] * w1
            + l2 * cols[tk, 2, c, None] * w2
        )
        col[..., c] = num / one_w

    return (
        cqx[keep],
        cqy[keep],
        covered[keep],
        np.clip(depth, 0.0, 1.0),
        np.stack([u, vv], axis=-1),
        col,
        tk,
    )
