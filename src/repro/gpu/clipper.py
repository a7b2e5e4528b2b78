"""Clipping and face culling.

Implements the paper's "clipper stage": trivial rejection against the view
frustum (the Table VII "% clipped"), front/back-face and zero-area culling
("% culled"), and real polygon clipping against the near plane for the
triangles that cross it (needed for correct rasterization; such triangles
still count once as "traversed").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ScreenTriangles:
    """Screen-space triangles ready for rasterization.

    ``xy``: (T, 3, 2) pixel coordinates; ``z``: (T, 3) depth in [0, 1];
    ``inv_w``: (T, 3) for perspective-correct interpolation; per-vertex
    attribute arrays (None when the clipper carried none); ``front``:
    per-triangle facing; ``parent``: index of the assembled source triangle
    (near-clip can split one into two).
    """

    xy: np.ndarray
    z: np.ndarray
    inv_w: np.ndarray
    uv: np.ndarray | None
    color: np.ndarray | None
    front: np.ndarray
    parent: np.ndarray

    @property
    def count(self) -> int:
        return self.xy.shape[0]


@dataclass
class ClipCullResult:
    triangles: ScreenTriangles
    assembled: int = 0
    clipped: int = 0
    culled: int = 0
    traversed: int = 0


_NEAR_EPS = 1e-6


def clip_and_cull(
    clip_positions: np.ndarray,
    triangles: np.ndarray,
    uv: np.ndarray | None,
    color: np.ndarray | None,
    width: int,
    height: int,
    cull: str = "back",
) -> ClipCullResult:
    """Run assembled triangles through frustum rejection, near clip and cull.

    ``clip_positions``: (V, 4) clip-space vertex positions; ``triangles``:
    (T, 3) vertex indices; ``uv``/(V, 2) and ``color``/(V, 4) per-vertex
    attributes carried to rasterization, or both None to carry none
    (geometry-only runs).
    """
    pos = np.asarray(clip_positions, dtype=np.float64)
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    t_count = tris.shape[0]
    if t_count == 0:
        return ClipCullResult(_empty_screen_triangles(), 0, 0, 0, 0)
    attrs = () if uv is None else (uv, color)

    x, y, z, w = pos[:, 0], pos[:, 1], pos[:, 2], pos[:, 3]
    outside = np.stack(
        [x < -w, x > w, y < -w, y > w, z < -w, z > w], axis=1
    )  # (V, 6)
    tri_outside = outside[tris]  # (T, 3, 6)
    rejected = tri_outside.all(axis=1).any(axis=1)
    clipped_count = int(rejected.sum())
    survivors = np.nonzero(~rejected)[0]

    # Near-plane crossers need geometric clipping; everything else can be
    # perspective-divided directly (the rasterizer clamps to the viewport,
    # acting as an infinite guard band for the side planes).
    near_out = (z + w < _NEAR_EPS)[tris[survivors]]
    crosses_near = near_out.any(axis=1)
    easy = survivors[~crosses_near]
    hard = survivors[crosses_near]

    out_xy: list[np.ndarray] = []
    out_z: list[np.ndarray] = []
    out_inv_w: list[np.ndarray] = []
    out_attrs: list[list[np.ndarray]] = [[] for _ in attrs]
    out_parent: list[np.ndarray] = []

    if easy.size:
        vids = tris[easy]  # (E, 3)
        p = pos[vids]  # (E, 3, 4)
        sx, sy, sz, inv_w = _viewport(p, width, height)
        out_xy.append(np.stack([sx, sy], axis=-1))
        out_z.append(sz)
        out_inv_w.append(inv_w)
        for out, attr in zip(out_attrs, attrs):
            out.append(attr[vids])
        out_parent.append(easy)

    for t in hard:
        corners = tris[t]
        polys = _clip_near(pos[corners], [attr[corners] for attr in attrs])
        for p, poly_attrs in polys:
            sx, sy, sz, inv_w = _viewport(p[None, :, :], width, height)
            out_xy.append(np.stack([sx, sy], axis=-1))
            out_z.append(sz)
            out_inv_w.append(inv_w)
            for out, attr in zip(out_attrs, poly_attrs):
                out.append(attr[None, :, :])
            out_parent.append(np.array([t]))

    if not out_xy:
        return ClipCullResult(
            _empty_screen_triangles(), t_count, clipped_count, t_count - clipped_count, 0
        )

    xy = np.concatenate(out_xy)
    zs = np.concatenate(out_z)
    inv_ws = np.concatenate(out_inv_w)
    carried = [np.concatenate(out) for out in out_attrs]
    parents = np.concatenate(out_parent)

    # Face culling on signed screen area.  Source meshes wind CCW in NDC
    # for front faces; the viewport Y flip makes them clockwise on screen,
    # i.e. negative signed area.
    area2 = _signed_area2(xy)
    front = area2 < 0.0
    degenerate = area2 == 0.0
    if cull == "back":
        keep = front & ~degenerate
    elif cull == "front":
        keep = ~front & ~degenerate
    elif cull == "none":
        keep = ~degenerate
    else:
        raise ValueError(f"unknown cull mode {cull!r}")

    surviving_parents = np.unique(parents[keep])
    traversed = int(surviving_parents.size)
    culled = t_count - clipped_count - traversed

    uvs, colors = [a[keep] for a in carried] if carried else (None, None)
    result = ScreenTriangles(
        xy=xy[keep],
        z=zs[keep],
        inv_w=inv_ws[keep],
        uv=uvs,
        color=colors,
        front=front[keep],
        parent=parents[keep],
    )
    return ClipCullResult(result, t_count, clipped_count, culled, traversed)


def _signed_area2(xy: np.ndarray) -> np.ndarray:
    """Twice the signed area of (T, 3, 2) screen triangles."""
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    return e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


def _viewport(p: np.ndarray, width: int, height: int):
    """Perspective divide + viewport transform for (T, 3, 4) positions."""
    w = p[..., 3]
    safe_w = np.where(np.abs(w) < _NEAR_EPS, _NEAR_EPS, w)
    inv_w = 1.0 / safe_w
    ndc = p[..., :3] * inv_w[..., None]
    sx = (ndc[..., 0] + 1.0) * 0.5 * width
    sy = (1.0 - ndc[..., 1]) * 0.5 * height
    sz = (ndc[..., 2] + 1.0) * 0.5
    return sx, sy, np.clip(sz, 0.0, 1.0), inv_w


def _clip_near(p: np.ndarray, attrs: list[np.ndarray]):
    """Sutherland-Hodgman clip of one triangle against z + w = 0.

    ``p`` is the (3, 4) clip-space corners and ``attrs`` the corners' (3, k)
    attribute arrays.  Interpolation happens in clip space (linear there),
    then the resulting polygon is fanned back into triangles, each returned
    as ``(positions, [attribute arrays])``.
    """
    inside = p[:, 2] + p[:, 3] >= _NEAR_EPS
    if not inside.any():
        return []
    corners = [p, *attrs]
    verts: list[list[np.ndarray]] = []
    for i in range(3):
        j = (i + 1) % 3
        di = p[i, 2] + p[i, 3]
        dj = p[j, 2] + p[j, 3]
        if inside[i]:
            verts.append([a[i] for a in corners])
        if inside[i] != inside[j]:
            t = di / (di - dj)
            verts.append([a[i] + t * (a[j] - a[i]) for a in corners])
    polys = []
    for k in range(1, len(verts) - 1):
        tri = [np.stack(parts) for parts in zip(verts[0], verts[k], verts[k + 1])]
        polys.append((tri[0], tri[1:]))
    return polys


def _empty_screen_triangles() -> ScreenTriangles:
    return ScreenTriangles(
        xy=np.empty((0, 3, 2)),
        z=np.empty((0, 3)),
        inv_w=np.empty((0, 3)),
        uv=np.empty((0, 3, 2)),
        color=np.empty((0, 3, 4)),
        front=np.empty(0, dtype=bool),
        parent=np.empty(0, dtype=np.int64),
    )
