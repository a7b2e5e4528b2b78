"""The draw-level Z/stencil pass, kernel against fallback against reference.

``ZStencilStage.test_write`` runs a draw's HZ cull, depth/stencil tests,
two-sided stencil ops, writes and HZ/stencil-band refresh in one call: the
compiled ``zstencilpass`` walks the draw's triangle groups in order, and
without kernels the block-rank waves replay the same order.  Synthetic
streams built to stress that order (many triangles stacked on one 8x8
block, wrap ops at 255 and 0 on both faces, ``equal`` depths within 1e-7,
NaN depths, HZ extensions, fully culled draws, late Z with ``alive`` !=
``cover``) run through three framebuffers from equal starting contents:

* the kernel (skipped when the kernels are not built);
* the waves (``_native.available`` patched to False);
* a per-triangle replay through ``ZStencilStage.process``, the reference
  path's stage call.

After every draw the outputs (pass mask, ``wrote``, ``entered``, the four
counts) and all six planes must be equal.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.api.state import RenderState, StencilSide
from repro.gpu import _native
from repro.gpu.config import GpuConfig
from repro.gpu.framebuffer import Framebuffer
from repro.gpu.memory import MemoryController
from repro.gpu.rasterizer import QuadBatch, QuadStream
from repro.gpu.zstencil import ZStencilResult, ZStencilStage

SIZE = 32  # 4x4 blocks of 8x8 pixels, 16x16 quads
#: Quads (qy * 16 + qx) outside block (0, 0), where the hot quads stack.
OUTSIDE = np.array([q for q in range(256) if q % 16 >= 4 or q // 16 >= 4])
PLANES = ("z", "stencil", "hz_max", "hz_min", "hz_stencil_min", "hz_stencil_max")
SHADOW = dict(
    depth_write=False,
    stencil_test=True,
    stencil_front=StencilSide("replace", "decr_wrap", "incr_wrap"),
    stencil_back=StencilSide("incr_wrap", "incr_wrap", "decr_wrap"),
    stencil_ref=3,
    color_mask=False,
)


def _framebuffer(rng) -> Framebuffer:
    """Framebuffer with z, stencil and consistent HZ state per block."""
    fb = Framebuffer(SIZE, SIZE)
    fb.z[:] = rng.uniform(0.2, 0.9, size=fb.z.shape)
    fb.z[:8, :8] = 0.5  # one flat block, for equal-depth passes
    fb.stencil[:] = rng.choice([0, 1, 3, 254, 255], size=fb.stencil.shape)
    fb.stencil[8:16, :8] = 3  # one block whose band collapses on ref 3
    by, bx = np.divmod(np.arange(fb.blocks_x * fb.blocks_y), fb.blocks_x)
    fb.update_hz(bx, by)
    fb.note_stencil_write(bx, by)
    return fb


def _stream(rng, fb, n_tris, z="random", hot_quads=12) -> QuadStream:
    """``n_tris`` triangles, each with up to ``hot_quads`` quads stacked on
    block (0, 0) and a few elsewhere, no quad twice within a triangle.

    ``z``: "random"; "equal" to ``fb``'s depth within about 1e-7; "below"
    every block's HZ min; "near" (0.0); "far" (1.5); "nan" (random with
    NaN lanes)."""
    qx, qy, tri = [], [], []
    for t in range(n_tris):
        hot = rng.choice(16, size=rng.integers(1, hot_quads + 1), replace=False)
        cold = rng.choice(OUTSIDE, size=rng.integers(0, 6), replace=False)
        picked = np.concatenate([hot % 4 + (hot // 4) * 16, cold])
        picked = picked[rng.permutation(picked.size)]
        qx.append(picked % 16)
        qy.append(picked // 16)
        tri.append(np.full(picked.size, t))
    qx = np.concatenate(qx).astype(np.int64)
    qy = np.concatenate(qy).astype(np.int64)
    tri = np.concatenate(tri).astype(np.int64)
    n = qx.size
    cover = rng.random((n, 4)) < 0.75
    cover[np.arange(n), rng.integers(0, 4, n)] = True
    xs = qx[:, None] * 2 + np.array([0, 1, 0, 1])
    ys = qy[:, None] * 2 + np.array([0, 0, 1, 1])
    if z == "equal":
        depth = fb.z[ys, xs] + rng.choice([0.0, 5e-8, -9e-8, 2e-7], size=(n, 4))
    elif z == "below":
        depth = np.repeat(fb.hz_min[qy // 4, qx // 4][:, None] - 0.01, 4, axis=1)
    elif z in ("near", "far"):
        depth = np.full((n, 4), 0.0 if z == "near" else 1.5)
    else:
        depth = rng.uniform(0.0, 1.0, size=(n, 4))
        if z == "nan":
            depth[rng.random((n, 4)) < 0.1] = np.nan
    faces = rng.random(n_tris) < 0.5
    return QuadStream(
        qx=qx, qy=qy, cover=cover, z=depth,
        uv=np.zeros((n, 4, 2)), color=np.zeros((n, 4, 4)),
        tri=tri, front=faces[tri],
    )


def _per_triangle(stage, stream, alive, state, hz_on) -> ZStencilResult:
    """The reference's order: per triangle, HZ cull against the state
    before it, ``process`` the survivors, refresh HZ after it."""
    n = stream.quad_count
    pass_mask = np.zeros((n, 4), dtype=bool)
    wrote = np.zeros(n, dtype=bool)
    entered = np.zeros(n, dtype=bool)
    culled_total = 0
    bounds = np.flatnonzero(np.r_[True, stream.tri[1:] != stream.tri[:-1], True])
    for start, end in zip(bounds[:-1], bounds[1:]):
        idx = np.arange(start, end)
        if hz_on:
            culled = stage.hz_cull(
                stream.qx[idx], stream.qy[idx], stream.z[idx],
                stream.cover[idx], state,
            )
            culled_total += int(culled.sum())
            idx = idx[~culled]
        if idx.size == 0:
            continue
        qb = QuadBatch(
            qx=stream.qx[idx], qy=stream.qy[idx], cover=stream.cover[idx],
            z=stream.z[idx], uv=stream.uv[idx], color=stream.color[idx],
            front=bool(stream.front[start]),
        )
        res = stage.process(qb, state, alive[idx])
        if state.depth_write:
            stage.update_hz_quads(qb.qx, qb.qy, res.wrote)
        entered[idx] = True
        pass_mask[idx] = res.pass_mask
        wrote[idx] = res.wrote
    live = alive[entered]
    return ZStencilResult(
        pass_mask, wrote, entered, culled_total,
        int(live.sum()), int(entered.sum()), int(live.all(axis=1).sum()),
    )


#: (state, z, triangles, hz_on, late) per draw, applied in order; each
#: stream is built from the framebuffer as the draw finds it.
REPLACE_3 = StencilSide("keep", "replace", "replace")
DRAWS = [
    (RenderState(), "random", 40, True, False),  # depth only
    (RenderState(depth_func="lequal", **SHADOW), "random", 60, False, False),
    (RenderState(depth_func="equal", depth_write=False), "equal", 30, True, False),
    (RenderState(depth_func="equal"), "below", 10, True, False),
    (RenderState(depth_func="equal"), "equal", 30, True, False),
    (RenderState(depth_func="equal", **{**SHADOW, "stencil_func": "equal"}),
     "equal", 30, True, False),
    (RenderState(**{**SHADOW, "stencil_func": "notequal"}), "random", 30, True, False),
    # Stencil-in-HZ in order: replacing block (0, 0) with the ref collapses
    # its band, after which notequal culls the later triangles.
    (RenderState(depth_func="lequal", depth_write=False, stencil_test=True,
                 stencil_func="notequal", stencil_ref=3,
                 stencil_front=REPLACE_3, stencil_back=REPLACE_3),
     "near", 60, True, False),
    (RenderState(depth_func="lequal", stencil_test=True, stencil_func="equal",
                 stencil_ref=77), "near", 10, True, False),
    # Depth test off, depth write on: only stencil can change.
    (RenderState(depth_test=False, **{**SHADOW, "depth_write": True}),
     "random", 30, False, False),
    (RenderState(), "far", 10, True, False),  # every quad HZ-culled
    (RenderState(depth_func="lequal", stencil_test=True, stencil_func="never",
                 stencil_front=StencilSide("zero", "keep", "keep")),
     "random", 20, False, False),
    # Late Z: no HZ, alive lanes a subset of cover.
    (RenderState(depth_func="lequal", **{**SHADOW, "depth_write": True}),
     "random", 40, False, True),
    (RenderState(depth_func="always"), "nan", 20, True, False),
    (RenderState(**SHADOW), "nan", 20, True, False),
    (RenderState(depth_func="lequal"), "random", 20, True, False),
]


def _assert_same(a: ZStencilResult, b: ZStencilResult, fa, fb, what: str):
    for field in ("pass_mask", "wrote", "entered"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field),
                                      err_msg=f"{what}: {field}")
    counts = ("hz_culled", "fragments", "quads", "complete_quads")
    assert [getattr(a, c) for c in counts] == [getattr(b, c) for c in counts], what
    for plane in PLANES:
        np.testing.assert_array_equal(getattr(fa, plane), getattr(fb, plane),
                                      err_msg=f"{what}: {plane}")


@pytest.mark.parametrize("extensions", [False, True], ids=["hz", "hz_min_max+stencil"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_waves_and_per_triangle_agree(monkeypatch, seed, extensions):
    rng = np.random.default_rng(seed)
    config = dataclasses.replace(
        GpuConfig.r520(SIZE, SIZE),
        hz_min_max=extensions, hz_stencil=extensions,
    )
    base = _framebuffer(rng)
    native = _native.available()
    stages = {
        name: ZStencilStage(config, copy.deepcopy(base), MemoryController())
        for name in (["kernel"] if native else []) + ["waves", "reference"]
    }
    culled = []
    for k, (state, z, n_tris, hz_on, late) in enumerate(DRAWS):
        stream = _stream(rng, stages["reference"].fb, n_tris, z)
        alive = stream.cover
        if late:
            alive = stream.cover & (rng.random(alive.shape) < 0.7)
        results = {}
        if native:
            results["kernel"] = stages["kernel"].test_write(
                stream, alive, state, hz_on
            )
        with monkeypatch.context() as m:
            m.setattr(_native, "available", lambda: False)
            results["waves"] = stages["waves"].test_write(
                stream, alive, state, hz_on
            )
            results["reference"] = _per_triangle(
                stages["reference"], stream, alive, state, hz_on
            )
        for name in results:
            if name != "reference":
                _assert_same(results[name], results["reference"],
                             stages[name].fb, stages["reference"].fb,
                             f"draw {k} {name}")
        culled.append((results["reference"].hz_culled, results["reference"].quads))
    far = next(k for k, draw in enumerate(DRAWS) if draw[1] == "far")
    assert culled[far][0] and not culled[far][1]  # culled whole
    # Min/max culls the below-HZ draw whole; stencil-in-HZ culls the
    # notequal draw once the band collapses, and the equal-77 draw where
    # a band excludes 77.
    assert (culled[3][1] == 0) == extensions
    assert (culled[7][0] > 0) == extensions
    assert (culled[8][0] > 0) == extensions
    # Every plane moved: the draws wrote z, stencil and both HZ extents.
    fb = stages["reference"].fb
    for plane in PLANES:
        assert not np.array_equal(getattr(fb, plane), getattr(base, plane)), plane
