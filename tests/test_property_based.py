"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.optimize import optimize_for_vertex_cache, simulate_vertex_cache
from repro.geometry.primitives import (
    PrimitiveType,
    assemble_triangles,
    indices_for_triangles,
    primitive_count,
)
from repro.gpu.caches import Cache
from repro.gpu.config import CacheConfig
from repro.gpu.rasterizer import rasterize_triangle
from repro.util.morton import demorton2d, morton2d

# ---------------------------------------------------------------------------
# Morton codes


@given(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_morton_roundtrip(x, y):
    code = morton2d(x, y)
    rx, ry = demorton2d(code)
    assert int(rx) == x and int(ry) == y


@given(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_morton_injective(x1, y1, x2, y2):
    if (x1, y1) != (x2, y2):
        assert int(morton2d(x1, y1)) != int(morton2d(x2, y2))


# ---------------------------------------------------------------------------
# Primitive assembly


@given(
    st.sampled_from(list(PrimitiveType)),
    st.integers(min_value=0, max_value=200),
)
def test_primitive_count_matches_assembly(prim, n):
    indices = np.arange(max(n, 1)) % 17
    indices = indices[:n]
    tris = assemble_triangles(indices, prim)
    assert tris.shape[0] == primitive_count(n, prim)


@given(
    st.sampled_from(list(PrimitiveType)),
    st.integers(min_value=1, max_value=500),
)
def test_indices_for_triangles_inverse(prim, tris):
    assert primitive_count(indices_for_triangles(tris, prim), prim) == tris


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=60))
def test_strip_triangles_use_consecutive_windows(indices):
    tris = assemble_triangles(np.array(indices), PrimitiveType.TRIANGLE_STRIP)
    for t, tri in enumerate(tris):
        window = set(indices[t : t + 3])
        assert set(int(v) for v in tri) == window


# ---------------------------------------------------------------------------
# Vertex cache


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=32),
)
def test_cache_hit_rate_bounded(indices, size):
    rate = simulate_vertex_cache(np.array(indices), cache_size=size)
    assert 0.0 <= rate <= 1.0
    unique = len(set(indices))
    # Hits can never exceed references minus compulsory misses.
    assert rate <= 1.0 - unique / len(indices) + 1e-9


@given(
    st.lists(
        st.tuples(
            st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)
        ).filter(lambda t: len(set(t)) == 3),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=40)
def test_tipsify_is_permutation(tri_list):
    tris = np.array(tri_list)
    out = optimize_for_vertex_cache(tris)
    assert sorted(map(tuple, (sorted(t) for t in tris.tolist()))) == sorted(
        map(tuple, (sorted(t) for t in out.tolist()))
    )


# ---------------------------------------------------------------------------
# Cache model


@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300)
)
@settings(max_examples=50)
def test_cache_counters_partition_references(lines):
    cache = Cache(CacheConfig(512, 64, 4, "t"))
    result = cache.access_runs(np.array(lines))
    assert cache.hits + cache.misses == len(lines)
    assert result.misses == cache.misses
    assert len(result.miss_lines) == result.misses


@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200)
)
@settings(max_examples=50)
def test_small_working_set_only_compulsory_misses(lines):
    """A working set that fits in the cache misses once per distinct line."""
    cache = Cache(CacheConfig(16 * 64, 64, 16, "t"))  # 16 lines, fully assoc
    cache.access_runs(np.array(lines))
    assert cache.misses == len(set(lines))


# ---------------------------------------------------------------------------
# Rasterizer


@st.composite
def screen_triangle(draw):
    pts = [
        (
            draw(st.floats(2.0, 62.0, allow_nan=False)),
            draw(st.floats(2.0, 62.0, allow_nan=False)),
        )
        for _ in range(3)
    ]
    return pts


@given(screen_triangle())
@settings(max_examples=60)
def test_raster_fragments_within_area_bound(tri):
    area = 0.5 * abs(
        (tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1])
        - (tri[2][0] - tri[0][0]) * (tri[1][1] - tri[0][1])
    )
    qb = rasterize_triangle(
        np.array(tri), np.zeros(3), np.ones(3), np.zeros((3, 2)),
        np.zeros((3, 4)), 64, 64,
    )
    count = qb.fragment_count if qb is not None else 0
    # Fragment count is bounded by area plus a perimeter band.
    perimeter = sum(
        np.hypot(tri[(i + 1) % 3][0] - tri[i][0], tri[(i + 1) % 3][1] - tri[i][1])
        for i in range(3)
    )
    assert count <= area + perimeter + 3


@given(screen_triangle())
@settings(max_examples=60)
def test_raster_winding_invariance(tri):
    def count(order):
        qb = rasterize_triangle(
            np.array([tri[i] for i in order]), np.zeros(3), np.ones(3),
            np.zeros((3, 2)), np.zeros((3, 4)), 64, 64,
        )
        return qb.fragment_count if qb is not None else 0

    assert count((0, 1, 2)) == count((0, 2, 1)) == count((1, 2, 0))


@given(screen_triangle())
@settings(max_examples=40)
def test_raster_depth_in_vertex_range(tri):
    z = np.array([0.2, 0.5, 0.9])
    qb = rasterize_triangle(
        np.array(tri), z, np.ones(3), np.zeros((3, 2)), np.zeros((3, 4)),
        64, 64,
    )
    if qb is None:
        return
    covered = qb.z[qb.cover]
    assert (covered >= z.min() - 1e-6).all()
    assert (covered <= z.max() + 1e-6).all()
