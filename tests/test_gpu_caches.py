"""Tests for the set-associative cache model."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import _native, caches
from repro.gpu.caches import Cache
from repro.gpu.config import CacheConfig


def make_cache(size=1024, line=64, ways=4):
    return Cache(CacheConfig(size, line, ways, "test"))


class TestBasics:
    def test_config_geometry(self):
        config = CacheConfig(16 * 1024, 256, 64, "z")
        assert config.sets == 1
        assert config.describe() == "64w x 256B"
        config = CacheConfig(16 * 1024, 64, 16, "l1")
        assert config.sets == 16
        assert config.describe() == "16w x 16s x 64B"

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 64, 4)

    def test_cold_miss_then_hit(self):
        cache = make_cache()
        hit, _ = cache.access(0)
        assert not hit
        hit, _ = cache.access(32)  # same 64B line
        assert hit
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = make_cache(size=256, line=64, ways=4)  # 4 lines, 1 set
        for addr in (0, 64, 128, 192):
            cache.access(addr)
        cache.access(0)  # touch 0: now 64 is LRU
        cache.access(256)  # evicts line 1 (addr 64)
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_dirty_eviction_reported(self):
        cache = make_cache(size=128, line=64, ways=2)
        cache.access(0, write=True)
        cache.access(64)
        _, evicted = cache.access(128)
        assert evicted == 0  # dirty line 0 written back

    def test_clean_eviction_silent(self):
        cache = make_cache(size=128, line=64, ways=2)
        cache.access(0)
        cache.access(64)
        _, evicted = cache.access(128)
        assert evicted is None

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=128, line=64, ways=2)
        cache.access(0)
        cache.access(0, write=True)
        cache.access(64)
        _, evicted = cache.access(128)
        assert evicted == 0

    def test_sets_isolate_addresses(self):
        cache = make_cache(size=256, line=64, ways=1)  # 4 sets, direct mapped
        cache.access(0)
        cache.access(64)  # different set: no conflict
        assert cache.contains(0) and cache.contains(64)
        cache.access(256)  # same set as 0: evicts it
        assert not cache.contains(0)

    def test_flush_returns_dirty_only(self):
        cache = make_cache(size=256, line=64, ways=4)
        cache.access(0, write=True)
        cache.access(64)
        dirty = cache.flush()
        assert dirty == [0]
        assert not cache.contains(0)


class TestStreams:
    def test_stream_collapses_duplicates(self):
        cache = make_cache()
        lines = np.array([5, 5, 5, 6, 6, 5])
        result = cache.access_runs(lines)
        assert result.misses == 2
        assert cache.hits == 4  # three duplicate refs + final 5 hit

    def test_stream_reports_miss_lines(self):
        cache = make_cache()
        result = cache.access_runs(np.array([1, 1, 2, 3, 3]))
        assert result.miss_lines == [1, 2, 3]

    def test_empty_stream(self):
        cache = make_cache()
        result = cache.access_runs(np.array([]))
        assert result.misses == 0 and not result.miss_lines

    def test_runs_or_write_flags(self):
        cache = make_cache(size=128, line=64, ways=2)
        lines = np.array([0, 0, 1])
        writes = np.array([False, True, False])
        cache.access_runs(lines, writes)
        # Line 0's run had a write: it must be dirty.
        result = cache.access_runs(np.array([2, 3]), np.array([False, False]))
        assert 0 in result.dirty_evictions

    def test_hit_rate_property(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        assert cache.hit_rate == 0.5
        cache.reset_counters()
        assert cache.hit_rate == 0.0

    def test_invalidate_drops_lines_keeps_counters(self):
        cache = make_cache(size=256, line=64, ways=4)
        cache.access(0, write=True)
        cache.access(64)
        cache.invalidate()
        assert not cache.contains(0) and not cache.contains(64)
        assert cache.flush() == []
        assert (cache.hits, cache.misses, cache.accesses) == (0, 2, 2)

    def test_kernel_state_round_trip(self):
        cache = make_cache(size=512, line=64, ways=2)  # 4 sets
        for line, write in ((0, True), (4, False), (1, False), (8, True)):
            cache.access_line(line, write)
        with cache.kernel_state() as (lines, dirty, sizes):
            # Set 0 holds 4 then 8 (8 most recent; 0 was evicted dirty).
            assert sizes.tolist() == [2, 1, 0, 0]
            assert lines[:2].tolist() == [8, 4] and dirty[:2].tolist() == [1, 0]
            assert lines[2] == 1 and dirty[2] == 0
            # A kernel's in-place update becomes the cache's contents.
            lines[2], dirty[2] = 5, 1
        assert not cache.contains(64) and cache.contains(5 * 64)
        assert cache.flush() == [8 * 64, 5 * 64]


def _replay(config: CacheConfig, chunks):
    """Per-reference :meth:`Cache.access_line` replay of ``chunks``."""
    cache = Cache(config)
    misses: list[int] = []
    evictions: list[int] = []
    for lines, writes in chunks:
        flags = writes if isinstance(writes, list) else [writes] * len(lines)
        for line, write in zip(lines, flags):
            hit, evicted = cache.access_line(line, write)
            if not hit:
                misses.append(line)
            if evicted is not None:
                evictions.append(evicted)
    return cache, misses, evictions


#: ``(kernels on, native stream threshold)`` of each walk compared with the
#: replay: the collapse passes then the compiled kernel, the collapse passes
#: then the Python loop, and the Python loop on the raw stream.  A threshold
#: of 1 sends streams of any length through the collapse passes, so short
#: examples reach the same code as long streams.
_WALKS = ((True, 1), (False, 1), (False, caches._NATIVE_MIN_STREAM))


def _walk(config: CacheConfig, chunks, native: bool, threshold: int):
    """The same chunks through :meth:`Cache.access_runs`."""
    cache = Cache(config)
    misses: list[int] = []
    evictions: list[int] = []
    with mock.patch.object(
        _native, "available", return_value=native and _native.available()
    ), mock.patch.object(caches, "_NATIVE_MIN_STREAM", threshold):
        for lines, writes in chunks:
            if isinstance(writes, list):
                writes = np.array(writes, dtype=bool)
            result = cache.access_runs(np.array(lines, dtype=np.int64), writes)
            assert result.misses == len(result.miss_lines)
            misses += [int(line) for line in result.miss_lines]
            evictions += [int(addr) for addr in result.dirty_evictions]
    return cache, misses, evictions


def _assert_walks_match_replay(config: CacheConfig, chunks) -> None:
    ref, ref_misses, ref_evictions = _replay(config, chunks)
    universe = {line for lines, _ in chunks for line in lines}
    resident = [ref.contains(line * config.line_bytes) for line in universe]
    ref_counts = (ref.hits, ref.misses, ref.accesses)
    ref_dirty = ref.flush()
    for native, threshold in _WALKS:
        cache, misses, evictions = _walk(config, chunks, native, threshold)
        assert (cache.hits, cache.misses, cache.accesses) == ref_counts
        assert misses == ref_misses
        assert evictions == ref_evictions
        assert [
            cache.contains(line * config.line_bytes) for line in universe
        ] == resident
        assert cache.flush() == ref_dirty


@st.composite
def _cache_streams(draw):
    """A geometry plus a stream cut into chunks with their write flags.

    Streams are built from runs (one line repeated) and A-B alternations
    over a working set that ranges from fitting in the cache to thrashing
    it; write flags are all-read, all-write or per reference.
    """
    sets = draw(st.integers(1, 4))
    ways = draw(st.integers(1, 6))
    line_bytes = draw(st.sampled_from([16, 64]))
    config = CacheConfig(sets * ways * line_bytes, line_bytes, ways, "prop")
    universe = draw(st.integers(1, 3 * sets * ways + 2))
    line = st.integers(0, universe - 1)
    segment = st.one_of(
        st.tuples(line, st.integers(1, 6)).map(lambda t: [t[0]] * t[1]),
        st.tuples(line, line, st.integers(2, 12)).map(
            lambda t: [t[0], t[1]] * (t[2] // 2) + [t[0]] * (t[2] % 2)
        ),
    )
    segments = draw(st.lists(segment, min_size=1, max_size=80))
    stream = [ref for seg in segments for ref in seg]
    cut = draw(st.integers(0, len(stream)))
    chunks = []
    for part in (stream[:cut], stream[cut:]):
        mode = draw(st.sampled_from(["read", "write", "mixed"]))
        if mode == "mixed":
            writes = draw(
                st.lists(st.booleans(), min_size=len(part), max_size=len(part))
            )
        else:
            writes = mode == "write"
        chunks.append((part, writes))
    return config, chunks


class TestWalksMatchReference:
    """``access_runs``, compiled or not, equals the scalar reference step."""

    @given(_cache_streams())
    @settings(max_examples=200, deadline=None)
    def test_random_streams(self, case):
        config, chunks = case
        _assert_walks_match_replay(config, chunks)

    @pytest.mark.parametrize("writes", ["read", "write", "mixed"])
    @pytest.mark.parametrize("geometry", [(1, 8), (4, 4), (5, 3), (16, 1)])
    def test_long_multiset_streams_reach_the_kernel(self, geometry, writes):
        sets, ways = geometry
        config = CacheConfig(sets * ways * 64, 64, ways, "long")
        rng = np.random.default_rng(sets * 10 + ways)
        pairs = rng.integers(0, 3 * sets * ways, size=(600, 2))
        reps = rng.integers(1, 5, size=600)
        lines = np.concatenate([np.tile(p, r) for p, r in zip(pairs, reps)])
        lines = np.repeat(lines, rng.integers(1, 3, size=lines.size))  # runs
        if writes == "mixed":
            flags = (rng.random(lines.size) < 0.3).tolist()
        else:
            flags = writes == "write"
        half = lines.size // 2
        chunks = [
            (lines[:half].tolist(), flags[:half] if writes == "mixed" else flags),
            (lines[half:].tolist(), flags[half:] if writes == "mixed" else flags),
        ]
        with mock.patch.object(
            _native, "lru_run", wraps=_native.lru_run
        ) as kernel:
            _assert_walks_match_replay(config, chunks)
        assert kernel.called == _native.available()
