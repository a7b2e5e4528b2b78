"""Set-associative LRU cache model.

Used for the Z/stencil, color and texture (L0/L1) caches of Table XIV.
:meth:`Cache.access_line` is the scalar reference step: it returns whether
the line hit and which dirty line (if any) was evicted, so the calling
stage can account the memory traffic.  :meth:`Cache.access_runs` is the one
stream entry: it folds guaranteed hits out of a line stream, then walks the
rest with one Python loop or, for long streams, the compiled ``lru_run``
kernel.  Fused stage kernels borrow the LRU contents through
:meth:`Cache.kernel_state`; no caller touches the per-set dicts.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.gpu import _native
from repro.gpu.config import CacheConfig

#: Streams shorter than this stay on the Python loop: exporting/importing
#: the LRU state around the C kernel costs more than the loop itself.
_NATIVE_MIN_STREAM = 64


@dataclass
class StreamResult:
    """Result of a streamed cache access run."""

    misses: int
    # Byte addresses of evicted dirty lines / line indices that missed, in
    # reference order.  Lists from the Python loop, int64 arrays from the
    # compiled kernel — consumers iterate or wrap in np.asarray either way.
    dirty_evictions: "list[int] | np.ndarray"
    miss_lines: "list[int] | np.ndarray"


class Cache:
    """LRU set-associative cache over block addresses."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # Geometry hoisted out of the per-line loops: the ``sets`` property
        # recomputes a division on every call, which dominates when the
        # simulator replays millions of references.
        self._nsets = config.sets
        self._ways = config.ways
        self._line_bytes = config.line_bytes
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self._nsets)
        ]
        # Reusable kernel output buffers (grown geometrically) so long
        # streams don't pay a fresh allocation per call.
        self._miss_buf = np.empty(0, dtype=np.int64)
        self._evict_buf = np.empty(0, dtype=np.int64)
        self.hits = 0
        self.misses = 0
        # Raw reference count, *before* the duplicate/alternation collapse
        # passes.  ``hits + misses == accesses`` is a conservation invariant
        # (checked by repro.farm.invariants): every collapse optimization
        # must still account each dropped reference as a hit.
        self.accesses = 0

    def __getstate__(self) -> dict:
        # The kernel scratch buffers are workspace, not state: their unused
        # tails hold garbage from earlier (larger) streams, so pickling
        # them makes artifact bytes nondeterministic run to run.  Content
        # addressing (and the serve layer's bit-identity contract) needs
        # the pickle to be a pure function of the simulation.
        state = dict(self.__dict__)
        state["_miss_buf"] = None
        state["_evict_buf"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # Interned as default unpickling interns them (see
        # SimulationResult.__setstate__).
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._miss_buf = np.empty(0, dtype=np.int64)
        self._evict_buf = np.empty(0, dtype=np.int64)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def line_of(self, addr: int) -> int:
        return addr // self.config.line_bytes

    def access(self, addr: int, write: bool = False) -> tuple[bool, int | None]:
        """Access the line containing byte address ``addr``.

        Returns ``(hit, evicted_dirty_line_addr)``; the evicted address is the
        byte address of the first byte of a dirty victim line, or ``None``.
        """
        line = self.line_of(addr)
        return self.access_line(line, write)

    def access_line(self, line: int, write: bool = False) -> tuple[bool, int | None]:
        """Like :meth:`access` but takes a pre-computed line index."""
        self.accesses += 1
        cache_set = self._sets[line % self._nsets]
        if line in cache_set:
            self.hits += 1
            cache_set.move_to_end(line)
            if write:
                cache_set[line] = True
            return True, None
        self.misses += 1
        evicted = None
        if len(cache_set) >= self._ways:
            victim_line, dirty = cache_set.popitem(last=False)
            if dirty:
                evicted = victim_line * self._line_bytes
        cache_set[line] = write
        return False, evicted

    def access_runs(
        self, lines: np.ndarray, writes: "bool | np.ndarray" = False
    ) -> StreamResult:
        """Run a line-index stream, as :meth:`access_line` per reference.

        ``writes`` is one flag for the whole stream or one per reference.
        Consecutive references to one line are collapsed into one access
        whose write flag is the OR of the run (a line written anywhere in the
        run is dirty) — they are guaranteed hits and dominate
        rasterization-order streams.  The collapsed references still count
        as hits so the Table XIV hit rates reflect the real reference stream.
        """
        lines = np.asarray(lines).reshape(-1)
        if np.ndim(writes):
            writes = np.asarray(writes, dtype=bool).reshape(-1)
        else:
            writes = bool(writes)
        if lines.size == 0:
            return StreamResult(0, [], [])
        self.accesses += int(lines.size)
        if lines.size < _NATIVE_MIN_STREAM:
            # Short streams: the Python loop on the raw stream beats the
            # numpy collapse passes, and the collapses are pure
            # optimizations — results are identical.
            return self._run_collapsed(lines, writes)
        boundaries = np.empty(lines.shape, dtype=bool)
        boundaries[0] = True
        np.not_equal(lines[1:], lines[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        collapsed = lines[starts]
        self.hits += int(lines.size - collapsed.size)
        if not isinstance(writes, bool):
            writes = np.logical_or.reduceat(writes, starts)
            if writes.any() != writes.all():
                return self._run_collapsed(collapsed, writes)
            writes = bool(writes[0])
        # Uniform write flags additionally admit the alternation collapse
        # (a dropped reference's dirty-bit effect is covered by the kept
        # first reference of its run, which carries the same flag).
        return self._run_collapsed(self._collapse_alternation(collapsed), writes)

    def _collapse_alternation(self, c: np.ndarray) -> np.ndarray:
        """Drop period-2 interior references (guaranteed hits, counted).

        In a run ``A B A B …`` every reference after the first pair hits:
        its line is one of the set's two most-recently-used entries (LRU
        with ``ways >= 2`` cannot have evicted it), and its recency effect
        is reproduced by the run's kept tail — an element is dropped only
        when the alternation continues past it, so each run's final one or
        two references survive and leave the recency order, dirty bits, and
        downstream miss/eviction behaviour identical.  Texture probes make
        such ping-pong streams constantly (two footprint corners per probe).
        """
        if self._ways < 2 or c.size < 4:
            return c
        drop = np.zeros(c.size, dtype=bool)
        drop[2:-1] = (c[2:-1] == c[:-3]) & (c[3:] == c[1:-2])
        dropped = int(drop.sum())
        if not dropped:
            return c
        self.hits += dropped
        return c[~drop]

    def _run_collapsed(
        self, lines: np.ndarray, writes: "bool | np.ndarray"
    ) -> StreamResult:
        """Walk a (collapsed) stream: the compiled kernel when it is long.

        The loop in :meth:`_run_python_flags` is the reference and the
        fallback when no kernel is built.
        """
        if lines.size >= _NATIVE_MIN_STREAM and _native.available():
            if self._miss_buf.size < lines.size:
                self._miss_buf = np.empty(2 * lines.size, dtype=np.int64)
                self._evict_buf = np.empty(2 * lines.size, dtype=np.int64)
            with self.kernel_state() as state:
                hits, miss_lines, evictions = _native.lru_run(
                    np.ascontiguousarray(lines, dtype=np.int64),
                    writes,
                    state,
                    self._nsets,
                    self._ways,
                    self._line_bytes,
                    self._miss_buf,
                    self._evict_buf,
                )
            self.hits += hits
            self.misses += miss_lines.size
            return StreamResult(miss_lines.size, evictions, miss_lines)
        flags = repeat(writes) if isinstance(writes, bool) else writes.tolist()
        return self._run_python_flags(lines.tolist(), flags)

    def _run_python_flags(
        self, lines: list[int], writes: Iterable[bool]
    ) -> StreamResult:
        """Inlined LRU loop over a line stream with its write flags.

        Semantically identical to calling :meth:`access_line` per element;
        the loop is inlined (with geometry in locals and a single-set
        shortcut) because without the compiled kernel these few lines are
        the simulator's hottest Python code by an order of magnitude.
        """
        sets = self._sets
        nsets = self._nsets
        ways = self._ways
        line_bytes = self._line_bytes
        single = sets[0] if nsets == 1 else None
        hits = 0
        evictions: list[int] = []
        miss_lines: list[int] = []
        for line, write in zip(lines, writes):
            cache_set = single if single is not None else sets[line % nsets]
            if line in cache_set:
                hits += 1
                cache_set.move_to_end(line)
                if write:
                    cache_set[line] = True
                continue
            miss_lines.append(line)
            if len(cache_set) >= ways:
                victim_line, dirty = cache_set.popitem(last=False)
                if dirty:
                    evictions.append(victim_line * line_bytes)
            cache_set[line] = write
        self.hits += hits
        self.misses += len(miss_lines)
        return StreamResult(len(miss_lines), evictions, miss_lines)

    @contextmanager
    def kernel_state(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Lend the LRU contents to a compiled kernel as flat arrays.

        Yields ``(lines, dirty, sizes)``: set ``s`` fills slots
        ``s * ways`` to ``s * ways + sizes[s] - 1`` of ``lines`` (int64) and
        ``dirty`` (uint8), most recently used first.  The kernel updates
        the arrays in place; when the block exits normally they become the
        cache's contents.
        """
        nsets, ways = self._nsets, self._ways
        lines = np.zeros(nsets * ways, dtype=np.int64)
        dirty = np.zeros(nsets * ways, dtype=np.uint8)
        sizes = np.zeros(nsets, dtype=np.int64)
        for index, cache_set in enumerate(self._sets):
            size = len(cache_set)
            sizes[index] = size
            # OrderedDict iterates LRU → MRU; the kernel wants MRU first.
            slot = index * ways + size - 1
            for line, is_dirty in cache_set.items():
                lines[slot] = line
                dirty[slot] = is_dirty
                slot -= 1
        yield lines, dirty, sizes
        line_list = lines.tolist()
        dirty_list = dirty.tolist()
        for index in range(nsets):
            cache_set = OrderedDict()
            base = index * ways
            for slot in range(base + int(sizes[index]) - 1, base - 1, -1):
                cache_set[line_list[slot]] = bool(dirty_list[slot])
            self._sets[index] = cache_set

    def invalidate(self) -> None:
        """Drop every line without writeback; counters are kept."""
        for cache_set in self._sets:
            cache_set.clear()

    def flush(self) -> list[int]:
        """Evict everything; returns byte addresses of dirty lines."""
        dirty_lines = [
            line * self._line_bytes
            for cache_set in self._sets
            for line, dirty in cache_set.items()
            if dirty
        ]
        self.invalidate()
        return dirty_lines

    def contains(self, addr: int) -> bool:
        line = self.line_of(addr)
        return line in self._sets[line % self._nsets]

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
