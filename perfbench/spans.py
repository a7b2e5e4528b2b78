"""The benchmark's own span recorder and self-time accounting.

This recorder belongs to the benchmark, not to the program: it is
independent of ``repro.observe``, so a change to the program's tracer can
never move the benchmark's numbers.

A span is one wrapped call: ``[layer, start_ns, end_ns, parent_id, span_id,
thread_id, job_key]``.  Spans live in memory; farm workers (forked from the
benchmark process) and the server process hand theirs over through files
that the benchmark reads back at the end of the traced pass.

Self time is accounted on one wall clock shared by every process and
thread.  A span's exclusive part is its interval minus its children on the
same thread.  At each instant the exclusive parts active anywhere split
that instant evenly; an instant with none is ``other``.  So the layers'
self times plus ``other`` sum to the traced wall time exactly, and on a
single thread they reduce to the classic "duration minus children".
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

LAYER, START, END, PARENT, SID, TID, KEY = range(7)


class SpanRecorder:
    """Collects spans from the wrappers of one process (and its forks)."""

    def __init__(self, spool_dir: str | None = None):
        #: Where forked workers hand their spans over (one file per unit).
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._keys: dict = {}
        self._flushes = itertools.count()

    # -- recording -------------------------------------------------------
    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, key: str | None = None) -> list:
        stack = self.stack()
        parent = stack[-1] if stack else None
        span = [
            layer,
            time.perf_counter_ns(),
            0,
            parent[SID] if parent else 0,
            next(self._ids),
            threading.get_ident(),
            key if key is not None else (parent[KEY] if parent else None),
        ]
        stack.append(span)
        return span

    def leave(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self.stack().pop()
        self.spans.append(span)

    def job_key(self, job) -> str:
        """The content key of a ``JobSpec`` (memoized per spec)."""
        key = self._keys.get(job)
        if key is None:
            key = self._keys[job] = self.key_of(job)
        return key

    #: Set by the hook installer to the unwrapped ``JobSpec.key``, so the
    #: benchmark's own bookkeeping never shows up as ``farm.key`` calls.
    key_of = staticmethod(lambda job: job.key())

    # -- hand-over between processes --------------------------------------
    def after_fork(self) -> None:
        """In a forked child: forget the parent's spans, keep recording."""
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()

    def is_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def flush(self) -> None:
        """Write this process's spans to the spool and forget them."""
        if self.spool_dir is None or not (self.spans or self.counters):
            return
        path = os.path.join(
            self.spool_dir, f"spans-{os.getpid()}-{next(self._flushes)}.json"
        )
        write_dump(path, self.dump())
        self.spans = []
        self.counters = defaultdict(float)

    def dump(self) -> dict:
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": dict(self.counters),
        }

    def collect(self) -> list[dict]:
        """This process's dump plus every dump spooled by other processes."""
        dumps = [self.dump()]
        if self.spool_dir and os.path.isdir(self.spool_dir):
            for name in sorted(os.listdir(self.spool_dir)):
                if name.startswith("spans-") and name.endswith(".json"):
                    with open(os.path.join(self.spool_dir, name)) as fh:
                        dumps.append(json.load(fh))
        return dumps


def write_dump(path: str, dump: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(dump, fh)
    os.replace(tmp, path)


def _exclusive(spans: list[list]) -> list[tuple[int, int, str]]:
    """Each span's interval minus its direct children, as segments."""
    children: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append(span)
    segments = []
    for span in spans:
        cursor = span[START]
        kids = sorted(children.get(span[SID], ()), key=lambda s: s[START])
        for child in kids:
            if child[START] > cursor:
                segments.append((cursor, child[START], span[LAYER]))
            cursor = max(cursor, child[END])
        if span[END] > cursor:
            segments.append((cursor, span[END], span[LAYER]))
    return segments


def account(dumps: list[dict], start_ns: int, end_ns: int) -> dict:
    """Per-layer self time, busy time and calls over ``[start_ns, end_ns]``.

    Returns ``{"self_s": {layer: s}, "busy_s": {layer: s}, "calls":
    {layer: n}, "other_s": s, "wall_s": s}``.  ``self_s`` is the wall-clock
    share described in the module docstring; ``busy_s`` is the classic
    per-thread self time summed over threads (what per-event host costs
    divide by).
    """
    events: list[tuple[int, int, str]] = []
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for dump in dumps:
        spans = dump["spans"]
        for span in spans:
            if start_ns <= span[START] < end_ns:
                calls[span[LAYER]] += 1
        for a, b, layer in _exclusive(spans):
            a, b = max(a, start_ns), min(b, end_ns)
            if b > a:
                busy[layer] += (b - a) / 1e9
                events.append((a, 1, layer))
                events.append((b, -1, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    share: dict[str, float] = defaultdict(float)
    active: dict[str, int] = {}
    total = 0
    other_ns = 0
    now = start_ns
    for t, delta, layer in events:
        if t > now:
            dt = t - now
            if total:
                for name, count in active.items():
                    share[name] += dt * count / total
            else:
                other_ns += dt
            now = t
        count = active.get(layer, 0) + delta
        if count:
            active[layer] = count
        else:
            del active[layer]
        total += delta
    other_ns += max(0, end_ns - now)
    return {
        "self_s": {name: ns / 1e9 for name, ns in share.items()},
        "busy_s": dict(busy),
        "calls": dict(calls),
        "other_s": other_ns / 1e9,
        "wall_s": (end_ns - start_ns) / 1e9,
    }


def chrome_trace(dumps: list[dict], start_ns: int) -> dict:
    """The spans as Chrome-trace JSON (Perfetto opens it)."""
    events = []
    for dump in dumps:
        pid = dump["pid"]
        for span in dump["spans"]:
            events.append({
                "name": span[LAYER],
                "cat": span[LAYER].split(".")[0],
                "ph": "X",
                "ts": (span[START] - start_ns) / 1e3,
                "dur": (span[END] - span[START]) / 1e3,
                "pid": pid,
                "tid": span[TID],
                "args": {"id": span[SID], "parent": span[PARENT],
                         "job": span[KEY]},
            })
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
