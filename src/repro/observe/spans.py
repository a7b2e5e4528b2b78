"""Hierarchical low-overhead spans: run → frame → draw → pipeline stage.

One process-wide :class:`Tracer` (installed with :func:`enable`) collects
:class:`Span` records from every instrumented layer — the GPU pipeline
(:mod:`repro.gpu.pipeline`), the execution farm (:mod:`repro.farm.executor`),
and the experiment runner (:mod:`repro.experiments.runner`).  When no tracer
is installed, :func:`span` returns a shared no-op singleton: the disabled
fast path performs **no allocation** at all (asserted by
``tests/test_observe.py``), so instrumentation can stay in hot code
unconditionally.

Two clocks per span make exports both human-useful and diffable:

* ``t0``/``t1`` — ``time.perf_counter_ns()`` wall time, for real durations;
* ``s0``/``s1`` — a per-tracer **event sequence** incremented on every span
  start *and* end.  Sequence numbers depend only on execution order, which
  is deterministic for a given workload/seed, so exports rendered on the
  sequence clock are bit-stable across reruns and machines.

Cross-process collection: a farm pool worker has no parent tracer, so
:class:`UnitScope` gives each execution unit (job or frame shard) a fresh
tracer whose buffer is serialized into the unit's result envelope
(:class:`repro.farm.executor.JobOutcome`); the parent absorbs the payloads
at harvest (:func:`repro.observe.absorb`) into per-unit *tracks* of one
coherent timeline, with or without a store.  The same scope run in-parent
(serial path) just opens a normal span, so serial and parallel runs
produce one merged timeline either way.

The installed tracer is **per thread** (a ``threading.local`` slot): the
serving layer (:mod:`repro.serve`) runs several execution lanes as threads
of one process, and each lane's :class:`UnitScope` must buffer only its own
unit's spans.  Single-threaded callers see the exact old semantics —
``enable()`` installs, ``span()`` finds, ``disable()`` removes.

Live progress taps in through :func:`subscribe`: while at least one
subscriber is registered, every span start/end on any thread's tracer is
published as a small event document (name, category, track, sequence
number, thread id).  With no subscribers the publish path is a single
empty-list check, so the farm and pipeline pay nothing for it.
"""

from __future__ import annotations

import os
import threading
import time

#: Environment flag that tells forked/spawned farm workers to trace.
ENV_FLAG = "REPRO_OBSERVE"


class Span:
    """One timed region; context manager returned by an enabled tracer."""

    __slots__ = ("name", "cat", "parent", "s0", "s1", "t0", "t1", "attrs",
                 "index", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, cat: str, parent: int):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.parent = parent  # index into the tracer's buffer, -1 for roots
        self.attrs: dict | None = None
        self.s0 = tracer.tick()
        self.s1: int | None = None
        self.t0 = time.perf_counter_ns()
        self.t1: int | None = None

    def set(self, key: str, value) -> None:
        """Attach an attribute (exported into the trace's ``args``)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc) -> bool:
        self._tracer.close(self)
        return False

    def as_dict(self) -> dict:
        """Serialized form (the span payload/JSONL schema)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "parent": self.parent,
            "s0": self.s0,
            "s1": self.s1,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs or {},
        }


class _NoopSpan:
    """Shared do-nothing stand-in handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, key, value) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


#: The one no-op instance; ``span()`` returns it without allocating.
NOOP = _NoopSpan()


class Tracer:
    """Collects one process's spans (a *track*) plus absorbed foreign tracks."""

    def __init__(self, track: str = "main"):
        self.track = track
        self.pid = os.getpid()
        #: Wall-clock anchor pair: ``epoch_ns`` (time.time_ns) taken at the
        #: same instant as ``anchor_ns`` (perf_counter_ns) lets exports align
        #: tracks from different processes on one absolute axis.
        self.epoch_ns = time.time_ns()
        self.anchor_ns = time.perf_counter_ns()
        self.spans: list[Span] = []
        self.foreign: dict[str, dict] = {}  # track name -> serialized payload
        self._stack: list[Span] = []
        self._seq = 0

    # -- span lifecycle --------------------------------------------------
    def tick(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def start(self, name: str, cat: str = "span") -> Span:
        parent = self._stack[-1].index if self._stack else -1
        span = Span(self, name, cat, parent)
        span.index = len(self.spans)
        self.spans.append(span)
        self._stack.append(span)
        if _SUBSCRIBERS:
            _publish("start", self, span, span.s0)
        return span

    def close(self, span: Span) -> None:
        span.s1 = self.tick()
        span.t1 = time.perf_counter_ns()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)
        if _SUBSCRIBERS:
            _publish("end", self, span, span.s1)

    # -- serialization / merge -------------------------------------------
    def payload(self, metrics: dict | None = None) -> dict:
        """Serialize this tracer's own track (the span payload).

        Spans still open are closed *in the serialized copy only* at the
        current sequence/time, so a payload is always well-formed.
        """
        now_seq = self._seq
        now_ns = time.perf_counter_ns()
        spans = []
        for span in self.spans:
            doc = span.as_dict()
            if doc["s1"] is None:
                doc["s1"] = now_seq
                doc["t1"] = now_ns
            spans.append(doc)
        return {
            "track": self.track,
            "pid": self.pid,
            "epoch_ns": self.epoch_ns,
            "anchor_ns": self.anchor_ns,
            "spans": spans,
            "metrics": metrics or {},
        }

    def absorb(self, payload: dict) -> None:
        """Merge a foreign (worker) track into this timeline.

        The track is kept without its ``metrics``: the caller merges those
        into the registry that the first track of :meth:`timeline` carries,
        so an export counts every worker counter once.
        """
        track = {k: v for k, v in payload.items() if k != "metrics"}
        self.foreign[str(payload.get("track", "?"))] = track

    def timeline(self, metrics: dict | None = None) -> list[dict]:
        """Every track, own first, foreign tracks in deterministic order."""
        return [self.payload(metrics)] + [
            self.foreign[name] for name in sorted(self.foreign)
        ]


# -- module-level tracer --------------------------------------------------
#: Per-thread tracer slot.  Each thread installs and finds its own tracer,
#: so concurrent serve lanes (threads) buffer disjoint span tracks; a
#: single-threaded process behaves exactly as a plain module global would.
_SLOT = threading.local()

# -- live event subscription ----------------------------------------------
#: Callbacks receiving every span start/end while registered (any thread).
_SUBSCRIBERS: list = []


def subscribe(callback) -> None:
    """Register ``callback(event: dict)`` for live span start/end events.

    Events carry ``phase`` ("start"/"end"), ``name``, ``cat``, ``track``,
    ``seq`` (the tracer's logical clock at the edge), ``pid`` and ``tid``
    (the publishing thread, so a multiplexing consumer can attribute events
    to the unit of work it scheduled on that thread).  Callbacks run inline
    on the instrumented thread and must be fast and non-raising; exceptions
    are swallowed so observability can never fail the measurement.
    """
    if callback not in _SUBSCRIBERS:
        _SUBSCRIBERS.append(callback)


def unsubscribe(callback) -> None:
    try:
        _SUBSCRIBERS.remove(callback)
    except ValueError:
        pass


def _publish(phase: str, tracer: "Tracer", span: Span, seq: int) -> None:
    event = {
        "phase": phase,
        "name": span.name,
        "cat": span.cat,
        "track": tracer.track,
        "seq": seq,
        "pid": tracer.pid,
        "tid": threading.get_ident(),
    }
    for callback in list(_SUBSCRIBERS):
        try:
            callback(event)
        except Exception:
            pass


def current() -> Tracer | None:
    return getattr(_SLOT, "tracer", None)


def enabled() -> bool:
    return getattr(_SLOT, "tracer", None) is not None


def env_enabled() -> bool:
    """Whether a parent process asked descendants to trace."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def arm_env() -> None:
    """Set :data:`ENV_FLAG` without installing a tracer here.

    Farm workers (and serve lane threads) that see the flag give each
    execution unit a fresh tracer via :class:`UnitScope`; the arming
    process/thread itself stays untraced.
    """
    os.environ[ENV_FLAG] = "1"


def enable(track: str = "main", env: bool = True) -> Tracer:
    """Install a fresh tracer on this thread and return it.

    ``env=True`` also sets :data:`ENV_FLAG` so farm pool workers (which
    inherit the environment) trace their units into span payloads.
    """
    _SLOT.tracer = Tracer(track)
    if env:
        os.environ[ENV_FLAG] = "1"
    return _SLOT.tracer


def disable() -> None:
    """Remove this thread's tracer (and the worker flag); ``span()`` goes no-op."""
    _SLOT.tracer = None
    os.environ.pop(ENV_FLAG, None)


def span(name: str, cat: str = "span"):
    """Start a span on the current tracer, or return the no-op singleton.

    The disabled path allocates nothing: two constant loads and a return.
    Attach attributes through the returned object so call sites pay for
    them only when tracing is live::

        with span("gpu.draw", "gpu") as s:
            if s:
                s.set("mesh", draw.mesh)
    """
    tracer = getattr(_SLOT, "tracer", None)
    if tracer is None:
        return NOOP
    return tracer.start(name, cat)


class UnitScope:
    """Per-execution-unit tracing scope for farm workers (and serial runs).

    In a process that already traces (the parent), the scope is just a
    ``job:<label>`` span.  In a worker process with no tracer but with the
    :data:`ENV_FLAG` inherited, it installs a fresh per-unit tracer;
    :meth:`finish` uninstalls it and returns the serialized payload for the
    unit's result envelope.  Buffers are per *unit*, not per worker
    process, so their contents depend only on the unit's (deterministic)
    work — never on which worker ran it or what ran before.
    """

    def __init__(self, label: str):
        self.fresh = False
        installed = getattr(_SLOT, "tracer", None)
        # A tracer from another pid is the parent's, inherited across a
        # fork — stale here.  Replace it with a per-unit tracer.
        stale = installed is not None and installed.pid != os.getpid()
        if (installed is None or stale) and env_enabled():
            installed = Tracer(track=label)
            _SLOT.tracer = installed
            self.fresh = True
        self._tracer = installed
        self._root = (
            self._tracer.start(f"job:{label}", cat="farm")
            if self._tracer is not None
            else None
        )

    def finish(self, metrics: dict | None = None) -> dict | None:
        """Close the scope; return the span payload for fresh units."""
        if self._root is not None:
            self._tracer.close(self._root)
        if not self.fresh:
            return None
        payload = self._tracer.payload(metrics)
        _SLOT.tracer = None
        return payload
