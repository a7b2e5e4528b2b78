"""repro.observe — unified tracing, metrics, and timeline export.

The subsystem unifies the three previously disjoint instrumentation paths
(per-draw profiler rows, coarse cycle estimates, farm phase wall times)
behind one accounting layer:

* :mod:`~repro.observe.spans` — hierarchical spans (run → frame → draw →
  pipeline stage) with a zero-allocation no-op path when disabled;
* :mod:`~repro.observe.metrics` — process-wide counters / gauges /
  fixed-bucket histograms with order-independent cross-process merge;
* :mod:`~repro.observe.export` — Chrome-trace/Perfetto JSON, JSONL, ASCII
  timeline and top-span tables, deterministic (diffable) on the logical
  clock.

Typical use::

    from repro import observe

    tracer = observe.enable()          # also flags farm workers via env
    repro.simulate("UT2004/Primeval", frames=2)
    observe.write_export("trace.json", tracer.timeline())
    observe.disable()

or from the CLI: ``repro observe "UT2004/Primeval" --frames 2 --jobs 4
--export trace.json``.
"""

from __future__ import annotations

from repro.observe import metrics, spans
from repro.observe.export import (
    ascii_timeline,
    format_metrics,
    format_top_spans,
    from_jsonl,
    to_chrome,
    to_jsonl,
    top_spans,
    validate_chrome,
    write_export,
)
from repro.observe.metrics import MetricsRegistry, registry
from repro.observe.spans import (
    NOOP,
    Tracer,
    UnitScope,
    arm_env,
    current,
    disable,
    enable,
    enabled,
    env_enabled,
    span,
    subscribe,
    unsubscribe,
)

__all__ = [
    "MetricsRegistry",
    "NOOP",
    "Tracer",
    "UnitScope",
    "absorb",
    "arm_env",
    "ascii_timeline",
    "current",
    "disable",
    "enable",
    "enabled",
    "env_enabled",
    "format_metrics",
    "format_top_spans",
    "from_jsonl",
    "metrics",
    "registry",
    "span",
    "spans",
    "subscribe",
    "to_chrome",
    "to_jsonl",
    "top_spans",
    "unsubscribe",
    "validate_chrome",
    "write_export",
]


def absorb(payload: dict | None) -> bool:
    """Fold a unit's span-buffer payload into this thread's timeline.

    Called by the farm at harvest with the payload a worker returned in its
    :class:`~repro.farm.executor.JobOutcome`.  A thread that is not tracing
    (a serve lane, an untraced batch) drops it, as does a ``None`` payload
    (the unit traced straight into the parent, or not at all).  Returns
    True when a track was merged.
    """
    tracer = spans.current()
    if tracer is None or payload is None:
        return False
    tracer.absorb(payload)
    try:
        metrics.registry().merge(payload.get("metrics") or {})
    except (TypeError, ValueError, KeyError):
        metrics.registry().counter("observe.metrics_rejected").inc()
    metrics.registry().counter("observe.tracks_merged").inc()
    return True
