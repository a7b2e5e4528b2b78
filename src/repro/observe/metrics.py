"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the numeric side of the observability subsystem: the GPU
pipeline publishes per-frame event counts (per-draw costs travel as
``gpu.draw`` span attributes instead), and
:class:`~repro.farm.telemetry.FarmTelemetry` keeps its phase accounting in a
registry (its own by default, the process-wide one when the ``repro
observe`` CLI wires them together) — so the ``farm status`` summary and a
metrics dump can never disagree.

Cross-process semantics are defined by :meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.merge`: farm workers snapshot their per-unit registry
into the span payload they return and the parent merges it at harvest.  Merging is
order-independent — counters and histogram buckets add, gauges take the
maximum — so totals are identical no matter how units were scheduled.
"""

from __future__ import annotations


class Counter:
    """Monotonically increasing value (int or float increments)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set value; merges across processes by maximum."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` tallies values <= buckets[i].

    The final slot counts overflow (values above the last bound).  Buckets
    are fixed at creation, so snapshots from different processes merge by
    plain elementwise addition.
    """

    __slots__ = ("buckets", "counts", "total", "count")

    #: Default bounds: half-decade steps over the ranges the pipeline and
    #: farm produce (fragment counts, bytes, draw costs).
    DEFAULT_BUCKETS = (
        10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000
    )

    def __init__(self, buckets=None):
        self.buckets = tuple(buckets) if buckets else self.DEFAULT_BUCKETS
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0
        self.count = 0

    def observe(self, value) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Named metrics, get-or-create, with cross-process snapshot/merge."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, buckets=None) -> Histogram:
        return self._get(name, lambda: Histogram(buckets), Histogram)

    def items(self, prefix: str = ""):
        """``(name, metric)`` pairs in deterministic (sorted) order."""
        return [
            (name, self._metrics[name])
            for name in sorted(self._metrics)
            if name.startswith(prefix)
        ]

    def clear(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    # -- cross-process ---------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-JSON form of every metric (a span payload's ``metrics``)."""
        return {name: metric.snapshot() for name, metric in self.items()}

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot in: counters/histograms add, gauges take max.

        A malformed entry (wrong type, mismatched buckets) raises
        ``TypeError``/``ValueError`` — callers merging untrusted payloads
        catch and drop.
        """
        for name, doc in sorted(snapshot.items()):
            kind = doc.get("type")
            if kind == "counter":
                self.counter(name).inc(doc["value"])
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.set(max(gauge.value, doc["value"]))
            elif kind == "histogram":
                hist = self.histogram(name, doc["buckets"])
                if list(hist.buckets) != list(doc["buckets"]):
                    raise ValueError(f"histogram {name!r} bucket mismatch")
                for i, c in enumerate(doc["counts"]):
                    hist.counts[i] += c
                hist.total += doc["total"]
                hist.count += doc["count"]
            else:
                raise TypeError(f"unknown metric type {kind!r} for {name!r}")


#: The process-wide registry everything publishes into by default.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return REGISTRY


def reset() -> None:
    """Empty the process-wide registry (unit scopes, tests, CLI startup)."""
    REGISTRY.clear()
