"""The metrics registry: counters, gauges, and fixed-boundary histograms.

One :class:`MetricsRegistry` holds every number the pipeline exports —
per-stage timings, question/billing counters, round-size distributions —
keyed by ``(kind, name, sorted labels)`` so the same metric name can carry
per-dataset or per-selector breakdowns as a *labeled family* (the
Prometheus data model).  Every instrument lives in the process that
records into it; the exporters in :mod:`repro.obs.export` read the
registry directly.

Property tests in ``tests/test_obs_metrics.py`` pin the histogram
bucketing contract.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable

from ..exceptions import ObservabilityError

#: Default bucket boundaries for *seconds* histograms: sub-millisecond to
#: minutes, roughly geometric — wide enough for a join stage and a full
#: crowd round alike.
SECONDS_BOUNDARIES: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: Default boundaries for *count* histograms (batch sizes, pairs per round).
COUNT_BOUNDARIES: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 10000,
)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "description", "labels", "value")

    def __init__(self, name: str, description: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.description = description
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def as_dict(self) -> dict:
        value = self.value
        return {"value": int(value) if value == int(value) else value}


class Gauge:
    """A point-in-time reading."""

    kind = "gauge"
    __slots__ = ("name", "description", "labels", "value")

    def __init__(self, name: str, description: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.description = description
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        value = self.value
        return {"value": int(value) if value == int(value) else value}


class Histogram:
    """Fixed-boundary cumulative-style histogram.

    ``boundaries`` are the *upper edges* of the finite buckets; an
    observation ``v`` lands in the first bucket whose edge satisfies
    ``v <= edge`` (``bisect_left`` over the sorted edges), and anything
    above the last edge lands in the overflow bucket, so there are
    ``len(boundaries) + 1`` buckets and every observation lands in exactly
    one.  ``sum``/``count``/``min``/``max`` ride along so exporters can
    report averages and extremes without raw samples.
    """

    kind = "histogram"
    __slots__ = (
        "name", "description", "labels", "boundaries", "bucket_counts",
        "count", "sum", "min", "max",
    )

    def __init__(
        self,
        name: str,
        description: str = "",
        labels: LabelItems = (),
        boundaries: Iterable[float] = SECONDS_BOUNDARIES,
    ) -> None:
        edges = tuple(float(edge) for edge in boundaries)
        if not edges:
            raise ObservabilityError(f"histogram {name!r} needs >= 1 boundary")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ObservabilityError(
                f"histogram {name!r} boundaries must be strictly increasing: {edges}"
            )
        self.name = name
        self.description = description
        self.labels = labels
        self.boundaries = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        payload = {
            "count": self.count,
            "sum": round(self.sum, 9),
            "boundaries": list(self.boundaries),
            "buckets": list(self.bucket_counts),
        }
        if self.count:
            payload["min"] = self.min
            payload["max"] = self.max
            payload["mean"] = round(self.mean, 9)
        return payload


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A process-local family of named, labeled metrics.

    Accessors are get-or-create: asking for the same ``(name, labels)``
    twice returns the same instrument, so call sites never pre-register.
    Re-using a name with a different *kind* is an error — a family has one
    type.  Creation is lock-protected (serve batch threads, the engine's
    callbacks); single-instrument updates are plain attribute arithmetic,
    safe under the GIL for the increment granularity we record at.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], Metric] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def _get_or_create(self, factory, name: str, description: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, description, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, factory):
                raise ObservabilityError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {factory.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, description, labels)

    def gauge(self, name: str, description: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, description, labels)

    def histogram(
        self,
        name: str,
        description: str = "",
        boundaries: Iterable[float] = SECONDS_BOUNDARIES,
        **labels: str,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, description, labels, boundaries=boundaries
        )
        if metric.boundaries != tuple(float(b) for b in boundaries):
            raise ObservabilityError(
                f"histogram {name!r} re-requested with different boundaries"
            )
        return metric

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def metrics(self) -> list[Metric]:
        """Every instrument, deterministically ordered by (name, labels)."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def family(self, name: str) -> list[Metric]:
        """Every labeled member of one metric name, label-sorted."""
        return [m for m in self.metrics() if m.name == name]

    def snapshot(self) -> dict:
        """A deterministic, JSON-ready view of every metric."""
        out: dict = {}
        for metric in self.metrics():
            entry = {"kind": metric.kind, **metric.as_dict()}
            if metric.labels:
                entry["labels"] = dict(metric.labels)
            out.setdefault(metric.name, []).append(entry)
        return out


__all__ = [
    "COUNT_BOUNDARIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SECONDS_BOUNDARIES",
]
