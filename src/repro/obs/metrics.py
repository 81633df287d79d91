"""Labeled metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`Metrics` object per run (the runtime's ``ObsContext`` owns
it).  Every instrument is identified by a name plus a label set, e.g.::

    metrics.inc("frames_simulated", 64, phase="ground_truth")
    metrics.observe("task_wall_s", 0.31, kind="simulate_frame_range")
    metrics.gauge("workers", 8)

Histograms use *fixed* buckets chosen at first observation (default: one
bucket per decade), so merging two registries — the parent folding a
worker's report back in — is a plain element-wise add, never a re-bin.

Worker processes cannot share the parent's registry, so they record into
a local :class:`Metrics`, ship :meth:`Metrics.dump` with their results,
and the engine folds it back with :meth:`Metrics.merge`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

#: Default histogram buckets: one per decade, covering everything from
#: sub-microsecond latencies to billions of cycles.  Values above the
#: last bound land in the overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(10.0 ** e for e in range(-7, 10))

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]


def label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Histogram:
    """Mutable fixed-bucket histogram (counts per bucket + moments)."""

    __slots__ = ("buckets", "counts", "total", "count", "min", "max")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 overflow bucket
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, value)] += 1
        self.total += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "_Histogram") -> None:
        if tuple(other.buckets) != tuple(self.buckets):
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{other.buckets!r} vs {self.buckets!r}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def as_tuple(self) -> tuple:
        return (
            tuple(self.buckets),
            tuple(self.counts),
            self.total,
            self.count,
            self.min,
            self.max,
        )

    @classmethod
    def from_tuple(cls, data: tuple) -> "_Histogram":
        hist = cls(tuple(data[0]))
        hist.counts = list(data[1])
        hist.total = float(data[2])
        hist.count = int(data[3])
        hist.min = float(data[4])
        hist.max = float(data[5])
        return hist


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram series."""

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    total: float
    count: int
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable copy of every series at one moment."""

    counters: Mapping[MetricKey, int]
    gauges: Mapping[MetricKey, float]
    histograms: Mapping[MetricKey, HistogramSnapshot]

    def counter(self, name: str, **labels: Any) -> int:
        return int(self.counters.get((name, label_key(labels)), 0))

    def counter_total(self, name: str) -> int:
        """Sum of a counter across all label sets."""
        return int(
            sum(v for (n, _), v in self.counters.items() if n == name)
        )

    def counter_totals(self) -> Dict[str, int]:
        """Every counter aggregated over labels, by name."""
        totals: Dict[str, int] = {}
        for (name, _), value in self.counters.items():
            totals[name] = totals.get(name, 0) + int(value)
        return totals

    def gauge(self, name: str, **labels: Any) -> Optional[float]:
        return self.gauges.get((name, label_key(labels)))

    def histogram(self, name: str, **labels: Any) -> Optional[HistogramSnapshot]:
        return self.histograms.get((name, label_key(labels)))

    def histogram_totals(self, name: str, label: str) -> Dict[str, float]:
        """Histogram ``name``'s summed values, by the value of ``label``.

        ``histogram_totals("stage_s", "stage")`` maps each stage to its
        total seconds; series without ``label`` fall under ``""``.
        """
        totals: Dict[str, float] = {}
        for (series, labels), hist in self.histograms.items():
            if series == name:
                value = dict(labels).get(label, "")
                totals[value] = totals.get(value, 0.0) + hist.total
        return totals

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (``--metrics-out``)."""

        def series(key: MetricKey) -> Dict[str, Any]:
            name, labels = key
            return {"name": name, "labels": dict(labels)}

        return {
            "counters": [
                {**series(key), "value": int(value)}
                for key, value in sorted(self.counters.items())
            ],
            "gauges": [
                {**series(key), "value": float(value)}
                for key, value in sorted(self.gauges.items())
            ],
            "histograms": [
                {
                    **series(key),
                    "buckets": [float(b) for b in hist.buckets],
                    "counts": [int(c) for c in hist.counts],
                    "sum": float(hist.total),
                    "count": int(hist.count),
                    "min": float(hist.min) if hist.count else None,
                    "max": float(hist.max) if hist.count else None,
                }
                for key, hist in sorted(self.histograms.items())
            ],
        }


class Metrics:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, int] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, _Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Add ``amount`` to the counter ``name{labels}``."""
        key = (name, label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + int(amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name{labels}`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[(name, label_key(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        """Record ``value`` into the histogram ``name{labels}``.

        ``buckets`` fixes the bucket bounds when the series is first
        observed; later calls reuse the registered bounds.
        """
        key = (name, label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = _Histogram(
                    tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
                )
                self._histograms[key] = hist
            hist.observe(float(value))

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> int:
        with self._lock:
            return int(self._counters.get((name, label_key(labels)), 0))

    def counter_total(self, name: str) -> int:
        """Sum of a counter across all label sets."""
        with self._lock:
            return int(
                sum(v for (n, _), v in self._counters.items() if n == name)
            )

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: HistogramSnapshot(
                        buckets=tuple(h.buckets),
                        counts=tuple(h.counts),
                        total=h.total,
                        count=h.count,
                        min=h.min,
                        max=h.max,
                    )
                    for key, h in self._histograms.items()
                },
            )

    # -- worker round-trip -------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """Picklable report for shipping a worker's registry to the parent."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    key: h.as_tuple() for key, h in self._histograms.items()
                },
            }

    def merge(self, dumped: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`dump` report into this registry (element-wise)."""
        if not dumped:
            return
        with self._lock:
            for key, value in dumped.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + int(value)
            for key, value in dumped.get("gauges", {}).items():
                self._gauges[key] = float(value)
            for key, data in dumped.get("histograms", {}).items():
                incoming = _Histogram.from_tuple(data)
                hist = self._histograms.get(key)
                if hist is None:
                    self._histograms[key] = incoming
                else:
                    hist.merge(incoming)
