"""A small labelled-metrics registry (counters, gauges, histograms).

The runtime and its collaborators report into one
:class:`MetricsRegistry` per :class:`~repro.distengine.runtime.
SimulatedRuntime`:

* the stage executor: ``stages_total``, ``tasks_total{stage}``,
  ``task_duration_seconds{stage}`` (histogram);
* fault handling: ``task_failures_total{stage}`` — the registry-backed
  replacement for the runtime's old ad-hoc failure dict (the
  ``count_task_failure`` / ``task_failures`` facade is preserved on top);
* the network ledger: ``transfer_bytes_total{kind, stage}``;
* the cost replay (scheduler): ``simulated_*_seconds{machines}`` gauges;
* cache tables (reported from inside workers via
  :func:`~repro.observability.trace.record_metric` and merged after the
  stage): ``cache_tables_built_total``, ``cache_entries_total``,
  ``cache_fetches_total`` (one per table gather: a DBTF column-kernel
  evaluation gathers all its selected blocks at once),
  ``bitmatrix_ops_total{op}``;
* the packed-Boolean kernels (:mod:`repro.bitops.ops`):
  ``kernel_dispatch_total{kernel, impl}`` — one increment per kernel call
  inside a traced task, labelling the implementation that ran.

Counters and gauges are exact and order-independent, so their merged
values are identical under the serial and process backends.
Histograms bucket on fixed bounds; only their *time-valued* observations
differ between backends (the counts per stage do not).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Exponential-ish default bounds, tuned for task durations in seconds.
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)
    metric_kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)
    metric_kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Bucketed observations with sum/count/min/max.

    Stores cumulative bucket counts over fixed bounds, so two runs that
    observe the same multiset of values — in any order — produce identical
    snapshots.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")
    metric_kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> "float | None":
        """Bucket-interpolated quantile estimate (``None`` when empty).

        Standard histogram-quantile estimation: find the bucket where the
        cumulative count crosses ``q * count`` and interpolate linearly
        inside it.  The estimate is exact at bucket bounds and clamped to
        the observed ``[min, max]``, so single-observation histograms and
        overflow-bucket quantiles stay honest instead of reporting a
        bucket bound nothing ever hit.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.buckets, self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if bucket_count == 0:
                    estimate = bound
                else:
                    within = target - (cumulative - bucket_count)
                    estimate = lower + (bound - lower) * within / bucket_count
                return max(self.min, min(self.max, estimate))
            lower = bound
        # Overflow bucket: no upper bound to interpolate against.
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": dict(zip(self.buckets, self.counts)),
            "overflow": self.counts[-1],
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create registry of labelled metric instruments; thread-safe.

    A metric name must keep one instrument type across all label sets
    (``counter("x")`` then ``gauge("x")`` raises).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelKey], Any] = {}
        self._types: dict[str, str] = {}

    def _get(self, cls, name: str, labels: dict[str, Any], *args):
        key = (name, _label_key(labels))
        with self._lock:
            existing_type = self._types.get(name)
            if existing_type is not None and existing_type != cls.metric_kind:
                raise ValueError(
                    f"metric {name!r} is a {existing_type}, not a {cls.metric_kind}"
                )
            if key not in self._metrics:
                self._types[name] = cls.metric_kind
                self._metrics[key] = cls(*args)
            return self._metrics[key]

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, **labels: Any
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets)

    # -- worker-delta merging ------------------------------------------
    def merge_deltas(self, deltas: Iterable[tuple]) -> None:
        """Fold worker-side increments (see ``TaskTraceContext``) in.

        Each delta is ``(name, label_key, metric_kind, value)``.  Counter
        deltas add; gauge deltas overwrite; histogram deltas observe once.
        """
        for name, label_key, metric_kind, value in deltas:
            labels = dict(label_key)
            if metric_kind == "counter":
                self.counter(name, **labels).inc(value)
            elif metric_kind == "gauge":
                self.gauge(name, **labels).set(value)
            elif metric_kind == "histogram":
                self.histogram(name, **labels).observe(value)
            else:
                raise ValueError(f"unknown metric kind {metric_kind!r}")

    # -- introspection -------------------------------------------------
    def collect(self) -> list[tuple[str, LabelKey, str, Any]]:
        """Sorted snapshots: ``(name, labels, kind, value)`` per instrument."""
        with self._lock:
            rows = [
                (name, label_key, metric.metric_kind, metric.snapshot())
                for (name, label_key), metric in self._metrics.items()
            ]
        return sorted(rows, key=lambda row: (row[0], row[1]))

    def counters(self) -> dict[str, dict[LabelKey, float]]:
        """All counter values, grouped by metric name."""
        grouped: dict[str, dict[LabelKey, float]] = {}
        for name, labels, metric_kind, value in self.collect():
            if metric_kind == "counter":
                grouped.setdefault(name, {})[labels] = value
        return grouped

    def value(self, name: str, **labels: Any) -> float:
        """One counter/gauge value (0.0 if never reported)."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
        if metric is None:
            return 0.0
        return metric.value

    def to_text(self) -> str:
        """Prometheus-style plain-text exposition of every instrument."""
        lines = []
        for name, label_key, metric_kind, snap in self.collect():
            labels = (
                "{" + ",".join(f'{k}="{v}"' for k, v in label_key) + "}"
                if label_key
                else ""
            )
            if metric_kind == "histogram":
                lines.append(
                    f"{name}{labels} count={snap['count']} sum={snap['sum']:.6f} "
                    f"min={snap['min']} max={snap['max']}"
                )
            else:
                value = snap
                rendered = (
                    f"{int(value)}" if float(value).is_integer() else f"{value:.6f}"
                )
                lines.append(f"{name}{labels} {rendered}")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._types.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._metrics)})"
