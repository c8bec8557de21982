"""Observability layer: structured stage tracing, metrics, and exporters.

The engine's cost claims (per-stage durations, shuffle-byte bounds, retry
invariance) are only testable if every execution leaves a structured record
behind.  This package provides the three pieces the rest of the library
reports into:

* :mod:`~repro.observability.trace` — a span tree
  (``stage → task → kernel``, plus zero-duration ``transfer`` events)
  collected by the driver-side :class:`Tracer` and, inside workers, by a
  per-task buffer that travels back through the stage-executor seam so the
  trace *structure* is identical under the serial and process
  backends;
* :mod:`~repro.observability.metrics` — a registry of labelled counters,
  gauges, and histograms that the runtime, fault handling, scheduler
  replay, and cache tables report into;
* :mod:`~repro.observability.export` — JSONL and Chrome-trace
  (``chrome://tracing`` / Perfetto) dumps, the duration-free structural
  tree used by the golden-trace tests, and a plain-text report.

Tracing is opt-in (``ClusterConfig(tracing=True)``, which DBTF takes as
``DbtfConfig(cluster=ClusterConfig(tracing=True))``); when off, the kernel
instrumentation is a single thread-local read per call.
"""

from .export import (
    metrics_to_jsonl,
    read_jsonl,
    render_report,
    structural_tree,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    SpanKind,
    SpanRecord,
    TaskTraceContext,
    Tracer,
    activate_task_context,
    current_task_context,
    deactivate_task_context,
    kernel_span,
    record_metric,
)

__all__ = [
    "SpanKind",
    "SpanRecord",
    "Tracer",
    "TaskTraceContext",
    "activate_task_context",
    "deactivate_task_context",
    "current_task_context",
    "kernel_span",
    "record_metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "structural_tree",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "metrics_to_jsonl",
    "write_metrics_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_report",
]
