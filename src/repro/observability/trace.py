"""Structured spans: the trace side of the observability layer.

Two collection paths feed one span tree:

* The **driver** owns a :class:`Tracer`.  ``SimulatedRuntime.run_stage``
  opens one ``stage`` span per stage and records zero-duration ``transfer``
  events for every ledger entry (shuffle, broadcast, collect), so byte
  attribution lives in the trace as well as in the ledger.

* **Workers** cannot share the driver's tracer (the process backend runs
  them in other interpreters), so :func:`~repro.distengine.backends.base.
  execute_task` activates a :class:`TaskTraceContext` — a plain, picklable
  buffer — for the duration of the task.  Kernel instrumentation
  (:func:`kernel_span`, :func:`record_metric`) writes into whatever context
  is active on the current thread and is a no-op otherwise.  The buffer
  rides back to the driver inside the task outcome, where
  :meth:`Tracer.graft` attaches it under the stage span in partition order
  — which is what makes the span *structure* identical across the serial
  and process backends (only wall-clock fields differ).

Span ids are assigned by the driver in graft order, so a fixed-seed run
produces bit-identical ids under every backend.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

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
    "metrics_enabled",
    "untraced",
]


class SpanKind:
    """The levels of the span tree (plus instantaneous transfer events)."""

    STAGE = "stage"
    TASK = "task"
    KERNEL = "kernel"
    TRANSFER = "transfer"
    CHECKPOINT = "checkpoint"
    SPECULATION = "speculation"
    STORAGE = "storage"

    ALL = (STAGE, TASK, KERNEL, TRANSFER, CHECKPOINT, SPECULATION, STORAGE)


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    ``start``/``duration`` are host wall-clock values and are deliberately
    excluded from :func:`~repro.observability.export.structural_tree`; all
    structural facts (name, kind, parentage, attrs such as partition index,
    retries, and byte counts) are backend-invariant.
    """

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start: float
    duration: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class _OpenSpan:
    """Driver-side context manager for :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "kind", "attrs", "span_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, kind: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.kind = kind
        self.attrs = attrs

    def __enter__(self) -> "_OpenSpan":
        self.span_id = self.tracer._open(self)
        self._start = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self, time.perf_counter() - self._start)


class Tracer:
    """Collects the driver-side span tree; thread-safe.

    The driver executes stages one at a time, so open spans form a simple
    stack; worker-collected sub-trees are grafted under their stage span
    after the stage completes (deterministically, in partition order).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack: list[int] = []
        self.spans: list[SpanRecord] = []

    # -- span creation -------------------------------------------------
    def span(self, name: str, kind: str = SpanKind.STAGE, **attrs: Any) -> _OpenSpan:
        """Open a timed span; use as a context manager."""
        return _OpenSpan(self, name, kind, dict(attrs))

    def event(self, name: str, kind: str = SpanKind.TRANSFER, **attrs: Any) -> None:
        """Record an instantaneous (zero-duration) span."""
        self.add_span(name, kind, start=time.perf_counter(), duration=0.0, **attrs)

    def add_span(
        self,
        name: str,
        kind: str,
        start: float = 0.0,
        duration: float = 0.0,
        **attrs: Any,
    ) -> int:
        """Record an already-measured span; returns its id.

        The parent is whatever span is currently open on the driver (none,
        for the usual flat stage sequence).
        """
        with self._lock:
            span_id = self._allocate()
            parent = self._stack[-1] if self._stack else None
            self.spans.append(
                SpanRecord(span_id, parent, name, kind, start, duration,
                           dict(attrs))
            )
            return span_id

    def graft(
        self,
        parent_id: int,
        task_trace: dict[str, Any],
    ) -> int:
        """Attach one task's worker-collected trace under ``parent_id``.

        ``task_trace`` is the picklable dict produced by ``execute_task``:
        the task span itself plus its kernel records with buffer-relative
        ids (the task is id 0).  Fresh driver ids are assigned in relative
        id order, so grafting is deterministic.  Returns the task span id.
        """
        with self._lock:
            task_id = self._allocate()
            self.spans.append(
                SpanRecord(
                    task_id,
                    parent_id,
                    task_trace["name"],
                    SpanKind.TASK,
                    float(task_trace.get("start", 0.0)),
                    float(task_trace.get("duration", 0.0)),
                    dict(task_trace.get("attrs", ())),
                )
            )
            relative_to_driver = {0: task_id}
            for record in sorted(task_trace.get("kernels", ()),
                                 key=lambda r: r["id"]):
                span_id = self._allocate()
                relative_to_driver[record["id"]] = span_id
                self.spans.append(
                    SpanRecord(
                        span_id,
                        relative_to_driver[record["parent"]],
                        record["name"],
                        record.get("kind", SpanKind.KERNEL),
                        float(record.get("start", 0.0)),
                        float(record.get("duration", 0.0)),
                        dict(record.get("attrs", ())),
                    )
                )
            return task_id

    # -- bookkeeping ---------------------------------------------------
    def _allocate(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _open(self, span: _OpenSpan) -> int:
        with self._lock:
            span_id = self._allocate()
            self._stack.append(span_id)
            return span_id

    def _close(self, span: _OpenSpan, duration: float) -> None:
        with self._lock:
            self._stack.remove(span.span_id)
            parent: int | None = None
            if self._stack:
                parent = self._stack[-1]
            self.spans.append(
                SpanRecord(span.span_id, parent, span.name, span.kind,
                           span._start, duration, span.attrs)
            )

    def reset(self) -> None:
        with self._lock:
            self._next_id = 0
            self._stack.clear()
            self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self.spans)})"


# ----------------------------------------------------------------------
# Worker-side task context
# ----------------------------------------------------------------------
class TaskTraceContext:
    """Per-task buffer for kernel spans and metric deltas.

    Lives for one ``execute_task`` call (all attempts of one task) on the
    thread that runs it.  Everything it holds is plain picklable data so it
    can cross a process boundary inside the task outcome.  Kernel records
    use buffer-relative ids with the enclosing task as id 0.
    """

    __slots__ = ("kernels", "metrics", "_stack", "_next_id")

    def __init__(self) -> None:
        self.kernels: list[dict[str, Any]] = []
        #: ``(name, labels, metric_kind) -> value`` accumulated increments.
        self.metrics: dict[tuple, float] = {}
        self._stack: list[int] = []
        self._next_id = 1

    def metric_deltas(self) -> tuple:
        """The accumulated metric increments as a picklable tuple."""
        return tuple(
            (name, labels, metric_kind, value)
            for (name, labels, metric_kind), value in self.metrics.items()
        )


_ACTIVE = threading.local()


def current_task_context() -> TaskTraceContext | None:
    """The task context active on this thread, if any."""
    return getattr(_ACTIVE, "context", None)


def activate_task_context(context: TaskTraceContext) -> None:
    _ACTIVE.context = context


def deactivate_task_context() -> None:
    _ACTIVE.context = None


@contextlib.contextmanager
def untraced():
    """Run a block outside any task context: it records no span or metric.

    For work whose placement depends on the backend (state a worker builds
    once and reuses), which must not show in the backend-invariant trace.
    """
    context = getattr(_ACTIVE, "context", None)
    _ACTIVE.context = None
    try:
        yield
    finally:
        _ACTIVE.context = context


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def set(self, **attrs: Any) -> None:
        pass

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _KernelSpan:
    """Kernel-level span writing into the active :class:`TaskTraceContext`."""

    __slots__ = ("context", "name", "attrs", "_id", "_parent", "_start")

    def __init__(self, context: TaskTraceContext, name: str, attrs: dict):
        self.context = context
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_KernelSpan":
        context = self.context
        self._id = context._next_id
        context._next_id += 1
        self._parent = context._stack[-1] if context._stack else 0
        context._stack.append(self._id)
        self._start = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._start
        context = self.context
        context._stack.pop()
        context.kernels.append(
            {
                "id": self._id,
                "parent": self._parent,
                "name": self.name,
                "kind": SpanKind.KERNEL,
                "start": self._start,
                "duration": duration,
                "attrs": self.attrs,
            }
        )


def kernel_span(name: str, **attrs: Any):
    """Instrument a hot kernel; costs one thread-local read when disabled.

    Usage::

        with kernel_span("or_accumulate_table", n_columns=v):
            ...

    Inside a traced task the span lands in the task's buffer (nested under
    any enclosing kernel span); outside one this returns a shared no-op
    context manager.
    """
    context = getattr(_ACTIVE, "context", None)
    if context is None:
        return _NULL_SPAN
    return _KernelSpan(context, name, attrs)


def metrics_enabled() -> bool:
    """Whether a task context is collecting metric increments right now.

    One thread-local attribute read.  Hot loops (per-fetch counters) guard
    their :func:`record_metric` calls with this so the disabled path pays
    no call-argument setup at all.
    """
    return getattr(_ACTIVE, "context", None) is not None


def record_metric(
    name: str, value: float = 1.0, metric_kind: str = "counter", **labels: Any
) -> None:
    """Report a metric increment from inside a (possibly remote) task.

    No-op without an active task context.  Deltas are merged into the
    driver's :class:`~repro.observability.metrics.MetricsRegistry` after
    the stage completes; counters are order-independent, so the merged
    values are backend-invariant.
    """
    context = getattr(_ACTIVE, "context", None)
    if context is None:
        return
    key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())), metric_kind)
    context.metrics[key] = context.metrics.get(key, 0.0) + value
