"""Unit tests for the span tracer and the worker-side task context."""

import pickle
import threading

import pytest

from repro.observability import (
    SpanKind,
    SpanRecord,
    TaskTraceContext,
    Tracer,
    kernel_span,
    record_metric,
)
from repro.observability.trace import (
    activate_task_context,
    current_task_context,
    deactivate_task_context,
)


class TestTracer:
    def test_span_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("stage-a", SpanKind.STAGE, n_tasks=3):
            pass
        assert len(tracer) == 1
        span = tracer.spans[0]
        assert span.name == "stage-a"
        assert span.kind == SpanKind.STAGE
        assert span.attrs == {"n_tasks": 3}
        assert span.parent_id is None
        assert span.duration >= 0.0

    def test_nested_spans_link_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, outer_record = tracer.spans
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer_record.parent_id is None

    def test_set_attaches_attrs_while_open(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set(found=7)
        assert tracer.spans[0].attrs == {"found": 7}

    def test_event_is_zero_duration(self):
        tracer = Tracer()
        tracer.event("shuffle-x", SpanKind.TRANSFER, transfer="shuffle", bytes=10)
        span = tracer.spans[0]
        assert span.duration == 0.0
        assert span.kind == SpanKind.TRANSFER
        assert span.attrs == {"transfer": "shuffle", "bytes": 10}

    def test_add_span_parents_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            child_id = tracer.add_span("child", SpanKind.STAGE, duration=1.5)
        child = next(s for s in tracer.spans if s.span_id == child_id)
        assert child.parent_id == outer.span_id
        assert child.duration == 1.5

    def test_ids_are_sequential_from_zero(self):
        tracer = Tracer()
        ids = [tracer.add_span(f"s{i}", SpanKind.STAGE) for i in range(4)]
        assert ids == [0, 1, 2, 3]

    def test_reset_restarts_ids(self):
        tracer = Tracer()
        tracer.add_span("a", SpanKind.STAGE)
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.add_span("b", SpanKind.STAGE) == 0


class TestGraft:
    def _task_trace(self):
        return {
            "name": "stage-a",
            "start": 0.0,
            "duration": 0.5,
            "attrs": {"partition": 2, "retries": 0},
            "kernels": [
                {"id": 2, "parent": 1, "name": "inner-kernel",
                 "kind": SpanKind.KERNEL, "start": 0.0, "duration": 0.1,
                 "attrs": {}},
                {"id": 1, "parent": 0, "name": "outer-kernel",
                 "kind": SpanKind.KERNEL, "start": 0.0, "duration": 0.2,
                 "attrs": {"rows": 8}},
            ],
        }

    def test_graft_builds_task_subtree(self):
        tracer = Tracer()
        stage_id = tracer.add_span("stage-a", SpanKind.STAGE)
        task_id = tracer.graft(stage_id, self._task_trace())
        by_name = {s.name: s for s in tracer.spans if s.kind == SpanKind.KERNEL}
        task = next(s for s in tracer.spans if s.span_id == task_id)
        assert task.kind == SpanKind.TASK
        assert task.parent_id == stage_id
        assert task.attrs == {"partition": 2, "retries": 0}
        # Kernel records are re-parented via their buffer-relative ids,
        # in id order regardless of the buffer's (completion) order.
        outer = by_name["outer-kernel"]
        inner = by_name["inner-kernel"]
        assert outer.parent_id == task_id
        assert inner.parent_id == outer.span_id
        assert outer.span_id < inner.span_id

    def test_graft_ids_deterministic(self):
        ids = []
        for _ in range(2):
            tracer = Tracer()
            stage_id = tracer.add_span("stage-a", SpanKind.STAGE)
            tracer.graft(stage_id, self._task_trace())
            ids.append([s.span_id for s in sorted(tracer.spans,
                                                  key=lambda s: s.name)])
        assert ids[0] == ids[1]


class TestTaskContext:
    def teardown_method(self):
        deactivate_task_context()

    def test_no_context_returns_shared_null_span(self):
        assert current_task_context() is None
        span_a = kernel_span("k", rows=1)
        span_b = kernel_span("k2")
        assert span_a is span_b  # shared no-op instance
        with span_a as opened:
            opened.set(ignored=True)  # must not raise

    def test_kernel_span_records_into_context(self):
        context = TaskTraceContext()
        activate_task_context(context)
        with kernel_span("matmul", m=4, n=8) as span:
            span.set(k=2)
        assert len(context.kernels) == 1
        record = context.kernels[0]
        assert record["name"] == "matmul"
        assert record["parent"] == 0  # the task itself
        assert record["attrs"] == {"m": 4, "n": 8, "k": 2}

    def test_nested_kernel_spans_use_relative_parents(self):
        context = TaskTraceContext()
        activate_task_context(context)
        with kernel_span("outer"):
            with kernel_span("inner"):
                pass
        inner, outer = context.kernels  # completion order: inner closes first
        assert outer["name"] == "outer" and outer["parent"] == 0
        assert inner["parent"] == outer["id"]

    def test_record_metric_accumulates(self):
        context = TaskTraceContext()
        activate_task_context(context)
        record_metric("ops_total", op="or")
        record_metric("ops_total", op="or")
        record_metric("ops_total", 3, op="xor")
        deltas = dict()
        for name, labels, kind, value in context.metric_deltas():
            deltas[(name, labels, kind)] = value
        assert deltas[("ops_total", (("op", "or"),), "counter")] == 2.0
        assert deltas[("ops_total", (("op", "xor"),), "counter")] == 3.0

    def test_record_metric_noop_without_context(self):
        record_metric("ops_total", op="or")  # must not raise

    def test_context_is_thread_local(self):
        activate_task_context(TaskTraceContext())
        seen = []

        def probe():
            seen.append(current_task_context())

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen == [None]
        assert current_task_context() is not None

    def test_task_trace_payload_is_picklable(self):
        context = TaskTraceContext()
        activate_task_context(context)
        with kernel_span("k", rows=2):
            record_metric("ops_total")
        payload = {"kernels": context.kernels,
                   "deltas": context.metric_deltas()}
        assert pickle.loads(pickle.dumps(payload)) == payload


class TestSpanRecord:
    def test_to_dict_round_trip(self):
        span = SpanRecord(3, 1, "s", SpanKind.KERNEL, 1.0, 0.5, {"rows": 2})
        assert span.to_dict() == {
            "span_id": 3, "parent_id": 1, "name": "s",
            "kind": SpanKind.KERNEL, "start": 1.0, "duration": 0.5,
            "attrs": {"rows": 2},
        }

    def test_kinds(self):
        assert SpanKind.ALL == (
            "stage", "task", "kernel", "transfer", "checkpoint",
            "speculation", "storage",
        )
