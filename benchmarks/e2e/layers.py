"""Layer attribution for the traced run, measured from outside the program.

:class:`Recorder` wraps the public entry points of each layer — on the
module, class or instance attribute the callers look up — and records one
span (name, start, end, parent) per call.  Nothing under ``src/`` changes:
the wrappers only time the calls and count what they return, and
:meth:`Recorder.uninstall` puts every original back.  Kernel time inside
tasks comes from the program's own ``Tracer`` kernel spans
(``ClusterConfig(tracing=True)``); byte and cache numbers from its ledger,
metrics registry and storage budget.

A layer's *self* time is its spans' duration minus the part covered by
their child spans.  The benchmark's own root spans (``setup``, ``op``,
``teardown``) frame the traced window; their self time is time that no
wrapped layer accounts for, reported as ``unattributed.s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from repro import incremental as session_module
from repro.core import decompose
from repro.core import incremental as core_incremental
from repro.distengine import SimulatedRuntime, TransferKind, makespan
from repro.observability import write_jsonl
from repro.tensor import SparseBoolTensor

#: Every per-layer metric the traced run emits, as ``(name, unit, better)``.
#: Times here are non-zero on every workload; layers only some workloads
#: run (storage tier, incremental path) are reported by counts, bytes and
#: ratios, and by extra timings in the results file.
PER_LAYER = [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("unattributed.s", "s", "lower"),
    ("core.prepare.s", "s", "lower"),
    ("core.decompose.self_s", "s", "lower"),
    ("core.update_factor.calls", "count", "lower"),
    ("core.update_factor.s", "s", "lower"),
    ("core.update_factor.self_s", "s", "lower"),
    ("core.iterations", "count", "lower"),
    ("core.columns.evaluated", "count", "lower"),
    ("core.columns.changed_ratio", "ratio", "higher"),
    ("core.column_errors.s", "s", "lower"),
    ("core.column_errors.calls", "count", "lower"),
    ("core.cache_build.s", "s", "lower"),
    ("core.cache_build.calls", "count", "lower"),
    ("bitops.kernel.s", "s", "lower"),
    ("bitops.dispatch.calls", "count", "lower"),
    ("distengine.backends.s", "s", "lower"),
    ("distengine.backends.busy_s", "s", "lower"),
    ("distengine.backends.dispatch_s", "s", "lower"),
    ("distengine.runtime.self_s", "s", "lower"),
    ("distengine.plan.self_s", "s", "lower"),
    ("distengine.broadcast.calls", "count", "lower"),
    ("distengine.broadcast.s", "s", "lower"),
    ("distengine.lifecycle.s", "s", "lower"),
    ("distengine.stages", "count", "lower"),
    ("distengine.tasks", "count", "lower"),
    ("distengine.cache_hit_ratio", "ratio", "higher"),
    ("distengine.bytes.task", "bytes", "lower"),
    ("distengine.bytes.broadcast", "bytes", "lower"),
    ("distengine.bytes.collect", "bytes", "lower"),
    ("distengine.bytes.shuffle", "bytes", "lower"),
    ("distengine.simulated_s", "s", "lower"),
    ("storage.fetch.calls", "count", "lower"),
    ("storage.fetch.s", "s", "lower"),
    ("storage.admit.s", "s", "lower"),
    ("storage.spill_events", "count", "lower"),
    ("storage.load_events", "count", "lower"),
    ("storage.load_ratio", "ratio", "lower"),
    ("storage.peak_resident_bytes", "bytes", "lower"),
    ("storage.bytes.spill", "bytes", "lower"),
    ("tensor.s", "s", "lower"),
    ("tensor.apply_delta.calls", "count", "lower"),
    ("incremental.patch.calls", "count", "lower"),
    ("incremental.columns_swept", "count", "lower"),
    ("incremental.columns_skipped", "count", "higher"),
    ("incremental.skip_ratio", "ratio", "higher"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Kernel spans the core layer owns; every other kernel span is a bitops one.
_CORE_KERNELS = {"cp.columnErrors", "cache.build"}


class Recorder:
    """Spans around layer entry points, kept in memory until written."""

    def __init__(self) -> None:
        #: ``[id, parent, name, start, end, attrs]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        #: Every runtime built while installed, for its ledger and metrics.
        self.runtimes: list[SimulatedRuntime] = []
        #: Factor columns whose bits an ``update_factor`` call changed.
        self.changed_columns = 0

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> list:
        record = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            time.perf_counter(),
            0.0,
            {},
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def timed(self, fn, name: str, after=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(record)
            if after is not None:
                after(record, args, result)
            return result

        return wrapper

    def stepped(self, fn, name: str):
        """Wrap a step generator: one span per resumption."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            try:
                while True:
                    record = recorder.open(name)
                    try:
                        event = next(generator)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        recorder.close(record)
                    record[5]["event"] = True
                    yield event
            finally:
                generator.close()

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach."""
        for module in (decompose, session_module):
            self._patch(
                module, "dbtf_steps",
                self.stepped(module.dbtf_steps, "core.decompose.step"),
            )
        self._patch(
            decompose, "prepare_partitioned_unfoldings",
            self.timed(decompose.prepare_partitioned_unfoldings, "core.prepare"),
        )
        self._patch(
            decompose, "update_factor",
            self.timed(decompose.update_factor, "core.update_factor", self._after_update),
        )
        self._patch(
            core_incremental, "unfold",
            self.timed(core_incremental.unfold, "tensor.unfold"),
        )
        prepare = core_incremental.PartitionedUnfoldings.__dict__["prepare"].__func__
        self._patch(
            core_incremental.PartitionedUnfoldings, "prepare",
            classmethod(self.timed(prepare, "core.prepare")),
        )
        for owner, attr, name in (
            (core_incremental.PartitionedUnfoldings, "patch", "incremental.patch"),
            (session_module, "dirty_columns_for_delta", "incremental.dirty_columns"),
            (session_module, "baseline_error_after_delta", "incremental.baseline_error"),
            (session_module.FactorizationSession, "advance", "incremental.advance"),
            (session_module.FactorizationSession, "factorize", "incremental.factorize"),
            (SparseBoolTensor, "apply_delta", "tensor.apply_delta"),
            (SimulatedRuntime, "run_stage", "distengine.runtime"),
            (SimulatedRuntime, "materialize", "distengine.plan"),
            (SimulatedRuntime, "broadcast", "distengine.broadcast"),
            (SimulatedRuntime, "cached_partitions", "storage.fetch"),
            (SimulatedRuntime, "admit_cache", "storage.admit"),
            (SimulatedRuntime, "close", "distengine.lifecycle"),
        ):
            self._patch(owner, attr, self.timed(getattr(owner, attr), name))
        self._patch(
            SimulatedRuntime, "__init__",
            self.timed(SimulatedRuntime.__init__, "distengine.lifecycle", self._after_init),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_init(self, record, args, result) -> None:
        """Keep the new runtime and wrap its backend's ``run_stage``."""
        runtime = args[0]
        self.runtimes.append(runtime)
        backend = runtime.backend
        slots = getattr(backend, "n_workers", None) or 1
        backend.run_stage = self.timed(
            backend.run_stage, "distengine.backends",
            functools.partial(_after_stage, slots),
        )

    def _after_update(self, record, args, result) -> None:
        before = args[1].to_dense()
        after = result[0].to_dense()
        self.changed_columns += int((before != after).any(axis=0).sum())

    # -- output --------------------------------------------------------
    def write(self, prefix: Path) -> None:
        """Benchmark spans and the program's tracer spans, as JSONL."""
        with open(f"{prefix}.spans.jsonl", "w") as stream:
            for span_id, parent, name, start, end, attrs in self.spans:
                stream.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, **attrs,
                }) + "\n")
        for index, runtime in enumerate(self.runtimes):
            if runtime.tracer is not None:
                write_jsonl(runtime.tracer, f"{prefix}.tracer{index}.jsonl")


def _after_stage(slots: int, record, args, result) -> None:
    """Task durations of one backend stage, against its ideal makespan."""
    durations = list(result.durations)
    record[5].update(
        stage=args[0],
        tasks=len(durations),
        busy_s=sum(durations),
        makespan_s=makespan(durations, slots),
    )


def summarize(recorder: Recorder, plain_s: float, traced_s: float):
    """Per-layer metrics (``PER_LAYER``) plus extra detail for the results."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in recorder.spans:
        if parent is not None:
            child_time[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    events = 0
    backend = {"busy_s": 0.0, "dispatch_s": 0.0, "stages": 0, "tasks": 0, "columns": 0}
    for span_id, parent, name, start, end, attrs in recorder.spans:
        duration = end - start
        total[name] += duration
        own[name] += duration - child_time[span_id]
        calls[name] += 1
        events += bool(attrs.get("event"))
        if name == "distengine.backends":
            backend["busy_s"] += attrs["busy_s"]
            backend["dispatch_s"] += duration - attrs["makespan_s"]
            backend["stages"] += 1
            backend["tasks"] += attrs["tasks"]
            backend["columns"] += "columnErrors" in attrs["stage"]
    roots = ("setup", "op", "teardown")

    kernel_s = defaultdict(float)
    kernel_calls = defaultdict(int)
    counters = defaultdict(float)
    dispatch = defaultdict(float)
    ledger = defaultdict(int)
    storage = defaultdict(int)
    simulated = 0.0
    for runtime in recorder.runtimes:
        if runtime.tracer is not None:
            for span in runtime.tracer.spans:
                if span.kind == "kernel":
                    kernel_s[span.name] += span.duration
                    kernel_calls[span.name] += 1
        for name, values in runtime.metrics.counters().items():
            for labels, value in values.items():
                counters[name] += value
                if name == "kernel_dispatch_total":
                    labels = dict(labels)
                    dispatch[f"{labels['kernel']}.{labels['impl']}"] += value
        for kind in TransferKind.ALL:
            ledger[kind] += runtime.ledger.bytes_of_kind(kind)
        if runtime.storage is not None:
            budget = runtime.storage.budget
            storage["spill_events"] += budget.spill_events
            storage["load_events"] += budget.load_events
            storage["peak_resident_bytes"] = max(
                storage["peak_resident_bytes"], budget.peak_resident
            )
        simulated += runtime.simulated_time()

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits = counters["cache_hits_total"]
    swept = counters["incremental_columns_swept_total"]
    skipped = counters["incremental_columns_skipped_total"]
    fetches = calls["storage.fetch"]
    metrics = {
        "trace.wall_s": sum(total[name] for name in roots),
        "trace.overhead": ratio(traced_s, plain_s) - 1.0,
        "unattributed.s": sum(own[name] for name in roots),
        "core.prepare.s": total["core.prepare"],
        "core.decompose.self_s": own["core.decompose.step"],
        "core.update_factor.calls": calls["core.update_factor"],
        "core.update_factor.s": total["core.update_factor"],
        "core.update_factor.self_s": own["core.update_factor"],
        "core.iterations": events,
        "core.columns.evaluated": backend["columns"],
        "core.columns.changed_ratio": ratio(recorder.changed_columns, backend["columns"]),
        "core.column_errors.s": kernel_s["cp.columnErrors"],
        "core.column_errors.calls": kernel_calls["cp.columnErrors"],
        "core.cache_build.s": kernel_s["cache.build"],
        "core.cache_build.calls": kernel_calls["cache.build"],
        "bitops.kernel.s": sum(
            s for name, s in kernel_s.items() if name not in _CORE_KERNELS
        ),
        "bitops.dispatch.calls": sum(dispatch.values()),
        "distengine.backends.s": total["distengine.backends"],
        "distengine.backends.busy_s": backend["busy_s"],
        "distengine.backends.dispatch_s": backend["dispatch_s"],
        "distengine.runtime.self_s": own["distengine.runtime"],
        "distengine.plan.self_s": own["distengine.plan"],
        "distengine.broadcast.calls": calls["distengine.broadcast"],
        "distengine.broadcast.s": total["distengine.broadcast"],
        "distengine.lifecycle.s": total["distengine.lifecycle"],
        "distengine.stages": backend["stages"],
        "distengine.tasks": backend["tasks"],
        "distengine.cache_hit_ratio": ratio(hits, hits + counters["partitions_cached_total"]),
        "distengine.bytes.task": ledger[TransferKind.TASK],
        "distengine.bytes.broadcast": ledger[TransferKind.BROADCAST],
        "distengine.bytes.collect": ledger[TransferKind.COLLECT],
        "distengine.bytes.shuffle": ledger[TransferKind.SHUFFLE],
        "distengine.simulated_s": simulated,
        "storage.fetch.calls": fetches,
        "storage.fetch.s": total["storage.fetch"],
        "storage.admit.s": total["storage.admit"],
        "storage.spill_events": storage["spill_events"],
        "storage.load_events": storage["load_events"],
        "storage.load_ratio": ratio(storage["load_events"], fetches),
        "storage.peak_resident_bytes": storage["peak_resident_bytes"],
        "storage.bytes.spill": ledger[TransferKind.SPILL],
        "tensor.s": total["tensor.unfold"] + total["tensor.apply_delta"],
        "tensor.apply_delta.calls": calls["tensor.apply_delta"],
        "incremental.patch.calls": calls["incremental.patch"],
        "incremental.columns_swept": swept,
        "incremental.columns_skipped": skipped,
        "incremental.skip_ratio": ratio(skipped, swept + skipped),
    }
    extra = {
        "tensor.unfold.s": total["tensor.unfold"],
        "tensor.apply_delta.s": total["tensor.apply_delta"],
        "incremental.patch.s": total["incremental.patch"],
        "incremental.dirty_columns.s": total["incremental.dirty_columns"],
        "incremental.baseline_error.s": total["incremental.baseline_error"],
        "incremental.advance.self_s": own["incremental.advance"],
        "incremental.factorize.self_s": own["incremental.factorize"],
        "distengine.lifecycle.calls": calls["distengine.lifecycle"],
    }
    for name in sorted(kernel_s):
        if name not in _CORE_KERNELS:
            extra[f"bitops.kernel.{name}.s"] = kernel_s[name]
            extra[f"bitops.kernel.{name}.calls"] = kernel_calls[name]
    for name in sorted(dispatch):
        extra[f"bitops.dispatch.{name}"] = dispatch[name]
    return metrics, extra
