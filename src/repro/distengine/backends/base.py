"""The stage-executor seam: where partition tasks actually run.

A :class:`Backend` executes one *stage* — one task per partition — and
returns, per task, the produced partition, the measured duration, and how
many injected fault retries the task survived.  Everything the cost model
consumes (per-task durations, failure counts, shuffle bytes) is measured
*inside* the task, so the numbers are identical whether tasks run
inline in the driver or on worker processes: the replayed
``simulated_time`` is backend-invariant while the host's wall-clock time is
not.  See DESIGN.md "Execution backends".

Fault-injection retries live inside :func:`execute_task` (i.e. inside the
worker) rather than in the driver loop, so failure counts aggregate
correctly even when tasks of one stage finish out of order.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..faults import FaultInjector, TaskFailedError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ...resilience import RetryPolicy
from ...observability.trace import (
    TaskTraceContext,
    activate_task_context,
    deactivate_task_context,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "ResidentPartition",
    "TaskOutcome",
    "StageResult",
    "execute_task",
]

#: Names accepted by ``make_backend`` / ``ClusterConfig.backend``.
BACKEND_NAMES = ("serial", "process")

#: ``fn(partition_index, items) -> iterable`` — the unit of distributed work.
TaskFn = Callable[[int, list], Iterable[Any]]


class ResidentPartition:
    """Driver-side reference to a partition kept in a worker's store.

    Backends that do not share driver memory keep persisted partitions in
    the worker that produced them; the driver's ``node.cached`` then holds
    these references instead of the items.  A reference answers ``len()``
    with the partition's element count and carries ``nbytes``, the
    :func:`~repro.distengine.shuffle.estimate_bytes` of the real items
    measured in the worker, so partition counts, storage-tier admission and
    every ledger charge are the same as for driver-resident partitions.
    ``key`` is ``(runtime scope, node id, partition index)``.
    """

    __slots__ = ("key", "worker", "length", "nbytes")

    def __init__(self, key: tuple, worker: int, length: int, nbytes: int):
        self.key = key
        self.worker = worker
        self.length = length
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"ResidentPartition(key={self.key}, worker={self.worker}, "
            f"length={self.length}, nbytes={self.nbytes})"
        )


@dataclass(frozen=True)
class TaskOutcome:
    """What one partition task reports back to the driver.

    ``trace`` is the task's span sub-tree (a picklable dict, ``None`` when
    tracing is off) and ``metric_deltas`` the worker-side metric increments
    — both produced by the :class:`~repro.observability.trace.
    TaskTraceContext` active while the task ran, so they survive the trip
    back from a process-pool worker.
    """

    index: int
    result: list
    duration: float
    failures: int
    trace: dict | None = None
    metric_deltas: tuple = ()
    #: Simulated backoff seconds this task spent waiting between retry
    #: attempts (always 0.0 without a retry policy; never slept for real).
    retry_wait: float = 0.0


@dataclass(frozen=True)
class StageResult:
    """Per-task outputs of one stage, ordered by partition index.

    Iteration keeps the historical ``(results, durations, failure_counts)``
    triple; trace and metric payloads are reached by attribute.
    """

    results: list[list]
    durations: list[float]
    failure_counts: list[int]
    traces: list = field(default_factory=list)
    metric_deltas: list = field(default_factory=list)
    retry_waits: list = field(default_factory=list)

    @classmethod
    def from_outcomes(cls, outcomes: "Sequence[TaskOutcome]") -> "StageResult":
        return cls(
            results=[outcome.result for outcome in outcomes],
            durations=[outcome.duration for outcome in outcomes],
            failure_counts=[outcome.failures for outcome in outcomes],
            traces=[outcome.trace for outcome in outcomes],
            metric_deltas=[outcome.metric_deltas for outcome in outcomes],
            retry_waits=[outcome.retry_wait for outcome in outcomes],
        )

    def __iter__(self):
        return iter((self.results, self.durations, self.failure_counts))


def execute_task(
    task_fn: TaskFn,
    stage_name: str,
    index: int,
    items: list,
    injector: FaultInjector | None,
    collect_trace: bool = False,
    retry_policy: "RetryPolicy | None" = None,
) -> TaskOutcome:
    """Run one partition task, timing each attempt and retrying faults.

    This is the function every backend runs per task, inside its workers
    (a :class:`ProcessBackend` worker calls it in its own process).  With
    a fault injector, attempts chosen by the injector fail *after* doing
    their work — the lost attempt's duration still counts toward the
    stage, as on a real cluster — and the task retries up to its budget
    before raising :class:`TaskFailedError`.

    A :class:`~repro.resilience.RetryPolicy` replaces the injector's fixed
    ``max_retries`` with its own budget and charges a simulated exponential
    backoff wait before each re-execution (accumulated in
    ``TaskOutcome.retry_wait`` — never slept for real), optionally failing
    the task once compute time plus backoff exceeds ``deadline_sec``.  The
    backoff jitter is a seeded hash, so the wait accounting is identical
    under every backend.

    With ``collect_trace`` a :class:`TaskTraceContext` is active for the
    whole call (all attempts), so kernel spans and metric increments from
    inside the task land in the outcome regardless of backend.  The fault
    injector is deterministic, so the kernel spans of retried attempts —
    which a real cluster would also re-execute — appear identically under
    every backend.
    """
    context = TaskTraceContext() if collect_trace else None
    if context is not None:
        activate_task_context(context)
    task_time = 0.0
    attempt = 0
    failures = 0
    retry_wait = 0.0
    try:
        while True:
            started = time.perf_counter()
            result = list(task_fn(index, items))
            task_time += time.perf_counter() - started
            failed = injector is not None and injector.should_fail(
                stage_name, index, attempt
            )
            if not failed:
                break
            failures += 1
            attempt += 1
            max_retries = (
                retry_policy.max_retries
                if retry_policy is not None
                else injector.max_retries
            )
            if attempt > max_retries:
                raise TaskFailedError(
                    f"task {index} of stage {stage_name!r} failed {attempt} "
                    f"times (waited {retry_wait:.3f}s of simulated retry "
                    f"backoff)",
                    stage=stage_name,
                    partition=index,
                    attempts=attempt,
                    retry_wait=retry_wait,
                )
            if retry_policy is not None:
                retry_wait += retry_policy.backoff_delay(
                    stage_name, index, attempt
                )
                deadline = retry_policy.deadline_sec
                if deadline is not None and task_time + retry_wait > deadline:
                    raise TaskFailedError(
                        f"task {index} of stage {stage_name!r} failed "
                        f"{attempt} times (waited {retry_wait:.3f}s of "
                        f"simulated retry backoff): deadline of {deadline}s "
                        f"exceeded",
                        stage=stage_name,
                        partition=index,
                        attempts=attempt,
                        retry_wait=retry_wait,
                    )
    finally:
        if context is not None:
            deactivate_task_context()
    trace = None
    metric_deltas: tuple = ()
    if context is not None:
        attrs = {"partition": index, "retries": failures}
        if retry_wait > 0.0:
            # Only present with a retry policy and actual retries, so the
            # no-fault golden trace structure is unchanged.
            attrs["retry_wait"] = retry_wait
        trace = {
            "name": stage_name,
            "start": 0.0,
            "duration": task_time,
            "attrs": attrs,
            "kernels": context.kernels,
        }
        metric_deltas = context.metric_deltas()
    return TaskOutcome(
        index, result, task_time, failures, trace, metric_deltas, retry_wait
    )


class Backend(ABC):
    """Executes the tasks of one stage and reports measured outcomes.

    Implementations must preserve two invariants that make backends
    interchangeable under the cost model:

    * results, durations, and failure counts come back ordered by partition
      index, regardless of completion order;
    * timing and fault retries happen inside :func:`execute_task`, so the
      metered numbers do not depend on scheduling.
    """

    name = "abstract"

    #: Whether workers see the driver's objects directly.  Backends that
    #: cross a process boundary set this False, which tells the runtime to
    #: keep persisted partitions worker-resident (``retain``) and to hand
    #: broadcast values to :meth:`register_broadcast`.
    shares_driver_memory = True

    @abstractmethod
    def run_stage(
        self,
        stage_name: str,
        task_fn: TaskFn,
        indexed_partitions: Sequence[tuple[int, list]],
        fault_injector: FaultInjector | None = None,
        collect_trace: bool = False,
        retry_policy: "RetryPolicy | None" = None,
        retain: "Sequence | None" = None,
    ) -> StageResult:
        """Run ``task_fn`` over every ``(index, items)`` pair.

        ``collect_trace`` asks each task to record its kernel spans and
        metric increments (see :func:`execute_task`); the driver grafts
        them into its tracer afterwards.  ``retry_policy`` overrides the
        injector's retry budget and charges simulated backoff waits (see
        :func:`execute_task`).  ``retain`` has one entry per task: ``None``,
        or ``{chain position: key}`` naming the outputs a worker-memory
        backend keeps resident under ``key``; backends sharing driver memory
        ignore it.
        """

    def fetch(self, partitions: list, release: bool = False) -> list:
        """``partitions`` with every :class:`ResidentPartition` pulled back.

        Unmetered, like broadcast resolution.  ``release`` also drops the
        fetched entries from the workers.  Backends sharing driver memory
        never hand out references, so this is the identity for them.
        """
        return partitions

    def release(self, scope: int, node_id: "int | None" = None) -> None:
        """Drop worker-resident entries of one runtime ``scope``.

        Only the partitions of ``node_id`` when given, else every partition
        and broadcast value of the scope.  A no-op without worker state.
        """

    def register_broadcast(self, handle) -> None:
        """Queue a broadcast value for the workers (no-op in driver memory)."""

    def release_broadcast(self, key: tuple) -> None:
        """Drop the broadcast value stored under ``key`` from the workers
        (no-op in driver memory)."""

    def close(self) -> None:
        """Release worker resources; the backend is reusable until closed."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
