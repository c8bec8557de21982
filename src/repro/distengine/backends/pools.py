"""Parallel backends: a thread pool, and resident process workers.

:class:`ThreadBackend` submits one
:func:`~repro.distengine.backends.base.execute_task` call per partition to a
thread pool and gathers outcomes in submission order.

:class:`ProcessBackend` runs a fixed set of worker processes, each with a
process-local resident store (:data:`repro.distengine.broadcast._STORE`).
Partition ``i`` runs on worker ``i % n_workers`` — or on the worker holding
its resident input, which is the same worker.  Persist points stay in the
worker that produced them while the driver keeps
:class:`~repro.distengine.backends.base.ResidentPartition` references, so a
later stage ships only references plus the task payload, the way Spark
executors keep cached partitions (paper Sec. III-E).  Broadcast values ride
once per worker on that worker's next stage message, and every stage sends
one message per worker carrying all of its partitions.

Both pools start lazily on the first stage and are reused for the rest of
the decomposition (mirroring Spark executors, which live for the whole
job); ``close()`` shuts them down.  A process worker also exits when its
pipe reaches end-of-file, so a driver that dies without ``close()`` leaves
no worker behind.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from .. import broadcast
from ..faults import FaultInjector
from ..plan import FusedChainTask
from ..shuffle import estimate_bytes
from .base import Backend, ResidentPartition, StageResult, TaskFn, execute_task

__all__ = ["ThreadBackend", "ProcessBackend"]


class _PoolBackend(Backend):
    """Shared lazy-pool lifecycle of the thread and process backends."""

    def __init__(self, n_workers: int | None = None):
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers
        self._executor = None

    def _effective_workers(self) -> int:
        return self.n_workers or os.cpu_count() or 1

    def _make_executor(self):
        raise NotImplementedError

    @property
    def executor(self):
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class ThreadBackend(_PoolBackend):
    """Tasks run concurrently on a thread pool.

    Real parallelism only where the kernels release the GIL (numpy's
    element-wise ops on large arrays do), but task payloads need not be
    picklable and nothing is copied between workers — the cheap way to
    overlap the engine's numpy-heavy stages.
    """

    name = "thread"

    def _make_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self._effective_workers(),
            thread_name_prefix="repro-stage",
        )

    def run_stage(
        self,
        stage_name: str,
        task_fn: TaskFn,
        indexed_partitions: Sequence[tuple[int, list]],
        fault_injector: FaultInjector | None = None,
        collect_trace: bool = False,
        retry_policy=None,
        retain=None,
    ) -> StageResult:
        futures = [
            self.executor.submit(
                execute_task, task_fn, stage_name, index, items,
                fault_injector, collect_trace, retry_policy,
            )
            for index, items in indexed_partitions
        ]
        try:
            outcomes = [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return StageResult.from_outcomes(outcomes)


# ----------------------------------------------------------------------
# Process workers
# ----------------------------------------------------------------------
#: Driver ends of every live worker pipe in this process.  A forked child
#: closes its inherited copies, so a worker's pipe reaches end-of-file as
#: soon as the driver itself is gone.
_DRIVER_ENDS: set = set()


def _close_inherited_driver_ends() -> None:
    for conn in _DRIVER_ENDS:
        conn.close()
    _DRIVER_ENDS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_driver_ends)


def _retain(store, worker, index, task_fn, result, retain):
    """Keep a task's persist-point outputs in ``store``; return references."""
    scope, keep = retain

    def put(position, items):
        key = (scope, keep[position], index)
        store[key] = items
        return ResidentPartition(key, worker, len(items), estimate_bytes(items))

    if not isinstance(task_fn, FusedChainTask):
        return put(0, result)
    ((final, captured),) = result
    captured = [(position, put(position, items)) for position, items in captured]
    last = len(task_fn.fns) - 1
    if last in keep:
        final = put(last, final)
    return [(final, captured)]


def _run_tasks(
    store, worker, task_fn, stage_name, injector, collect_trace,
    retry_policy, retain, broadcasts, tasks,
):
    store.update(broadcasts)
    outcomes = []
    for index, items in tasks:
        try:
            if isinstance(items, ResidentPartition):
                items = store[items.key]
            outcome = execute_task(
                task_fn, stage_name, index, items, injector, collect_trace,
                retry_policy,
            )
        except Exception as exc:
            return ("error", index, exc, traceback.format_exc())
        if retain is not None:
            outcome = replace(
                outcome,
                result=_retain(
                    store, worker, index, task_fn, outcome.result, retain
                ),
            )
        outcomes.append(outcome)
    return ("ok", outcomes)


def _fetch(store, _worker, keys, release):
    take = store.pop if release else store.__getitem__
    return ("ok", [take(key) for key in keys])


def _release(store, _worker, scope, node_id):
    doomed = [
        key for key in store
        if key[0] == scope and (node_id is None or key[1] == node_id)
    ]
    for key in doomed:
        del store[key]
    return ("ok", len(doomed))


def _count(store, _worker):
    return ("ok", len(store))


_HANDLERS = {
    "stage": _run_tasks,
    "fetch": _fetch,
    "release": _release,
    "count": _count,
}


def _serve(conn, worker: int) -> None:
    """Worker main loop: answer driver requests until the pipe closes."""
    store = broadcast._STORE
    store.clear()  # a forked worker starts without the driver's entries
    while True:
        try:
            op, *args = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        # The loop must outlive any failure: it is reported to the driver,
        # which re-raises it with this traceback attached.
        try:
            reply = _HANDLERS[op](store, worker, *args)
        except Exception as exc:
            reply = ("error", None, exc, traceback.format_exc())
        try:
            data = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((
                "error", None, RuntimeError(f"unpicklable reply: {exc!r}"),
                traceback.format_exc(),
            ))
        conn.send_bytes(data)


class _WorkerPool:
    """A fixed set of worker processes, each behind one duplex pipe."""

    def __init__(self, n_workers: int):
        # Fork where available, as the process pool before this one did:
        # a runtime starts its pool at its first stage, and a forked pair
        # of workers is ready in ~6 ms where spawned ones need ~0.8 s
        # (2-vCPU host) — paid again by every solve that opens a runtime.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._lock = threading.Lock()
        self.conns = []
        self.processes = []
        for worker in range(n_workers):
            driver_end, worker_end = context.Pipe()
            _DRIVER_ENDS.add(driver_end)
            process = context.Process(
                target=_serve, args=(worker_end, worker),
                name=f"repro-worker-{worker}", daemon=True,
            )
            process.start()
            worker_end.close()
            self.conns.append(driver_end)
            self.processes.append(process)

    @property
    def size(self) -> int:
        return len(self.conns)

    @staticmethod
    def encode(messages: dict) -> dict:
        """Pickle every message up front, so nothing is sent on failure."""
        return {
            worker: pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            for worker, message in messages.items()
        }

    def exchange(self, payloads: dict) -> dict:
        """Send each worker its payload, then gather every reply.

        Replies are drained from every worker before the failure with the
        lowest partition index (the one a serial run would hit first) is
        re-raised, so the pipes stay in step after a failed stage.
        """
        replies, errors = {}, []
        with self._lock:
            for worker, data in payloads.items():
                self.conns[worker].send_bytes(data)
            for worker in payloads:
                try:
                    reply = pickle.loads(self.conns[worker].recv_bytes())
                except (EOFError, OSError):
                    reply = (
                        "error", None,
                        RuntimeError(f"process worker {worker} exited"), "",
                    )
                if reply[0] == "ok":
                    replies[worker] = reply[1]
                else:
                    errors.append(reply[1:])
        if errors:
            _, exc, remote = min(
                errors, key=lambda error: -1 if error[0] is None else error[0]
            )
            raise exc from RuntimeError(f"in a process worker:\n{remote}")
        return replies

    def request(self, messages: dict) -> dict:
        return self.exchange(self.encode(messages))

    def shutdown(self) -> None:
        for conn in self.conns:
            _DRIVER_ENDS.discard(conn)
            conn.close()
        for process in self.processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join()


class ProcessBackend(_PoolBackend):
    """Tasks run on resident worker processes — multi-core parallelism.

    Task payloads and non-resident inputs cross the process boundary by
    pickle, so stage functions must be module-level callables carrying
    their broadcast handles as attributes (no captured locals); see
    ``_BuildCachedPartitionFromHandle`` / ``_ColumnErrorsDeltaTask`` in
    :mod:`repro.core.update` for the pattern.  Persisted outputs stay in
    the workers (see the module docstring) until the runtime releases them.
    """

    name = "process"

    # Workers live in other interpreters: persisted partitions and
    # broadcast values are kept in their resident stores.
    shares_driver_memory = False

    def __init__(self, n_workers: int | None = None):
        super().__init__(n_workers)
        #: Broadcast values not yet shipped to every worker:
        #: ``key -> (value, workers already holding it)``.
        self._unshipped: dict[tuple, tuple[object, set]] = {}

    def _make_executor(self) -> _WorkerPool:
        return _WorkerPool(self._effective_workers())

    def register_broadcast(self, handle) -> None:
        self._unshipped[handle.key] = (handle.value, set())

    def _broadcasts_for(self, worker: int) -> list:
        return [
            (key, value)
            for key, (value, holders) in self._unshipped.items()
            if worker not in holders
        ]

    def _mark_shipped(self, workers, n_workers: int) -> None:
        for key, (_, holders) in list(self._unshipped.items()):
            holders.update(workers)
            if len(holders) >= n_workers:
                del self._unshipped[key]

    def run_stage(
        self,
        stage_name: str,
        task_fn: TaskFn,
        indexed_partitions: Sequence[tuple[int, list]],
        fault_injector: FaultInjector | None = None,
        collect_trace: bool = False,
        retry_policy=None,
        retain=None,
    ) -> StageResult:
        pool = self.executor
        batches: dict[int, list] = {}
        for position, (index, items) in enumerate(indexed_partitions):
            worker = (
                items.worker if isinstance(items, ResidentPartition)
                else index % pool.size
            )
            batches.setdefault(worker, []).append((position, index, items))
        payloads = pool.encode({
            worker: (
                "stage", task_fn, stage_name, fault_injector, collect_trace,
                retry_policy, retain, self._broadcasts_for(worker),
                [(index, items) for _, index, items in batch],
            )
            for worker, batch in batches.items()
        })
        self._mark_shipped(batches.keys(), pool.size)
        replies = pool.exchange(payloads)
        outcomes = [None] * len(indexed_partitions)
        for worker, batch in batches.items():
            for (position, _, _), outcome in zip(batch, replies[worker]):
                outcomes[position] = outcome
        return StageResult.from_outcomes(outcomes)

    def fetch(self, partitions: list, release: bool = False) -> list:
        wanted: dict[int, list[int]] = {}
        for position, partition in enumerate(partitions):
            if isinstance(partition, ResidentPartition):
                wanted.setdefault(partition.worker, []).append(position)
        if not wanted:
            return partitions
        replies = self.executor.request({
            worker: ("fetch", [partitions[p].key for p in positions], release)
            for worker, positions in wanted.items()
        })
        fetched = list(partitions)
        for worker, positions in wanted.items():
            for position, items in zip(positions, replies[worker]):
                fetched[position] = items
        return fetched

    def release(self, scope: int, node_id: "int | None" = None) -> None:
        if node_id is None:
            for key in [key for key in self._unshipped if key[0] == scope]:
                del self._unshipped[key]
        if self._executor is not None:
            self._executor.request({
                worker: ("release", scope, node_id)
                for worker in range(self._executor.size)
            })

    def resident_entries(self) -> list[int]:
        """Per-worker resident-store entry counts (leak diagnostic).

        Empty while the pool has not started.
        """
        if self._executor is None:
            return []
        replies = self._executor.request(
            {worker: ("count",) for worker in range(self._executor.size)}
        )
        return [replies[worker] for worker in range(self._executor.size)]
